"""Incremental verification == full verification: the differential net.

``PassManager`` verifies after a pass only what the pass changed, from
the :class:`~repro.ir.core.ChangeSet` the mutation primitives of
``repro.ir.core`` filled (:func:`~repro.ir.verifier.verify_changes`);
``verify`` stays the oracle, as ``apply_patterns_naive`` is for the
worklist driver.  This suite holds the two to one verdict:

* *accept side* — every pass of every golden-asm case (the nine named
  pipelines over the Table 1 builders, the raw flows, the tuner's
  schedule spaces) and of ``lowlevel`` over the handwritten kernels,
  run under the recorder: after each pass ``verify`` accepts and so do
  the incremental checks on their own;
* *reject side* — after a random pass of a small kernel, one random
  mutation **through the primitives** (:data:`MUTATIONS`: most corrupt
  the IR, some leave it valid): the incremental checks reject exactly
  when ``verify`` does, and ``verify_changes`` raises ``verify``'s
  exception, type and message.  Every kind of corruption also has an
  explicit, deterministic example (:data:`EXPLICIT`);
* the recorder's own contract — an empty change set visits no op, two
  threads never see each other's events or rewrite counts, a pass that
  raises leaves no recorder behind, a manager run from inside a pass
  reports to the outer one, and what only a raw poke can break (use
  lists, parent links) is still checked wherever the recorder points.
"""

import functools
import threading

import pytest
from hypothesis import given, settings, strategies as st

from test_golden_asm import CASES

from repro import kernels
from repro.compiler import Compiler
from repro.dialects import arith, riscv_scf
from repro.ir import verifier
from repro.ir.core import (
    RECORDING,
    Block,
    ChangeSet,
    IRError,
    Operation,
    Region,
)
from repro.ir.parser import parse_module
from repro.ir.pass_manager import LambdaPass, PassManager
from repro.ir.printer import print_op
from repro.ir.traits import IsTerminator
from repro.ir.verifier import VerificationError, verify, verify_changes
from repro.kernels import lowlevel
from repro.transforms.pipelines import NAMED_PIPELINES, build_pipeline


def recorded(mutate, changes=None) -> ChangeSet:
    """Run ``mutate()`` the way ``PassManager.run`` runs a pass: with
    the mutation primitives noting into ``changes``."""
    changes = ChangeSet() if changes is None else changes
    RECORDING.changes = changes
    try:
        mutate()
    finally:
        RECORDING.changes = None
    return changes


def verdict(check):
    """``None`` if ``check()`` accepts, else (exception type, message)."""
    try:
        check()
    except Exception as error:  # hooks are arbitrary code
        return type(error), str(error)
    return None


def assert_same_verdict(module, changes):
    """The differential property; returns ``verify``'s verdict."""
    full = verdict(lambda: verify(module))
    if module not in changes.placed:
        incremental = verdict(
            lambda: verifier._check_changes(module, changes)
        )
        assert (incremental is None) == (full is None), (
            f"incremental says {incremental}, verify says {full}"
        )
    # A huge ``size`` keeps verify_changes on the incremental route.
    public = verdict(lambda: verify_changes(module, changes, 10**9))
    assert public == full
    return full


# -- accept side ----------------------------------------------------------------


def _lowlevel_cases():
    builders = {
        "sum_f32-2x4": lambda: lowlevel.lowlevel_sum_f32(2, 4)[0],
        "relu_f32-2x4": lambda: lowlevel.lowlevel_relu_f32(2, 4)[0],
        "matmul_t_f32-8x4": lambda: lowlevel.lowlevel_matmul_t_f32(8, 4)[0],
        "fill_f64-2x4": lambda: lowlevel.lowlevel_fill_f64(2, 4)[0],
    }
    return {
        f"lowlevel/{name}": (build, "lowlevel")
        for name, build in builders.items()
    }


ACCEPT_CASES = {**CASES, **_lowlevel_cases()}


def test_accept_side_covers_every_named_pipeline():
    pipelines = {pipeline for _, pipeline in ACCEPT_CASES.values()}
    assert set(NAMED_PIPELINES) <= pipelines
    assert len(ACCEPT_CASES) >= 300


@pytest.mark.parametrize("case_id", sorted(ACCEPT_CASES))
def test_every_pass_is_accepted_by_both(case_id):
    build, pipeline = ACCEPT_CASES[case_id]
    module = build()
    for pass_ in build_pipeline(pipeline).passes:
        changes = recorded(lambda: pass_.run(module))
        verify(module)
        if module not in changes.placed:
            verifier._check_changes(module, changes)


# -- reject side ----------------------------------------------------------------


def _two_functions():
    """A module of two kernels: values of another function exist."""
    module, _ = kernels.matmul(2, 4, 2)
    other, _ = kernels.relu(2, 2)
    func = other.block.first_op
    func.detach()
    module.block.add_op(func)
    return module


#: Small kernels x the pipelines that differ in structure.
BASES = [
    (lambda: kernels.matmul(2, 4, 2)[0], "ours"),
    (lambda: kernels.matmul(2, 4, 2)[0], "table3-streams"),
    (lambda: kernels.matmul(1, 4, 2)[0], "table3-baseline"),
    (lambda: kernels.conv3x3(2, 2)[0], "ours"),
    (lambda: kernels.relu(2, 4)[0], "clang"),
    (lambda: kernels.sum_kernel(2, 2)[0], "mlir"),
    (lambda: lowlevel.lowlevel_sum_f32(2, 2)[0], "lowlevel"),
    (_two_functions, "ours"),
    (_two_functions, "table3-baseline"),
]


@functools.cache
def _stage_text(base: int, stage: int) -> str:
    """The IR of ``BASES[base]`` after ``stage`` passes, as text."""
    build, pipeline = BASES[base]
    if stage == 0:
        return print_op(build())
    module = parse_module(_stage_text(base, stage - 1))
    build_pipeline(pipeline).passes[stage - 1].run(module)
    return print_op(module)


@functools.cache
def _num_passes(base: int) -> int:
    return len(build_pipeline(BASES[base][1]).passes)


def _ops(module):
    return list(module.walk())[1:]


def _values(module):
    values = []
    for op in module.walk():
        values.extend(op.results)
        for region in op.regions:
            for block in region.blocks:
                values.extend(block.args)
    return values


def _blocks(module):
    return [
        block
        for op in module.walk()
        for region in op.regions
        for block in region.blocks
    ]


def _clonable(module):
    return [
        op
        for op in _ops(module)
        if not op.regions and not op.has_trait(IsTerminator)
    ]


# Each mutation takes the module and ``pick`` (choose one of a
# non-empty list) and mutates through ``repro.ir.core`` only; it gives
# up silently when the module offers it nothing to work on.


def move_op(module, pick):
    """Detach any op and put it before any other: earlier, later, into
    or out of a loop body, into another function."""
    op = pick(_ops(module))
    anchors = [
        other
        for other in _ops(module)
        if other is not op and not op.is_ancestor_of(other)
    ]
    if anchors:
        anchor = pick(anchors)
        op.detach()
        anchor.parent.insert_op_before(op, anchor)


def use_before_def(module, pick):
    """Swap two ops of a block so a use precedes its definition."""
    pairs = [
        (op, use.operation)
        for op in _ops(module)
        for result in op.results
        for use in result.uses
        if use.operation.parent is op.parent
    ]
    if pairs:
        definition, user = pick(pairs)
        user.detach()
        definition.parent.insert_op_before(user, definition)


def move_region_op(module, pick):
    """Move an op with a region into or out of another op's body."""
    with_regions = [op for op in _ops(module) if op.regions]
    if with_regions:
        op = pick(with_regions)
        anchors = [
            other
            for other in _ops(module)
            if other is not op
            and not op.is_ancestor_of(other)
            and other.parent is not op.parent
        ]
        if anchors:
            anchor = pick(anchors)
            op.detach()
            anchor.parent.insert_op_before(op, anchor)


def rewire_operand(module, pick):
    """``set_operand`` to any value of the module: later-defined,
    wrong-typed, from another function, or fine."""
    users = [op for op in _ops(module) if len(op.operands)]
    if users:
        op = pick(users)
        index = pick(list(range(len(op.operands))))
        op.set_operand(index, pick(_values(module)))


def append_operand(module, pick):
    pick(_ops(module)).add_operand(pick(_values(module)))


def insert_after_terminator(module, pick):
    terminators = [
        op for op in _ops(module) if op.has_trait(IsTerminator)
    ]
    sources = _clonable(module)
    if terminators and sources:
        terminator = pick(terminators)
        terminator.parent.insert_op_after(
            pick(sources).clone({}), terminator
        )


def detach_used(module, pick):
    """Take out an op whose result is still used."""
    used = [
        op
        for op in _ops(module)
        if any(result.uses for result in op.results)
    ]
    if used:
        pick(used).detach()


def detach_any(module, pick):
    pick(_ops(module)).detach()


def erase_terminator(module, pick):
    """Drop a body's terminator."""
    terminators = [
        op for op in _ops(module) if op.has_trait(IsTerminator)
    ]
    if terminators:
        pick(terminators).erase()


def retype_value(module, pick):
    """``set_type`` a value to another value's type."""
    values = _values(module)
    if values:
        pick(values).set_type(pick(values).type)


def remove_attribute(module, pick):
    attributed = [op for op in _ops(module) if op.attributes]
    if attributed:
        op = pick(attributed)
        op.remove_attribute(pick(sorted(op.attributes)))


def swap_attribute(module, pick):
    """Overwrite an attribute with some other op's attribute."""
    attributed = [op for op in _ops(module) if op.attributes]
    if attributed:
        op, donor = pick(attributed), pick(attributed)
        op.set_attribute(
            pick(sorted(op.attributes)),
            donor.attributes[pick(sorted(donor.attributes))],
        )


def cross_isolation(module, pick):
    """Make an op inside a function use a value defined outside it."""
    sources = [
        op
        for op in _clonable(module)
        if not len(op.operands)
        and len(op.results) == 1
        and op.results[0].uses
    ]
    if sources:
        source = pick(sources)
        outside = source.clone({})
        module.block.insert_op_before(outside, module.block.first_op)
        use = pick(list(source.results[0].uses))
        use.operation.set_operand(use.index, outside.results[0])


def add_block_argument(module, pick):
    """Change a body's block-argument list."""
    pick(_blocks(module)).add_arg(pick(_values(module)).type)


def swap_body_block(module, pick):
    """Replace a body block by an empty one."""
    owners = [op for op in _ops(module) if op.regions]
    if owners:
        region = pick(owners).regions[0]
        if region.blocks:
            region.detach_block(region.blocks[0])
        region.add_block(Block())


def detach_body(module, pick):
    owners = [op for op in _ops(module) if op.regions]
    if owners:
        op = pick(owners)
        op.detach_region(op.regions[0])


def duplicate_op(module, pick):
    """(Valid.)  Clone an op right after itself."""
    sources = _clonable(module)
    if sources:
        source = pick(sources)
        source.parent.insert_op_after(source.clone({}), source)


def insert_rewired_clone(module, pick):
    """A new op: some op's clone with one operand swapped for any
    value, put after the original."""
    sources = [op for op in _clonable(module) if len(op.operands)]
    if sources:
        source = pick(sources)
        swapped = pick(list(source.operands))
        clone = source.clone({id(swapped): pick(_values(module))})
        source.parent.insert_op_after(clone, source)


def erase_dead(module, pick):
    """(Valid, unless a hook wants the op.)  Erase an unused op."""
    dead = [
        op
        for op in _clonable(module)
        if not any(result.uses for result in op.results)
    ]
    if dead:
        pick(dead).erase()


MUTATIONS = [
    move_op,
    use_before_def,
    move_region_op,
    rewire_operand,
    append_operand,
    insert_after_terminator,
    detach_used,
    detach_any,
    erase_terminator,
    retype_value,
    remove_attribute,
    swap_attribute,
    cross_isolation,
    add_block_argument,
    swap_body_block,
    detach_body,
    duplicate_op,
    insert_rewired_clone,
    erase_dead,
]


def _mutate_after_pass(base, stage, with_pass, mutation, pick):
    """Parse the IR before pass ``stage``, record that pass (or not)
    and ``mutation`` into one change set, compare the verdicts."""
    module = parse_module(_stage_text(base, stage))
    changes = ChangeSet()
    if with_pass and stage < _num_passes(base):
        pass_ = build_pipeline(BASES[base][1]).passes[stage]
        recorded(lambda: pass_.run(module), changes)
    recorded(lambda: mutation(module, pick), changes)
    return assert_same_verdict(module, changes)


#: Hypothesis examples per mutation (x 19 mutations >= 2000).
EXAMPLES = 110


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.__name__)
@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(data=st.data())
def test_incremental_rejects_iff_full_rejects(mutation, data):
    base = data.draw(st.integers(0, len(BASES) - 1), label="base")
    stage = data.draw(st.integers(0, _num_passes(base)), label="stage")
    with_pass = data.draw(st.booleans(), label="with_pass")

    def pick(candidates):
        index = data.draw(st.integers(0, len(candidates) - 1))
        return candidates[index]

    _mutate_after_pass(base, stage, with_pass, mutation, pick)


def test_reject_side_example_floor():
    assert len(MUTATIONS) * EXAMPLES >= 2000


def _picks(*indices):
    """A ``pick`` taking the candidates at ``indices`` in turn (the
    last one again once they run out)."""
    remaining = list(indices)

    def pick(candidates):
        index = remaining.pop(0) if len(remaining) > 1 else remaining[0]
        return candidates[index % len(candidates)]

    return pick


#: One deterministic, certainly rejected example per kind of
#: corruption: (mutation, base, stage, indices to pick, message part).
EXPLICIT = [
    (use_before_def, 0, 6, (3,), "does not dominate"),
    (move_op, 0, 10, (-1,), "terminator is not the last"),
    # ... and an unused integer op into an FP-only hardware loop: only
    # the hook of the op around its new place objects.
    (move_op, 0, 7, (5, 39), "only FP and stream instructions"),
    (move_region_op, 2, 2, (2,), "does not dominate"),
    # set_operand to a later-defined value, to a wrong-typed one, to
    # one of another function.
    (rewire_operand, 0, 6, (3, 0, 20), "does not dominate"),
    (rewire_operand, 0, 6, (7,), "has type"),
    (rewire_operand, 7, 5, (3, 0, -1), "does not dominate"),
    (append_operand, 0, 6, (1,), "expected 1 operand(s), got 2"),
    (insert_after_terminator, 0, 6, (2,), "terminator is not the last"),
    (detach_used, 0, 6, (3,), "does not dominate"),
    (erase_terminator, 0, 6, (1,), "must end with"),
    # set_type breaking the definer, only a user, only the op around.
    (retype_value, 0, 6, (3, -1), "result 'rd' has type"),
    (retype_value, 0, 11, (0, 7), "operand 'rs' has type"),
    (retype_value, 0, 5, (16, -3), "first body argument"),
    (remove_attribute, 0, 2, (2,), "missing attribute"),
    (cross_isolation, 0, 6, (0,), "does not dominate"),
    (add_block_argument, 0, 6, (3,), "arity mismatch"),
    (swap_body_block, 0, 6, (-2,), "first body argument"),
    (detach_body, 0, 6, (0,), "expected 1 region(s), got 0"),
    (insert_rewired_clone, 0, 6, (3, 0, 7), "operand 'rs' has type"),
]


@pytest.mark.parametrize(
    "mutation, base, stage, pick, message",
    EXPLICIT,
    ids=[f"{m.__name__}-{b}-{s}-{i}" for m, b, s, i, _ in EXPLICIT],
)
def test_explicit_corruption_is_rejected_by_both(
    mutation, base, stage, pick, message
):
    for with_pass in (False, True):
        rejected = _mutate_after_pass(
            base, stage, with_pass, mutation, _picks(*pick)
        )
        assert rejected is not None, "the example no longer corrupts"
        kind, text = rejected
        assert issubclass(kind, IRError) and message in text


# -- the recorder's contract ------------------------------------------------------


def test_empty_change_set_visits_no_op(monkeypatch):
    module = parse_module(_stage_text(0, 6))
    changes = recorded(lambda: None)
    assert not changes

    def forbidden(*args):
        raise AssertionError("an empty change set must not be checked")

    monkeypatch.setattr(verifier, "verify", forbidden)
    monkeypatch.setattr(verifier, "_check_changes", forbidden)
    assert verify_changes(module, changes, 42) == 42
    assert changes.ops_verified == 0


def _insert_a_constant(module):
    """A small, valid change: one unused constant at the top of the
    first function's body."""
    anchor = module.block.first_op.regions[0].blocks[0].first_op
    anchor.parent.insert_op_before(arith.ConstantOp.from_int(0), anchor)


def test_a_full_verification_records_the_module_size():
    """A manager of one pass verifies in full after it: the op visits
    recorded are the size ``verify`` returns."""
    module = parse_module(_stage_text(0, 6))
    manager = PassManager([LambdaPass("only", lambda m: None)])
    manager.run(module)
    ((name, stats),) = manager.pass_stats
    assert name == "only"
    assert stats["ops_verified"] == verify(module) > 0


def test_an_incremental_verification_records_its_visits(monkeypatch):
    module, _ = kernels.matmul(2, 4, 2)
    visits = []
    check_changes = verifier._check_changes

    def spy(root, changes):
        visits.append(check_changes(root, changes))
        return visits[-1]

    monkeypatch.setattr(verifier, "_check_changes", spy)
    manager = PassManager(
        [
            LambdaPass("first", lambda m: None),
            LambdaPass("insert", _insert_a_constant),
            LambdaPass("last", lambda m: None),
        ]
    )
    manager.run(module)
    verified = {
        name: stats["ops_verified"] for name, stats in manager.pass_stats
    }
    assert len(visits) == 1
    assert verified["insert"] == visits[0]
    assert 0 < visits[0] < verified["last"] == verify(module)


def test_a_fallback_verification_records_the_full_size():
    """A change too large for the last count falls back to the full
    verifier, whose size is what is recorded."""
    module = parse_module(_stage_text(0, 6))
    changes = recorded(lambda: _insert_a_constant(module))
    size = verify(module)
    assert verify_changes(module, changes, 1) == size
    assert changes.ops_verified == size


def test_no_verification_records_zero():
    module, _ = kernels.matmul(1, 8, 8)
    manager = build_pipeline("ours", verify_each=False)
    manager.run(module)
    stats = [counts for _, counts in manager.pass_stats]
    assert all(counts["ops_verified"] == 0 for counts in stats)
    assert sum(counts["rewrites_applied"] for counts in stats) > 0


def test_an_analysis_pass_records_nothing():
    module = parse_module(_stage_text(0, 5))
    analysis = build_pipeline(BASES[0][1]).passes[5]
    assert analysis.name == "verify-streams"
    assert not recorded(lambda: analysis.run(module))


def test_which_verifier_runs_where(monkeypatch):
    """Full after the first and the last pass and after a wholesale
    lowering; nothing after an analysis; incremental elsewhere."""
    module, _ = kernels.matmul(4, 8, 8)
    checks = []
    check_changes = verifier._check_changes

    def spy(root, changes):
        visits = check_changes(root, changes)
        checks.append(visits)
        return visits

    monkeypatch.setattr(verifier, "_check_changes", spy)
    incremental = []

    class Watch:
        def before_pass(self, pass_, module):
            self.checked = len(checks)

        def after_pass(self, pass_, module, elapsed):
            incremental.append(len(checks) > self.checked)

    compiled = Compiler("ours", instrument=Watch()).compile(module)
    ran = [
        (
            name,
            "incremental" if checked
            else "full" if stats["ops_verified"]
            else "nothing",
        )
        for (name, stats), checked in zip(compiled.pass_stats, incremental)
    ]
    modes = dict(ran)
    assert modes["convert-linalg-to-memref-stream"] == "full"
    assert modes["lower-to-snitch"] == "full"
    assert modes["eliminate-identity-moves"] == "full"
    assert modes["verify-streams"] == "nothing"
    for name in ("canonicalize", "dce", "allocate-registers"):
        assert modes[name] == "incremental", ran


def test_threads_never_see_each_others_events():
    ready = threading.Barrier(2, timeout=10)
    seen = {}

    def work(name):
        module, _ = kernels.matmul(2, 4, 2)
        anchor = module.block.first_op.regions[0].blocks[0].first_op
        changes = ChangeSet()
        RECORDING.changes = changes
        try:
            ready.wait()
            for _ in range(200):
                op = arith.ConstantOp.from_int(0)
                anchor.parent.insert_op_before(op, anchor)
            ready.wait()
        finally:
            RECORDING.changes = None
        seen[name] = (changes, module)

    threads = [
        threading.Thread(target=work, args=(name,)) for name in "ab"
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    for changes, module in seen.values():
        assert len(changes.placed) == 200
        assert all(op.is_attached_to(module) for op in changes.placed)
    assert RECORDING.changes is None


def test_pass_stats_are_per_compile_under_concurrency():
    """``pass_stats`` used to be deltas of process-wide counters: a
    compile on another thread leaked into them."""
    module, _ = kernels.matmul(1, 8, 8)
    alone = Compiler("ours").compile(module).pass_stats
    inside = threading.Event()
    proceed = threading.Event()

    def wait_inside_a_pass(module):
        inside.set()
        assert proceed.wait(timeout=30)

    held = {}

    def holder():
        module, _ = kernels.matmul(1, 8, 8)
        manager = PassManager(
            [LambdaPass("hold", wait_inside_a_pass)], verify_each=False
        )
        manager.run(module)
        held["stats"] = manager.pass_stats

    thread = threading.Thread(target=holder)
    thread.start()
    assert inside.wait(timeout=30)
    # A whole compile runs while the other thread sits inside a pass.
    module, _ = kernels.matmul(1, 8, 8)
    concurrent = Compiler("ours").compile(module).pass_stats
    proceed.set()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert concurrent == alone
    assert held["stats"] == [
        (
            "hold",
            {
                "ops_visited": 0,
                "pattern_invocations": 0,
                "rewrites_applied": 0,
                "ops_verified": 0,
            },
        )
    ]


def test_a_raising_pass_leaves_no_recorder():
    module, _ = kernels.matmul(2, 4, 2)

    def boom(module):
        assert RECORDING.changes is not None
        raise RuntimeError("boom")

    manager = PassManager(
        [LambdaPass("first", lambda m: None), LambdaPass("boom", boom),
         LambdaPass("last", lambda m: None)]
    )
    with pytest.raises(RuntimeError, match="boom"):
        manager.run(module)
    assert RECORDING.changes is None and RECORDING.rewrites is None


def test_a_nested_manager_reports_to_the_outer_pass():
    """A pass may run a manager of its own: what that changed is the
    outer pass's change too, or the outer check would miss it."""
    module = parse_module(_stage_text(0, 6))
    outer_saw = {}

    def break_inside(module):
        inner = PassManager(
            [LambdaPass("detach", lambda m: detach_used(m, _picks(0)))],
            verify_each=False,
        )
        inner.run(module)
        outer_saw["changes"] = RECORDING.changes

    manager = PassManager(
        [
            LambdaPass("first", lambda m: None),
            LambdaPass("outer", break_inside),
            LambdaPass("last", lambda m: None),
        ]
    )
    with pytest.raises(VerificationError, match="does not dominate"):
        manager.run(module)
    assert outer_saw["changes"].unlinked
    assert RECORDING.changes is None


def test_a_raw_poke_into_a_recorded_op_is_caught_at_once():
    """Use lists cannot break through the primitives; the incremental
    checks still look at those of every op they were told about."""
    module = parse_module(_stage_text(0, 6))
    user = next(op for op in _ops(module) if len(op.operands))

    def poke(module):
        user.set_operand(0, user.operands[0])
        user._operands[0] = _values(module)[1]

    changes = recorded(lambda: poke(module))
    kind, message = assert_same_verdict(module, changes)
    assert kind is VerificationError
    assert "missing from use list" in message


def _placed_with_unrecorded_body(module, spoil):
    """Insert into ``module`` a hook-less op whose body was built, and
    spoilt, outside any recording: only placing it is recorded, so its
    body is checked as what the op carries along."""
    body = Block()
    body.add_op(riscv_scf.YieldOp([]))
    spoil(body)
    container = Operation(regions=[Region([body])])
    anchor = _clonable(module)[0]
    return recorded(lambda: anchor.parent.insert_op_before(container, anchor))


def test_carried_content_is_checked_for_terminators():
    module = parse_module(_stage_text(0, 6))

    def spoil(body):
        body.add_op(_clonable(module)[0].clone({}))  # after the yield

    changes = _placed_with_unrecorded_body(module, spoil)
    kind, message = assert_same_verdict(module, changes)
    assert kind is VerificationError
    assert "terminator is not the last" in message


def test_carried_content_is_checked_for_parent_links():
    module = parse_module(_stage_text(0, 6))

    def spoil(body):
        body.first_op.parent = Block()  # a raw poke

    changes = _placed_with_unrecorded_body(module, spoil)
    kind, message = assert_same_verdict(module, changes)
    assert kind is VerificationError
    assert "wrong parent block" in message


def test_raw_pokes_are_caught_at_exit():
    """Going around the primitives is not recorded — the full verify
    after the last pass is the backstop."""
    module = parse_module(_stage_text(0, 6))

    def poke(module):
        user = next(op for op in _ops(module) if len(op.operands))
        user._operands[0] = _values(module)[-1]

    manager = PassManager(
        [
            LambdaPass("first", lambda m: None),
            LambdaPass("poke", poke),
            LambdaPass("last", lambda m: None),
        ]
    )
    with pytest.raises(VerificationError, match="missing from use list"):
        manager.run(module)
