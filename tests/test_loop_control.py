"""Loop control off the FPU's critical path.

``lower-riscv-scf`` reads a loop's bounds and step after allocation:
when all three are ``li`` constants (or ``zero``) and the loop runs at
least once, the zero-trip guard goes, and an induction variable the
body never reads counts down from the trip count (``addi -1`` /
``bnez``); the bound and step ``li``s left without uses are erased.
``lower-snitch-stream`` enables streaming before a hoisted loop nest
that runs nothing but its region and integer ALU ops, and drains it
once after the nest; otherwise it puts the drain (``csrci``) of a
region that only integer ALU ops follow in its loop body at the head
of that body and after the loop, so the pointer advances and the
back-edge issue while the FPU still works; zero configuration words
come from ``zero``.  Three nets hold it:

* one hand-built loop per form, its asm shape asserted and its stores
  simulated into a poisoned array;
* the enable and drain placement, for one region in a loop and for
  two;
* every golden-asm case (the 282 whose asm uses one of these forms
  among them, and the 9 that stream across a whole nest) matches numpy
  with its outputs *poisoned*: ``KernelSpec.random_arguments``
  zero-fills outputs, which would hide a kernel that leaves an output
  element unwritten or accumulates onto it.
"""

import functools

import numpy as np
import pytest

from repro import api
from repro.compiler import Compiler
from repro.dialects import riscv, riscv_func, riscv_scf
from repro.dialects.builtin import ModuleOp
from repro.ir.builder import Builder
from repro.kernels.builders import KERNEL_BUILDERS, ArrayArg
from repro.transforms.lowering_kit import FunctionLowering
from test_golden_asm import CASES as GOLDEN_CASES
from test_stream_config_hoist import two_regions_per_row

#: Finite and non-zero: a NaN would never compare equal, and 0.0 is the
#: value an output left unwritten already holds.
SENTINEL = 1234.5
#: The value an unused-IV loop stores each trip.
MARK = 7.0
SLOTS = 8


def loop_kernel(lb, ub, step, use_iv, known_ub=True) -> ModuleOp:
    """``for iv in range(lb, ub, step): *p++ = float(iv)`` (or MARK
    when the IV is unused).  ``known_ub=False`` hides the bound behind
    an ``addi``, which the lowering cannot read."""
    fn = riscv_func.FuncOp("loop", riscv_func.abi_arg_types(["int"]))
    builder = Builder.at_end(fn.entry_block)

    def li(value):
        return builder.insert(FunctionLowering.li_op(value)).results[0]

    pointer = builder.insert(riscv.MVOp(fn.args[0])).rd
    mark = builder.insert(riscv.FCvtDWOp(li(int(MARK)))).rd
    if known_ub:
        upper = li(ub)
    else:
        upper = builder.insert(riscv.AddiOp(li(ub - 1), 1)).rd
    loop = riscv_scf.ForOp(li(lb), upper, li(step), [pointer])
    builder.insert(loop)
    body = Builder.at_end(loop.body_block)
    (walking,) = loop.body_iter_args
    value = (
        body.insert(riscv.FCvtDWOp(loop.induction_variable)).rd
        if use_iv
        else mark
    )
    body.insert(riscv.FSdOp(value, walking, 0))
    advanced = body.insert(riscv.AddiOp(walking, 8)).rd
    body.insert(riscv_scf.YieldOp([advanced]))
    builder.insert(riscv_func.ReturnOp())
    return ModuleOp([fn])


def _lines(asm: str) -> list[str]:
    return [line.strip() for line in asm.splitlines()]


def _mnemonics(asm: str) -> list[str]:
    return [line.split()[0] for line in _lines(asm) if line]


def _li_values(asm: str) -> list[int]:
    return [
        int(line.rsplit(",", 1)[1])
        for line in _lines(asm)
        if line.startswith("li ")
    ]


def _run_loop(lb, ub, step, use_iv, known_ub=True):
    """Compile and run :func:`loop_kernel` on a poisoned array, check
    what it stored, and return its asm."""
    compiled = api.compile_lowlevel(
        loop_kernel(lb, ub, step, use_iv, known_ub), "loop"
    )
    stored = api.run_kernel(compiled, [np.full(SLOTS, SENTINEL)]).arrays[0]
    trips = list(range(lb, ub, step))
    expected = np.full(SLOTS, SENTINEL)
    expected[: len(trips)] = trips if use_iv else MARK
    np.testing.assert_array_equal(stored, expected)
    return compiled.asm


# -- the loop forms ---------------------------------------------------------


@pytest.mark.parametrize("lb", (0, 1))  # zero, or one li shared with step
def test_constant_trips_unused_iv_count_down(lb):
    asm = _run_loop(lb, 5, 1, use_iv=False)
    mnemonics = _mnemonics(asm)
    assert "bge" not in mnemonics and "blt" not in mnemonics
    assert mnemonics.count("bnez") == 1
    lines = _lines(asm)
    head = next(
        i for i, line in enumerate(lines) if line.startswith(".for_body")
    )
    counter = lines[head - 1].split()[1].rstrip(",")
    assert lines[head - 1] == f"li {counter}, {5 - lb}"
    assert f"addi {counter}, {counter}, -1" in lines
    # The counter's li is the only one left of the loop's.
    assert sorted(_li_values(asm)) == sorted([5 - lb, int(MARK)])


def test_constant_trips_used_iv_bottom_tested():
    asm = _run_loop(2, 11, 3, use_iv=True)
    mnemonics = _mnemonics(asm)
    assert "bge" not in mnemonics and "bnez" not in mnemonics
    assert mnemonics.count("blt") == 1 and mnemonics.count("add") == 0
    assert any(
        line.startswith("addi") and line.endswith(", 3")
        for line in _lines(asm)
    )
    # The step's li is gone; lb feeds the mv, ub the blt.
    assert sorted(_li_values(asm)) == [2, 11]


def test_unknown_bound_keeps_the_guard():
    asm = _run_loop(0, 5, 1, use_iv=False, known_ub=False)
    assert _mnemonics(asm).count("bge") == 1
    assert "add" in _mnemonics(asm) and "bnez" not in _mnemonics(asm)


def test_zero_trips_keep_the_guard():
    asm = _run_loop(5, 5, 1, use_iv=False)
    mnemonics = _mnemonics(asm)
    assert mnemonics.count("bge") == mnemonics.count("blt") == 1
    assert "add" in mnemonics and "bnez" not in mnemonics


@pytest.mark.parametrize("step, increment", [(2047, "addi"), (2048, "add")])
def test_step_outside_12_bits_keeps_add(step, increment):
    """addi's immediate is signed 12-bit: 2047 is the largest step."""
    asm = _run_loop(0, 3 * step, step, use_iv=True)
    mnemonics = _mnemonics(asm)
    assert "bge" not in mnemonics and mnemonics.count("blt") == 1
    assert mnemonics.count("add") == (increment == "add")
    assert (step in _li_values(asm)) == (increment == "add")


# -- the drain placement -----------------------------------------------------


def _drains(asm: str) -> list[str]:
    """What precedes each ``csrci``: a label, or the last instruction."""
    lines = [line for line in _lines(asm) if line]
    return [
        lines[i - 1]
        for i, line in enumerate(lines)
        if line.startswith("csrci")
    ]


def test_hoisted_row_loop_enables_before_and_drains_after():
    """conv3x3 8x8 arms its streams once per output row and runs only
    pointer advances beside them: one ``csrsi`` before the row loop,
    one ``csrci`` after it, none inside."""
    module, _ = KERNEL_BUILDERS["conv3x3"][0](8, 8)
    asm = api.compile_linalg(module, pipeline="ours").asm
    lines = [line for line in _lines(asm) if line]
    mnemonics = _mnemonics(asm)
    assert mnemonics.count("csrsi") == mnemonics.count("csrci") == 1
    enable = mnemonics.index("csrsi")
    # The enable follows the hoisted configuration words; only the row
    # counter's li comes between it and the loop head.
    assert mnemonics[enable - 1] == "scfgwi"
    assert lines[enable + 1].startswith("li ")
    assert lines[enable + 2].startswith(".for_body")
    # The region's group loop ends, then the two pointer advances, the
    # counter and the back-edge follow; the drain comes after the loop.
    group_end, row_end = lines[-8], lines[-3]
    assert group_end.startswith(".for_end")
    assert row_end.startswith(".for_end")
    assert _drains(asm) == [row_end]
    assert mnemonics[-8:] == [
        group_end, "addi", "addi", "addi", "bnez", row_end, "csrci", "ret"
    ]


def test_two_regions_rotate_only_the_last():
    compiled = api.compile_lowlevel(two_regions_per_row(3, 4), "two_regions")
    before = _drains(compiled.asm)
    assert len(before) == 3
    assert before[0].startswith(".for_body")
    assert before[1] == "fmv.d ft1, ft0"  # the first region's own drain
    assert before[2].startswith(".for_end")


# -- every golden case, poisoned ---------------------------------------------


@functools.cache
def _golden_kernel(case_id: str):
    build, pipeline = GOLDEN_CASES[case_id]
    return Compiler(pipeline).compile(build())


def uses_loop_control_forms(asm: str) -> bool:
    """Whether ``asm`` has a guard-free loop, a drain at a loop head or
    a configuration word written from ``zero``."""
    lines = [line for line in _lines(asm) if line]
    return any(
        (line.startswith(".for_body") and not lines[i - 1].startswith("bge"))
        or (line.startswith("csrci") and lines[i - 1].startswith(".for_body"))
        or line.startswith("scfgwi zero,")
        for i, line in enumerate(lines)
    )


def streams_whole_nest(asm: str) -> bool:
    """Whether ``asm`` arms a stream inside a loop but toggles
    ``ssrcfg`` in none: streaming stays enabled across a nest."""
    depth, arms = 0, False
    for line in _lines(asm):
        if line.startswith(".for_body"):
            depth += 1
        elif line.startswith(".for_end"):
            depth -= 1
        elif depth and line.startswith(("csrsi", "csrci")):
            return False
        elif depth and line.startswith("scfgwi"):
            arms = True
    return arms


def test_every_whole_nest_golden_case_is_netted():
    """The cases whose digests moved when a hoisted nest came to be
    enabled once and drained once: the window kernels that re-arm per
    row."""
    netted = [
        case_id
        for case_id in GOLDEN_CASES
        if streams_whole_nest(_golden_kernel(case_id).asm)
    ]
    assert len(netted) == 9
    assert {_case_kernel(case_id)[0] for case_id in netted} == {
        "conv3x3", "max_pool3x3", "sum_pool3x3"
    }


def test_every_moved_golden_case_is_netted():
    """The cases whose digests moved when these forms were introduced."""
    netted = [
        case_id
        for case_id in GOLDEN_CASES
        if uses_loop_control_forms(_golden_kernel(case_id).asm)
    ]
    assert len(netted) == 282


def _case_kernel(case_id: str):
    """(kernel, sizes) of a golden case id ``flow/kernel-AxB[/config]``."""
    kernel, _, sizes = case_id.split("/")[1].rpartition("-")
    return kernel, tuple(int(size) for size in sizes.split("x"))


@pytest.mark.parametrize("case_id", sorted(GOLDEN_CASES))
def test_golden_case_poisoned_outputs_match_reference(case_id):
    kernel, sizes = _case_kernel(case_id)
    if kernel == "rmw":
        # z = x*y + z reads its output: nothing to poison.
        rng = np.random.default_rng(0)
        arguments = [rng.uniform(-1.0, 1.0, sizes) for _ in range(3)]
        expected = [None, None, arguments[0] * arguments[1] + arguments[2]]
    else:
        spec = KERNEL_BUILDERS[kernel][0](*sizes)[1]
        arguments = spec.random_arguments(seed=0)
        for argument, value in zip(spec.arguments, arguments):
            if isinstance(argument, ArrayArg) and argument.role == "out":
                value.fill(SENTINEL)
        expected = spec.reference(*arguments)
    arrays = api.run_kernel(_golden_kernel(case_id), arguments).arrays
    for got, want in zip(arrays, expected):
        if want is not None:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
