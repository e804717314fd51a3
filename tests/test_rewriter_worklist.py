"""Worklist rewrite driver: stale-op handling, dispatch, counts, views.

The headline regression here is stale-op rewriting: ``Operation.erase``
detaches the op but ops nested inside its regions keep their ``parent``
links, so a pre-seeded worklist (or the naive driver's pre-collected
walk list) can hold ops living inside an already-erased subtree.  The
driver must drop those instead of rewriting dead IR (which would, for
example, resurrect uses of outside values through RAUW).
"""

import threading

import pytest

from repro.dialects import arith, builtin
from repro.ir import (
    Block,
    IRError,
    Operation,
    PatternIndex,
    Region,
    RewritePattern,
    TypedPattern,
    apply_patterns,
    apply_patterns_naive,
    single_block_region,
)
from repro.ir.core import RECORDING, ChangeSet


class _RegionHolder(Operation):
    """Test op owning one region (erased by ``_EraseHolder``)."""

    name = "test.region_holder"


class _EraseHolder(TypedPattern):
    op_type = _RegionHolder

    def rewrite(self, op, rewriter):
        rewriter.erase_matched_op()


class _RecordAdds(TypedPattern):
    """Observes every AddiOp the driver actually hands to patterns."""

    op_type = arith.AddiOp

    def __init__(self):
        self.seen: list[Operation] = []

    def rewrite(self, op, rewriter):
        self.seen.append(op)


class _RewriteAddsToLhs(TypedPattern):
    """Replaces ``a + b`` with ``a`` — corrupts use lists if applied to
    an op inside an erased subtree (RAUW would re-register uses)."""

    op_type = arith.AddiOp

    def rewrite(self, op, rewriter):
        rewriter.replace_matched_op([], new_results=[op.lhs])


def _module_with_nested_add():
    """A module holding a region op whose body uses an outside constant.

    Walk order visits the holder *before* the nested add, so a pattern
    erasing the holder leaves the (already enqueued) nested add stale.
    """
    constant = arith.ConstantOp.from_int(7)
    inner = arith.AddiOp(constant.result, constant.result)
    holder = _RegionHolder(regions=[single_block_region([inner])])
    module = builtin.ModuleOp([constant, holder])
    return module, constant, inner


@pytest.mark.parametrize(
    "driver", [apply_patterns, apply_patterns_naive]
)
class TestStaleOpDropped:
    def test_nested_op_of_erased_subtree_not_rewritten(self, driver):
        module, constant, inner = _module_with_nested_add()
        recorder = _RecordAdds()
        driver(module, [_EraseHolder(), recorder])
        assert inner.parent is not None  # the stale-parent hazard
        assert recorder.seen == []  # ...but the driver dropped it

    def test_no_use_resurrection(self, driver):
        """Rewriting the stale add would RAUW dead uses back onto the
        constant; erasing the subtree must leave it unused."""
        module, constant, inner = _module_with_nested_add()
        driver(module, [_EraseHolder(), _RewriteAddsToLhs()])
        assert not constant.result.has_uses

    def test_detached_attachment_check(self, driver):
        module, constant, inner = _module_with_nested_add()
        assert inner.is_attached_to(module)
        driver(module, [_EraseHolder()])
        assert not inner.is_attached_to(module)
        assert constant.is_attached_to(module)


class TestWorklistDriver:
    def _fold_module(self):
        a = arith.ConstantOp.from_int(7)
        zero = arith.ConstantOp.from_int(0)
        add = arith.AddiOp(a.result, zero.result)
        use = arith.AddiOp(add.result, add.result)
        return builtin.ModuleOp([a, zero, add, use]), add, use

    def test_follow_up_work_enqueued(self):
        """Folding ``x + 0`` exposes ``7 + 7``-style follow-ups through
        user re-enqueueing, reaching the same fixpoint as re-walking."""

        class FoldAddZero(TypedPattern):
            op_type = arith.AddiOp

            def rewrite(self, op, rewriter):
                owner = op.rhs.owner
                if (
                    isinstance(owner, arith.ConstantOp)
                    and owner.value.value == 0
                ):
                    rewriter.replace_matched_op(
                        [], new_results=[op.lhs]
                    )

        module, add, use = self._fold_module()
        assert apply_patterns(module, [FoldAddZero()])
        assert add.parent is None
        assert use.operands[0].owner.value.value == 7
        assert not apply_patterns(module, [FoldAddZero()])

    def test_divergent_pattern_detected(self):
        class Flip(RewritePattern):
            def match_and_rewrite(self, op, rewriter):
                if isinstance(op, arith.AddiOp):
                    rewriter.replace_op(
                        op, arith.AddiOp(op.rhs, op.lhs)
                    )

        module, *_ = self._fold_module()
        with pytest.raises(IRError):
            apply_patterns(module, [Flip()], max_iterations=5)

    def test_in_place_update_revisits_subtree(self):
        """A pattern swapping a region body in place (reporting only
        ``changed``) still gets its new body ops visited."""

        class Renest(TypedPattern):
            op_type = _RegionHolder

            def rewrite(self, op, rewriter):
                if op.attributes.get("done"):
                    return
                old = op.body.block
                fresh = Block()
                fresh.add_op(arith.ConstantOp.from_int(3))
                op.regions[0].blocks.clear()
                old.parent = None
                op.regions[0].add_block(fresh)
                op.attributes["done"] = True
                rewriter.changed = True

        recorder = _RecordConstants()
        holder = _RegionHolder(regions=[single_block_region([])])
        module = builtin.ModuleOp([holder])
        apply_patterns(module, [Renest(), recorder])
        assert [op.value.value for op in recorder.seen] == [3]


class TestAdjacencyReEnqueue:
    """Erasing an op must re-enqueue its block neighbours: patterns
    that match on adjacency (like fuse-fill's ``prev_op`` probe) become
    applicable once an intervening op disappears."""

    @staticmethod
    def _patterns():
        class EraseDeadMul(TypedPattern):
            op_type = arith.MuliOp

            def rewrite(self, op, rewriter):
                if not op.result.has_uses:
                    rewriter.erase_matched_op()

        class EraseDeadAdd(TypedPattern):
            op_type = arith.AddiOp

            def rewrite(self, op, rewriter):
                if not op.result.has_uses:
                    rewriter.erase_matched_op()

        class MarkAddAfterConstant(TypedPattern):
            op_type = arith.AddiOp

            def rewrite(self, op, rewriter):
                if (
                    op.result.has_uses
                    and isinstance(op.prev_op, arith.ConstantOp)
                    and "after-const" not in op.attributes
                ):
                    op.attributes["after-const"] = op.prev_op.value
                    rewriter.changed = True

        return [MarkAddAfterConstant(), EraseDeadMul(), EraseDeadAdd()]

    @staticmethod
    def _module():
        # [fill, c2, mid, consumer, user2, sink]: `consumer` is visited
        # while `mid` still sits between it and the constants; `mid`
        # only becomes dead (and erasable) after `user2` is erased, and
        # shares no values with `consumer` — only the adjacency
        # re-enqueue can revisit `consumer` for the position match.
        fill = arith.ConstantOp.from_int(7)
        c2 = arith.ConstantOp.from_int(3)
        mid = arith.MuliOp(c2.result, c2.result)
        consumer = arith.AddiOp(fill.result, fill.result)
        user2 = arith.AddiOp(mid.result, mid.result)
        sink = Operation(operands=[consumer.result])
        module = builtin.ModuleOp(
            [fill, c2, mid, consumer, user2, sink]
        )
        return module, mid, consumer

    @pytest.mark.parametrize(
        "driver", [apply_patterns, apply_patterns_naive]
    )
    def test_position_match_found_after_erasure(self, driver):
        module, mid, consumer = self._module()
        driver(module, self._patterns())
        assert mid.parent is None  # the intervening op was erased
        assert "after-const" in consumer.attributes


def _chain_of_adds(length):
    """``c = 7; a1 = c + c; a2 = a1 + c; ...``: ``_RewriteAddsToLhs``
    folds every add away, one rewrite each."""
    constant = arith.ConstantOp.from_int(7)
    ops = [constant]
    value = constant.result
    for _ in range(length):
        add = arith.AddiOp(value, constant.result)
        ops.append(add)
        value = add.result
    return builtin.ModuleOp(ops)


def _counted(call):
    """Run ``call`` with a fresh per-pass recorder installed, as the
    pass manager does; returns the recorder."""
    changes = ChangeSet()
    RECORDING.rewrites = changes
    try:
        call()
    finally:
        RECORDING.rewrites = None
    return changes


def _counts(changes):
    return (
        changes.ops_visited,
        changes.pattern_invocations,
        changes.rewrites_applied,
    )


@pytest.mark.parametrize(
    "driver", [apply_patterns, apply_patterns_naive]
)
class TestDriverCounts:
    """Each driver call credits its counts to the calling thread's
    per-pass recorder (what ``pass_stats`` reports) and keeps none of
    its own."""

    def test_counts_credit_the_installed_recorder(self, driver):
        module = _chain_of_adds(5)
        changes = _counted(
            lambda: driver(module, [_RewriteAddsToLhs()])
        )
        visited, invoked, applied = _counts(changes)
        assert applied == 5
        assert applied <= invoked <= visited
        assert not [
            op for op in module.walk() if isinstance(op, arith.AddiOp)
        ]

    def test_identical_calls_credit_identical_counts(self, driver):
        """No count carries over from an earlier call, with or without
        a recorder installed."""
        driver(_chain_of_adds(4), [_RewriteAddsToLhs()])
        assert RECORDING.rewrites is None
        first, second = (
            _counted(
                lambda: driver(_chain_of_adds(4), [_RewriteAddsToLhs()])
            )
            for _ in range(2)
        )
        assert _counts(first) == _counts(second)
        assert _counts(first)[2] == 4

    def test_counts_flush_when_the_driver_diverges(self, driver):
        class Flip(RewritePattern):
            def match_and_rewrite(self, op, rewriter):
                if isinstance(op, arith.AddiOp):
                    rewriter.replace_op(
                        op, arith.AddiOp(op.rhs, op.lhs)
                    )

        module = _chain_of_adds(1)
        changes = ChangeSet()
        RECORDING.rewrites = changes
        try:
            with pytest.raises(IRError, match="did not converge"):
                driver(module, [Flip()], max_iterations=5)
        finally:
            RECORDING.rewrites = None
        visited, invoked, applied = _counts(changes)
        assert 5 <= applied <= invoked <= visited


def test_concurrent_drivers_count_only_their_own_rewrites():
    """Threads rewriting at once each see exactly their own counts:
    the recorder is thread-local, not a shared total."""
    threads, rounds, length = 4, 50, 3
    ready = threading.Barrier(threads, timeout=30)
    applied = []

    def work():
        changes = ChangeSet()
        RECORDING.rewrites = changes
        try:
            ready.wait()
            for _ in range(rounds):
                apply_patterns(_chain_of_adds(length), [_RewriteAddsToLhs()])
        finally:
            RECORDING.rewrites = None
        applied.append(changes.rewrites_applied)

    workers = [threading.Thread(target=work) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
        assert not worker.is_alive()
    assert applied == [rounds * length] * threads
    assert RECORDING.rewrites is None


class _RecordConstants(TypedPattern):
    op_type = arith.ConstantOp

    def __init__(self):
        self.seen: list[Operation] = []

    def rewrite(self, op, rewriter):
        self.seen.append(op)


class TestPatternIndex:
    def test_typed_dispatch(self):
        index = PatternIndex([_RecordAdds(), _RecordConstants()])
        adds = index.patterns_for(arith.AddiOp)
        consts = index.patterns_for(arith.ConstantOp)
        assert len(adds) == 1 and isinstance(adds[0], _RecordAdds)
        assert len(consts) == 1 and isinstance(
            consts[0], _RecordConstants
        )
        assert index.patterns_for(arith.MulfOp) == ()

    def test_generic_patterns_apply_everywhere(self):
        class Generic(RewritePattern):
            def match_and_rewrite(self, op, rewriter):
                pass

        generic = Generic()
        typed = _RecordAdds()
        index = PatternIndex([generic, typed])
        # Registration order is preserved per class.
        assert index.patterns_for(arith.AddiOp) == (generic, typed)
        assert index.patterns_for(arith.ConstantOp) == (generic,)


class TestLinkedListViews:
    def test_block_ops_sequence_protocol(self):
        block = Block()
        ops = [arith.ConstantOp.from_int(i) for i in range(5)]
        block.add_ops(ops)
        view = block.ops
        assert len(view) == 5
        assert bool(view)
        assert view[0] is ops[0] and view[-1] is ops[-1]
        assert view[2] is ops[2]
        assert list(reversed(view)) == ops[::-1]
        assert view == tuple(ops)
        assert view.index(ops[3]) == 3
        assert ops[1] in view
        with pytest.raises(IndexError):
            view[5]

    def test_iteration_safe_against_erasing_current(self):
        block = Block()
        ops = [arith.ConstantOp.from_int(i) for i in range(4)]
        block.add_ops(ops)
        visited = []
        for op in block.ops:
            visited.append(op.value.value)
            op.erase()
        assert visited == [0, 1, 2, 3]
        assert len(block.ops) == 0
        assert block.first_op is None and block.last_op is None

    def test_intrusive_links_maintained(self):
        block = Block()
        a, b, c = (arith.ConstantOp.from_int(i) for i in range(3))
        block.add_ops([a, c])
        block.insert_op_before(b, c)
        assert a.next_op is b and b.prev_op is a
        assert b.next_op is c and c.prev_op is b
        b.detach()
        assert a.next_op is c and c.prev_op is a
        assert b.prev_op is None and b.next_op is None

    def test_operands_live_view(self):
        a = arith.ConstantOp.from_int(1)
        b = arith.ConstantOp.from_int(2)
        add = arith.AddiOp(a.result, a.result)
        view = add.operands
        assert view == (a.result, a.result)
        assert view[0:2] == (a.result, a.result)  # slices snapshot
        add.set_operand(1, b.result)
        assert view[1] is b.result  # the view is live
        assert len(view) == 2
        assert list(reversed(view)) == [b.result, a.result]
