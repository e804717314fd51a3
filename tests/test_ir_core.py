"""Unit tests for the SSA core: operations, blocks, regions, use-def."""

import pytest

from repro.ir import (
    Block,
    BlockArgument,
    IRError,
    Operation,
    OpResult,
    Region,
    f64,
    single_block_region,
)


def make_op(operands=(), results=0):
    return Operation(
        operands=list(operands), result_types=[f64] * results
    )


class TestUseDef:
    def test_result_identity(self):
        op = make_op(results=2)
        assert isinstance(op.results[0], OpResult)
        assert op.results[0].op is op
        assert op.results[1].index == 1

    def test_operand_records_use(self):
        producer = make_op(results=1)
        consumer = make_op(operands=[producer.results[0]])
        assert producer.results[0].has_uses
        assert consumer in producer.results[0].users

    def test_multiple_uses(self):
        producer = make_op(results=1)
        value = producer.results[0]
        make_op(operands=[value, value])
        assert len(value.uses) == 2

    def test_set_operand_moves_use(self):
        a = make_op(results=1)
        b = make_op(results=1)
        consumer = make_op(operands=[a.results[0]])
        consumer.set_operand(0, b.results[0])
        assert not a.results[0].has_uses
        assert b.results[0].has_uses
        assert consumer.operands[0] is b.results[0]

    def test_replace_all_uses_with(self):
        a = make_op(results=1)
        b = make_op(results=1)
        c1 = make_op(operands=[a.results[0]])
        c2 = make_op(operands=[a.results[0], a.results[0]])
        a.results[0].replace_all_uses_with(b.results[0])
        assert not a.results[0].has_uses
        assert len(b.results[0].uses) == 3
        assert c1.operands[0] is b.results[0]
        assert all(v is b.results[0] for v in c2.operands)

    def test_rauw_self_is_noop(self):
        a = make_op(results=1)
        make_op(operands=[a.results[0]])
        a.results[0].replace_all_uses_with(a.results[0])
        assert len(a.results[0].uses) == 1

    def test_non_ssa_operand_rejected(self):
        with pytest.raises(IRError):
            Operation(operands=["not a value"])


class TestBlocks:
    def test_add_and_order(self):
        block = Block()
        a, b = make_op(), make_op()
        block.add_ops([a, b])
        assert block.ops == (a, b)
        assert block.first_op is a
        assert block.last_op is b

    def test_block_args(self):
        block = Block([f64, f64])
        assert len(block.args) == 2
        assert isinstance(block.args[0], BlockArgument)
        assert block.args[1].index == 1
        assert block.args[0].block is block

    def test_insert_before_after(self):
        block = Block()
        a, c = make_op(), make_op()
        block.add_ops([a, c])
        b = make_op()
        block.insert_op_before(b, c)
        assert block.ops == (a, b, c)
        d = make_op()
        block.insert_op_after(d, c)
        assert block.ops == (a, b, c, d)

    def test_double_attach_rejected(self):
        block1, block2 = Block(), Block()
        op = make_op()
        block1.add_op(op)
        with pytest.raises(IRError):
            block2.add_op(op)

    def test_index_of_missing(self):
        block = Block()
        with pytest.raises(IRError):
            block.index_of(make_op())

    def test_add_arg(self):
        block = Block()
        arg = block.add_arg(f64, "acc")
        assert arg.name_hint == "acc"
        assert block.args == [arg]


class TestRegionsAndNesting:
    def test_single_block_region(self):
        op = make_op()
        region = single_block_region([op])
        assert region.block.ops == (op,)

    def test_parent_chain(self):
        inner = make_op()
        parent = Operation(regions=[single_block_region([inner])])
        assert inner.parent_op is parent
        assert inner.parent_block is parent.body.block

    def test_parent_of_type(self):
        class Outer(Operation):
            name = "test.outer"

        inner = make_op()
        mid = Operation(regions=[single_block_region([inner])])
        outer = Outer(regions=[single_block_region([mid])])
        assert inner.parent_of_type(Outer) is outer
        assert inner.parent_of_type(Block) is None

    def test_is_ancestor_of(self):
        inner = make_op()
        outer = Operation(regions=[single_block_region([inner])])
        assert outer.is_ancestor_of(inner)
        assert not inner.is_ancestor_of(outer)

    def test_walk_preorder(self):
        inner = make_op()
        mid = Operation(regions=[single_block_region([inner])])
        sibling = make_op()
        top = Operation(
            regions=[single_block_region([mid, sibling])]
        )
        assert list(top.walk()) == [top, mid, inner, sibling]

    def test_region_double_attach(self):
        region = Region([Block()])
        Operation(regions=[region])
        with pytest.raises(IRError):
            Operation(regions=[region])

    def test_body_requires_single_region(self):
        op = make_op()
        with pytest.raises(IRError):
            op.body


class TestErasure:
    def test_erase_drops_uses(self):
        producer = make_op(results=1)
        block = Block()
        consumer = make_op(operands=[producer.results[0]])
        block.add_op(consumer)
        consumer.erase()
        assert not producer.results[0].has_uses

    def test_erase_with_live_uses_rejected(self):
        producer = make_op(results=1)
        block = Block()
        block.add_op(producer)
        make_op(operands=[producer.results[0]])
        with pytest.raises(IRError):
            producer.erase()

    def test_erase_nested_drops_inner_uses(self):
        producer = make_op(results=1)
        inner = make_op(operands=[producer.results[0]])
        outer = Operation(regions=[single_block_region([inner])])
        block = Block()
        block.add_op(outer)
        outer.erase()
        assert not producer.results[0].has_uses

    def test_detach_keeps_uses(self):
        producer = make_op(results=1)
        block = Block()
        consumer = make_op(operands=[producer.results[0]])
        block.add_op(consumer)
        consumer.detach()
        assert consumer.parent is None
        assert producer.results[0].has_uses


class TestClone:
    def _addf(self):
        from repro.dialects import arith

        a = make_op(results=1).results[0]
        b = make_op(results=1).results[0]
        return arith.AddfOp(a, b), a, b

    def test_operands_remapped_and_results_recorded(self):
        add, a, b = self._addf()
        replacement = make_op(results=1).results[0]
        value_map = {id(a): replacement}
        copy = add.clone(value_map)
        assert type(copy) is type(add)
        assert copy.parent is None
        assert copy.operands[0] is replacement
        assert copy.operands[1] is b  # unmapped: used as it is
        assert any(use.operation is copy for use in replacement.uses)
        assert value_map[id(add.result)] is copy.result
        # The original is untouched.
        assert add.operands[0] is a

    def test_mapping_threads_through_a_chain(self):
        add, _, b = self._addf()
        from repro.dialects import arith

        mul = arith.MulfOp(add.result, b)
        value_map = {}
        first = add.clone(value_map)
        second = mul.clone(value_map)
        assert second.operands[0] is first.result

    def test_result_types_kept(self):
        add, _, _ = self._addf()
        copy = add.clone({})
        assert [r.type for r in copy.results] == [f64]
        assert copy.result is not add.result

    def test_attributes_copied_not_aliased(self):
        from repro.dialects import arith

        constant = arith.ConstantOp.from_float(2.0, f64)
        copy = constant.clone({})
        assert copy.attributes == constant.attributes
        assert copy.attributes is not constant.attributes
        copy.attributes.clear()
        assert constant.value.value == 2.0

    def test_ops_with_regions_rejected(self):
        outer = Operation(regions=[single_block_region([make_op()])])
        with pytest.raises(IRError, match="regions"):
            outer.clone({})


class TestChangeRecording:
    """Each mutation primitive notes what it touched into the thread's
    installed ChangeSet — and nothing when none is installed."""

    @staticmethod
    def _recorded(mutate):
        from repro.ir.core import RECORDING, ChangeSet

        changes = RECORDING.changes = ChangeSet()
        try:
            mutate()
        finally:
            RECORDING.changes = None
        return changes

    def test_nothing_installed_by_default(self):
        from repro.ir.core import RECORDING

        assert RECORDING.changes is None and RECORDING.rewrites is None

    def test_link_and_unlink(self):
        block, first, second = Block(), make_op(), make_op()
        block.add_op(first)

        def mutate():
            block.add_op(second)
            first.detach()
            block.insert_op_after(first, second)

        changes = self._recorded(mutate)
        assert list(changes.placed) == [second, first]
        assert list(changes.unlinked) == [first]
        assert list(changes.blocks) == [block]
        assert block.ops == (second, first)

    def test_operands(self):
        a, b = make_op(results=1), make_op(results=1)
        user, other = make_op([a.results[0]]), make_op([a.results[0]])

        def mutate():
            user.set_operand(0, b.results[0])
            other.add_operand(b.results[0])

        assert list(self._recorded(mutate).modified) == [user, other]
        erased = self._recorded(user.drop_all_references)
        assert list(erased.modified) == [user]

    def test_set_type(self):
        from repro.ir import f32

        value = make_op(results=1).results[0]
        changes = self._recorded(lambda: value.set_type(f32))
        assert value.type == f32
        assert list(changes.retyped) == [value]

    def test_attributes(self):
        from repro.ir import IntAttr

        op = make_op()

        def mutate():
            op.set_attribute("n", IntAttr(1))
            op.remove_attribute("n")

        assert list(self._recorded(mutate).modified) == [op]
        assert op.attributes == {}
        with pytest.raises(KeyError):
            op.remove_attribute("n")

    def test_regions_and_blocks(self):
        inner = make_op()
        region = single_block_region([inner])
        block = region.block
        owner = Operation(regions=[region])
        changes = self._recorded(lambda: region.detach_block(block))
        assert block.parent is None and region.blocks == []
        assert list(changes.modified) == [owner]
        changes = self._recorded(lambda: region.add_block(block))
        assert list(changes.placed) == [owner]
        changes = self._recorded(lambda: owner.detach_region(region))
        assert region.parent is None and owner.regions == []
        assert list(changes.modified) == [owner]
        changes = self._recorded(lambda: owner.add_region(region))
        assert list(changes.placed) == [owner]
        changes = self._recorded(lambda: block.add_arg(f64))
        assert list(changes.blocks) == [block]
        with pytest.raises(IRError):
            Region().detach_block(block)
        with pytest.raises(IRError):
            make_op().detach_region(region)

    def test_empty_set_is_falsy(self):
        from repro.ir.core import ChangeSet

        changes = ChangeSet()
        assert not changes
        changes.rewrites_applied = 3
        assert not changes  # driver counts are not IR mutations
        changes.retyped[make_op(results=1).results[0]] = None
        assert changes
