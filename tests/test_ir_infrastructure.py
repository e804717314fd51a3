"""Tests for builder, printer, verifier, rewriter and pass manager."""

import pytest

from repro.dialects import arith, builtin, func, scf
from repro.ir import (
    Block,
    Builder,
    InsertPoint,
    IRError,
    LambdaPass,
    Operation,
    PassManager,
    PatternRewriter,
    RewritePattern,
    TypedPattern,
    VerificationError,
    apply_patterns,
    f64,
    index,
    print_op,
    single_block_region,
    verify,
)


class TestBuilder:
    def test_insert_at_end(self):
        block = Block()
        builder = Builder.at_end(block)
        a = builder.insert(arith.ConstantOp.from_int(1))
        b = builder.insert(arith.ConstantOp.from_int(2))
        assert block.ops == (a, b)

    def test_insert_at_start(self):
        block = Block()
        tail = arith.ConstantOp.from_int(9)
        block.add_op(tail)
        builder = Builder.at_start(block)
        head = builder.insert(arith.ConstantOp.from_int(1))
        assert block.ops == (head, tail)

    def test_before_after(self):
        block = Block()
        anchor = arith.ConstantOp.from_int(5)
        block.add_op(anchor)
        Builder.before(anchor).insert(arith.ConstantOp.from_int(1))
        assert block.ops[0].value.value == 1

    def test_before_detached_rejected(self):
        with pytest.raises(IRError):
            InsertPoint.before(arith.ConstantOp.from_int(1))


class TestPrinter:
    def test_prints_constant(self):
        module = builtin.ModuleOp([arith.ConstantOp.from_int(42)])
        text = print_op(module)
        assert "arith.constant" in text
        assert "builtin.module" in text
        assert "value = 42" in text

    def test_value_numbering_stable(self):
        c = arith.ConstantOp.from_int(1)
        add = arith.AddiOp(c.result, c.result)
        module = builtin.ModuleOp([c, add])
        text = print_op(module)
        assert "%0" in text
        assert '"arith.addi"(%0, %0)' in text

    def test_name_hints_used(self):
        c = arith.ConstantOp.from_int(1)
        c.results[0].name_hint = "bound"
        module = builtin.ModuleOp([c])
        assert "%bound" in print_op(module)


class TestVerifier:
    def test_valid_module(self):
        c = arith.ConstantOp.from_float(0.0, f64)
        add = arith.AddfOp(c.result, c.result)
        verify(builtin.ModuleOp([c, add]))

    def test_use_before_def_rejected(self):
        c = arith.ConstantOp.from_float(0.0, f64)
        add = arith.AddfOp(c.result, c.result)
        # Reversed order: add before its operand's definition.
        module = builtin.ModuleOp([])
        module.block.add_op(add)
        module.block.add_op(c)
        with pytest.raises(VerificationError):
            verify(module)

    def test_terminator_must_be_last(self):
        fn = func.FuncOp("f", [])
        fn.entry_block.add_op(func.ReturnOp())
        fn.entry_block.add_op(arith.ConstantOp.from_int(1))
        with pytest.raises(VerificationError):
            verify(builtin.ModuleOp([fn]))

    def test_isolated_from_above(self):
        c = arith.ConstantOp.from_float(1.0, f64)
        fn = func.FuncOp("f", [])
        # Illegal: function body referencing a value defined outside.
        fn.entry_block.add_op(arith.AddfOp(c.result, c.result))
        fn.entry_block.add_op(func.ReturnOp())
        module = builtin.ModuleOp([c, fn])
        with pytest.raises(VerificationError):
            verify(module)

    def test_op_specific_hook_runs(self):
        bad = arith.ConstantOp.from_int(1)
        bad.results[0].type = f64  # int constant with float type
        with pytest.raises(IRError):
            verify(builtin.ModuleOp([bad]))


class _FoldAddZero(TypedPattern):
    """Replace x + 0 with x (test pattern)."""

    op_type = arith.AddiOp

    def rewrite(self, op, rewriter):
        owner = op.rhs.owner
        if (
            isinstance(owner, arith.ConstantOp)
            and owner.value.value == 0
        ):
            rewriter.replace_matched_op([], new_results=[op.lhs])


class TestRewriter:
    def _module(self):
        a = arith.ConstantOp.from_int(7)
        zero = arith.ConstantOp.from_int(0)
        add = arith.AddiOp(a.result, zero.result)
        use = arith.AddiOp(add.result, add.result)
        return builtin.ModuleOp([a, zero, add, use]), add, use

    def test_pattern_applies(self):
        module, add, use = self._module()
        changed = apply_patterns(module, [_FoldAddZero()])
        assert changed
        assert add.parent is None  # erased
        # The use now refers to the constant directly.
        assert use.operands[0].owner.value.value == 7

    def test_fixpoint_reached(self):
        module, *_ = self._module()
        apply_patterns(module, [_FoldAddZero()])
        assert not apply_patterns(module, [_FoldAddZero()])

    def test_nonconverging_pattern_detected(self):
        class Flip(RewritePattern):
            def match_and_rewrite(self, op, rewriter):
                if isinstance(op, arith.AddiOp):
                    rewriter.replace_op(
                        op, arith.AddiOp(op.rhs, op.lhs)
                    )

        module, *_ = self._module()
        with pytest.raises(IRError):
            apply_patterns(module, [Flip()], max_iterations=5)

    def test_replace_op_arity_checked(self):
        module, add, _ = self._module()
        rewriter = PatternRewriter(add)
        with pytest.raises(IRError):
            rewriter.replace_op(add, [], new_results=[])

    def test_insert_before_and_erase(self):
        module, add, use = self._module()
        rewriter = PatternRewriter(add)
        fresh = arith.ConstantOp.from_int(3)
        rewriter.insert_before(fresh, add)
        assert module.block.ops[2] is fresh
        assert rewriter.changed


class TestPassManager:
    def test_runs_in_order(self):
        order = []
        pm = PassManager(
            [
                LambdaPass("a", lambda m: order.append("a")),
                LambdaPass("b", lambda m: order.append("b")),
            ]
        )
        pm.run(builtin.ModuleOp([]))
        assert order == ["a", "b"]

    def test_snapshots(self):
        pm = PassManager(
            [LambdaPass("noop", lambda m: None)], snapshot=True
        )
        pm.run(builtin.ModuleOp([]))
        assert [name for name, _ in pm.snapshots] == ["input", "noop"]

    def test_verification_between_passes(self):
        def corrupt(module):
            fn = func.FuncOp("f", [])
            fn.entry_block.add_op(func.ReturnOp())
            fn.entry_block.add_op(arith.ConstantOp.from_int(1))
            module.block.add_op(fn)

        pm = PassManager([LambdaPass("corrupt", corrupt)])
        with pytest.raises(VerificationError):
            pm.run(builtin.ModuleOp([]))

    def test_pipeline_spec(self):
        pm = PassManager([LambdaPass("x", lambda m: None)])
        assert pm.pipeline_spec == "x"
