"""Coverage for remaining IR utility surfaces: value naming, insert
points, branch printing."""

from repro.dialects import arith, riscv_cf
from repro.ir import Block, Builder, InsertPoint, f64
from repro.ir.printer import value_name


class TestInsertPoints:
    def test_after(self):
        block = Block()
        first = arith.ConstantOp.from_int(1)
        block.add_op(first)
        point = InsertPoint.after(first)
        assert point.index == 1
        second = Builder(point).insert(arith.ConstantOp.from_int(2))
        assert block.ops == (first, second)


class TestValueName:
    def test_hinted(self):
        c = arith.ConstantOp.from_int(1)
        c.results[0].name_hint = "count"
        assert value_name(c.results[0]) == "%count"

    def test_block_argument(self):
        block = Block([f64])
        assert value_name(block.args[0]) == "%arg0"

    def test_anonymous(self):
        c = arith.ConstantOp.from_int(1)
        assert value_name(c.results[0]) == "%?"


class TestBranchPrinting:
    def test_beq_bne(self):
        from repro.dialects import riscv
        from repro.dialects.riscv import IntRegisterType

        t0 = riscv.GetRegisterOp(IntRegisterType("t0")).result
        t1 = riscv.GetRegisterOp(IntRegisterType("t1")).result
        assert (
            riscv_cf.BeqOp(t0, t1, "x").assembly_line()
            == "beq t0, t1, x"
        )
        assert (
            riscv_cf.BneOp(t0, t1, "x").assembly_line()
            == "bne t0, t1, x"
        )
