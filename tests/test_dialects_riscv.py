"""Tests for the RISC-V and Snitch dialects (paper Sections 3.1-3.2)."""

import pytest
from hypothesis import given, strategies as st

from repro.dialects import (
    riscv,
    riscv_cf,
    riscv_func,
    riscv_scf,
    riscv_snitch,
    snitch_stream,
)
from repro.dialects.riscv import FloatRegisterType, IntRegisterType
from repro.ir import Block, IRError, Region


def reg(name=""):
    return riscv.GetRegisterOp(IntRegisterType(name)).result


def freg(name=""):
    return riscv.GetRegisterOp(FloatRegisterType(name)).result


class TestRegisterTypes:
    def test_allocated_flag(self):
        assert IntRegisterType("t0").is_allocated
        assert not IntRegisterType().is_allocated

    def test_str(self):
        assert str(IntRegisterType("t0")) == "!rv.reg<t0>"
        assert str(IntRegisterType()) == "!rv.reg"
        assert str(FloatRegisterType("ft3")) == "!rv.freg<ft3>"

    def test_reg_name_errors(self):
        with pytest.raises(IRError):
            riscv.reg_name(reg())  # unallocated


class TestAssemblyPrinting:
    def test_rdrsrs(self):
        add = riscv.AddOp(
            reg("t1"), reg("t2"), result_type=IntRegisterType("t0")
        )
        assert add.assembly_line() == "add t0, t1, t2"

    def test_rdrsimm(self):
        addi = riscv.AddiOp(
            reg("t1"), -8, result_type=IntRegisterType("t0")
        )
        assert addi.assembly_line() == "addi t0, t1, -8"

    def test_li(self):
        li = riscv.LiOp(199, result_type=IntRegisterType("t4"))
        assert li.assembly_line() == "li t4, 199"

    def test_mv(self):
        mv = riscv.MVOp(reg("a0"), result_type=IntRegisterType("t0"))
        assert mv.assembly_line() == "mv t0, a0"

    def test_load(self):
        fld = riscv.FLdOp(
            reg("a1"), 16, result_type=FloatRegisterType("fa5")
        )
        assert fld.assembly_line() == "fld fa5, 16(a1)"

    def test_store(self):
        fsd = riscv.FSdOp(freg("fa0"), reg("a2"), 8)
        assert fsd.assembly_line() == "fsd fa0, 8(a2)"

    def test_fma(self):
        fma = riscv.FMAddDOp(
            freg("ft0"),
            freg("ft1"),
            freg("fa0"),
            result_type=FloatRegisterType("fa0"),
        )
        assert fma.assembly_line() == "fmadd.d fa0, ft0, ft1, fa0"

    def test_get_register_prints_nothing(self):
        op = riscv.GetRegisterOp(IntRegisterType("zero"))
        assert op.assembly_line() is None

    def test_comment(self):
        assert riscv.CommentOp("hi").assembly_line() == "# hi"

    def test_unallocated_fails(self):
        add = riscv.AddOp(reg("t1"), reg("t2"))
        with pytest.raises(IRError):
            add.assembly_line()


class TestControlFlow:
    def test_label(self):
        assert riscv_cf.LabelOp("loop").assembly_line() == "loop:"

    def test_branches(self):
        blt = riscv_cf.BltOp(reg("t0"), reg("t1"), ".body")
        assert blt.assembly_line() == "blt t0, t1, .body"
        bnez = riscv_cf.BnezOp(reg("a0"), ".loop")
        assert bnez.assembly_line() == "bnez a0, .loop"
        assert riscv_cf.JOp("end").assembly_line() == "j end"


class TestRiscvFunc:
    def test_abi_arg_types(self):
        types = riscv_func.abi_arg_types(["int", "float", "int"])
        assert [t.register for t in types] == ["a0", "fa0", "a1"]

    def test_abi_bad_kind(self):
        with pytest.raises(IRError):
            riscv_func.abi_arg_types(["complex"])

    def test_func_requires_allocated_args(self):
        fn = riscv_func.FuncOp(
            "f", [IntRegisterType()]
        )
        with pytest.raises(IRError):
            fn.verify_()

    def test_return_prints_ret(self):
        assert riscv_func.ReturnOp().assembly_line() == "ret"


class TestRiscvScf:
    def test_fresh_types_for_iter_args(self):
        """Body args/results never inherit pre-allocated registers."""
        init = reg("a0")
        loop = riscv_scf.ForOp(reg("zero"), reg("t0"), reg("t1"), [init])
        assert not loop.results[0].type.is_allocated
        assert not loop.body_iter_args[0].type.is_allocated

    def test_verify_needs_yield(self):
        loop = riscv_scf.ForOp(reg("zero"), reg("t0"), reg("t1"))
        with pytest.raises(IRError):
            loop.verify_()

    def test_verify_int_bounds(self):
        loop = riscv_scf.ForOp(freg("ft0"), reg("t0"), reg("t1"))
        loop.body_block.add_op(riscv_scf.YieldOp())
        with pytest.raises(IRError):
            loop.verify_()


class TestFrep:
    def _frep(self, body_ops=None, iter_args=()):
        count = reg("t0")
        frep = riscv_snitch.FrepOuter(count, iter_args)
        if body_ops is not None:
            frep.body_block.add_ops(body_ops)
        return frep

    def test_iter_args_fresh(self):
        acc = freg("ft3")
        frep = self._frep(iter_args=[acc])
        assert not frep.results[0].type.is_allocated

    def test_body_instruction_count(self):
        a, b = freg("ft0"), freg("ft1")
        fadd = riscv.FAddDOp(a, b, result_type=FloatRegisterType("ft2"))
        frep = self._frep([fadd, riscv_snitch.FrepYieldOp()])
        assert frep.body_instruction_count() == 1

    def test_rejects_integer_ops_in_body(self):
        frep = self._frep(
            [
                riscv.AddiOp(reg("t1"), 4),
                riscv_snitch.FrepYieldOp(),
            ]
        )
        with pytest.raises(IRError):
            frep.verify_()

    def test_rejects_missing_yield(self):
        frep = self._frep([riscv.FAddDOp(freg("f0" "t0"), freg("ft1"))])
        with pytest.raises(IRError):
            frep.verify_()

    def test_accepts_fp_body(self):
        x, y = freg("ft0"), freg("ft1")
        acc_init = freg()
        frep = self._frep(iter_args=[acc_init])
        body_acc = frep.body_iter_args[0]
        fma = riscv.FMAddDOp(x, y, body_acc)
        frep.body_block.add_ops(
            [fma, riscv_snitch.FrepYieldOp([fma.rd])]
        )
        frep.verify_()


class TestSnitchSIMD:
    def test_vfmac_tied(self):
        assert riscv_snitch.VFMacSOp.tied == (0, 0)
        acc = freg("ft3")
        mac = riscv_snitch.VFMacSOp(
            acc,
            freg("ft0"),
            freg("ft1"),
            result_type=FloatRegisterType("ft3"),
        )
        assert mac.assembly_line() == "vfmac.s ft3, ft0, ft1"

    def test_vfsum_asm(self):
        acc = freg("ft4")
        vsum = riscv_snitch.VFSumSOp(
            acc, freg("ft3"), result_type=FloatRegisterType("ft4")
        )
        assert vsum.assembly_line() == "vfsum.s ft4, ft3"

    def test_scfgwi(self):
        op = riscv_snitch.ScfgwiOp(reg("t0"), 24)
        assert op.assembly_line() == "scfgwi t0, 24"

    def test_csr_ops(self):
        assert (
            riscv_snitch.CsrsiOp("ssrcfg", 1).assembly_line()
            == "csrsi ssrcfg, 1"
        )
        assert (
            riscv_snitch.CsrciOp("ssrcfg", 1).assembly_line()
            == "csrci ssrcfg, 1"
        )


class TestStridePattern:
    def test_count_and_offsets(self):
        p = snitch_stream.StridePattern([2, 3], [24, 8])
        assert p.count == 6
        assert p.offsets() == [0, 8, 16, 24, 32, 40]

    def test_simplify_drops_unit_dims(self):
        p = snitch_stream.StridePattern([1, 5, 1], [0, 8, 0])
        s = p.simplified()
        assert list(s.ub) == [5]
        assert list(s.strides) == [8]

    def test_simplify_merges_contiguous(self):
        """Paper Fig 6 d: contiguous dims collapse."""
        p = snitch_stream.StridePattern([5, 200], [1600, 8])
        s = p.simplified()
        assert list(s.ub) == [1000]
        assert list(s.strides) == [8]

    def test_simplify_keeps_zero_stride(self):
        """Zero-stride (repetition) dims are preserved for the repeat
        optimization in the scfgwi lowering."""
        p = snitch_stream.StridePattern([200, 5], [8, 0])
        s = p.simplified()
        assert list(s.ub) == [200, 5]
        assert list(s.strides) == [8, 0]

    @given(
        dims=st.lists(
            st.tuples(st.integers(1, 4), st.integers(0, 64)),
            min_size=1,
            max_size=4,
        )
    )
    def test_simplify_preserves_access_sequence(self, dims):
        """Property: simplification never changes the visited offsets."""
        p = snitch_stream.StridePattern(
            [u for u, _ in dims], [s for _, s in dims]
        )
        assert p.offsets() == p.simplified().offsets()

    def test_too_many_streams_rejected(self):
        ptr = reg("t0")
        p = snitch_stream.StridePattern([1], [0])
        with pytest.raises(IRError):
            snitch_stream.StreamingRegionOp(
                [ptr, ptr], [ptr, ptr], [p] * 4
            )

    def test_region_stream_registers(self):
        region = snitch_stream.StreamingRegionOp(
            [reg("t0"), reg("t1")],
            [reg("t2")],
            [snitch_stream.StridePattern([4], [8])] * 3,
        )
        assert [
            arg.type.element_type.register
            for arg in region.body_block.args
        ] == ["ft0", "ft1", "ft2"]
        region.verify_()
