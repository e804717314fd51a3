"""Tests for the multi-level spill-free register allocator (Section 3.3)."""

import pytest

from repro.backend.register_allocator import (
    RegisterAllocator,
    RegisterPressureError,
    allocate_registers,
    count_used_registers,
)
from repro.backend.registers import SNITCH_STREAM_REGISTERS
from repro.dialects import riscv, riscv_func, riscv_scf, riscv_snitch
from repro.dialects.riscv import FloatRegisterType, IntRegisterType
from repro.dialects.builtin import ModuleOp
from repro.dialects.snitch_stream import StreamingRegionOp, StridePattern
from repro.ir import Builder, IRError
from repro.transforms.lower_snitch_stream import LowerSnitchStreamPass


def make_func(arg_kinds=("int",)):
    fn = riscv_func.FuncOp(
        "f", riscv_func.abi_arg_types(list(arg_kinds))
    )
    return fn, Builder.at_end(fn.entry_block)


class TestBasicAllocation:
    def test_simple_chain(self):
        fn, b = make_func(["int", "int"])
        a0, a1 = fn.args
        add = b.insert(riscv.AddOp(a0, a1))
        b.insert(riscv.SwOp(add.rd, a0, 0))
        b.insert(riscv_func.ReturnOp())
        allocate_registers(fn)
        assert add.rd.type.is_allocated
        assert add.assembly_line().startswith("add ")

    def test_abi_registers_excluded(self):
        """Pass 1: the a-registers of the arguments never get reused."""
        fn, b = make_func(["int", "int", "int"])
        values = [b.insert(riscv.LiOp(i)).rd for i in range(5)]
        total = values[0]
        for v in values[1:]:
            total = b.insert(riscv.AddOp(total, v)).rd
        b.insert(riscv.SwOp(total, fn.args[0], 0))
        b.insert(riscv_func.ReturnOp())
        allocate_registers(fn)
        used = {v.type.register for v in values}
        assert not used & {"a0", "a1", "a2"}

    def test_registers_reused_after_death(self):
        """The backwards walk frees a register at its definition."""
        fn, b = make_func(["int"])
        li1 = b.insert(riscv.LiOp(1))
        use1 = b.insert(riscv.SwOp(li1.rd, fn.args[0], 0))
        li2 = b.insert(riscv.LiOp(2))
        b.insert(riscv.SwOp(li2.rd, fn.args[0], 8))
        b.insert(riscv_func.ReturnOp())
        allocate_registers(fn)
        # li1 dies at the first store; li2 can take the same register.
        assert li1.rd.type == li2.rd.type

    def test_overlapping_ranges_distinct(self):
        fn, b = make_func(["int"])
        li1 = b.insert(riscv.LiOp(1))
        li2 = b.insert(riscv.LiOp(2))
        add = b.insert(riscv.AddOp(li1.rd, li2.rd))
        b.insert(riscv.SwOp(add.rd, fn.args[0], 0))
        b.insert(riscv_func.ReturnOp())
        allocate_registers(fn)
        assert li1.rd.type != li2.rd.type

    def test_dead_result_still_gets_register(self):
        fn, b = make_func([])
        li = b.insert(riscv.LiOp(1))
        b.insert(riscv_func.ReturnOp())
        allocate_registers(fn)
        assert li.rd.type.is_allocated

    def test_pressure_error(self):
        """No spilling: exhausting the pool raises (paper Section 3.3)."""
        fn, b = make_func(["int"])
        values = [b.insert(riscv.LiOp(i)).rd for i in range(20)]
        total = values[0]
        for v in values[1:]:
            total = b.insert(riscv.AddOp(total, v)).rd
        b.insert(riscv.SwOp(total, fn.args[0], 0))
        b.insert(riscv_func.ReturnOp())
        with pytest.raises(RegisterPressureError):
            allocate_registers(fn)


class TestLoopAllocation:
    def _loop_func(self):
        """Accumulating loop: sum += 1.0, 10 times."""
        fn, b = make_func(["float"])
        lb = b.insert(riscv.LiOp(0)).rd
        ub = b.insert(riscv.LiOp(10)).rd
        step = b.insert(riscv.LiOp(1)).rd
        loop = riscv_scf.ForOp(lb, ub, step, [fn.args[0]])
        b.insert(loop)
        body = Builder.at_end(loop.body_block)
        acc = loop.body_iter_args[0]
        new = body.insert(riscv.FAddDOp(acc, acc))
        body.insert(riscv_scf.YieldOp([new.rd]))
        b.insert(riscv.FSdOp(loop.results[0], fn.args[0], 0)) if False else None
        b.insert(riscv_func.ReturnOp())
        return fn, loop, new

    def test_loop_group_unified(self):
        """Item D: body arg, yield operand and result share a register."""
        fn, loop, new = self._loop_func()
        allocate_registers(fn)
        group_types = {
            loop.body_iter_args[0].type,
            new.rd.type,
            loop.results[0].type,
        }
        assert len(group_types) == 1

    def test_multiuse_init_keeps_own_register(self):
        """An init used after the loop must not share the loop register."""
        fn, b = make_func(["int"])
        ptr = b.insert(riscv.MVOp(fn.args[0])).rd
        lb = b.insert(riscv.LiOp(0)).rd
        ub = b.insert(riscv.LiOp(4)).rd
        step = b.insert(riscv.LiOp(1)).rd
        loop = riscv_scf.ForOp(lb, ub, step, [ptr])
        b.insert(loop)
        body = Builder.at_end(loop.body_block)
        adv = body.insert(riscv.AddiOp(loop.body_iter_args[0], 8))
        body.insert(riscv_scf.YieldOp([adv.rd]))
        # second use of ptr after the loop:
        b.insert(riscv.SwOp(ptr, ptr, 0))
        b.insert(riscv_func.ReturnOp())
        allocate_registers(fn)
        assert ptr.type != loop.body_iter_args[0].type

    def test_outer_value_live_through_loop(self):
        """Pass 2/item B: a value used in the body keeps its register
        for the whole loop, not just until its (first) use."""
        fn, b = make_func(["int"])
        outer = b.insert(riscv.LiOp(42)).rd
        lb = b.insert(riscv.LiOp(0)).rd
        ub = b.insert(riscv.LiOp(4)).rd
        step = b.insert(riscv.LiOp(1)).rd
        loop = riscv_scf.ForOp(lb, ub, step)
        b.insert(loop)
        body = Builder.at_end(loop.body_block)
        tmp = body.insert(riscv.LiOp(1)).rd
        body.insert(riscv.AddOp(outer, tmp))
        body.insert(riscv_scf.YieldOp())
        b.insert(riscv_func.ReturnOp())
        allocate_registers(fn)
        # The body temp must not steal the outer value's register.
        assert tmp.type != outer.type

    def test_frep_group_includes_init(self):
        """FREP has no loop preamble: init must share the register."""
        fn, b = make_func(["float"])
        x = b.insert(
            riscv.GetRegisterOp(FloatRegisterType("ft0"))
        ).result
        init = b.insert(riscv.FMVOp(fn.args[0])).rd
        count = b.insert(riscv.LiOp(9)).rd
        frep = riscv_snitch.FrepOuter(count, [init])
        b.insert(frep)
        body = Builder.at_end(frep.body_block)
        fma = body.insert(
            riscv.FMAddDOp(x, x, frep.body_iter_args[0])
        )
        body.insert(riscv_snitch.FrepYieldOp([fma.rd]))
        b.insert(riscv_func.ReturnOp())
        allocate_registers(fn)
        assert init.type == frep.body_iter_args[0].type == fma.rd.type


class TestStreamingReservation:
    """Item E: ``lower-snitch-stream`` runs first and names ft0-ft2 in
    the IR, so exclusion (item A) keeps them out of the pool."""

    def _streaming_func(self, temps_live):
        fn, b = make_func(["int", "int", "int"])
        region = StreamingRegionOp(
            [fn.args[0], fn.args[1]],
            [fn.args[2]],
            [StridePattern([temps_live], [8])] * 2
            + [StridePattern([1], [8])],
        )
        b.insert(region)
        inner = Builder.at_end(region.body_block)
        x, y, z = region.body_block.args
        # Concurrently live FP temps inside the region.
        temps = [
            inner.insert(
                riscv.FAddDOp(
                    inner.insert(riscv_snitch.ReadOp(x)).result,
                    inner.insert(riscv_snitch.ReadOp(y)).result,
                )
            ).rd
            for _ in range(temps_live)
        ]
        total = temps[0]
        for t in temps[1:]:
            total = inner.insert(riscv.FAddDOp(total, t)).rd
        inner.insert(riscv_snitch.WriteOp(total, z))
        b.insert(riscv_func.ReturnOp())
        return fn, temps

    def test_stream_registers_reserved(self):
        """16 temps plus the running sum fill exactly the 17
        non-stream FP registers."""
        fn, temps = self._streaming_func(16)
        LowerSnitchStreamPass().run(ModuleOp([fn]))
        allocate_registers(fn)
        for t in temps:
            assert t.type.register not in SNITCH_STREAM_REGISTERS

    def test_pressure_does_not_reach_stream_registers(self):
        fn, _ = self._streaming_func(17)
        LowerSnitchStreamPass().run(ModuleOp([fn]))
        with pytest.raises(RegisterPressureError):
            allocate_registers(fn)

    def test_unlowered_region_refused(self):
        """Allocating before lower-snitch-stream is a pass-order error."""
        fn, _ = self._streaming_func(1)
        with pytest.raises(IRError, match="lower-snitch-stream"):
            allocate_registers(fn)

    def test_tied_operands_share_register(self):
        fn, b = make_func([])
        zero = b.insert(riscv.GetRegisterOp(IntRegisterType("zero")))
        acc0 = b.insert(riscv.FCvtDWOp(zero.result)).results[0]
        x = b.insert(riscv.FCvtDWOp(zero.result)).results[0]
        mac = b.insert(riscv_snitch.VFMacSOp(acc0, x, x))
        b.insert(
            riscv.FSdOp(
                mac.rd,
                b.insert(riscv.LiOp(64)).rd,
                0,
            )
        )
        b.insert(riscv_func.ReturnOp())
        allocate_registers(fn)
        assert acc0.type == mac.rd.type


class TestUnusedAbiRegisterReuse:
    """Item A is overly defensive: reusing the registers of arguments
    nobody reads is the paper's future work (Section 4.3)."""

    def test_default_reserves_all_arguments(self):
        fn, b = make_func(["int", "int"])  # a1 never used
        # Exhaust t-registers so the allocator would reach for a1.
        held = [b.insert(riscv.LiOp(i)).rd for i in range(7)]
        total = held[0]
        for v in held[1:]:
            total = b.insert(riscv.AddOp(total, v)).rd
        b.insert(riscv.SwOp(total, fn.args[0], 4))
        b.insert(riscv_func.ReturnOp())
        RegisterAllocator().allocate(fn)
        used = {v.type.register for v in held}
        assert "a1" not in used

    def test_used_argument_still_reserved(self):
        fn, b = make_func(["int"])
        li = b.insert(riscv.LiOp(5))
        b.insert(riscv.SwOp(li.rd, fn.args[0], 0))
        b.insert(riscv_func.ReturnOp())
        RegisterAllocator().allocate(fn)
        assert li.rd.type.register != "a0"


class TestRegisterCounting:
    def test_count_used(self):
        fn, b = make_func(["int", "float"])
        li = b.insert(riscv.LiOp(1))
        b.insert(riscv.SwOp(li.rd, fn.args[0], 0))
        b.insert(riscv_func.ReturnOp())
        allocate_registers(fn)
        fp, integer = count_used_registers(fn)
        assert fp == 1  # fa0 argument
        assert integer == 2  # a0 + the li register

    def test_zero_not_counted(self):
        fn, b = make_func([])
        b.insert(riscv.GetRegisterOp(IntRegisterType("zero")))
        b.insert(riscv_func.ReturnOp())
        allocate_registers(fn)
        fp, integer = count_used_registers(fn)
        assert integer == 0
