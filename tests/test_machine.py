"""Tests for the Snitch machine model: semantics and timing."""

import numpy as np
import pytest

from repro.snitch import SnitchMachine, SimulationError, TCDM, assemble
from repro.snitch.isa import scfg_address
from repro.snitch.machine import (
    BRANCH_TAKEN_PENALTY,
    FP_LATENCY,
    DeadlineExceeded,
    bits_to_f64,
    f64_to_bits,
    pack_f32x2,
    unpack_f32x2,
)


def run(asm, int_args=None, float_args=None, memory=None):
    program = assemble("main:\n" + asm + "\nret")
    machine = SnitchMachine(program, memory)
    trace = machine.run("main", int_args=int_args, float_args=float_args)
    return machine, trace


class TestBitHelpers:
    def test_f64_roundtrip(self):
        for v in (0.0, 1.5, -2.25, 1e300):
            assert bits_to_f64(f64_to_bits(v)) == v

    def test_f32_pack_unpack(self):
        bits = pack_f32x2(1.5, -2.0)
        assert unpack_f32x2(bits) == (1.5, -2.0)


class TestIntegerSemantics:
    def test_li_add_sub_mul(self):
        m, _ = run("li t0, 6\nli t1, 7\nmul t2, t0, t1\nadd t3, t2, t0\nsub t4, t3, t1")
        assert m.read_int("t2") == 42
        assert m.read_int("t3") == 48
        assert m.read_int("t4") == 41

    def test_slli(self):
        m, _ = run("li t0, 3\nslli t1, t0, 4")
        assert m.read_int("t1") == 48

    def test_zero_register_immutable(self):
        m, _ = run("li t0, 5\nadd zero, t0, t0")
        assert m.read_int("zero") == 0

    def test_lw_sw(self):
        mem = TCDM()
        addr = mem.allocate(8)
        m, t = run(
            f"li t0, {addr}\nli t1, 123\nsw t1, 0(t0)\nlw t2, 0(t0)",
            memory=mem,
        )
        assert m.read_int("t2") == 123
        assert t.loads == 1 and t.stores == 1

    def test_branches(self):
        m, _ = run(
            """
            li t0, 3
            li t1, 0
        loop:
            addi t1, t1, 2
            addi t0, t0, -1
            bnez t0, loop
            """
        )
        assert m.read_int("t1") == 6

    def test_beq_bne_blt_bge(self):
        m, _ = run(
            """
            li t0, 1
            li t1, 2
            li t2, 0
            blt t1, t0, skip
            li t2, 7
        skip:
            """
        )
        assert m.read_int("t2") == 7


class TestFloatSemantics:
    def test_fp_arith(self):
        mem = TCDM()
        a = mem.allocate(8)
        mem.store_f64(a, 0.0)
        m, _ = run(
            f"li t0, {a}\nfsd fa0, 0(t0)\nfld fa1, 0(t0)\nfadd.d fa2, fa1, fa1",
            float_args={"fa0": 2.5},
            memory=mem,
        )
        assert bits_to_f64(m.read_float_bits("fa2")) == 5.0

    def test_fmadd(self):
        m, _ = run(
            "fmadd.d fa3, fa0, fa1, fa2",
            float_args={"fa0": 2.0, "fa1": 3.0, "fa2": 1.0},
        )
        assert bits_to_f64(m.read_float_bits("fa3")) == 7.0

    def test_fmax_fmin(self):
        m, _ = run(
            "fmax.d fa2, fa0, fa1\nfmin.d fa3, fa0, fa1",
            float_args={"fa0": -1.0, "fa1": 3.0},
        )
        assert bits_to_f64(m.read_float_bits("fa2")) == 3.0
        assert bits_to_f64(m.read_float_bits("fa3")) == -1.0

    def test_fcvt_from_zero(self):
        m, _ = run("fcvt.d.w fa0, zero")
        assert bits_to_f64(m.read_float_bits("fa0")) == 0.0

    def test_fcvt_from_int(self):
        m, _ = run("li t0, -7\nfcvt.d.w fa0, t0")
        assert bits_to_f64(m.read_float_bits("fa0")) == -7.0

    def test_packed_simd(self):
        m, _ = run(
            "vfadd.s fa2, fa0, fa1\nvfmul.s fa3, fa0, fa1",
        )
        # seed packed registers directly
        m2 = SnitchMachine(assemble("main:\nvfadd.s fa2, fa0, fa1\nret"))
        m2.write_float_bits("fa0", pack_f32x2(1.0, 2.0))
        m2.write_float_bits("fa1", pack_f32x2(10.0, 20.0))
        m2.run("main")
        assert unpack_f32x2(m2.read_float_bits("fa2")) == (11.0, 22.0)

    def test_vfmac_accumulates(self):
        m = SnitchMachine(assemble("main:\nvfmac.s fa2, fa0, fa1\nret"))
        m.write_float_bits("fa0", pack_f32x2(2.0, 3.0))
        m.write_float_bits("fa1", pack_f32x2(5.0, 7.0))
        m.write_float_bits("fa2", pack_f32x2(1.0, 1.0))
        m.run("main")
        assert unpack_f32x2(m.read_float_bits("fa2")) == (11.0, 22.0)

    def test_vfsum_reduces_lanes(self):
        m = SnitchMachine(assemble("main:\nvfsum.s fa1, fa0\nret"))
        m.write_float_bits("fa0", pack_f32x2(2.0, 3.0))
        m.write_float_bits("fa1", pack_f32x2(1.0, 9.0))
        m.run("main")
        lane0, lane1 = unpack_f32x2(m.read_float_bits("fa1"))
        assert lane0 == 6.0  # 1 + 2 + 3
        assert lane1 == 9.0  # untouched

    def test_vfcpka_packs(self):
        m = SnitchMachine(assemble("main:\nvfcpka.s.s fa2, fa0, fa1\nret"))
        m.write_float_bits("fa0", pack_f32x2(1.5, 0.0))
        m.write_float_bits("fa1", pack_f32x2(2.5, 0.0))
        m.run("main")
        assert unpack_f32x2(m.read_float_bits("fa2")) == (1.5, 2.5)


class TestTiming:
    def test_int_ops_single_cycle(self):
        _, t = run("li t0, 1\nli t1, 2\nadd t2, t0, t1")
        assert t.cycles == 3

    def test_fp_raw_stall(self):
        """A dependent FP chain issues one op per FP_LATENCY cycles."""
        _, t_chain = run(
            "\n".join(["fadd.d fa0, fa0, fa0"] * 4),
            float_args={"fa0": 1.0},
        )
        _, t_indep = run(
            "\n".join(
                f"fadd.d fa{i}, fa4, fa5" for i in range(4)
            ),
            float_args={"fa4": 1.0, "fa5": 1.0},
        )
        assert t_chain.cycles > t_indep.cycles
        assert t_chain.fpu_stall_cycles >= 3 * (FP_LATENCY - 1)

    def test_branch_taken_penalty(self):
        _, taken = run("li t0, 1\nbnez t0, out\nout:")
        _, not_taken = run("li t0, 0\nbnez t0, out\nout:")
        assert taken.cycles == not_taken.cycles + BRANCH_TAKEN_PENALTY

    def test_frep_pseudo_dual_issue(self):
        """Integer work proceeds while the FPU replays the FREP body."""
        asm_frep = """
            li t0, 99
            frep.o t0, 1, 0, 0
            fadd.d fa0, fa1, fa2
            li t1, 1
            li t2, 2
            li t3, 3
        """
        _, t = run(asm_frep, float_args={"fa1": 1.0, "fa2": 2.0})
        # 100 FPU cycles dominate; the integer lis hide underneath.
        assert t.cycles <= 100 + 8
        assert t.fpu_arith_cycles == 100

    def test_fpu_utilization_definition(self):
        _, t = run(
            "li t0, 9\nfrep.o t0, 1, 0, 0\nfadd.d fa0, fa1, fa2",
            float_args={"fa1": 1.0, "fa2": 1.0},
        )
        assert t.fpu_utilization == t.fpu_arith_cycles / t.cycles

    def test_fma_counts_two_flops(self):
        _, t = run(
            "fmadd.d fa0, fa1, fa2, fa3",
            float_args={"fa1": 1.0, "fa2": 1.0, "fa3": 0.0},
        )
        assert t.flops == 2
        assert t.fmadd == 1


class TestSSR:
    def _stream_sum(self, n):
        x = np.arange(n, dtype=np.float64)
        mem = TCDM()
        base = mem.allocate(n * 8)
        mem.write_array(base, x)
        asm = f"""
            li t0, {n - 1}
            scfgwi t0, {scfg_address(0, 0)}
            li t0, 8
            scfgwi t0, {scfg_address(0, 8)}
            li t0, 0
            scfgwi t0, {scfg_address(0, 16)}
            scfgwi a0, {scfg_address(0, 24)}
            csrsi ssrcfg, 1
            fcvt.d.w fa0, zero
            li t1, {n - 1}
            frep.o t1, 1, 0, 0
            fadd.d fa0, fa0, ft0
            csrci ssrcfg, 1
        """
        m, t = run(asm, int_args={"a0": base}, memory=mem)
        return m, t, x

    def test_stream_read_values(self):
        m, t, x = self._stream_sum(16)
        assert bits_to_f64(m.read_float_bits("fa0")) == x.sum()
        assert t.ssr_reads == 16
        assert t.loads == 0  # SSR reads are not explicit loads

    def test_repeat_serves_elements_multiple_times(self):
        mem = TCDM()
        base = mem.allocate(16)
        mem.write_array(base, np.array([3.0, 5.0]))
        asm = f"""
            li t0, 1
            scfgwi t0, {scfg_address(0, 0)}
            li t0, 8
            scfgwi t0, {scfg_address(0, 8)}
            li t0, 1
            scfgwi t0, {scfg_address(0, 16)}   # repeat = 2
            scfgwi a0, {scfg_address(0, 24)}
            csrsi ssrcfg, 1
            fcvt.d.w fa0, zero
            li t1, 3
            frep.o t1, 1, 0, 0
            fadd.d fa0, fa0, ft0
            csrci ssrcfg, 1
        """
        m, _ = run(asm, int_args={"a0": base}, memory=mem)
        # 3 + 3 + 5 + 5
        assert bits_to_f64(m.read_float_bits("fa0")) == 16.0

    def test_write_stream(self):
        mem = TCDM()
        base = mem.allocate(4 * 8)
        asm = f"""
            li t0, 3
            scfgwi t0, {scfg_address(0, 0)}
            li t0, 8
            scfgwi t0, {scfg_address(0, 8)}
            li t0, 0
            scfgwi t0, {scfg_address(0, 16)}
            scfgwi a0, {scfg_address(0, 28)}   # write pointer
            csrsi ssrcfg, 1
            li t1, 3
            frep.o t1, 1, 0, 0
            fmv.d ft0, fa0
            csrci ssrcfg, 1
        """
        m, t = run(
            asm, int_args={"a0": base}, float_args={"fa0": 2.5}, memory=mem
        )
        assert list(mem.read_array(base, (4,), np.float64)) == [2.5] * 4
        assert t.ssr_writes == 4

    def test_read_past_end_raises(self):
        mem = TCDM()
        base = mem.allocate(8)
        mem.store_f64(base, 1.0)
        asm = f"""
            li t0, 0
            scfgwi t0, {scfg_address(0, 0)}
            li t0, 8
            scfgwi t0, {scfg_address(0, 8)}
            li t0, 0
            scfgwi t0, {scfg_address(0, 16)}
            scfgwi a0, {scfg_address(0, 24)}
            csrsi ssrcfg, 1
            fadd.d fa0, ft0, ft0
        """
        with pytest.raises(SimulationError):
            run(asm, int_args={"a0": base}, memory=mem)

    def test_unarmed_read_is_plain_register(self):
        m, _ = run("fadd.d fa0, ft0, ft0")
        assert bits_to_f64(m.read_float_bits("fa0")) == 0.0


class TestGuards:
    def test_infinite_loop_detected(self):
        program = assemble("main:\nloop:\nj loop\nret")
        machine = SnitchMachine(program, max_instructions=1000)
        with pytest.raises(SimulationError):
            machine.run("main")

    def test_frep_illegal_body(self):
        program = assemble("main:\nli t0, 1\nfrep.o t0, 1, 0, 0\nli t1, 2\nret")
        with pytest.raises(SimulationError):
            SnitchMachine(program).run("main")

    @pytest.mark.parametrize(
        "asm,where",
        (
            ("li t0, 5000\nloop:\naddi t0, t0, -1\nbnez t0, loop", ""),
            (
                "li t0, 9\nfrep.o t0, 1, 0, 0\nfadd.d fa0, fa1, fa2",
                " (inside frep)",
            ),
        ),
    )
    def test_deadline_worded_alike_by_both_engines(self, asm, where):
        """Satellite bugfix: one message, budget included, wherever the
        watchdog fires."""
        program = assemble(f"main:\n{asm}\nret")
        messages = []
        for runner in ("run", "run_reference"):
            machine = SnitchMachine(program, deadline_seconds=1e-9)
            with pytest.raises(DeadlineExceeded) as caught:
                getattr(machine, runner)("main")
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert messages[0] == (
            "wall-clock deadline of 1e-09s exceeded after "
            f"{machine._executed} instructions{where}"
        )
