"""Focused tests of the cycle model's architectural behaviours —
each one corresponds to a performance effect the paper measures."""

import numpy as np
import pytest

from repro.snitch import SnitchMachine, TCDM, assemble
from repro.snitch.isa import scfg_address
from repro.snitch.machine import (
    BRANCH_TAKEN_PENALTY,
    FP_LATENCY,
    FP_LOAD_LATENCY,
    INT_LOAD_LATENCY,
    MUL_LATENCY,
    bits_to_f64,
)


def run(asm, int_args=None, float_args=None, memory=None):
    program = assemble("main:\n" + asm + "\nret")
    machine = SnitchMachine(program, memory)
    trace = machine.run("main", int_args=int_args, float_args=float_args)
    return machine, trace


class TestTimingParameters:
    """One exact-cycle micro-program per latency parameter of
    ``repro.snitch.isa`` (docs/MACHINE_MODEL.md cites these): the
    literal cycle count fails if the constant moves by one, the
    symbolic form if the model stops using it."""

    def test_fp_latency(self):
        _, trace = run("fadd.d fa0, fa1, fa2\nfadd.d fa3, fa0, fa0")
        # issue at 0; the dependent add waits until 0 + FP_LATENCY.
        assert trace.cycles == 1 + FP_LATENCY == 5
        assert trace.fpu_stall_cycles == FP_LATENCY - 1 == 3

    def test_fp_load_latency(self):
        mem = TCDM()
        addr = mem.allocate(8)
        _, trace = run(
            f"li t0, {addr}\nfld fa0, 0(t0)\nfadd.d fa1, fa0, fa0",
            memory=mem,
        )
        # li; fld issues at 1, its data is usable at 1 + FP_LOAD_LATENCY.
        assert trace.cycles == 2 + FP_LOAD_LATENCY == 5

    def test_int_load_latency(self):
        mem = TCDM()
        addr = mem.allocate(8)
        _, trace = run(
            f"li t0, {addr}\nlw t1, 0(t0)\nadd t2, t1, t1", memory=mem
        )
        assert trace.cycles == 2 + INT_LOAD_LATENCY == 5

    def test_mul_latency(self):
        _, trace = run("li t0, 3\nmul t1, t0, t0\nadd t2, t1, t1")
        assert trace.cycles == 2 + MUL_LATENCY == 5

    def test_branch_taken_penalty(self):
        _, taken = run("li t0, 1\nbnez t0, skip\nli t1, 1\nskip:")
        assert taken.cycles == 2 + BRANCH_TAKEN_PENALTY == 4
        _, jump = run("j skip\nskip:")
        assert jump.cycles == 1 + BRANCH_TAKEN_PENALTY == 3
        _, fallthrough = run("li t0, 0\nbnez t0, skip\nskip:")
        assert fallthrough.cycles == 2


class TestIssueModel:
    def test_fp_dispatch_costs_one_int_cycle(self):
        """Every FP instruction passes through the integer issue port —
        the mechanism that throttles the explicit-load baselines."""
        _, only_int = run("li t0, 1\nli t1, 2")
        _, with_fp = run("li t0, 1\nfadd.d fa0, fa1, fa2\nli t1, 2")
        assert with_fp.cycles >= only_int.cycles + 1

    def test_independent_fp_ops_pipeline(self):
        body = "\n".join(
            f"fadd.d fa{i}, fa6, fa7" for i in range(5)
        )
        _, trace = run(body, float_args={"fa6": 1.0, "fa7": 2.0})
        # 5 independent adds issue back to back: ~1 per cycle.
        assert trace.fpu_arith_cycles == 5
        assert trace.fpu_stall_cycles == 0

    def test_load_use_stall(self):
        mem = TCDM()
        addr = mem.allocate(8)
        mem.store_u32(addr, 7)
        _, dependent = run(
            f"li t0, {addr}\nlw t1, 0(t0)\nadd t2, t1, t1",
            memory=mem,
        )
        mem2 = TCDM()
        addr2 = mem2.allocate(8)
        _, independent = run(
            f"li t0, {addr2}\nlw t1, 0(t0)\nli t3, 1\nadd t2, t3, t3",
            memory=mem2,
        )
        # The dependent add waits for the load-use latency:
        # li(1) + lw(1) + stall until data is ready + add(1).
        assert dependent.cycles == 2 + INT_LOAD_LATENCY
        assert dependent.cycles > independent.cycles - 1

    def test_mul_latency(self):
        _, chained = run("li t0, 3\nmul t1, t0, t0\nadd t2, t1, t1")
        _, unchained = run("li t0, 3\nmul t1, t0, t0\nadd t2, t0, t0")
        assert chained.cycles > unchained.cycles


class TestFrepModel:
    def test_frep_throughput_one_per_cycle(self):
        """Independent FREP bodies sustain one FP op per cycle — the
        mechanism behind the paper's ~100% utilization claims."""
        asm = """
            li t0, 99
            frep.o t0, 2, 0, 0
            fadd.d fa0, fa2, fa3
            fadd.d fa1, fa2, fa3
        """
        _, trace = run(asm, float_args={"fa2": 1.0, "fa3": 2.0})
        assert trace.fpu_arith_cycles == 200
        assert trace.cycles <= 205

    def test_frep_accumulator_chain_stalls(self):
        """A single-accumulator FREP body is latency-bound at
        1/FP_LATENCY — why unroll-and-jam exists."""
        asm = """
            li t0, 99
            frep.o t0, 1, 0, 0
            fadd.d fa0, fa0, fa1
        """
        _, trace = run(asm, float_args={"fa1": 1.0})
        assert trace.cycles >= 99 * FP_LATENCY
        assert trace.fpu_utilization <= 1 / FP_LATENCY + 0.01

    def test_four_accumulators_hide_latency(self):
        body = "\n".join(
            f"fadd.d fa{i}, fa{i}, fa4" for i in range(4)
        )
        asm = f"li t0, 99\nfrep.o t0, 4, 0, 0\n{body}"
        _, trace = run(asm, float_args={"fa4": 1.0})
        assert trace.fpu_utilization > 0.95

    def test_nested_int_code_after_frep_overlaps(self):
        asm = """
            li t0, 49
            frep.o t0, 1, 0, 0
            fmadd.d fa0, fa1, fa2, fa0
            li t1, 1
            li t2, 2
            li t3, 3
            li t4, 4
        """
        _, trace = run(
            asm, float_args={"fa1": 1.0, "fa2": 1.0, "fa0": 0.0}
        )
        # integer tail fully hidden under the ~50x4-cycle FPU chain
        assert trace.cycles <= 50 * FP_LATENCY
        assert trace.cycles >= 49 * FP_LATENCY


class TestStreamingSync:
    def test_csrci_waits_for_fpu_drain(self):
        mem = TCDM()
        base = mem.allocate(8 * 8)
        mem.write_array(base, np.arange(8, dtype=np.float64))
        asm = f"""
            li t0, 7
            scfgwi t0, {scfg_address(0, 0)}
            li t1, 8
            scfgwi t1, {scfg_address(0, 8)}
            li t1, 0
            scfgwi t1, {scfg_address(0, 16)}
            scfgwi a0, {scfg_address(0, 24)}
            csrsi ssrcfg, 1
            li t2, 7
            frep.o t2, 1, 0, 0
            fadd.d fa0, fa0, ft0
            csrci ssrcfg, 1
            li t3, 1
        """
        machine, trace = run(asm, int_args={"a0": base}, memory=mem)
        # The final li executes only after the FPU drained all 8 adds
        # (chained: 8 * FP_LATENCY cycles).
        assert trace.cycles >= 8 * FP_LATENCY

    @pytest.mark.parametrize("engine", ["run", "run_reference"])
    def test_configuration_survives_disable_and_rearm(self, engine):
        """Bound, stride and repeat words persist across ``csrci`` and a
        re-arm: a pointer-only ``scfgwi`` restarts the same pattern at a
        new base — what lets the compiler configure once per loop nest
        and arm per iteration."""
        mem = TCDM()
        first = mem.allocate(8 * 4)
        second = mem.allocate(8 * 4)
        mem.write_array(first, np.arange(4, dtype=np.float64))
        mem.write_array(second, np.arange(10, 14, dtype=np.float64))
        region = """
            scfgwi {base}, {arm}
            csrsi ssrcfg, 1
            frep.o t2, 1, 0, 0
            fadd.d {acc}, {acc}, ft0
            csrci ssrcfg, 1
        """
        arm = scfg_address(0, 24)
        asm = f"""
            li t0, 3
            scfgwi t0, {scfg_address(0, 0)}
            li t1, 8
            scfgwi t1, {scfg_address(0, 8)}
            scfgwi zero, {scfg_address(0, 16)}
            li t2, 3
        """ + region.format(base="a0", arm=arm, acc="fa0") + region.format(
            base="a1", arm=arm, acc="fa1"
        )
        program = assemble("main:\n" + asm + "\nret")
        machine = SnitchMachine(program, mem)
        trace = getattr(machine, engine)(
            "main", int_args={"a0": first, "a1": second}
        )
        assert bits_to_f64(machine.read_float_bits("fa0")) == 0 + 1 + 2 + 3
        assert bits_to_f64(machine.read_float_bits("fa1")) == 10 + 11 + 12 + 13
        assert trace.ssr_reads == 8
        # Six set-up instructions; per region scfgwi, csrsi, frep.o and
        # the first add issue back to back, the other three adds wait
        # FP_LATENCY each on the accumulator, and csrci drains.
        assert trace.cycles == 6 + 2 * (4 + 3 * FP_LATENCY) == 38

    @pytest.mark.parametrize("engine", ["run", "run_reference"])
    def test_csrci_on_disabled_ssrcfg_still_syncs(self, engine):
        """Streaming was never enabled, so ``csrci`` clears nothing, yet
        the integer core still waits for the FPU."""
        program = "fadd.d fa0, fa1, fa2\nfadd.d fa3, fa0, fa0\n"
        cycles = []
        for drain in ("", "csrci ssrcfg, 1\n"):
            machine = SnitchMachine(
                assemble(f"main:\n{program}{drain}li t0, 1\nret")
            )
            cycles.append(getattr(machine, engine)("main").cycles)
            assert not machine.streaming
        # The dependent add issues at FP_LATENCY.  Without the drain the
        # li issues at cycle 2; behind it, at 1 + FP_LATENCY.
        assert cycles == [1 + FP_LATENCY, 2 + FP_LATENCY] == [5, 6]

    @staticmethod
    def _row_loop(rotated: bool) -> str:
        """Two rows of a 4-element sum, re-armed per row.  Rotated, the
        drain sits at the row loop's head and after the loop, as
        ``lower-snitch-stream`` places it when only pointer advances
        follow the region."""
        head = "csrci ssrcfg, 1" if rotated else ""
        return f"""
            li t0, 3
            scfgwi t0, {scfg_address(0, 0)}
            li t1, 8
            scfgwi t1, {scfg_address(0, 8)}
            scfgwi zero, {scfg_address(0, 16)}
            li t2, 3
            li t3, 2
        row:
            {head}
            scfgwi a0, {scfg_address(0, 24)}
            csrsi ssrcfg, 1
            frep.o t2, 1, 0, 0
            fadd.d fa0, fa0, ft0
            {"" if rotated else "csrci ssrcfg, 1"}
            addi a0, a0, 32
            addi t3, t3, -1
            bnez t3, row
            {head}
        """

    @pytest.mark.parametrize("engine", ["run", "run_reference"])
    def test_rotated_row_loop_hides_loop_control(self, engine):
        """Rotated, the pointer advance, the counter and the back-edge
        issue while the FPU still adds: the row transition saves
        3 + BRANCH_TAKEN_PENALTY cycles, the last row 3 (its branch is
        not taken), and the first row's head ``csrci`` costs one."""
        cycles = {}
        for rotated in (False, True):
            mem = TCDM()
            base = mem.allocate(8 * 8)
            mem.write_array(base, np.arange(8, dtype=np.float64))
            program = assemble("main:\n" + self._row_loop(rotated) + "\nret")
            machine = SnitchMachine(program, mem)
            trace = getattr(machine, engine)("main", int_args={"a0": base})
            assert bits_to_f64(machine.read_float_bits("fa0")) == 28.0
            assert trace.ssr_reads == 8
            cycles[rotated] = trace.cycles
        assert cycles == {False: 47, True: 40}
        assert cycles[False] - cycles[True] == (
            (3 + BRANCH_TAKEN_PENALTY) + 3 - 1
        )

    @staticmethod
    def _jobs(drained: bool, jobs: int = 3):
        """``jobs`` 4-element sums, one per arm of mover 0, each on its
        own accumulator (four chained adds: 13 FPU cycles).  Drained,
        every job ends in ``csrci`` and the next arm re-enables; else
        streaming stays on and each arm queues the next job.  Returns
        (cycles, issue cycle of each arm, the sums), asserted identical
        on both engines."""
        setup = f"""
            li t0, 3
            scfgwi t0, {scfg_address(0, 0)}
            li t1, 8
            scfgwi t1, {scfg_address(0, 8)}
            scfgwi zero, {scfg_address(0, 16)}
            li t2, 3
        """
        arm = scfg_address(0, 24)
        job = """
            scfgwi a{j}, {arm}
            {enable}
            frep.o t2, 1, 0, 0
            fadd.d fa{j}, fa{j}, ft0
            {drain}
        """
        body = "".join(
            job.format(
                j=j,
                arm=arm,
                enable="csrsi ssrcfg, 1" if drained or j == 0 else "",
                drain="csrci ssrcfg, 1" if drained else "",
            )
            for j in range(jobs)
        )
        tail = "" if drained else "csrci ssrcfg, 1"
        program = assemble(f"main:\n{setup}{body}{tail}\nret")
        outcomes = []
        for engine in ("run", "run_reference"):
            mem = TCDM()
            bases = {}
            for j in range(jobs):
                bases[f"a{j}"] = mem.allocate(8 * 4)
                mem.write_array(
                    bases[f"a{j}"], np.arange(4 * j, 4 * j + 4, dtype=float)
                )
            machine = SnitchMachine(program, mem, record_timeline=True)
            trace = getattr(machine, engine)("main", int_args=bases)
            assert trace.ssr_reads == 4 * jobs
            arms = [
                cycle
                for cycle, unit, text in machine.timeline
                if text.startswith("scfgwi a")
            ]
            sums = [
                bits_to_f64(machine.read_float_bits(f"fa{j}"))
                for j in range(jobs)
            ]
            outcomes.append((trace.cycles, arms, sums))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    def test_rearm_in_flight_issues_at_once(self):
        """(a) The second arm queues its job while the FPU still works
        on the first: it issues as soon as frep.o has fed its body
        (6 set-up, arm, enable, frep.o and its body slot).  The second
        job's first add follows the first job's last back to back."""
        cycles, arms, sums = self._jobs(drained=False, jobs=2)
        assert arms == [6, 10]
        assert sums == [0 + 1 + 2 + 3, 4 + 5 + 6 + 7]
        assert cycles == 9 + 2 * (1 + 3 * FP_LATENCY) == 35

    def test_third_arm_waits_one_job_deep(self):
        """(b) The shadow is one deep: the third arm waits until every
        FPU instruction dispatched before the second arm has issued —
        the first job's adds, the last at 9 + 3 * FP_LATENCY.  Without
        the rule, and with a two-deep shadow, it would issue at 13.
        The FPU still runs the three jobs back to back."""
        cycles, arms, sums = self._jobs(drained=False)
        assert arms == [6, 10, 9 + 3 * FP_LATENCY + 1] == [6, 10, 22]
        assert sums == [6.0, 22.0, 38.0]
        assert cycles == 9 + 3 * (1 + 3 * FP_LATENCY) == 48

    def test_arm_drain_rearm_costs_what_it_did(self):
        """(c) An arm behind a drain never waits on the shadow: the
        drain already put the integer core past the FPU.  Each job
        costs arm, enable, frep.o, the body slot and three chained
        adds, as before the shadow was modelled."""
        cycles, arms, sums = self._jobs(drained=True)
        assert arms == [6, 22, 38]
        assert sums == [6.0, 22.0, 38.0]
        assert cycles == 6 + 3 * (4 + 3 * FP_LATENCY) == 54

    def test_branch_penalty_accumulates(self):
        loop = """
            li t0, 10
        head:
            addi t0, t0, -1
            bnez t0, head
        """
        _, trace = run(loop)
        straight = 1 + 10 * 2  # li + 10x (addi + bnez)
        assert trace.cycles == straight + 9 * BRANCH_TAKEN_PENALTY


class TestMemoryEffects:
    def test_flw_fsw_single_precision(self):
        mem = TCDM()
        addr = mem.allocate(8)
        mem.store_f32(addr, 2.5)
        machine, _ = run(
            f"li t0, {addr}\nflw fa0, 0(t0)\nfsw fa0, 4(t0)",
            memory=mem,
        )
        assert mem.load_f32(addr + 4) == 2.5

    def test_stores_count_in_trace(self):
        mem = TCDM()
        addr = mem.allocate(16)
        _, trace = run(
            f"li t0, {addr}\nfsd fa0, 0(t0)\nsw t0, 8(t0)",
            float_args={"fa0": 1.0},
            memory=mem,
        )
        assert trace.stores == 2
