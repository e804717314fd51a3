"""Unit tests for the predecoded closure engine (repro.snitch.engine).

The hypothesis-driven randomized differential suite lives in
``test_property_sim_differential.py``; this file pins down fixed
behaviours: bit-exactness on handwritten programs covering every
instruction class, decode caching (once per program, shared across
machines and cluster cores), and the error paths both engines must
agree on.
"""

import numpy as np
import pytest

from repro import api, kernels
from repro.backend.registers import FLOAT_REGISTERS, INT_REGISTERS
from repro.snitch import SnitchMachine, SimulationError, TCDM, assemble
from repro.obs import METRICS
from repro.snitch.cluster import run_row_partitioned
from repro.snitch.engine import decode
from repro.snitch.isa import scfg_address
from repro.snitch.machine import bits_to_f64


def assert_same_outcome(
    asm,
    int_args=None,
    float_args=None,
    seed_memory=None,
    max_instructions=50_000_000,
):
    """Run ``asm`` on both engines; assert every observable is equal.

    ``seed_memory`` is a bytes prefix loaded into both TCDMs.  Returns
    the fast machine (for additional assertions).
    """
    program = assemble(asm)
    machines = []
    for reference in (False, True):
        memory = TCDM()
        if seed_memory:
            memory.data[: len(seed_memory)] = seed_memory
        machine = SnitchMachine(
            program,
            memory,
            max_instructions=max_instructions,
            record_timeline=True,
        )
        runner = machine.run_reference if reference else machine.run
        error = None
        try:
            runner("main", int_args=int_args, float_args=float_args)
        except Exception as exc:  # compared against the other engine
            error = exc
        machines.append((machine, error))
    (fast, fast_error), (ref, ref_error) = machines
    if ref_error is None:
        assert fast_error is None, fast_error
    else:
        assert type(fast_error) is type(ref_error)
        assert str(fast_error) == str(ref_error)
    assert fast.trace == ref.trace
    assert fast.timeline == ref.timeline
    assert bytes(fast.memory.data) == bytes(ref.memory.data)
    for name in INT_REGISTERS + FLOAT_REGISTERS:
        assert fast.read_int(name) == ref.read_int(name), name
        assert fast.read_float_bits(name) == ref.read_float_bits(name), name
    assert fast.int_time == ref.int_time
    assert fast.fpu_time == ref.fpu_time
    assert fast._executed == ref._executed
    assert fast.streaming == ref.streaming
    for fast_mover, ref_mover in zip(fast.movers, ref.movers):
        assert fast_mover == ref_mover
    return fast


def ssr_dot_product_asm(n, a_base, b_base):
    """FREP+SSR dot product: fa0 += a[i] * b[i] over streams ft0/ft1."""
    lines = ["main:"]
    for mover, base in ((0, a_base), (1, b_base)):
        lines += [
            f"li t0, {n - 1}",
            f"scfgwi t0, {scfg_address(mover, 0)}",
            "li t0, 8",
            f"scfgwi t0, {scfg_address(mover, 8)}",
            f"li t0, {base}",
            f"scfgwi t0, {scfg_address(mover, 24)}",
        ]
    lines += [
        "csrsi ssrcfg, 1",
        f"li t1, {n - 1}",
        "frep.o t1, 1, 0, 0",
        "fmadd.d fa0, ft0, ft1, fa0",
        "csrci ssrcfg, 1",
        "ret",
    ]
    return "\n".join(lines)


class TestBitExactness:
    def test_scalar_loop(self):
        assert_same_outcome(
            """
            main:
                li t0, 25
                li t1, 0
                li t2, 0
            loop:
                add t1, t1, t0
                mul t3, t1, t0
                slli t4, t0, 1
                sub t3, t3, t4
                addi t0, t0, -1
                bnez t0, loop
                add t5, t1, t3
                ret
            """
        )

    def test_memory_and_branches(self):
        assert_same_outcome(
            """
            main:
                li t0, 64
                li t1, 7
                sw t1, 0(t0)
                lw t2, 0(t0)
                add t3, t2, t2
                sw t3, 4(t0)
                lw t4, 4(t0)
                beq t2, t1, ok
                li t6, 111
            ok:
                blt t4, t2, bad
                j done
            bad:
                li t6, 222
            done:
                ret
            """
        )

    def test_fp_pipeline_and_raw_stalls(self):
        assert_same_outcome(
            """
            main:
                fadd.d fa0, fa1, fa2
                fadd.d fa0, fa0, fa2
                fmul.d fa3, fa0, fa1
                fmadd.d fa4, fa3, fa1, fa0
                fmax.d fa5, fa4, fa1
                fmin.d fa6, fa4, fa1
                fsub.d fa7, fa5, fa6
                fmv.d ft3, fa7
                fcvt.d.w ft4, zero
                ret
            """,
            float_args={"fa1": 1.5, "fa2": -2.25},
        )

    def test_fp_loads_stores(self):
        memory = TCDM()
        base = memory.allocate(32)
        memory.store_f64(base, 3.5)
        memory.store_f64(base + 8, -1.25)
        assert_same_outcome(
            f"""
            main:
                li a0, {base}
                fld fa0, 0(a0)
                fld fa1, 8(a0)
                fadd.d fa2, fa0, fa1
                fsd fa2, 16(a0)
                flw ft3, 0(a0)
                fsw ft3, 24(a0)
                lw t0, 16(a0)
                ret
            """,
            seed_memory=bytes(memory.data[:256]),
        )

    def test_frep_replay(self):
        assert_same_outcome(
            """
            main:
                li t0, 9
                frep.o t0, 2, 0, 0
                fadd.d fa0, fa2, fa3
                fmadd.d fa1, fa0, fa2, fa1
                ret
            """,
            float_args={"fa2": 1.0, "fa3": 2.0},
        )

    def test_ssr_frep_dot_product(self):
        n = 16
        memory = TCDM()
        a_base = memory.allocate(n * 8)
        b_base = memory.allocate(n * 8)
        rng = np.random.default_rng(3)
        a = rng.uniform(-2, 2, n)
        b = rng.uniform(-2, 2, n)
        memory.write_array(a_base, a)
        memory.write_array(b_base, b)
        fast = assert_same_outcome(
            ssr_dot_product_asm(n, a_base, b_base),
            seed_memory=bytes(memory.data[: b_base + n * 8]),
        )
        got = bits_to_f64(fast.read_float_bits("fa0"))
        assert got == pytest.approx(float(a @ b))
        assert fast.trace.ssr_reads == 2 * n

    def test_ssr_write_stream_and_repetition(self):
        """ft2 as a write stream; ft0 read with element repetition.

        ``fadd.d ft2, ft0, ft0`` pops the read stream twice per
        instruction, and repeat=1 serves every element twice — so each
        instruction sees one element on both operands and the stream
        sustains ``n`` doublings from ``n`` source elements.
        """
        n = 6
        memory = TCDM()
        src = memory.allocate(n * 8)
        dst = memory.allocate(n * 8)
        memory.write_array(src, np.arange(1.0, n + 1.0))
        asm = f"""
        main:
            li t0, {n - 1}
            scfgwi t0, {scfg_address(0, 0)}
            li t0, 8
            scfgwi t0, {scfg_address(0, 8)}
            li t0, 1
            scfgwi t0, {scfg_address(0, 16)}
            li t0, {src}
            scfgwi t0, {scfg_address(0, 24)}
            li t0, {n - 1}
            scfgwi t0, {scfg_address(2, 0)}
            li t0, 8
            scfgwi t0, {scfg_address(2, 8)}
            li t0, {dst}
            scfgwi t0, {scfg_address(2, 28)}
            csrsi ssrcfg, 1
            li t1, {n - 1}
            frep.o t1, 1, 0, 0
            fadd.d ft2, ft0, ft0
            csrci ssrcfg, 1
            ret
        """
        fast = assert_same_outcome(
            asm, seed_memory=bytes(memory.data[: dst + n * 8])
        )
        out = fast.memory.read_array(dst, (n,), np.float64)
        np.testing.assert_array_equal(out, np.arange(1.0, n + 1.0) * 2)
        assert fast.trace.ssr_reads == 2 * n
        assert fast.trace.ssr_writes == n

    def test_multidim_stream_with_stride_rewrite_mid_pattern(self):
        """A 2-d read stream whose innermost stride is reconfigured
        between two streaming phases — exercises the incremental
        address generator's resync path."""
        memory = TCDM()
        base = memory.allocate(16 * 8)
        memory.write_array(base, np.arange(16, dtype=np.float64))
        asm = f"""
        main:
            li t0, 3
            scfgwi t0, {scfg_address(0, 0)}
            li t0, 1
            scfgwi t0, {scfg_address(0, 1)}
            li t0, 8
            scfgwi t0, {scfg_address(0, 8)}
            li t0, 32
            scfgwi t0, {scfg_address(0, 9)}
            li t0, {base}
            scfgwi t0, {scfg_address(0, 25)}
            csrsi ssrcfg, 1
            fadd.d fa0, ft0, ft0
            fadd.d fa1, ft0, ft0
            li t0, 16
            scfgwi t0, {scfg_address(0, 8)}
            fadd.d fa2, ft0, ft0
            fadd.d fa3, ft0, ft0
            csrci ssrcfg, 1
            ret
        """
        assert_same_outcome(
            asm, seed_memory=bytes(memory.data[: base + 16 * 8])
        )

    def test_packed_simd(self):
        assert_same_outcome(
            """
            main:
                vfcpka.s.s ft3, fa0, fa1
                vfcpka.s.s ft4, fa2, fa3
                vfadd.s ft5, ft3, ft4
                vfmul.s ft6, ft3, ft4
                vfmac.s ft6, ft3, ft4
                vfmax.s ft7, ft5, ft6
                vfsum.s ft8, ft7
                fadd.s fa4, fa0, fa1
                fmadd.s fa5, fa4, fa0, fa1
                ret
            """,
            float_args={
                "fa0": 1.5, "fa1": -2.0, "fa2": 0.25, "fa3": 3.0
            },
        )

    def test_csr_drain_synchronizes_timelines(self):
        fast = assert_same_outcome(
            """
            main:
                csrsi ssrcfg, 1
                fadd.d fa0, fa1, fa2
                fadd.d fa0, fa0, fa2
                csrci ssrcfg, 1
                li t0, 1
                ret
            """,
            float_args={"fa1": 1.0, "fa2": 2.0},
        )
        assert not fast.streaming


class TestErrorParity:
    def test_frep_budget_checked_inside_loop(self):
        """Satellite regression: a runaway ``frep.o`` trip count must
        raise promptly, not replay every iteration first."""
        asm = """
        main:
            li t0, 99999999
            frep.o t0, 1, 0, 0
            fadd.d fa0, fa1, fa2
            ret
        """
        program = assemble(asm)
        for runner_name in ("run", "run_reference"):
            machine = SnitchMachine(program, max_instructions=50)
            with pytest.raises(SimulationError, match="inside frep"):
                getattr(machine, runner_name)("main")
            assert machine._executed == 51

    def test_top_level_budget(self):
        asm = """
        main:
            li t0, 1
        loop:
            addi t0, t0, 1
            bnez t0, loop
            ret
        """
        assert_same_outcome(asm, max_instructions=40)

    def test_illegal_frep_body(self):
        assert_same_outcome(
            """
            main:
                li t0, 3
                frep.o t0, 1, 0, 0
                addi t1, t1, 1
                ret
            """
        )

    def test_frep_body_past_end(self):
        assert_same_outcome(
            """
            main:
                li t0, 3
                frep.o t0, 5, 0, 0
                fadd.d fa0, fa1, fa2
                ret
            """
        )

    def test_stream_read_past_end(self):
        memory = TCDM()
        base = memory.allocate(4 * 8)
        asm = f"""
        main:
            li t0, 1
            scfgwi t0, {scfg_address(0, 0)}
            li t0, 8
            scfgwi t0, {scfg_address(0, 8)}
            li t0, {base}
            scfgwi t0, {scfg_address(0, 24)}
            csrsi ssrcfg, 1
            fadd.d fa0, ft0, ft0
            fadd.d fa1, ft0, ft0
            fadd.d fa2, ft0, ft0
            ret
        """
        assert_same_outcome(
            asm, seed_memory=bytes(memory.data[: base + 4 * 8])
        )

    def test_unknown_scfg_word(self):
        assert_same_outcome(
            """
            main:
                li t0, 4
                scfgwi t0, 20
                ret
            """
        )

    def test_load_out_of_bounds(self):
        assert_same_outcome(
            """
            main:
                li t0, 131070
                lw t1, 0(t0)
                ret
            """
        )


class TestDecodeSharing:
    def test_decode_cached_on_program(self):
        program = assemble("main:\nli t0, 1\nret")
        before = METRICS.counter("engine_programs_decoded").value
        first = decode(program)
        second = decode(program)
        assert first is second
        assert METRICS.counter("engine_programs_decoded").value == before + 1

    def test_decode_invalidated_on_program_edit(self):
        """A length-preserving instruction replacement or a label remap
        must not serve stale closures."""
        program = assemble("main:\nli t0, 1\nli t1, 2\nret")
        decoded = decode(program)
        program.instructions[1] = assemble("li t1, 7").instructions[0]
        redecoded = decode(program)
        assert redecoded is not decoded
        machine = SnitchMachine(program)
        machine.run("main")
        assert machine.read_int("t1") == 7
        program.labels["main"] = 1
        assert decode(program) is not redecoded

    def test_two_machines_share_one_decode(self):
        program = assemble("main:\nli t0, 1\nli t1, 2\nret")
        before = METRICS.counter("engine_programs_decoded").value
        SnitchMachine(program).run("main")
        SnitchMachine(program).run("main")
        assert METRICS.counter("engine_programs_decoded").value == before + 1

    def test_compiled_kernel_program_is_cached(self):
        module, _ = kernels.matmul(1, 4, 4)
        compiled = api.compile_linalg(module, pipeline="ours")
        assert compiled.program is compiled.program

    def test_cluster_cores_share_one_decode(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, (8, 6))
        y = rng.uniform(-1, 1, (8, 6))
        z = np.zeros((8, 6))
        before = METRICS.counter("engine_programs_decoded").value
        cluster = run_row_partitioned(
            kernels.sum_kernel,
            lambda module, spec: api.compile_linalg(
                module, pipeline="ours"
            ),
            (8, 6),
            4,
            [x, y, z],
            row_parallel_args=[0, 1, 2],
        )
        np.testing.assert_allclose(cluster.arrays[2], x + y)
        assert METRICS.counter("engine_programs_decoded").value == before + 1
        assert len(cluster.cores) == 4
