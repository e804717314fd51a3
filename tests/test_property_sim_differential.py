"""Differential testing: predecoded engine vs. reference interpreter.

Randomized programs — straight-line integer/FP code, bounded loops,
memory traffic, and FREP/SSR stream kernels — are executed on both
:meth:`SnitchMachine.run` (the predecoded closure engine) and
:meth:`SnitchMachine.run_reference` (the original interpreter).  Every
observable must match bit for bit: cycle counts, every trace counter
(including the dynamic histogram), the recorded timeline, final memory
contents, and every register read.  Programs that fault must fault
identically (same exception type and message) in both engines.

A non-random sweep at the bottom runs paper kernels through all nine
named pipelines and requires the same equivalence end to end.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import api, kernels
from repro.backend.registers import FLOAT_REGISTERS, INT_REGISTERS
from repro.snitch import SnitchMachine, TCDM, assemble
from repro.snitch.machine import DeadlineExceeded
from repro.snitch.isa import scfg_address
from repro.transforms.pipelines import PIPELINE_NAMES

#: Registers the generators draw from (caller-saved, no ABI duties).
INT_POOL = ("t0", "t1", "t2", "t3", "a0", "a1", "a2")
FP_POOL = ("fa0", "fa1", "fa2", "fa3", "ft3", "ft4", "ft5")

#: Scratch window both engines may address freely.
SCRATCH_BASE = 64
SCRATCH_WORDS = 32


def run_differential(
    asm,
    int_args=None,
    float_args=None,
    seed_memory=None,
    max_instructions=20_000,
    record_timeline=True,
):
    """Execute on both engines and assert observable equivalence."""
    program = assemble(asm)
    outcomes = []
    for reference in (False, True):
        memory = TCDM()
        if seed_memory:
            memory.data[: len(seed_memory)] = seed_memory
        machine = SnitchMachine(
            program,
            memory,
            max_instructions=max_instructions,
            record_timeline=record_timeline,
        )
        runner = machine.run_reference if reference else machine.run
        error = None
        try:
            runner("main", int_args=int_args, float_args=float_args)
        except Exception as exc:
            error = exc
        outcomes.append((machine, error))
    (fast, fast_error), (ref, ref_error) = outcomes
    if ref_error is None:
        assert fast_error is None, repr(fast_error)
    else:
        assert type(fast_error) is type(ref_error), (
            fast_error, ref_error,
        )
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


# -- strategies -----------------------------------------------------------------

int_reg = st.sampled_from(INT_POOL)
fp_reg = st.sampled_from(FP_POOL)
small_imm = st.integers(min_value=-64, max_value=64)
scratch_offset = st.integers(min_value=0, max_value=SCRATCH_WORDS - 2).map(
    lambda w: w * 4
)


@st.composite
def int_instruction(draw):
    shape = draw(
        st.sampled_from(
            ("li", "mv", "add", "sub", "mul", "addi", "slli", "lw", "sw")
        )
    )
    rd = draw(int_reg)
    a = draw(int_reg)
    b = draw(int_reg)
    if shape == "li":
        return f"li {rd}, {draw(small_imm)}"
    if shape == "mv":
        return f"mv {rd}, {a}"
    if shape in ("add", "sub", "mul"):
        return f"{shape} {rd}, {a}, {b}"
    if shape == "addi":
        return f"addi {rd}, {a}, {draw(small_imm)}"
    if shape == "slli":
        return f"slli {rd}, {a}, {draw(st.integers(0, 8))}"
    offset = draw(scratch_offset)
    if shape == "lw":
        return f"lw {rd}, {offset}(s0)"
    return f"sw {rd}, {offset}(s0)"


@st.composite
def fp_instruction(draw):
    shape = draw(
        st.sampled_from(
            (
                "fadd.d", "fsub.d", "fmul.d", "fmax.d", "fmin.d",
                "fmadd.d", "fmv.d", "fcvt.d.w", "fld", "fsd",
                "vfadd.s", "vfmul.s", "vfmac.s", "vfcpka.s.s",
            )
        )
    )
    rd = draw(fp_reg)
    a = draw(fp_reg)
    b = draw(fp_reg)
    if shape == "fmadd.d":
        return f"fmadd.d {rd}, {a}, {b}, {draw(fp_reg)}"
    if shape == "vfmac.s":
        return f"vfmac.s {rd}, {a}, {b}"
    if shape == "fmv.d":
        return f"fmv.d {rd}, {a}"
    if shape == "fcvt.d.w":
        return f"fcvt.d.w {rd}, {draw(int_reg)}"
    if shape == "fld":
        return f"fld {rd}, {draw(scratch_offset) * 2}(s0)"
    if shape == "fsd":
        return f"fsd {rd}, {draw(scratch_offset) * 2}(s0)"
    return f"{shape} {rd}, {a}, {b}"


def scratch_preamble():
    return [f"li s0, {SCRATCH_BASE}"]


class TestRandomScalarPrograms:
    @settings(max_examples=60, deadline=None)
    @given(
        body=st.lists(int_instruction(), min_size=1, max_size=24),
        trip=st.integers(min_value=1, max_value=6),
        seeds=st.lists(small_imm, min_size=3, max_size=3),
    )
    def test_integer_loop_programs(self, body, trip, seeds):
        lines = ["main:"] + scratch_preamble()
        lines += [f"li a{i}, {v}" for i, v in enumerate(seeds)]
        lines += [f"li s1, {trip}", "loop:"]
        lines += body
        lines += ["addi s1, s1, -1", "bnez s1, loop", "ret"]
        run_differential("\n".join(lines))

    @settings(max_examples=60, deadline=None)
    @given(
        body=st.lists(fp_instruction(), min_size=1, max_size=24),
        floats=st.lists(
            st.floats(
                min_value=-8.0,
                max_value=8.0,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=4,
            max_size=4,
        ),
    )
    def test_fp_programs(self, body, floats):
        lines = ["main:"] + scratch_preamble()
        lines += body
        lines.append("ret")
        float_args = {f"fa{i}": v for i, v in enumerate(floats)}
        run_differential("\n".join(lines), float_args=float_args)


@st.composite
def stream_config(draw):
    """One data mover's pattern: dims, bounds, strides, repeat."""
    dims = draw(st.integers(1, 3))
    bounds = [draw(st.integers(0, 3)) for _ in range(dims)]
    strides = [
        draw(st.sampled_from((8, 16, 24))) for _ in range(dims)
    ]
    repeat = draw(st.integers(0, 2))
    return dims, bounds, strides, repeat


@st.composite
def frep_ssr_program(draw):
    """A streaming kernel: configure 1-2 read movers (+ optionally the
    ft2 write mover), enable streaming, FREP a random FPU body — then
    re-arm a mover up to three times with streaming left enabled, an
    FREP after each arm, so the one-deep shadow of pointer writes
    (``DataMover.queue``) binds.

    The generator does not try to balance element counts against pops —
    programs that run a stream past its end must fault *identically*
    in both engines, which is itself a property worth testing.
    """
    lines = ["main:"]
    arms = []  # (mover, pointer word) of each configured mover
    readers = draw(st.integers(1, 2))
    for mover in range(readers):
        dims, bounds, strides, repeat = draw(stream_config())
        for d, bound in enumerate(bounds):
            lines += [
                f"li t0, {bound}",
                f"scfgwi t0, {scfg_address(mover, d)}",
            ]
        for d, stride in enumerate(strides):
            lines += [
                f"li t0, {stride}",
                f"scfgwi t0, {scfg_address(mover, 8 + d)}",
            ]
        lines += [
            f"li t0, {repeat}",
            f"scfgwi t0, {scfg_address(mover, 16)}",
            f"li t0, {SCRATCH_BASE + mover * 256}",
            f"scfgwi t0, {scfg_address(mover, 24 + dims - 1)}",
        ]
        arms.append((mover, scfg_address(mover, 24 + dims - 1)))
    writer = draw(st.booleans())
    if writer:
        dims, bounds, strides, _ = draw(stream_config())
        for d, bound in enumerate(bounds):
            lines += [
                f"li t0, {bound}",
                f"scfgwi t0, {scfg_address(2, d)}",
            ]
        for d, stride in enumerate(strides):
            lines += [
                f"li t0, {stride}",
                f"scfgwi t0, {scfg_address(2, 8 + d)}",
            ]
        lines += [
            f"li t0, {SCRATCH_BASE + 2 * 256}",
            f"scfgwi t0, {scfg_address(2, 28 + dims - 1)}",
        ]
        arms.append((2, scfg_address(2, 28 + dims - 1)))
    stream_sources = ["ft0", "ft1"][:readers]
    result_regs = ["ft2", "fa0"] if writer else ["fa0", "fa1"]
    ops = ("fadd.d", "fmul.d", "fmadd.d", "fmv.d", "fmax.d")
    body = []
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(ops))
        rd = draw(st.sampled_from(result_regs))
        a = draw(st.sampled_from(stream_sources + ["fa2"]))
        b = draw(st.sampled_from(stream_sources + ["fa3"]))
        if op == "fmv.d":
            body.append(f"fmv.d {rd}, {a}")
        elif op == "fmadd.d":
            body.append(f"fmadd.d {rd}, {a}, {b}, {rd}")
        else:
            body.append(f"{op} {rd}, {a}, {b}")
    lines.append("csrsi ssrcfg, 1")
    for rearm in range(1 + draw(st.integers(0, 3))):
        if rearm:
            mover, word = draw(st.sampled_from(arms))
            offset = 8 * draw(st.integers(0, 8))
            lines += [
                f"li t0, {SCRATCH_BASE + mover * 256 + offset}",
                f"scfgwi t0, {word}",
            ]
        trip = draw(st.integers(1, 8))
        lines += [
            f"li t1, {trip - 1}",
            f"frep.o t1, {len(body)}, 0, 0",
            *body,
        ]
    lines += ["csrci ssrcfg, 1", "ret"]
    return "\n".join(lines)


class TestRandomStreamPrograms:
    @settings(max_examples=60, deadline=None)
    @given(
        asm=frep_ssr_program(),
        data=st.lists(
            st.floats(
                min_value=-4.0,
                max_value=4.0,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=8,
            max_size=8,
        ),
    )
    def test_frep_ssr_programs(self, asm, data):
        memory = TCDM()
        block = np.array(
            (data * ((3 * 256) // (8 * len(data)) + 1))[: (3 * 256) // 8]
        )
        memory.write_array(SCRATCH_BASE, block)
        run_differential(
            asm,
            float_args={"fa2": 1.5, "fa3": -0.75},
            seed_memory=bytes(memory.data[: SCRATCH_BASE + block.nbytes]),
        )

    @settings(max_examples=20, deadline=None)
    @given(
        trip=st.integers(0, 12),
        budget=st.integers(5, 60),
        length=st.integers(1, 3),
    )
    def test_budget_parity_under_frep(self, trip, budget, length):
        """The instruction budget must trip at the same instruction —
        including inside a FREP replay — on both engines."""
        body = [
            "fadd.d fa0, fa1, fa2",
            "fmul.d fa3, fa0, fa1",
            "fmadd.d fa4, fa3, fa1, fa4",
        ][:length]
        asm = "\n".join(
            [
                "main:",
                f"li t0, {trip}",
                f"frep.o t0, {length}, 0, 0",
                *body,
                "li t2, 5",
                "ret",
            ]
        )
        run_differential(
            asm,
            float_args={"fa1": 1.0, "fa2": 2.0},
            max_instructions=budget,
        )


@st.composite
def loop_nest_program(draw):
    """A loop whose body mixes what one generated block must get right:
    integer ops, streamed FPU ops outside FREP, pointer re-arms,
    ``csrsi``/``csrci`` toggles (so one block is entered under
    different stream signatures), an FREP, and a label in the middle of
    straight-line code reached by a forward branch."""
    lines = ["main:"] + scratch_preamble()
    words = []
    for mover, word in ((0, 24), (1, 24), (2, 28)):
        lines += [
            f"li t0, {draw(st.integers(8, 31))}",
            f"scfgwi t0, {scfg_address(mover, 0)}",
            "li t0, 8",
            f"scfgwi t0, {scfg_address(mover, 8)}",
            f"li t0, {SCRATCH_BASE + mover * 256}",
            f"scfgwi t0, {scfg_address(mover, word)}",
        ]
        words.append(scfg_address(mover, word))
    streamed = (
        "fadd.d fa0, ft0, fa1", "fmul.d fa1, ft1, fa0",
        "fmadd.d ft2, ft0, ft1, fa2", "fmax.d fa2, ft0, fa2",
        "fmv.d ft2, fa0",
    )
    pieces = [[line] for line in draw(st.lists(int_instruction(), max_size=5))]
    pieces += [[line] for line in draw(st.lists(fp_instruction(), max_size=3))]
    pieces += [
        [op] for op in draw(st.lists(st.sampled_from(streamed), max_size=4))
    ]
    pieces += [
        [f"csr{kind}i ssrcfg, 1"]
        for kind in draw(st.lists(st.sampled_from("sc"), max_size=3))
    ]
    for _ in range(draw(st.integers(0, 2))):
        mover = draw(st.integers(0, 2))
        offset = 8 * draw(st.integers(0, 4))
        pieces.append([
            f"li t0, {SCRATCH_BASE + mover * 256 + offset}",
            f"scfgwi t0, {words[mover]}",
        ])
    body = draw(st.lists(st.sampled_from(streamed), min_size=1, max_size=3))
    pieces.append(
        [f"li t1, {draw(st.integers(0, 10))}", f"frep.o t1, {len(body)}, 0, 0"]
        + body
    )
    order = draw(st.permutations(range(len(pieces))))
    straight = [line for index in order for line in pieces[index]]
    if straight and draw(st.booleans()):
        # A forward branch over part of the body to a mid-block label.
        at = draw(st.integers(0, len(straight) - 1))
        skip = draw(st.integers(at, len(straight)))
        straight[skip:skip] = ["mid:"]
        straight.insert(at, "bge t2, t3, mid")
    trip = draw(st.integers(1, 5))
    lines += ["csrsi ssrcfg, 1", f"li s1, {trip}", "loop:"]
    lines += straight
    lines += ["addi s1, s1, -1", "bnez s1, loop", "csrci ssrcfg, 1", "ret"]
    return "\n".join(lines)


class TestRandomLoopNests:
    @settings(max_examples=80, deadline=None)
    @given(
        nest=loop_nest_program(),
        cut=st.floats(min_value=0.05, max_value=1.5),
    )
    def test_loop_nests(self, nest, cut):
        """The budget is a drawn share of what the program executes
        unbounded, so it trips mid-block and mid-FREP-iteration as well
        as not at all."""
        memory = TCDM()
        memory.write_array(
            SCRATCH_BASE, np.linspace(-3.0, 3.0, (3 * 256) // 8)
        )
        seed = bytes(memory.data[: SCRATCH_BASE + 3 * 256])
        probe = SnitchMachine(assemble(nest), TCDM())
        probe.memory.data[: len(seed)] = seed
        try:  # only the count matters; a fault is compared below
            probe.run_reference("main", float_args={"fa1": 0.5, "fa2": -1.25})
        except Exception:
            pass
        for record_timeline in (True, False):  # two generated variants
            run_differential(
                nest,
                float_args={"fa1": 0.5, "fa2": -1.25},
                seed_memory=seed,
                max_instructions=max(1, int(probe._executed * cut)),
                record_timeline=record_timeline,
            )

    @pytest.mark.parametrize("record_timeline", (False, True))
    def test_deadline_tick_inside_a_block(self, record_timeline):
        """The 4096th instruction is the middle one of a three-
        instruction loop block; both engines stop there, worded alike."""
        program = assemble(
            "main:\nli t0, 5000\nli t1, 0\nloop:\naddi t1, t1, 1\n"
            "addi t0, t0, -1\nbnez t0, loop\nret"
        )
        machines = []
        for runner in ("run", "run_reference"):
            machine = SnitchMachine(
                program, deadline_seconds=1e-9,
                record_timeline=record_timeline,
            )
            with pytest.raises(DeadlineExceeded) as caught:
                getattr(machine, runner)("main")
            assert str(caught.value) == (
                "wall-clock deadline of 1e-09s exceeded after 4096 "
                "instructions"
            )
            machines.append(machine)
        fast, ref = machines
        assert fast.trace == ref.trace
        assert fast.timeline == ref.timeline
        assert (fast.int_time, fast._executed) == (ref.int_time, 4096)
        assert fast.read_int("t1") == ref.read_int("t1")


class TestPipelineKernelSweep:
    """Paper kernels through every named pipeline, both engines."""

    @pytest.mark.parametrize("pipeline", sorted(PIPELINE_NAMES))
    def test_kernels_bit_identical_across_engines(self, pipeline):
        cases = [
            (kernels.matmul, (1, 5, 4)),
            (kernels.relu, (3, 4)),
        ]
        for builder, sizes in cases:
            module, spec = builder(*sizes)
            compiled = api.compile_linalg(module, pipeline=pipeline)
            arguments = spec.random_arguments(seed=7)
            states = []
            for reference in (False, True):
                memory = TCDM()
                int_args = {}
                float_args = {}
                next_int = next_float = 0
                for argument in arguments:
                    if isinstance(argument, np.ndarray):
                        base = memory.allocate(argument.nbytes)
                        memory.write_array(base, argument)
                        int_args[f"a{next_int}"] = base
                        next_int += 1
                    else:
                        float_args[f"fa{next_float}"] = float(argument)
                        next_float += 1
                machine = SnitchMachine(
                    compiled.program, memory, record_timeline=True
                )
                runner = (
                    machine.run_reference if reference else machine.run
                )
                trace = runner(
                    compiled.entry,
                    int_args=int_args,
                    float_args=float_args,
                )
                states.append((trace, machine))
            (fast_trace, fast), (ref_trace, ref) = states
            assert fast_trace == ref_trace, (pipeline, builder.__name__)
            assert fast.timeline == ref.timeline
            assert bytes(fast.memory.data) == bytes(ref.memory.data)
