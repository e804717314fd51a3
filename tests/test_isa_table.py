"""Every row of the ISA table, on both engines.

``repro.snitch.isa.ISA`` is the one statement of what an instruction
is; the assembler, the reference interpreter and the generated engine
closures all derive from it.  This file covers the table *by
construction*: for every mnemonic (and, for FPU rows, with a source
coming from a read stream or the result going to a write stream) a
one-instruction program runs on :meth:`SnitchMachine.run` and
:meth:`SnitchMachine.run_reference` from the same seeded state, and
everything observable must match — so a row cannot be added, or a
template changed, without the differential check seeing it.
"""

import warnings

import pytest

from repro.backend.registers import FLOAT_REGISTERS, INT_REGISTERS
from repro.snitch import SnitchMachine, TCDM, assemble
from repro.snitch.assembler import SUPPORTED_MNEMONICS
from repro.snitch.isa import (
    ISA,
    KIND_BRANCH,
    KIND_FPU,
    KIND_JUMP,
    f64_to_bits,
    pack_f32x2,
    round_f32,
    scfg_address,
    unpack_f32x2,
)

#: Operand text per assembler shape; ``{s0}..`` are the sources in
#: ``Inst.sources`` order, ``{rd}`` the destination.
SHAPES = {
    "rd_rs_rs": "{rd}, {s0}, {s1}",
    "rd_rs_imm": "{rd}, {s0}, 3",
    "rd_imm": "{rd}, 42",
    "rd_rs": "{rd}, {s0}",
    "load": "{rd}, 8({s0})",
    "store": "{s0}, 8({s1})",
    "fma": "{rd}, {s0}, {s1}, {s2}",
    "branch2": "{s0}, {s1}, out",
    "branch1": "{s0}, out",
    "jump": "out",
    "none": "",
    "csr": "ssrcfg, 1",
    "scfgwi": "{s0}, " + str(scfg_address(1, 9)),
    "frep": "{s0}, 1, 0, 0\nfadd.d fa4, fa0, fa1",
}

#: Integer operand pairs: valid scratch addresses (rows with a memory
#: operand use them as bases) that also take every branch both ways.
INT_VALUES = ((64, 72), (72, 64), (64, 64))
SCRATCH = 256  # bytes of seeded TCDM the operand addresses fall in


def instruction(mnemonic, stream):
    """One line of assembly for the row, registers chosen by the
    domain its ``reads`` column gives each source."""
    op = ISA[mnemonic]
    ints = iter(("t0", "t1"))
    floats = iter(("fa0", "fa1", "fa2"))
    sources = [
        next(ints) if mode == "x" else next(floats) for mode in op.reads
    ]
    rd = "fa3" if op.unit == KIND_FPU else "t2"
    if stream == "read":
        sources[op.reads.index(next(m for m in op.reads if m != "x"))] = "ft0"
    if stream == "write":
        rd = "ft2"
    if op.shape == "rd_acc_rs":  # rd is written once: as first source
        if stream == "write":
            sources[0] = rd
        operands = ", ".join(sources)
    else:
        names = {f"s{i}": name for i, name in enumerate(sources)}
        operands = SHAPES[op.shape].format(rd=rd, **names)
    return f"{mnemonic} {operands}".strip()


def cases():
    for mnemonic, op in ISA.items():
        yield mnemonic, None
        if op.unit == KIND_FPU:
            if any(mode != "x" for mode in op.reads):
                yield mnemonic, "read"
            if not op.store:
                yield mnemonic, "write"


def run_both(mnemonic, stream, int_values):
    op = ISA[mnemonic]
    line = instruction(mnemonic, stream)
    program = assemble(f"main:\n{line}\nli t3, 1\nout:\nret")
    machines = []
    for reference in (False, True):
        memory = TCDM()
        memory.data[:SCRATCH] = bytes(range(SCRATCH))
        machine = SnitchMachine(program, memory, record_timeline=True)
        for name, value in zip(("t0", "t1"), int_values):
            machine.write_int(name, value)
            machine.int_ready[name] = 2  # a scoreboard wait to honour
        lanes = op.fmt == "v"
        for name, value in (("fa0", 1.5), ("fa1", -2.25), ("fa2", 0.75)):
            machine.write_float_bits(
                name,
                pack_f32x2(value, -value) if lanes else f64_to_bits(value),
            )
            machine.fp_ready[name] = 3
        machine.movers[0].configure("bound", 0, 3)
        machine.movers[0].configure("stride", 0, 8)
        machine.movers[0].configure("read", 0, 64)
        machine.movers[2].configure("bound", 0, 3)
        machine.movers[2].configure("stride", 0, 8)
        machine.movers[2].configure("write", 0, 128)
        machine.streaming = stream is not None
        runner = machine.run_reference if reference else machine.run
        runner("main")
        machines.append(machine)
    return machines


@pytest.mark.parametrize("mnemonic,stream", list(cases()))
def test_row_is_bit_exact_on_both_engines(mnemonic, stream):
    for int_values in INT_VALUES:
        fast, ref = run_both(mnemonic, stream, int_values)
        assert fast.trace == ref.trace
        assert fast.timeline == ref.timeline
        assert (fast.int_time, fast.fpu_time) == (ref.int_time, ref.fpu_time)
        for name in INT_REGISTERS + FLOAT_REGISTERS:
            assert fast.read_int(name) == ref.read_int(name), name
            assert fast.read_float_bits(name) == ref.read_float_bits(name)
            assert fast.int_ready.get(name, 0) == ref.int_ready.get(name, 0)
            assert fast.fp_ready.get(name, 0) == ref.fp_ready.get(name, 0)
        assert bytes(fast.memory.data) == bytes(ref.memory.data)
        assert fast.movers == ref.movers
        assert fast.streaming == ref.streaming
        assert mnemonic == "ret" or fast.trace.histogram[mnemonic] >= 1
        # The stream variants do stream — except through the memory
        # rows, which use the register file directly.
        direct = ISA[mnemonic].load or ISA[mnemonic].store
        assert (fast.trace.ssr_reads > 0) == (stream == "read" and not direct)
        assert (fast.trace.ssr_writes > 0) == (stream == "write" and not direct)


def test_table_is_the_assemblers_mnemonic_set():
    assert set(ISA) == SUPPORTED_MNEMONICS


@pytest.mark.parametrize("mnemonic", sorted(ISA))
def test_row_is_self_consistent(mnemonic):
    op = ISA[mnemonic]
    # FLOPs are counted exactly for FPU arithmetic, which is also what
    # the utilization numerator counts.
    assert (op.flops > 0) == ("fpu_arith_cycles" in op.counters)
    assert not (op.load and op.store)
    assert set(op.reads) <= set("xfr")
    if op.unit in (KIND_BRANCH, KIND_JUMP):
        assert op.latency > 0  # the taken penalty
    # The shape's parser yields exactly the sources ``reads`` describes.
    inst = assemble("main:\n" + instruction(mnemonic, None)).instructions[0]
    assert len(inst.sources) == len(op.reads)
    assert inst.kind == op.unit


class TestRoundToF32:
    """Satellite bugfix: single-precision rounding is IEEE and silent."""

    def test_round_f32(self):
        assert round_f32(1.0 + 2.0**-30) == 1.0
        assert round_f32(3e38 * 3e38) == float("inf")
        assert round_f32(-1e39) == float("-inf")
        assert round_f32(3.4028235e38) == 3.4028234663852886e38

    def test_overflow_is_infinity_without_warning_on_both_engines(self):
        program = assemble(
            "main:\nvfmul.s fa2, fa0, fa1\nfmul.s fa3, fa0, fa1\nret"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for runner in ("run", "run_reference"):
                machine = SnitchMachine(program)
                for name in ("fa0", "fa1"):
                    machine.write_float_bits(name, pack_f32x2(3e38, -3e38))
                getattr(machine, runner)("main")
                packed = machine.read_float_bits("fa2")
                assert packed == 0x7F800000_7F800000
                assert unpack_f32x2(packed) == (float("inf"),) * 2
                assert machine.read_float_bits("fa3") == 0x7F800000
