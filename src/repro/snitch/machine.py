"""Cycle-approximate model of one Snitch core.

Architecture modelled (paper Figure 3):

* an in-order, single-issue **integer core** that executes integer
  ALU/memory/branch instructions and dispatches FP instructions to the
  FPU subsystem (one dispatch per cycle);
* an **FPU subsystem** with one issue port behind a sequencer.  FP
  arithmetic results become usable ``FP_LATENCY`` cycles after issue
  (three pipeline stages plus write-back), so dependent chains need an
  issue distance of four — the origin of the paper's unroll-and-jam
  factor (Section 3.4);
* **FREP**: ``frep.o`` pushes its body into the sequencer once; the FPU
  replays it without integer-core involvement, making the core
  pseudo-dual-issue (Section 2.4);
* three **stream semantic registers** (ft0-ft2), each with a
  4-dimensional affine address generator and an element-repetition
  counter; reads/writes of an armed register while ``ssrcfg`` is enabled
  implicitly access the TCDM (Section 2.4);
* a single-cycle-issue **TCDM** with a 2-cycle load-use latency.

The two timelines (integer core, FPU) advance independently and
synchronize at stream disables and at data dependencies, which is what
produces the utilization behaviours the paper measures: explicit
loads/stores and loop control throttle the FPU in the baselines, while
SSR+FREP code approaches one FP instruction per cycle.

Execution is split decode/execute: :meth:`SnitchMachine.run` drives the
predecoded closure engine in :mod:`repro.snitch.engine` (decode once
per program, specialized closures, FREP replayed as a macro-op), while
:meth:`SnitchMachine.run_reference` keeps this module's original
decode-as-you-go interpreter as the semantic oracle.  The two are
bit-exact: cycles, every trace counter, timelines, and memory contents
are asserted identical by the differential test suite.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from time import monotonic

import numpy as np

from .assembler import Program
from .isa import (
    BRANCHES,
    FP_ARITH_FLOPS,
    FP_LOADS,
    FP_MOVES,
    FP_STORES,
    FPU_INSTRUCTIONS,
    INT_ALU,
    INT_LOADS,
    INT_STORES,
    Inst,
    SSR_COUNT,
    SSR_MAX_DIMS,
    WORD_BOUND_BASE,
    WORD_READ_POINTER_BASE,
    WORD_REPEAT,
    WORD_STRIDE_BASE,
    WORD_WRITE_POINTER_BASE,
    scfg_decode,
)
from .memory import TCDM
from .trace import ExecutionTrace


class SimulationError(Exception):
    """Raised on illegal programs (bad streams, runaway execution...)."""


class DeadlineExceeded(SimulationError):
    """A run blew its cooperative wall-clock deadline.

    Raised by both engines when ``deadline_seconds`` was given and the
    wall clock passes it mid-run — a *structured* failure the tuning
    layer maps to :class:`~repro.runtime.faults.TimeoutFault`, so a
    pathological candidate stalls a worker for a bounded time instead
    of hanging it.  The check is cooperative (every few thousand
    instructions / every FREP iteration), so the trip point is
    load-dependent; it never fires when no deadline is set, keeping
    the engines bit-exact for ordinary runs.
    """


# -- timing parameters (DESIGN.md Section 5) -----------------------------------

#: Cycles after issue until an FP arithmetic result is usable.
FP_LATENCY = 4
#: Cycles after issue until an FP load's data is usable.
FP_LOAD_LATENCY = 3
#: Cycles after issue until an integer load's data is usable.
INT_LOAD_LATENCY = 3
#: Cycles after issue until an integer multiply's result is usable.
MUL_LATENCY = 3
#: Extra cycles a taken branch costs (fetch bubble; no predictor).
BRANCH_TAKEN_PENALTY = 2

#: Stream-register names by data-mover index.
STREAM_REGISTERS = ("ft0", "ft1", "ft2")


def f64_to_bits(value: float) -> int:
    """IEEE-754 bits of a double."""
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def bits_to_f64(bits: int) -> float:
    """Double from IEEE-754 bits."""
    return struct.unpack("<d", struct.pack("<Q", bits & (2**64 - 1)))[0]


def f32_to_bits(value: float) -> int:
    """IEEE-754 bits of a single."""
    return struct.unpack("<I", struct.pack("<f", np.float32(value)))[0]


def bits_to_f32(bits: int) -> float:
    """Single from IEEE-754 bits."""
    return struct.unpack("<f", struct.pack("<I", bits & 0xFFFFFFFF))[0]


def pack_f32x2(lane0: float, lane1: float) -> int:
    """Pack two singles into one 64-bit register image."""
    return f32_to_bits(lane0) | (f32_to_bits(lane1) << 32)


def unpack_f32x2(bits: int) -> tuple[float, float]:
    """Unpack the two single-precision lanes of a register image."""
    return bits_to_f32(bits & 0xFFFFFFFF), bits_to_f32(bits >> 32)


@dataclass
class DataMover:
    """One SSR address generator (paper Section 2.4, [65])."""

    #: Per-dimension iteration counts minus one; index 0 is innermost.
    bounds: list[int] = field(default_factory=lambda: [0] * SSR_MAX_DIMS)
    #: Per-dimension byte strides.
    strides: list[int] = field(default_factory=lambda: [0] * SSR_MAX_DIMS)
    #: Each element is served ``repeat + 1`` times.
    repeat: int = 0
    #: "read", "write" or None when not armed.
    direction: str | None = None
    #: Number of active dimensions once armed.
    dims: int = 0
    base: int = 0
    index: list[int] = field(default_factory=lambda: [0] * SSR_MAX_DIMS)
    repeat_count: int = 0
    exhausted: bool = False

    def arm(self, direction: str, dims: int, base: int) -> None:
        """Arm the mover: set the base pointer and start the pattern."""
        if not 1 <= dims <= SSR_MAX_DIMS:
            raise SimulationError(f"SSR dims out of range: {dims}")
        self.direction = direction
        self.dims = dims
        self.base = base
        self.index = [0] * SSR_MAX_DIMS
        self.repeat_count = 0
        self.exhausted = False

    def _address(self) -> int:
        return self.base + sum(
            self.index[d] * self.strides[d] for d in range(self.dims)
        )

    def _advance(self) -> None:
        if self.repeat_count < self.repeat:
            self.repeat_count += 1
            return
        self.repeat_count = 0
        for d in range(self.dims):
            if self.index[d] < self.bounds[d]:
                self.index[d] += 1
                return
            self.index[d] = 0
        self.exhausted = True

    def next_read(self, memory: TCDM) -> int:
        """Pop the next element (as raw 64-bit data)."""
        if self.direction != "read":
            raise SimulationError("stream register read but not armed")
        if self.exhausted:
            raise SimulationError("stream read past end of pattern")
        value = memory.load_u64(self._address())
        self._advance()
        return value

    def next_write(self, memory: TCDM, bits: int) -> None:
        """Push the next element (raw 64-bit data)."""
        if self.direction != "write":
            raise SimulationError("stream register written but not armed")
        if self.exhausted:
            raise SimulationError("stream write past end of pattern")
        memory.store_u64(self._address(), bits)
        self._advance()


class SnitchMachine:
    """Executes an assembled program with the timing model above."""

    def __init__(
        self,
        program: Program,
        memory: TCDM | None = None,
        max_instructions: int = 50_000_000,
        record_timeline: bool = False,
        deadline_seconds: float | None = None,
    ):
        self.program = program
        self.memory = memory if memory is not None else TCDM()
        self.max_instructions = max_instructions
        #: Cooperative wall-clock budget per run (None = unlimited).
        #: Converted to an absolute :func:`time.monotonic` deadline at
        #: the start of each run.
        self.deadline_seconds = deadline_seconds
        self._deadline: float | None = None
        #: When enabled, (issue cycle, unit, instruction) per issue —
        #: the reproduction's analogue of the paper's instruction-trace
        #: post-processing (Section 4.1).
        self.record_timeline = record_timeline
        self.timeline: list[tuple[int, str, str]] = []
        #: Optional :class:`repro.obs.profiler.CycleProfiler`; consulted
        #: only by :meth:`run_reference` (None = no profiling cost).
        self.profiler = None
        self.int_regs: dict[str, int] = {"zero": 0}
        self.float_regs: dict[str, int] = {}
        self.int_ready: dict[str, int] = {}
        self.fp_ready: dict[str, int] = {}
        self.int_time = 0
        self.fpu_time = 0
        self.movers = [DataMover() for _ in range(SSR_COUNT)]
        self.streaming = False
        self.trace = ExecutionTrace()
        self._executed = 0

    # -- register helpers -------------------------------------------------------

    def read_int(self, name: str) -> int:
        """Current architectural value of an integer register."""
        if name == "zero":
            return 0
        return self.int_regs.get(name, 0)

    def write_int(self, name: str, value: int) -> None:
        """Set an integer register (writes to ``zero`` are dropped)."""
        if name != "zero":
            self.int_regs[name] = int(value)

    def read_float_bits(self, name: str) -> int:
        """Raw 64-bit image of an FP register."""
        return self.float_regs.get(name, 0)

    def write_float_bits(self, name: str, bits: int) -> None:
        """Set an FP register from a raw 64-bit image."""
        self.float_regs[name] = bits & (2**64 - 1)

    # -- stream helpers -----------------------------------------------------------

    def _mover_for(self, reg: str, direction: str) -> DataMover | None:
        """The armed data mover behind ``reg``, if streaming applies."""
        if not self.streaming or reg not in STREAM_REGISTERS:
            return None
        mover = self.movers[STREAM_REGISTERS.index(reg)]
        if mover.direction != direction:
            return None
        return mover

    def _read_fp_operand(self, reg: str) -> int:
        mover = self._mover_for(reg, "read")
        if mover is not None:
            bits = mover.next_read(self.memory)
            self.trace.ssr_reads += 1
            self.write_float_bits(reg, bits)
            return bits
        return self.read_float_bits(reg)

    def _write_fp_result(self, reg: str, bits: int) -> None:
        mover = self._mover_for(reg, "write")
        if mover is not None:
            mover.next_write(self.memory, bits)
            self.trace.ssr_writes += 1
            return
        self.write_float_bits(reg, bits)

    # -- public API -------------------------------------------------------------------

    def run(
        self,
        entry: str,
        int_args: dict[str, int] | None = None,
        float_args: dict[str, float] | None = None,
    ) -> ExecutionTrace:
        """Run from label ``entry`` until ``ret``; returns the trace.

        ``int_args`` seeds integer registers (``{"a0": pointer}``);
        ``float_args`` seeds FP registers with doubles.

        Executes on the predecoded closure engine
        (:mod:`repro.snitch.engine`) — the program is decoded once
        (cached across machines and runs) and replayed as specialized
        closures.  Bit-exact with :meth:`run_reference`, which the
        differential test suite asserts.
        """
        from ..obs.tracing import span
        from .engine import execute

        for name, value in (int_args or {}).items():
            self.write_int(name, value)
        for name, value in (float_args or {}).items():
            self.write_float_bits(name, f64_to_bits(value))
        self._arm_deadline()
        with span("sim.run", entry=entry):
            execute(self, entry)
        self.trace.cycles = max(self.int_time, self.fpu_time)
        return self.trace

    def run_reference(
        self,
        entry: str,
        int_args: dict[str, int] | None = None,
        float_args: dict[str, float] | None = None,
    ) -> ExecutionTrace:
        """The original per-instruction interpreter (decode-as-you-go).

        Kept as the semantic oracle for :meth:`run` — differential
        tests execute randomized and paper programs on both engines and
        assert identical cycles, counters, timelines, and memory.
        """
        from ..obs.tracing import span

        for name, value in (int_args or {}).items():
            self.write_int(name, value)
        for name, value in (float_args or {}).items():
            self.write_float_bits(name, f64_to_bits(value))
        self._arm_deadline()
        deadline = self._deadline
        profiler = self.profiler
        pc = self.program.entry(entry)
        instructions = self.program.instructions
        with span("sim.run_reference", entry=entry):
            while True:
                if pc < 0 or pc >= len(instructions):
                    raise SimulationError(f"pc out of range: {pc}")
                inst = instructions[pc]
                self._executed += 1
                if self._executed > self.max_instructions:
                    raise SimulationError(
                        "instruction budget exceeded (infinite loop?)"
                    )
                if (
                    deadline is not None
                    and (self._executed & 4095) == 0
                    and monotonic() > deadline
                ):
                    raise DeadlineExceeded(
                        f"wall-clock deadline of "
                        f"{self.deadline_seconds:g}s exceeded after "
                        f"{self._executed} instructions"
                    )
                if inst.mnemonic == "ret":
                    break
                if profiler is None:
                    pc = self._step(inst, pc)
                else:
                    profiler.before_step(self)
                    pc_next = self._step(inst, pc)
                    profiler.after_step(self, inst, pc, pc_next)
                    pc = pc_next
        self.trace.cycles = max(self.int_time, self.fpu_time)
        return self.trace

    def _arm_deadline(self) -> None:
        """Fix the absolute wall-clock deadline for the coming run."""
        self._deadline = (
            monotonic() + self.deadline_seconds
            if self.deadline_seconds is not None
            else None
        )

    # -- execution -----------------------------------------------------------------------

    def _step(self, inst: Inst, pc: int) -> int:
        mnemonic = inst.mnemonic
        self.trace.record(mnemonic)
        if mnemonic == "frep.o":
            self._exec_frep(inst, pc)
            return pc + 1 + (inst.frep_length or 0)
        if mnemonic in FPU_INSTRUCTIONS:
            dispatch = self.int_time
            self.int_time += 1  # dispatch slot on the integer core
            self._exec_fpu(inst, dispatch)
            return pc + 1
        if mnemonic in BRANCHES:
            return self._exec_branch(inst, pc)
        if mnemonic == "j":
            self.int_time += 1 + BRANCH_TAKEN_PENALTY
            return self.program.entry(inst.target)
        self._exec_int(inst)
        return pc + 1

    # integer side --------------------------------------------------------------

    def _int_issue(self, sources: tuple[str, ...]) -> int:
        issue = self.int_time
        for reg in sources:
            issue = max(issue, self.int_ready.get(reg, 0))
        return issue

    def _exec_int(self, inst: Inst) -> None:
        mnemonic = inst.mnemonic
        self.trace.int_instructions += 1
        issue = self._int_issue(inst.sources)
        if self.record_timeline:
            self.timeline.append((issue, "int", str(inst)))
        self.int_time = issue + 1
        if mnemonic == "li":
            self.write_int(inst.rd, inst.imm)
        elif mnemonic == "mv":
            self.write_int(inst.rd, self.read_int(inst.sources[0]))
        elif mnemonic == "add":
            self.write_int(
                inst.rd,
                self.read_int(inst.sources[0])
                + self.read_int(inst.sources[1]),
            )
        elif mnemonic == "sub":
            self.write_int(
                inst.rd,
                self.read_int(inst.sources[0])
                - self.read_int(inst.sources[1]),
            )
        elif mnemonic == "mul":
            self.write_int(
                inst.rd,
                self.read_int(inst.sources[0])
                * self.read_int(inst.sources[1]),
            )
            self.int_ready[inst.rd] = issue + MUL_LATENCY
            return
        elif mnemonic == "addi":
            self.write_int(
                inst.rd, self.read_int(inst.sources[0]) + inst.imm
            )
        elif mnemonic == "slli":
            self.write_int(
                inst.rd, self.read_int(inst.sources[0]) << inst.imm
            )
        elif mnemonic == "lw":
            address = self.read_int(inst.sources[0]) + inst.imm
            self.write_int(inst.rd, self.memory.load_u32(address))
            self.trace.loads += 1
            self.int_ready[inst.rd] = issue + INT_LOAD_LATENCY
            return
        elif mnemonic == "sw":
            address = self.read_int(inst.sources[1]) + inst.imm
            self.memory.store_u32(address, self.read_int(inst.sources[0]))
            self.trace.stores += 1
            return
        elif mnemonic == "scfgwi":
            self._exec_scfgwi(inst)
            return
        elif mnemonic in ("csrsi", "csrci"):
            self._exec_csr(inst)
            return
        else:
            raise SimulationError(f"unhandled instruction {mnemonic!r}")
        if inst.rd is not None:
            self.int_ready[inst.rd] = issue + 1

    def _exec_branch(self, inst: Inst, pc: int) -> int:
        self.trace.int_instructions += 1
        issue = self._int_issue(inst.sources)
        mnemonic = inst.mnemonic
        if mnemonic == "bnez":
            taken = self.read_int(inst.sources[0]) != 0
        else:
            lhs = self.read_int(inst.sources[0])
            rhs = self.read_int(inst.sources[1])
            taken = {
                "blt": lhs < rhs,
                "bge": lhs >= rhs,
                "bne": lhs != rhs,
                "beq": lhs == rhs,
            }[mnemonic]
        if taken:
            self.int_time = issue + 1 + BRANCH_TAKEN_PENALTY
            return self.program.entry(inst.target)
        self.int_time = issue + 1
        return pc + 1

    def _exec_scfgwi(self, inst: Inst) -> None:
        mover_index, word = scfg_decode(inst.imm)
        if not 0 <= mover_index < SSR_COUNT:
            raise SimulationError(f"scfgwi: no data mover {mover_index}")
        mover = self.movers[mover_index]
        value = self.read_int(inst.sources[0])
        if WORD_BOUND_BASE <= word < WORD_BOUND_BASE + SSR_MAX_DIMS:
            mover.bounds[word - WORD_BOUND_BASE] = value
        elif WORD_STRIDE_BASE <= word < WORD_STRIDE_BASE + SSR_MAX_DIMS:
            mover.strides[word - WORD_STRIDE_BASE] = value
        elif word == WORD_REPEAT:
            mover.repeat = value
        elif (
            WORD_READ_POINTER_BASE
            <= word
            < WORD_READ_POINTER_BASE + SSR_MAX_DIMS
        ):
            mover.arm("read", word - WORD_READ_POINTER_BASE + 1, value)
        elif (
            WORD_WRITE_POINTER_BASE
            <= word
            < WORD_WRITE_POINTER_BASE + SSR_MAX_DIMS
        ):
            mover.arm("write", word - WORD_WRITE_POINTER_BASE + 1, value)
        else:
            raise SimulationError(f"scfgwi: unknown config word {word}")

    def _exec_csr(self, inst: Inst) -> None:
        if inst.csr != "ssrcfg":
            raise SimulationError(f"unsupported CSR {inst.csr!r}")
        if inst.mnemonic == "csrsi":
            self.streaming = True
            return
        # Disabling streaming synchronizes with the FPU: all buffered
        # FREP iterations and in-flight stream accesses must drain first.
        self.int_time = max(self.int_time, self.fpu_time)
        self.streaming = False

    # FPU side ---------------------------------------------------------------------

    def _fp_operand_ready(self, reg: str) -> int:
        if self._mover_for(reg, "read") is not None:
            return 0  # stream data is prefetched by the address generator
        return self.fp_ready.get(reg, 0)

    def _exec_fpu(self, inst: Inst, dispatch: int) -> None:
        mnemonic = inst.mnemonic
        self.trace.fpu_instructions += 1
        ready = dispatch
        for reg in inst.sources:
            if reg.startswith("f"):
                ready = max(ready, self._fp_operand_ready(reg))
            else:
                ready = max(ready, self.int_ready.get(reg, 0))
        issue = max(self.fpu_time, ready)
        self.trace.fpu_stall_cycles += max(0, issue - self.fpu_time)
        if self.record_timeline:
            self.timeline.append((issue, "fpu", str(inst)))
        self.fpu_time = issue + 1

        if mnemonic in FP_LOADS:
            address = self.read_int(inst.sources[0]) + inst.imm
            if mnemonic == "fld":
                bits = self.memory.load_u64(address)
            else:  # flw
                bits = self.memory.load_u32(address)
            self.write_float_bits(inst.rd, bits)
            self.trace.loads += 1
            self.fp_ready[inst.rd] = issue + FP_LOAD_LATENCY
            return
        if mnemonic in FP_STORES:
            address = self.read_int(inst.sources[1]) + inst.imm
            bits = self.read_float_bits(inst.sources[0])
            if mnemonic == "fsd":
                self.memory.store_u64(address, bits)
            else:  # fsw
                self.memory.store_u32(address, bits)
            self.trace.stores += 1
            return

        if mnemonic == "fcvt.d.w":
            value = float(self.read_int(inst.sources[0]))
            self._write_fp_result(inst.rd, f64_to_bits(value))
            if self._mover_for(inst.rd, "write") is None:
                self.fp_ready[inst.rd] = issue + 1
            return

        # Arithmetic and moves: read operands (popping streams), compute,
        # write result (pushing streams).
        operand_bits = [self._read_fp_operand(r) for r in inst.sources]
        result = self._compute_fp(mnemonic, operand_bits)
        if mnemonic in FP_ARITH_FLOPS:
            self.trace.fpu_arith_cycles += 1
            self.trace.flops += FP_ARITH_FLOPS[mnemonic]
            if mnemonic in ("fmadd.d", "fmadd.s"):
                self.trace.fmadd += 1
            latency = FP_LATENCY
        else:
            latency = 1
        if inst.rd is not None:
            self._write_fp_result(inst.rd, result)
            if self._mover_for(inst.rd, "write") is None:
                self.fp_ready[inst.rd] = issue + latency

    def _compute_fp(self, mnemonic: str, bits: list[int]) -> int:
        if mnemonic == "fmv.d":
            return bits[0]
        if mnemonic == "vfcpka.s.s":
            return pack_f32x2(
                bits_to_f32(bits[0] & 0xFFFFFFFF),
                bits_to_f32(bits[1] & 0xFFFFFFFF),
            )
        if mnemonic.endswith(".d"):
            values = [bits_to_f64(b) for b in bits]
            return f64_to_bits(_SCALAR_OPS[mnemonic[:-2]](values))
        if mnemonic.startswith("vf"):
            lanes = [unpack_f32x2(b) for b in bits]
            return self._compute_packed(mnemonic, lanes)
        if mnemonic.endswith(".s"):
            values = [bits_to_f32(b & 0xFFFFFFFF) for b in bits]
            result = _SCALAR_OPS[mnemonic[:-2]](values)
            return f32_to_bits(np.float32(result))
        raise SimulationError(f"unhandled FP instruction {mnemonic!r}")

    @staticmethod
    def _compute_packed(
        mnemonic: str, lanes: list[tuple[float, float]]
    ) -> int:
        f32 = np.float32
        if mnemonic == "vfadd.s":
            a, b = lanes
            return pack_f32x2(f32(a[0] + b[0]), f32(a[1] + b[1]))
        if mnemonic == "vfmul.s":
            a, b = lanes
            return pack_f32x2(f32(a[0] * b[0]), f32(a[1] * b[1]))
        if mnemonic == "vfmax.s":
            a, b = lanes
            return pack_f32x2(max(a[0], b[0]), max(a[1], b[1]))
        if mnemonic == "vfmac.s":
            acc, a, b = lanes
            return pack_f32x2(
                f32(acc[0] + f32(a[0] * b[0])),
                f32(acc[1] + f32(a[1] * b[1])),
            )
        if mnemonic == "vfsum.s":
            acc, a = lanes
            return pack_f32x2(f32(acc[0] + f32(a[0] + a[1])), acc[1])
        raise SimulationError(f"unhandled packed op {mnemonic!r}")

    # FREP -----------------------------------------------------------------------------

    def _exec_frep(self, inst: Inst, pc: int) -> None:
        length = inst.frep_length or 0
        if length <= 0:
            raise SimulationError("frep.o with non-positive body length")
        body_start = pc + 1
        body = self.program.instructions[body_start : body_start + length]
        if len(body) != length:
            raise SimulationError("frep.o body runs past end of program")
        for binst in body:
            if binst.mnemonic not in FPU_INSTRUCTIONS:
                raise SimulationError(
                    f"illegal instruction in FREP body: {binst.mnemonic}"
                )
        iterations = self.read_int(inst.sources[0]) + 1
        self.trace.frep += 1
        self.trace.int_instructions += 1
        # The integer core spends one cycle on frep.o itself, then feeds
        # the body into the sequencer once (one instruction per cycle).
        frep_issue = self._int_issue(inst.sources)
        dispatch_times = [
            frep_issue + 1 + j for j in range(length)
        ]
        self.int_time = frep_issue + 1 + length
        deadline = self._deadline
        for iteration in range(iterations):
            if deadline is not None and monotonic() > deadline:
                raise DeadlineExceeded(
                    f"wall-clock deadline of {self.deadline_seconds:g}s "
                    f"exceeded after {self._executed} instructions "
                    "(inside frep)"
                )
            for j, binst in enumerate(body):
                self.trace.record(binst.mnemonic)
                self._executed += 1
                if self._executed > self.max_instructions:
                    # Checked inside the loop: a runaway trip count must
                    # raise, not replay to completion first.
                    raise SimulationError(
                        "instruction budget exceeded inside frep"
                    )
                dispatch = dispatch_times[j] if iteration == 0 else 0
                self._exec_fpu(binst, dispatch)


def format_timeline(
    machine: "SnitchMachine", limit: int | None = None
) -> str:
    """Render a recorded timeline as aligned text, sorted by cycle."""
    rows = sorted(machine.timeline, key=lambda row: row[0])
    if limit is not None:
        rows = rows[:limit]
    return "\n".join(
        f"{cycle:>7}  {unit:<4} {text}" for cycle, unit, text in rows
    )


_SCALAR_OPS = {
    "fadd": lambda v: v[0] + v[1],
    "fsub": lambda v: v[0] - v[1],
    "fmul": lambda v: v[0] * v[1],
    "fdiv": lambda v: v[0] / v[1],
    "fmax": lambda v: max(v[0], v[1]),
    "fmin": lambda v: min(v[0], v[1]),
    "fmadd": lambda v: v[0] * v[1] + v[2],
}


__all__ = [
    "SnitchMachine",
    "SimulationError",
    "DeadlineExceeded",
    "DataMover",
    "FP_LATENCY",
    "FP_LOAD_LATENCY",
    "INT_LOAD_LATENCY",
    "BRANCH_TAKEN_PENALTY",
    "STREAM_REGISTERS",
    "f64_to_bits",
    "bits_to_f64",
    "f32_to_bits",
    "bits_to_f32",
    "pack_f32x2",
    "unpack_f32x2",
]
