"""Cycle-approximate model of one Snitch core.

Architecture modelled (paper Figure 3; ``docs/MACHINE_MODEL.md`` is the
written-down timing model):

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

What an instruction *is* — operands, semantics, latency, counters —
lives in the :data:`repro.snitch.isa.ISA` table.  :meth:`SnitchMachine.run`
executes basic blocks the engine (:mod:`repro.snitch.engine`) generates
from that table; :meth:`SnitchMachine.run_reference` interprets the
same rows one instruction at a time and is the differential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import monotonic

from .assembler import Program
from .isa import (
    BRANCH_TAKEN_PENALTY,
    FP_LATENCY,
    FP_LOAD_LATENCY,
    INT_LOAD_LATENCY,
    ISA,
    KIND_BRANCH,
    KIND_FPU,
    KIND_FREP,
    KIND_JUMP,
    MUL_LATENCY,
    Inst,
    Op,
    SSR_COUNT,
    SSR_MAX_DIMS,
    SimulationError,
    bits_to_f32,
    bits_to_f64,
    f32_to_bits,
    f64_to_bits,
    frep_body,
    pack_f32x2,
    scfg_action,
    unpack_f32x2,
)
from .memory import TCDM, U64, out_of_bounds
from .trace import ExecutionTrace


class DeadlineExceeded(SimulationError):
    """A run blew its cooperative wall-clock deadline.

    Raised by both engines when ``deadline_seconds`` was given and the
    wall clock passes it mid-run (checked every 4096 instructions and
    every FREP iteration) — a *structured* failure the tuning layer
    maps to :class:`~repro.runtime.faults.TimeoutFault`, so a
    pathological candidate stalls a worker for a bounded time.
    """


def budget_error(
    executed: int,
    deadline_seconds: float | None = None,
    in_frep: bool = False,
) -> SimulationError:
    """The runaway-execution error of both engines' main loops and FREP
    replays: the wall-clock deadline when ``deadline_seconds`` is
    given, the instruction budget otherwise."""
    if deadline_seconds is None:
        where = "inside frep" if in_frep else "(infinite loop?)"
        return SimulationError(f"instruction budget exceeded {where}")
    return DeadlineExceeded(
        f"wall-clock deadline of {deadline_seconds:g}s exceeded after "
        f"{executed} instructions" + (" (inside frep)" if in_frep else "")
    )


#: Stream-register names by data-mover index.
STREAM_REGISTERS = ("ft0", "ft1", "ft2")

#: ``scfg_action`` fields of a pointer write, which arms its mover.
ARM_FIELDS = ("read", "write")


def decode_scfg(address: int):
    """``(scfg_action(address), None)``, or ``((None,) * 3, error)``
    for a bad word: both engines raise it only after the instruction's
    issue bookkeeping."""
    try:
        return scfg_action(address), None
    except SimulationError as error:
        return (None, None, None), error


#: Explicit load/store accessors by access width in bytes.
_LOAD = {4: TCDM.load_u32, 8: TCDM.load_u64}
_STORE = {4: TCDM.store_u32, 8: TCDM.store_u64}

_LOAD_U64 = U64.unpack_from
_STORE_U64 = U64.pack_into


@dataclass(slots=True)  # attribute access is the engine's stream hot path
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
    #: Address of the next element, kept incrementally: always ``base +
    #: sum(index[d] * strides[d] for d in range(dims))``, so an element
    #: costs one add instead of a sum over all dimensions.
    addr: int = 0
    #: ``fpu_time`` at the previous pointer write: the next one issues
    #: no earlier (:meth:`queue`).
    shadow_ready: int = 0

    def queue(self, issue: int, fpu_time: int) -> int:
        """Issue cycle of a pointer write (an arm) otherwise ready at
        ``issue``.  The job registers are shadowed one deep: job *j+1*
        can be queued while job *j* runs, once every FPU instruction
        dispatched before job *j* was armed has issued."""
        ready = self.shadow_ready
        self.shadow_ready = fpu_time
        return issue if issue > ready else ready

    def arm(self, direction: str, dims: int, base: int) -> None:
        """Arm the mover: set the base pointer and start the pattern."""
        if not 1 <= dims <= SSR_MAX_DIMS:
            raise SimulationError(f"SSR dims out of range: {dims}")
        self.direction = direction
        self.dims = dims
        self.base = self.addr = base
        self.index = [0] * SSR_MAX_DIMS
        self.repeat_count = 0
        self.exhausted = False

    def configure(self, field: str, dimension: int, value: int) -> None:
        """Apply one decoded ``scfgwi`` (:func:`~.isa.scfg_action`)."""
        if field == "bound":
            self.bounds[dimension] = value
        elif field == "stride":
            self.strides[dimension] = value
            self.addr = self.base + sum(  # may land mid-pattern
                self.index[d] * self.strides[d] for d in range(self.dims)
            )
        elif field == "repeat":
            self.repeat = value
        else:
            self.arm(field, dimension + 1, value)

    def _carry(self) -> None:
        """Advance past an innermost dimension that has hit its bound."""
        index = self.index
        strides = self.strides
        addr = self.addr
        for d in range(self.dims):
            i = index[d]
            if i < self.bounds[d]:
                index[d] = i + 1
                self.addr = addr + strides[d]
                return
            index[d] = 0
            addr -= i * strides[d]
        self.addr = addr
        self.exhausted = True

    # One element per call: the caller has already matched
    # ``direction``.  The block engine inlines the same step on the
    # mover's state held in locals.

    def _step(self, memory: TCDM, access: str) -> int:
        """Check the next element and step past it; its address."""
        if self.exhausted:
            raise SimulationError(f"stream {access} past end of pattern")
        addr = self.addr
        if addr < 0 or addr + 8 > memory.size:
            raise out_of_bounds(addr, 8)
        if self.repeat_count < self.repeat:
            self.repeat_count += 1
        elif self.index[0] < self.bounds[0]:
            self.repeat_count = 0
            self.index[0] += 1
            self.addr = addr + self.strides[0]
        else:
            self.repeat_count = 0
            self._carry()
        return addr

    def next_read(self, memory: TCDM) -> int:
        """Pop the next element (as raw 64-bit data)."""
        return _LOAD_U64(memory.data, self._step(memory, "read"))[0]

    def next_write(self, memory: TCDM, bits: int) -> None:
        """Push the next element (raw 64-bit data)."""
        _STORE_U64(memory.data, self._step(memory, "write"), bits)


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
        #: Optional :class:`repro.obs.profiler.CycleProfiler`, told
        #: about every step by both engines (None = no profiling cost).
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

    def _mover_for(self, reg: str, direction: str) -> DataMover | None:
        """The armed data mover behind ``reg``, if streaming applies."""
        if not self.streaming or reg not in STREAM_REGISTERS:
            return None
        mover = self.movers[STREAM_REGISTERS.index(reg)]
        if mover.direction != direction:
            return None
        return mover

    # -- public API -------------------------------------------------------------------

    def run(
        self,
        entry: str,
        int_args: dict[str, int] | None = None,
        float_args: dict[str, float] | None = None,
    ) -> ExecutionTrace:
        """Run from label ``entry`` until ``ret``; returns the trace.

        ``int_args`` seeds integer registers (``{"a0": pointer}``);
        ``float_args`` seeds FP registers with doubles.  Runs on the
        block engine (:mod:`repro.snitch.engine`), bit-exact with
        :meth:`run_reference`.
        """
        from ..obs.tracing import span
        from .engine import execute

        self._start(int_args, float_args)
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
        """Interpret the ISA table one instruction at a time.

        The differential oracle for :meth:`run` and only that — tests
        execute randomized and paper programs on both engines and
        assert identical cycles, counters, timelines, and memory.
        """
        from ..obs.tracing import span

        self._start(int_args, float_args)
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
                    raise budget_error(self._executed)
                if (
                    deadline is not None
                    and (self._executed & 4095) == 0
                    and monotonic() > deadline
                ):
                    raise budget_error(
                        self._executed, self.deadline_seconds
                    )
                if inst.mnemonic == "ret":
                    break
                if profiler is None:
                    pc = self._step(inst, pc)
                else:
                    it0, tl0 = self.int_time, len(self.timeline)
                    pc_next = self._step(inst, pc)
                    profiler.step(
                        inst, pc, pc_next,
                        it0, self.int_time, tl0, len(self.timeline),
                    )
                    pc = pc_next
        self.trace.cycles = max(self.int_time, self.fpu_time)
        return self.trace

    def _start(self, int_args, float_args) -> None:
        """Seed argument registers; fix the absolute wall-clock
        deadline for the coming run."""
        for name, value in (int_args or {}).items():
            self.write_int(name, value)
        for name, value in (float_args or {}).items():
            self.write_float_bits(name, f64_to_bits(value))
        self._deadline = (
            monotonic() + self.deadline_seconds
            if self.deadline_seconds is not None
            else None
        )

    # -- the reference interpreter: one ISA row at a time ---------------------------

    def _step(self, inst: Inst, pc: int) -> int:
        op = ISA[inst.mnemonic]
        trace = self.trace
        trace.record(inst.mnemonic)
        if op.unit == KIND_FREP:
            self._exec_frep(inst, pc)
            return pc + 1 + inst.frep_length
        if op.unit == KIND_FPU:
            dispatch = self.int_time
            self.int_time += 1  # dispatch slot on the integer core
            self._exec_fpu(inst, op, dispatch)
            return pc + 1
        if op.unit == KIND_JUMP:
            self.int_time += 1 + op.latency
            return self.program.entry(inst.target)
        trace.int_instructions += 1
        issue = self._int_issue(inst.sources)
        values = [self.read_int(reg) for reg in inst.sources]
        if op.unit == KIND_BRANCH:
            if op.compute(*values):
                self.int_time = issue + 1 + op.latency
                return self.program.entry(inst.target)
            self.int_time = issue + 1
            return pc + 1
        if op.shape == "scfgwi":
            (mover, field, dimension), error = decode_scfg(inst.imm)
            if field in ARM_FIELDS:
                issue = self.movers[mover].queue(issue, self.fpu_time)
        if self.record_timeline:
            self.timeline.append((issue, "int", str(inst)))
        self.int_time = issue + 1
        if op.shape == "scfgwi":
            if error is not None:
                raise error
            self.movers[mover].configure(field, dimension, values[0])
        elif op.shape == "csr":
            self._exec_csr(inst)
        else:
            value = self._compute(op, values, inst.imm)
            if inst.rd is not None:
                self.write_int(inst.rd, value)
                self.int_ready[inst.rd] = issue + op.latency
        return pc + 1

    def _int_issue(self, sources: tuple[str, ...]) -> int:
        issue = self.int_time
        for reg in sources:
            issue = max(issue, self.int_ready.get(reg, 0))
        return issue

    def _compute(self, op: Op, values: list[int], imm: int | None):
        """Evaluate a row: its expression, the memory access of a
        load/store row, its counters.  Returns rd's value."""
        value = op.compute(*values, imm=imm)
        if op.load:
            value = _LOAD[op.load](self.memory, value)
        elif op.store:
            _STORE[op.store](self.memory, value, values[0])
        trace = self.trace
        for counter in op.counters:
            setattr(trace, counter, getattr(trace, counter) + 1)
        trace.flops += op.flops
        return value

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

    def _exec_fpu(self, inst: Inst, op: Op, dispatch: int) -> None:
        trace = self.trace
        trace.fpu_instructions += 1
        operands = list(zip(inst.sources, op.reads))
        ready = dispatch
        for reg, mode in operands:
            if mode == "x":
                ready = max(ready, self.int_ready.get(reg, 0))
            elif self._mover_for(reg, "read") is None:
                ready = max(ready, self.fp_ready.get(reg, 0))
            # else: stream data is prefetched by the address generator
        issue = max(self.fpu_time, ready)
        trace.fpu_stall_cycles += issue - self.fpu_time
        if self.record_timeline:
            self.timeline.append((issue, "fpu", str(inst)))
        self.fpu_time = issue + 1

        values = []
        for reg, mode in operands:
            mover = self._mover_for(reg, "read") if mode == "f" else None
            if mover is not None:
                values.append(mover.next_read(self.memory))
                trace.ssr_reads += 1
                self.write_float_bits(reg, values[-1])
            elif mode == "x":
                values.append(self.read_int(reg))
            else:
                values.append(self.read_float_bits(reg))
        result = self._compute(op, values, inst.imm)
        if inst.rd is None:
            return
        mover = None if op.load else self._mover_for(inst.rd, "write")
        if mover is not None:
            mover.next_write(self.memory, result)
            trace.ssr_writes += 1
        else:
            self.write_float_bits(inst.rd, result)
            self.fp_ready[inst.rd] = issue + op.latency

    def _exec_frep(self, inst: Inst, pc: int) -> None:
        body = frep_body(self.program.instructions, pc)
        iterations = self.read_int(inst.sources[0]) + 1
        self.trace.frep += 1
        self.trace.int_instructions += 1
        # The integer core spends one cycle on frep.o itself, then feeds
        # the body into the sequencer once (one instruction per cycle).
        frep_issue = self._int_issue(inst.sources)
        self.int_time = frep_issue + 1 + len(body)
        deadline = self._deadline
        for iteration in range(iterations):
            if deadline is not None and monotonic() > deadline:
                raise budget_error(
                    self._executed, self.deadline_seconds, in_frep=True
                )
            for j, binst in enumerate(body):
                self.trace.record(binst.mnemonic)
                self._executed += 1
                if self._executed > self.max_instructions:
                    # Checked inside the loop: a runaway trip count must
                    # raise, not replay to completion first.
                    raise budget_error(self._executed, in_frep=True)
                dispatch = frep_issue + 1 + j if iteration == 0 else 0
                self._exec_fpu(binst, ISA[binst.mnemonic], dispatch)


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


__all__ = [
    "SnitchMachine", "SimulationError", "DeadlineExceeded", "DataMover",
    "FP_LATENCY", "FP_LOAD_LATENCY", "INT_LOAD_LATENCY", "MUL_LATENCY",
    "BRANCH_TAKEN_PENALTY", "STREAM_REGISTERS", "budget_error",
    "f64_to_bits", "bits_to_f64", "f32_to_bits", "bits_to_f32",
    "pack_f32x2", "unpack_f32x2",
]
