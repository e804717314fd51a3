"""Predecoded, closure-threaded execution engine.

The fast path behind :meth:`SnitchMachine.run`.  :func:`decode` runs
once per :class:`~repro.snitch.assembler.Program` and translates each
:class:`~repro.snitch.isa.Inst` into a specialized closure with
everything resolvable at decode time already resolved:

* register names become integer indices into flat list-based register
  files (one unified name space, so the dict-by-name semantics of the
  reference interpreter are preserved exactly);
* the mnemonic dispatch is burned into the closure — no ``if/elif``
  chain runs at execute time;
* branch and jump targets are pre-resolved to pc indices;
* memory accesses use prebound :class:`struct.Struct` codecs on the
  TCDM byte array;
* ``frep.o`` becomes a true macro-op: the body is legality-checked and
  decoded once, then replayed in a tight loop with the sequencer
  timing model applied incrementally.

The closure factories are not written by hand: the factory of a row of
:data:`repro.snitch.isa.ISA` is *generated* from one of three source
templates (integer, branch, FPU) with the row's compute expression,
latency, FLOPs and counters substituted in — once per process, the
first time the mnemonic is decoded — so an instruction's semantics are
stated once — in the table — and the closure executes them inline,
with no per-instruction call.  Only structural instructions
(``frep.o``, ``ret``, ``j``, ``csrsi``/``csrci``, ``scfgwi``) have
handwritten closures.

Semantics are bit-exact with the reference interpreter in
:mod:`.machine`, which evaluates the same rows: cycle counts, every
:class:`~repro.snitch.trace.ExecutionTrace` counter, recorded
timelines, and final memory contents are identical — the differential
test suite asserts this on randomized programs and on the paper's
kernels across all pipelines.

Decoded programs are cached on the ``Program`` object, so all cores of
a cluster (and repeated runs of one kernel) share one decode.
"""

from __future__ import annotations

import linecache
import threading
import weakref
from time import monotonic

from ..backend.registers import FLOAT_REGISTERS, INT_REGISTERS
from ..obs.metrics import METRICS
from ..obs.tracing import span
from .assembler import AssemblerError, Program
from .isa import (  # noqa: F401 - the codecs are named by generated code
    ISA,
    KIND_BRANCH,
    KIND_FPU,
    KIND_FREP,
    KIND_INT,
    KIND_JUMP,
    KIND_RET,
    PACK_D,
    PACK_Q,
    UNPACK_D,
    UNPACK_FF,
    UNPACK_Q,
    Inst,
    Op,
    SimulationError,
    compute_source,
    frep_body,
    pack_f32x2,
    round_f32,
    scfg_action,
)
from .machine import STREAM_REGISTERS, SnitchMachine, budget_error
from .memory import U32, U64, out_of_bounds

#: Unified register name space: the reference interpreter keys its
#: integer and FP register files by *name*, accepting any register name
#: in either file, so the flat engine mirrors that with one index space
#: covering both ABI name sets (integer domain ``xs``/``xready`` and FP
#: domain ``fs``/``fready`` are separate arrays over the same indices).
_REG_NAMES = INT_REGISTERS + FLOAT_REGISTERS
_REG_INDEX = {name: i for i, name in enumerate(_REG_NAMES)}
#: Data-mover index by unified register index (ft0..ft2 only).
_STREAM_MOVER = {_REG_INDEX[n]: k for k, n in enumerate(STREAM_REGISTERS)}

# Prebound codecs (compiled once in memory.py), by access width.
_LOAD_U64 = U64.unpack_from
_STORE_U64 = U64.pack_into
_LOAD_U32 = U32.unpack_from
_STORE_U32 = U32.pack_into
_LOADER = {4: "_LOAD_U32", 8: "_LOAD_U64"}
_STORER = {4: "_STORE_U32", 8: "_STORE_U64"}

_PROGRAMS_DECODED = METRICS.counter("engine_programs_decoded")
_INSTRUCTIONS_DECODED = METRICS.counter("engine_instructions_decoded")

#: Version of the engine's timing semantics.  The schedule-space
#: autotuner persists measured cycle counts keyed on this value — bump
#: it whenever a change alters *cycle counts* (not just throughput) so
#: stale caches invalidate themselves instead of mis-ranking schedules.
ENGINE_VERSION = 1

#: Guards decode publication and the decode registry: concurrent
#: :func:`decode` calls on one ``Program`` (e.g. a threaded compile
#: server's workers) must observe either no decode or a complete one,
#: never a partially initialized ``DecodedProgram``.
_DECODE_LOCK = threading.Lock()

#: Registry of live decoded programs, ``id(program) -> weakref``.
#: Decodes are memoized *on* the ``Program`` object (``_decoded``), so
#: they die with it; this registry exists to let a long-lived process
#: introspect and drop that otherwise-invisible cache.  All access
#: happens under :data:`_DECODE_LOCK`.
_DECODE_REGISTRY: "dict[int, weakref.ref]" = {}


def _prune_decode_registry() -> None:
    """Drop dead weakrefs.  Lock held."""
    dead = [
        key for key, ref in _DECODE_REGISTRY.items() if ref() is None
    ]
    for key in dead:
        del _DECODE_REGISTRY[key]


def decode_cache_size() -> int:
    """Number of live decoded programs currently registered."""
    with _DECODE_LOCK:
        _prune_decode_registry()
        return len(_DECODE_REGISTRY)


def clear_decode_cache() -> None:
    """Drop every memoized decode (programs re-decode on next use)."""
    with _DECODE_LOCK:
        for ref in _DECODE_REGISTRY.values():
            program = ref()
            if program is not None:
                try:
                    del program._decoded
                except AttributeError:
                    pass
        _DECODE_REGISTRY.clear()


def _u(name: str) -> int:
    index = _REG_INDEX.get(name)
    if index is None:
        raise AssemblerError(f"unknown register {name!r}")
    return index



def _src_meta(name: str) -> tuple[int, int]:
    """(unified index, data-mover index or -1) of an FPU source."""
    u = _u(name)
    return u, _STREAM_MOVER.get(u, -1)


class _State:
    """Flat mutable execution state the decoded closures operate on."""

    __slots__ = (
        "xs", "fs", "xready", "fready", "int_time", "fpu_time",
        "streaming", "movers", "trace", "timeline", "executed",
        "max_instructions", "memory", "data", "size", "deadline",
        "deadline_seconds",
    )


def make_state(machine: SnitchMachine) -> _State:
    """Seed a flat state from a machine's architectural dictionaries.

    Data movers, trace, timeline and memory are the machine's own
    objects; only the name-keyed register files are flattened."""
    s = _State()
    int_regs = machine.int_regs
    float_regs = machine.float_regs
    int_ready = machine.int_ready
    fp_ready = machine.fp_ready
    s.xs = [int_regs.get(n, 0) for n in _REG_NAMES]
    s.fs = [float_regs.get(n, 0) for n in _REG_NAMES]
    s.xready = [int_ready.get(n, 0) for n in _REG_NAMES]
    s.fready = [fp_ready.get(n, 0) for n in _REG_NAMES]
    s.int_time = machine.int_time
    s.fpu_time = machine.fpu_time
    s.streaming = machine.streaming
    s.movers = machine.movers
    s.trace = machine.trace
    s.timeline = machine.timeline if machine.record_timeline else None
    s.executed = machine._executed
    s.max_instructions = machine.max_instructions
    s.deadline = machine._deadline
    s.deadline_seconds = machine.deadline_seconds
    s.memory = machine.memory
    s.data = machine.memory.data
    s.size = machine.memory.size
    return s


def sync_state(machine: SnitchMachine, s: _State) -> None:
    """Write a flat state back into the machine's dictionaries.

    Zero-valued entries are dropped (the dict register files default to
    0 on read, so every accessor observes identical values); keys
    outside the ABI name space — only reachable through manual
    ``write_int``/``write_float_bits`` calls — are preserved.
    """

    def rebuild(old: dict, values: list) -> dict:
        new = {
            k: v for k, v in old.items() if k not in _REG_INDEX
        }
        for name, value in zip(_REG_NAMES, values):
            if value:
                new[name] = value
        return new

    machine.int_regs = rebuild(machine.int_regs, s.xs)
    machine.int_regs.setdefault("zero", 0)
    machine.float_regs = rebuild(machine.float_regs, s.fs)
    machine.int_ready = rebuild(machine.int_ready, s.xready)
    machine.fp_ready = rebuild(machine.fp_ready, s.fready)
    machine.int_time = s.int_time
    machine.fpu_time = s.fpu_time
    machine.streaming = s.streaming
    machine._executed = s.executed


# -- closure factories, generated from the ISA table ----------------------------
#
# Each generator below returns the body of one closure as source lines,
# burning the reference interpreter's exact sequence in: bump the
# dynamic histogram, count the instruction, compute the issue cycle
# from the source-ready times, record the timeline row, advance the
# unit's timeline, evaluate the row's expression inline, bump its
# counters, publish the result-ready time.  Writes to ``zero`` (unified
# index 0) are dropped, but its ready time is still published — exactly
# as the reference does.  A register file is aliased to a local only
# when the closure touches it at least twice.

_RECORD = (
    "tr = s.trace",
    "h = tr.histogram",
    "h[{mn!r}] = h.get({mn!r}, 0) + 1",
    "tr.int_instructions += 1",
)


def _int_issue_lines(sources: int, shared: bool) -> list[str]:
    """Integer-core issue cycle: in order, after every source is ready."""
    xready = "xready" if shared else "s.xready"
    lines = ["xready = s.xready"] if shared else []
    lines.append("issue = s.int_time")
    for i in range(sources):
        lines += [f"r = {xready}[u{i}]", "if r > issue:", "    issue = r"]
    return lines


def _memory_lines(op: Op, address: str, data: str) -> list[str]:
    """Bounds-checked TCDM access of a load/store row; a load's value,
    ``_LOADER[width](s.data, addr)[0]``, is left to the caller."""
    width = op.load or op.store
    lines = [
        f"addr = {address}",
        f"if addr < 0 or addr + {width} > s.size:",
        f"    raise out_of_bounds(addr, {width})",
    ]
    if op.store:
        mask = " & 0xFFFFFFFF" if width == 4 else ""
        lines.append(f"{_STORER[width]}(s.data, addr, {data}{mask})")
    return lines


def _counter_lines(op: Op) -> list[str]:
    lines = [f"tr.{counter} += 1" for counter in op.counters]
    if op.flops:
        lines.append(f"tr.flops += {op.flops}")
    return lines


def _int_source(mn: str, op: Op) -> tuple[str, list[str]]:
    """``make(rd, srcs, imm, next_pc, text)`` -> ``op(s)`` returning
    the next pc."""
    sources = len(op.reads)
    has_rd = not op.store
    shared = sources + has_rd >= 2
    xs, xready = ("xs", "xready") if shared else ("s.xs", "s.xready")
    body = [line.format(mn=mn) for line in _RECORD]
    body += _int_issue_lines(sources, shared)
    body += [
        "tl = s.timeline",
        "if tl is not None:",
        '    tl.append((issue, "int", text))',
        "s.int_time = issue + 1",
    ]
    if shared:
        body.append("xs = s.xs")
    _, value = compute_source(op, [f"{xs}[u{i}]" for i in range(sources)])
    if op.load or op.store:
        body += _memory_lines(op, value, f"{xs}[u0]")
    if op.load:
        value = f"{_LOADER[op.load]}(s.data, addr)[0]"
    if has_rd:
        body += ["if rd:", f"    {xs}[rd] = {value}"]
    body += _counter_lines(op)
    if has_rd:
        body.append(f"{xready}[rd] = issue + {op.latency}")
    body.append("return next_pc")
    return "rd, srcs, imm, next_pc, text", body


def _branch_source(mn: str, op: Op) -> tuple[str, list[str]]:
    """``make(srcs, target_pc, target, next_pc)`` -> ``op(s)``.
    Branches leave no timeline row (nor does the reference)."""
    sources = len(op.reads)
    shared = sources >= 2
    xs = "xs" if shared else "s.xs"
    body = [line.format(mn=mn) for line in _RECORD]
    body += _int_issue_lines(sources, shared)
    if shared:
        body.append("xs = s.xs")
    _, taken = compute_source(op, [f"{xs}[u{i}]" for i in range(sources)])
    body += [
        f"if {taken}:",
        f"    s.int_time = issue + {1 + op.latency}",
        "    if target_pc is None:",
        '        raise AssemblerError(f"undefined label {target!r}")',
        "    return target_pc",
        "s.int_time = issue + 1",
        "return next_pc",
    ]
    return "srcs, target_pc, target, next_pc", body


def _fpu_source(mn: str, op: Op) -> tuple[str, list[str]]:
    """``make(rd, rd_k, srcs, imm, text)`` -> ``op(s, dispatch)``.

    The integer core's dispatch cycle is an argument so the same
    closure serves both the standalone case (dispatch = integer issue
    slot) and FREP replay (dispatch pre-computed for the first
    iteration, 0 afterwards).  ``f`` operands resolve their read
    stream once (``m<i>``), skip the scoreboard when streaming (stream
    data is prefetched) and pop the stream inline; rd goes to an armed
    write stream or to the register file.
    """
    reads = op.reads
    fp = [i for i, mode in enumerate(reads) if mode != "x"]
    to_stream = not (op.load or op.store)
    shared = len(fp) + (not op.store) >= 2
    fs = "fs" if shared else "s.fs"
    fready = "fready" if fp else "s.fready"
    body = ["tr = s.trace", "tr.fpu_instructions += 1"]
    if fp or to_stream:
        body += ["streaming = s.streaming", "movers = s.movers"]
    if fp:
        body += [
            "fready = s.fready",
            " = ".join(f"m{i}" for i in fp) + " = None",
            "if streaming:",
        ]
        for i in fp:
            body += [
                f"    if k{i} >= 0:",
                f"        m = movers[k{i}]",
                '        if m.direction == "read":',
                f"            m{i} = m",
            ]
    body.append("ready = dispatch")
    for i, mode in enumerate(reads):
        if mode == "x":
            body += [f"r = s.xready[u{i}]", "if r > ready:", "    ready = r"]
        else:
            body += [
                f"if m{i} is None:",
                f"    r = fready[u{i}]",
                "    if r > ready:",
                "        ready = r",
            ]
    body += [
        "ft = s.fpu_time",
        "issue = ready if ready > ft else ft",
        "if issue > ft:",
        "    tr.fpu_stall_cycles += issue - ft",
        "tl = s.timeline",
        "if tl is not None:",
        '    tl.append((issue, "fpu", text))',
        "s.fpu_time = issue + 1",
    ]
    if shared:
        body.append("fs = s.fs")
    operands = []
    for i, mode in enumerate(reads):
        if mode == "f":
            body += [
                f"if m{i} is not None:",
                f"    v{i} = m{i}.next_read(s.memory)",
                "    tr.ssr_reads += 1",
                f"    fs[u{i}] = v{i}",
                "else:",
                f"    v{i} = fs[u{i}]",
            ]
        operands.append(
            {"x": f"s.xs[u{i}]", "r": f"{fs}[u{i}]", "f": f"v{i}"}[mode]
        )
    prelude, value = compute_source(op, operands)
    body += prelude
    if op.load or op.store:
        body += _memory_lines(op, value, operands[0])
    if op.load:
        body.append(f"{fs}[rd] = {_LOADER[op.load]}(s.data, addr)[0]")
    elif to_stream and not value.isidentifier():
        body.append(f"res = {value}")
        value = "res"
    body += _counter_lines(op)
    if op.load:
        body.append(f"{fready}[rd] = issue + {op.latency}")
    elif to_stream:
        body += [
            "if (",
            "    rd_k >= 0",
            "    and streaming",
            '    and movers[rd_k].direction == "write"',
            "):",
            f"    movers[rd_k].next_write(s.memory, {value})",
            "    tr.ssr_writes += 1",
            "else:",
            f"    {fs}[rd] = {value}",
            f"    {fready}[rd] = issue + {op.latency}",
        ]
    return "rd, rd_k, srcs, imm, text", body


#: unit -> (generator, closure parameters, what one of ``srcs`` unpacks to).
_TEMPLATES = {
    KIND_INT: (_int_source, "s", "u{i}"),
    KIND_BRANCH: (_branch_source, "s", "u{i}"),
    KIND_FPU: (_fpu_source, "s, dispatch", "(u{i}, k{i})"),
}


class _Factories(dict):
    """mnemonic -> closure factory, generated from the ISA row and
    compiled the first time a decode needs it, then kept: a process
    pays (0.1-0.5 ms each) for the mnemonics it simulates and nothing
    at import.  Only touched under :data:`_DECODE_LOCK`."""

    def __missing__(self, mn: str):
        op = ISA[mn]
        generate, closure_params, source = _TEMPLATES[op.unit]
        params, body = generate(mn, op)
        unpack = "".join(
            source.format(i=i) + ", " for i in range(len(op.reads))
        )
        lines = [
            f"def make({params}):",
            *([f"    {unpack}= srcs"] if unpack else []),
            f"    def op({closure_params}):",
            *("        " + line for line in body),
            "    return op",
        ]
        text = "\n".join(lines) + "\n"
        filename = f"<repro.snitch.engine: generated for {mn}>"
        # Registered so tracebacks through the closure show its source.
        linecache.cache[filename] = (
            len(text), None, text.splitlines(True), filename,
        )
        scope: dict = {}
        exec(compile(text, filename, "exec"), globals(), scope)
        self[mn] = scope["make"]
        return scope["make"]


_FACTORIES = _Factories()


# -- structural closures ----------------------------------------------------------


def _make_scfgwi(inst: Inst, next_pc: int):
    """SSR config write, pre-decoded from the immediate; a bad word
    raises when executed (after the issue bookkeeping), not at decode."""
    src = _u(inst.sources[0])
    text = str(inst)
    mover = field = dimension = error = None
    try:
        mover, field, dimension = scfg_action(inst.imm)
    except SimulationError as exc:
        error = exc

    def op(s):
        tr = s.trace
        h = tr.histogram
        h["scfgwi"] = h.get("scfgwi", 0) + 1
        tr.int_instructions += 1
        issue = s.int_time
        r = s.xready[src]
        if r > issue:
            issue = r
        tl = s.timeline
        if tl is not None:
            tl.append((issue, "int", text))
        s.int_time = issue + 1
        if error is not None:
            raise error
        s.movers[mover].configure(field, dimension, s.xs[src])
        return next_pc

    return op


def _make_csr(inst: Inst, next_pc: int):
    mn = inst.mnemonic
    csr = inst.csr
    text = str(inst)
    enable = mn == "csrsi"

    def op(s):
        tr = s.trace
        h = tr.histogram
        h[mn] = h.get(mn, 0) + 1
        tr.int_instructions += 1
        issue = s.int_time
        tl = s.timeline
        if tl is not None:
            tl.append((issue, "int", text))
        s.int_time = issue + 1
        if csr != "ssrcfg":
            raise SimulationError(f"unsupported CSR {csr!r}")
        if enable:
            s.streaming = True
        else:
            # Disabling streaming synchronizes with the FPU.
            if s.fpu_time > s.int_time:
                s.int_time = s.fpu_time
            s.streaming = False
        return next_pc

    return op


_STRUCTURAL = {
    "scfgwi": _make_scfgwi,
    "csrsi": _make_csr,
    "csrci": _make_csr,
}


def _make_j(inst: Inst, target_pc: int | None):
    target = inst.target
    cost = 1 + ISA["j"].latency

    def op(s):
        h = s.trace.histogram
        h["j"] = h.get("j", 0) + 1
        s.int_time += cost
        if target_pc is None:
            raise AssemblerError(f"undefined label {target!r}")
        return target_pc

    return op


def _ret_op(s):
    return None


def _wrap_fpu(mn, fn, next_pc):
    """Standalone FPU instruction: one integer-core dispatch slot, then
    hand off to the FPU closure."""

    def op(s):
        tr = s.trace
        h = tr.histogram
        h[mn] = h.get(mn, 0) + 1
        d = s.int_time
        s.int_time = d + 1
        fn(s, d)
        return next_pc

    return op


# -- FREP macro-op --------------------------------------------------------------


def _raising_after_record(mn, exc):
    """Record the mnemonic (as ``_step`` would), then raise."""

    def op(s):
        h = s.trace.histogram
        h[mn] = h.get(mn, 0) + 1
        raise exc

    return op


def _make_frep(rs, length, body, next_pc):
    """``frep.o`` as a macro-op: the body — decoded and legality-checked
    once — is replayed in a tight loop.  Iteration 0 carries the
    sequencer's staggered dispatch cycles; later iterations replay with
    dispatch 0, exactly as the reference models it."""

    def op(s):
        tr = s.trace
        h = tr.histogram
        h["frep.o"] = h.get("frep.o", 0) + 1
        iterations = s.xs[rs] + 1
        tr.frep += 1
        tr.int_instructions += 1
        t = s.int_time
        r = s.xready[rs]
        frep_issue = t if t > r else r
        s.int_time = frep_issue + 1 + length
        base = frep_issue + 1
        maxi = s.max_instructions
        executed = s.executed
        deadline = s.deadline
        try:
            first = True
            for _ in range(iterations):
                if deadline is not None and monotonic() > deadline:
                    raise budget_error(
                        executed, s.deadline_seconds, in_frep=True
                    )
                d = base
                for fn, mn in body:
                    h[mn] = h.get(mn, 0) + 1
                    executed += 1
                    if executed > maxi:
                        raise budget_error(executed, in_frep=True)
                    if first:
                        fn(s, d)
                        d += 1
                    else:
                        fn(s, 0)
                first = False
        finally:
            s.executed = executed
        return next_pc

    return op


def _decode_frep(inst: Inst, pc: int, insts, fpu_fns):
    try:
        length = len(frep_body(insts, pc))
    except SimulationError as error:
        return _raising_after_record("frep.o", error)
    body = tuple(
        (fpu_fns[i], insts[i].mnemonic)
        for i in range(pc + 1, pc + 1 + length)
    )
    return _make_frep(_u(inst.sources[0]), length, body, pc + 1 + length)


# -- decode driver --------------------------------------------------------------


class DecodedProgram:
    """One program translated to threaded closures, decode run once."""

    __slots__ = ("program", "code", "n", "insts", "labels")

    def __init__(self, program: Program, code: list):
        self.program = program
        self.code = code
        self.n = len(code)
        # Snapshot for cache invalidation (see :meth:`matches`).
        self.insts = list(program.instructions)
        self.labels = dict(program.labels)

    def matches(self, program: Program) -> bool:
        """Whether this decode is still valid for ``program``.

        Catches instruction-list edits (insert/remove/replace, by
        object identity) and label-map changes.  Mutating a *field* of
        an ``Inst`` in place is not detectable — programs are treated
        as frozen once assembled.
        """
        insts = program.instructions
        if self.n != len(insts):
            return False
        if self.labels != program.labels:
            return False
        return all(a is b for a, b in zip(self.insts, insts))


def decode(program: Program) -> DecodedProgram:
    """Translate (and cache) a program into specialized closures.

    The result is memoized on the ``Program`` object, so every machine
    executing the same program — every core of a cluster, every run of
    a reused compiled kernel — shares a single decode.

    Thread-safe: the decode is published under :data:`_DECODE_LOCK`
    with a double check, so racing callers (a threaded compile
    server's submitters) share one complete decode — never a torn one,
    and never two redundant ones.  The lock-free fast path reads the
    already-published attribute, which CPython assignment makes atomic.
    """
    cached = getattr(program, "_decoded", None)
    if cached is not None and cached.matches(program):
        return cached
    with _DECODE_LOCK:
        return _decode_locked(program)


def _decode_locked(program: Program) -> DecodedProgram:
    """Decode under :data:`_DECODE_LOCK` (double-checked)."""
    cached = getattr(program, "_decoded", None)
    if cached is not None and cached.matches(program):
        return cached
    with span("engine.decode", instructions=len(program.instructions)):
        return _decode_miss(program)


def _decode_miss(program: Program) -> DecodedProgram:
    insts = program.instructions
    labels = program.labels
    code: list = [None] * len(insts)
    fpu_fns: list = [None] * len(insts)
    freps = []
    for pc, inst in enumerate(insts):
        kind = inst.kind
        mn = inst.mnemonic
        next_pc = pc + 1
        if kind == KIND_RET:
            code[pc] = _ret_op
        elif kind == KIND_FREP:
            freps.append(pc)  # after the loop: needs its body's closures
        elif kind == KIND_JUMP:
            code[pc] = _make_j(inst, labels.get(inst.target))
        elif kind == KIND_FPU:
            rd = _u(inst.rd) if inst.rd is not None else None
            fn = fpu_fns[pc] = _FACTORIES[mn](
                rd,
                _STREAM_MOVER.get(rd, -1),
                tuple(_src_meta(name) for name in inst.sources),
                inst.imm,
                str(inst),
            )
            code[pc] = _wrap_fpu(mn, fn, next_pc)
        else:
            srcs = tuple(_u(name) for name in inst.sources)
            if kind == KIND_BRANCH:
                code[pc] = _FACTORIES[mn](
                    srcs, labels.get(inst.target), inst.target, next_pc
                )
            elif mn in _STRUCTURAL:
                code[pc] = _STRUCTURAL[mn](inst, next_pc)
            else:
                rd = _u(inst.rd) if inst.rd is not None else None
                code[pc] = _FACTORIES[mn](
                    rd, srcs, inst.imm, next_pc, str(inst)
                )
    for pc in freps:
        code[pc] = _decode_frep(insts[pc], pc, insts, fpu_fns)
    decoded = DecodedProgram(program, code)
    program._decoded = decoded
    _PROGRAMS_DECODED.inc()
    _INSTRUCTIONS_DECODED.inc(len(insts))
    _DECODE_REGISTRY[id(program)] = weakref.ref(program)
    _prune_decode_registry()
    return decoded


def _observed(decoded: DecodedProgram, machine: SnitchMachine) -> list:
    """The decoded ops, each wrapped to report its step to the
    machine's profiler — the same call, with the same numbers, as the
    reference interpreter makes (``frep.o`` is one step; ``ret`` none)."""
    profiler = machine.profiler
    timeline = machine.timeline

    def observe(op, inst, pc):
        def step(s):
            it0 = s.int_time
            tl0 = len(timeline)
            nxt = op(s)
            profiler.step(
                inst, pc, nxt, it0, s.int_time, tl0, len(timeline)
            )
            return nxt

        return step

    return [
        op if inst.kind == KIND_RET else observe(op, inst, pc)
        for pc, (op, inst) in enumerate(zip(decoded.code, decoded.insts))
    ]


def execute(machine: SnitchMachine, entry: str):
    """Run a machine to ``ret`` on the predecoded engine.

    Mirrors the reference interpreter's main loop (including the order
    of the pc-range, budget, and ``ret`` checks) on flat state; the
    state is written back to the machine's dictionaries even when an
    execution error propagates.
    """
    decoded = decode(machine.program)
    code = decoded.code
    if machine.profiler is not None:
        code = _observed(decoded, machine)
    n = decoded.n
    pc = machine.program.entry(entry)
    s = make_state(machine)
    maxi = s.max_instructions
    deadline = s.deadline
    try:
        while True:
            if pc < 0 or pc >= n:
                raise SimulationError(f"pc out of range: {pc}")
            ex = s.executed + 1
            s.executed = ex
            if ex > maxi:
                raise budget_error(ex)
            if (
                deadline is not None
                and (ex & 4095) == 0
                and monotonic() > deadline
            ):
                raise budget_error(ex, s.deadline_seconds)
            nxt = code[pc](s)
            if nxt is None:
                break
            pc = nxt
    finally:
        sync_state(machine, s)


__all__ = [
    "ENGINE_VERSION",
    "DecodedProgram",
    "clear_decode_cache",
    "decode",
    "decode_cache_size",
    "execute",
    "make_state",
    "sync_state",
]
