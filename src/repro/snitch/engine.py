"""Block-compiled execution engine: the fast path behind
:meth:`SnitchMachine.run`.

:func:`decode` splits a program into basic blocks: a block starts at
the entry, at each label, after each branch, jump or ``ret``, and at
each FREP body boundary (``frep.o`` and its body are one block).  Every
block inside a loop (the range of a backward branch), and every FREP,
runs as **one generated function**: registers, ready times, both
timelines, the stall count and the data movers' state in locals,
written back on exit; stream pops inline; an FREP body a ``for`` loop.
Straight-line code outside loops runs as one-instruction blocks from
the same generator, which emits each :data:`ISA` row in the
reference's order.

A function is specialised on its block's **stream signature**
(streaming on or off, each mover's direction), part of the dispatch key
``pc << 9 | signature`` and so looked up once per block entry; inside
the block it is static (``csrsi``/``csrci`` and arming ``scfgwi`` words
are decoded constants).  Counters that follow from the code alone are
multiplied out of per-run block and FREP-iteration counts at the end.
Generated code is cached for the process (at most :data:`_CODE_LIMIT`
entries) by block **shape** — registers canonically renamed,
immediates, targets, texts and pcs bound as parameters — signature and
observer variant: a timeline or a cycle profiler is a decode-time
variant of the same source.

A block that would cross the instruction budget or, with a deadline, a
4096-instruction deadline tick runs one instruction at a time with the
reference's checks; an FREP whose iterations would cross the budget
runs a variant checking it per body instruction.  A fault inside a
block writes the locals back and :func:`_unwind` restores the counters
before it from the traceback's line number — so every observable is
bit-exact with the reference interpreter in :mod:`.machine`, as the
differential suite asserts.
"""

from __future__ import annotations

import linecache
import threading
import weakref
from time import monotonic

from ..backend.registers import FLOAT_REGISTERS, INT_REGISTERS
from ..obs.tracing import span
from .assembler import AssemblerError, Program
from .isa import ISA, KIND_BRANCH, KIND_FPU, KIND_FREP, KIND_JUMP, KIND_RET
from .isa import SimulationError, compute_source, frep_body
from .isa import (  # noqa: F401 - the helpers generated code names
    PACK_D, PACK_Q, UNPACK_D, UNPACK_FF, UNPACK_Q,
    max_number, min_number, pack_f32x2, round_f32,
)
from .machine import ARM_FIELDS, STREAM_REGISTERS, SnitchMachine
from .machine import budget_error, decode_scfg
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

#: Version of the engine's timing semantics.  The schedule-space
#: autotuner persists measured cycle counts keyed on this value — bump
#: it whenever a change alters *cycle counts* (not just throughput) so
#: stale caches invalidate themselves instead of mis-ranking schedules.
ENGINE_VERSION = 2

#: Guards decode publication, the decode registry and the shape cache:
#: concurrent :func:`decode` calls on one ``Program`` (e.g. a threaded
#: compile server's workers) must observe either no decode or a
#: complete one, never a partially initialized ``DecodedProgram``.
_DECODE_LOCK = threading.Lock()

#: Registry of live decoded programs, ``id(program) -> weakref``.
#: Decodes are memoized *on* the ``Program`` object (``_decoded``), so
#: they die with it; this registry exists to let a long-lived process
#: introspect and drop that otherwise-invisible cache.  All access
#: happens under :data:`_DECODE_LOCK`.
_DECODE_REGISTRY: "dict[int, weakref.ref]" = {}

# Dispatch keys are ``pc << _PC | flags | signature``.
_PC = 9
#: Stream signature: bit 0 streaming, bits 1+2k the direction of mover k.
_SIG = 0x7F
#: Flag: the one instruction at pc, not the block it starts.
_SINGLE = 0x80
#: Flag: an FREP that checks the instruction budget per body instruction.
_CAREFUL = 0x100
_DIRECTION = {None: 0, "read": 1, "write": 2}

#: Most block shapes the process keeps generated code for.
_CODE_LIMIT = 4096
#: (shape, observer, careful) -> (make, faults, deltas, filename),
#: oldest first.
_CODE: dict = {}


def _prune_decode_registry() -> None:
    """Drop dead weakrefs.  Lock held."""
    dead = [key for key, ref in _DECODE_REGISTRY.items() if ref() is None]
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


class _State:
    """Flat mutable execution state the generated blocks operate on."""

    __slots__ = (
        "xs", "fs", "xready", "fready", "int_time", "fpu_time",
        "streaming", "movers", "trace", "timeline", "profiler",
        "executed", "max_instructions", "memory", "data", "size",
        "deadline", "deadline_seconds", "table", "laps",
    )


def _make_state(machine: SnitchMachine) -> _State:
    """Seed a flat state from a machine; only the name-keyed register
    files are flattened, everything else is the machine's own object."""
    s = _State()
    s.xs, s.fs, s.xready, s.fready = (
        [regs.get(n, 0) for n in _REG_NAMES]
        for regs in (
            machine.int_regs, machine.float_regs,
            machine.int_ready, machine.fp_ready,
        )
    )
    s.int_time, s.fpu_time = machine.int_time, machine.fpu_time
    s.streaming, s.movers = machine.streaming, machine.movers
    s.trace, s.timeline = machine.trace, machine.timeline
    s.profiler, s.executed = machine.profiler, machine._executed
    s.max_instructions = machine.max_instructions
    s.deadline, s.deadline_seconds = (
        machine._deadline, machine.deadline_seconds
    )
    s.memory, s.data, s.size = (
        machine.memory, machine.memory.data, machine.memory.size
    )
    s.laps = {}
    return s


def _sync_state(machine: SnitchMachine, s: _State) -> None:
    """Write a flat state back into the machine's dictionaries: zero
    entries dropped (reads default to 0), keys outside the ABI name
    space (from manual ``write_int`` calls) preserved."""

    def rebuild(old: dict, values: list) -> dict:
        new = {k: v for k, v in old.items() if k not in _REG_INDEX}
        for name, value in zip(_REG_NAMES, values):
            if value:
                new[name] = value
        return new

    machine.int_regs = rebuild(machine.int_regs, s.xs)
    machine.int_regs.setdefault("zero", 0)
    machine.float_regs = rebuild(machine.float_regs, s.fs)
    machine.int_ready = rebuild(machine.int_ready, s.xready)
    machine.fp_ready = rebuild(machine.fp_ready, s.fready)
    machine.int_time, machine.fpu_time = s.int_time, s.fpu_time
    machine.streaming, machine._executed = s.streaming, s.executed


def _signature(s: _State) -> int:
    sig = 1 if s.streaming else 0
    for k, mover in enumerate(s.movers):
        sig |= _DIRECTION[mover.direction] << 1 + 2 * k
    return sig


def _streams(sig: int, token, direction: int) -> bool:
    """Whether a register operand is an enabled stream of ``direction``."""
    k = token[1]
    return k >= 0 and sig & 1 == 1 and (sig >> 1 + 2 * k) & 3 == direction


# -- shapes: a block with its values taken out -------------------------------


def _shape(decoded, start: int, stop: int, key: int, observer: int):
    """``(shape, registers, parameters)`` of the block ``[start, stop)``
    entered under ``key``'s signature.  A register becomes a token
    ``(canonical number, mover or -1, is zero)`` and every program value
    a parameter ``p<i>`` named in the shape, so equal shapes share
    generated code."""
    insts, labels, sig = decoded.insts, decoded.labels, key & _SIG
    regs: dict = {}
    params: list = []

    def reg(name):
        u = _REG_INDEX.get(name)
        if u is None:
            raise AssemblerError(f"unknown register {name!r}")
        if u not in regs:
            regs[u] = (len(regs), _STREAM_MOVER.get(u, -1), u == 0)
        return regs[u]

    def bind(value):
        params.append(value)
        return f"p{len(params) - 1}"

    def item(inst, pc, extra=(), step=True):
        """``(mnemonic, rd, sources, imm, extra, (text, (inst, pc)))``."""
        text = bind(str(inst)) if observer & 1 else None
        seen = (bind(inst), bind(pc)) if observer & 2 and step else None
        rd = None if inst.rd is None else reg(inst.rd)
        sources = tuple(reg(name) for name in inst.sources)
        imm = None if inst.imm is None else bind(inst.imm)
        return (inst.mnemonic, rd, sources, imm, extra, (text, seen))

    def fpu(inst, pc, step=True):
        op = ISA[inst.mnemonic]
        pops = tuple(
            mode == "f" and _streams(sig, reg(name), 1)
            for mode, name in zip(op.reads, inst.sources)
        )
        push = inst.rd is not None and not op.load
        push = push and _streams(sig, reg(inst.rd), 2)
        return item(inst, pc, (pops, push), step)

    def exit_key(pc):
        return None if pc is None else bind(pc << _PC | sig)

    items = []
    pc = start
    while pc < stop:
        inst = insts[pc]
        kind, mn = inst.kind, inst.mnemonic
        if kind == KIND_FPU:
            items.append(fpu(inst, pc))
        elif kind == KIND_FREP:
            try:
                length = len(frep_body(insts, pc))
            except SimulationError as error:
                items.append(item(inst, pc, (bind(error),), False))
                break
            body = tuple(
                fpu(insts[i], i, False) for i in range(pc + 1, pc + 1 + length)
            )
            me = bind(key & ~_CAREFUL)
            items.append(item(inst, pc, (length, body, me)))
            pc += length
        elif kind == KIND_BRANCH or kind == KIND_JUMP:
            target = labels.get(inst.target)
            undefined = bind(inst.target) if target is None else None
            items.append(item(inst, pc, (exit_key(target), undefined)))
            if kind == KIND_BRANCH:
                items.append(("fall", exit_key(pc + 1)))
        elif kind == KIND_RET:
            items.append((mn,))
        elif mn == "scfgwi":
            (mover, field, dimension), error = decode_scfg(inst.imm)
            if field in ARM_FIELDS:
                shift = 1 + 2 * mover
                sig = sig & ~(3 << shift) | _DIRECTION[field] << shift
            extra = (field in ARM_FIELDS, error and bind(error))
            extra += (bind(mover), bind(field), bind(dimension))
            items.append(item(inst, pc, extra))
        elif inst.csr is not None:
            error = f"unsupported CSR {inst.csr!r}"
            if inst.csr == "ssrcfg":
                error = None
                sig = sig | 1 if mn == "csrsi" else sig & ~1
            items.append(item(inst, pc, (error and bind(error),)))
        else:
            items.append(item(inst, pc))
        pc += 1
    if items[-1][0] not in ("fall", "j", "ret"):
        items.append(("fall", exit_key(pc)))
    return tuple(items), tuple(regs), tuple(params)


# -- code generation ----------------------------------------------------------

_ARRAYS = {"x": "xs", "xr": "xready", "f": "fs", "fr": "fready"}


class _Gen:
    """The source of one block's function, emitted in the reference's
    order.  Each body line carries a *mark* ``(tail, once, laps)`` —
    the block's top-level instructions after this one, and the static
    counter events of the execution and of the current FREP iteration
    before it — from which :func:`_unwind` restores a fault's counters.
    """

    def __init__(self, careful: bool):
        self.careful = careful
        self.lines, self.marks, self.pre = [], [], []
        self.once, self.laps = [], []
        self.events = self.once
        self.tail, self.depth = 0, 3
        # local -> its load before the ``try``, its write-back after it
        self.loads, self.stores = {}, {}

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)
        self.marks.append((self.tail, len(self.once), len(self.laps)))

    def need(self, name: str, load: str, store: str | None = None) -> str:
        self.loads.setdefault(name, load)
        if store is not None:
            self.stores[name] = store
        return name

    def reg(self, kind: str, token, write=False) -> str:
        """A register local: ``x``/``f`` value, ``xr``/``fr`` ready."""
        array, name = _ARRAYS[kind], f"{kind}{token[0]}"
        self.need(array, f"s.{array}")
        store = f"{array}[u{token[0]}] = {name}" if write else None
        return self.need(name, f"{array}[u{token[0]}]", store)

    def it(self) -> str:
        return self.need("it", "s.int_time", "s.int_time = it")

    def ft(self, write=False) -> str:
        store = "s.fpu_time = ft" if write else None
        return self.need("ft", "s.fpu_time", store)

    def mover(self, k: int) -> str:
        self.need("movers", "s.movers")
        self.need("mem", "s.memory")
        return self.need(f"m{k}", f"movers[{k}]")

    def stream(self, k: int, value: str, push: bool = False) -> None:
        """Pop stream ``k`` into ``value`` (or push ``value``): inline on
        the mover's state, held in locals, unless the block configures
        a mover (then through :class:`DataMover`)."""
        m = self.mover(k)
        if not self.inline:
            call = f"next_write(mem, {value})" if push else "next_read(mem)"
            return self.emit(("" if push else f"{value} = ") + f"{m}.{call}")
        a, r, n, i, b, t, x = (f"s{c}{k}" for c in "arnibtx")
        self.need(
            f"{a}, {r}, {n}, {i}, {b}, {t}, {x}",
            f"{m}.addr, {m}.repeat_count, {m}.repeat, {m}.index[0], "
            f"{m}.bounds[0], {m}.strides[0], {m}.exhausted",
            f"{m}.addr, {m}.repeat_count, {m}.index[0] = {a}, {r}, {i}",
        )
        self.need("data, size", "s.data, s.size")
        self.emit(
            f"if {x} or {a} < 0 or {a} + 8 > size: "
            f"_stream_fault({m}, mem, {a}, {r}, {i}{push * f', {value}'})"
        )
        load = f"{value} = _LOAD_U64(data, {a})[0]"
        self.emit(f"_STORE_U64(data, {a}, {value})" if push else load)
        self.emit(f"if {r} < {n}: {r} += 1")
        self.emit(f"elif {i} < {b}: {r} = 0; {i} += 1; {a} += {t}")
        self.emit(f"else: {r} = 0; {a}, {i}, {x} = _carry({m}, {a}, {i})")

    def count(self, *events) -> None:
        self.events.extend(events)

    def row(self, obs, unit: str) -> None:
        """The timeline variant's issue row."""
        if obs[0] is not None:
            self.need("tl", "s.timeline")
            self.emit(f"tl.append((issue, {unit!r}, {obs[0]}))")

    def begin(self, obs) -> None:
        """The profiler variant's step start."""
        if obs[1] is not None:
            self.need("tl", "s.timeline")
            self.need("step", "s.profiler.step")
            self.emit("it0 = it; tl0 = len(tl)")

    def end(self, obs, offset: int = 1, exit: str | None = None) -> None:
        """The profiler variant's step report."""
        if obs[1] is not None:
            inst, pc = obs[1]
            after = f"{exit} >> {_PC}" if exit else f"{pc} + {offset}"
            self.emit(f"step({inst}, {pc}, {after}, it0, it, tl0, len(tl))")

    def issue(self, sources) -> None:
        """Integer-core issue cycle: in order, after every source."""
        readies = [self.reg("xr", t) for t in sources]
        self.emit(f"issue = {self.it()}")
        for ready in readies:
            self.emit(f"if {ready} > issue: issue = {ready}")

    def memory(self, op, address: str, data: str) -> None:
        """Bounds-checked TCDM access of a load/store row."""
        width = op.load or op.store
        self.need("data, size", "s.data, s.size")
        self.emit(f"addr = {address}")
        self.emit(
            f"if addr < 0 or addr + {width} > size: "
            f"raise out_of_bounds(addr, {width})"
        )
        if op.store:
            mask = " & 0xFFFFFFFF" if width == 4 else ""
            self.emit(f"{_STORER[width]}(data, addr, {data}{mask})")

    def result(self, op, rd, value: str, domain: str) -> None:
        """Write a row's value to rd (``zero`` drops it), count the
        row, publish rd's ready time."""
        if op.load or op.store:
            self.memory(op, value, op.store and self.reg(domain, rd))
        if op.load:
            value = f"{_LOADER[op.load]}(data, addr)[0]"
        if not op.store:
            if domain == "f" or not rd[2]:
                self.emit(f"{self.reg(domain, rd, True)} = {value}")
            elif not op.load:
                self.emit(value)  # still evaluated: it may raise
        self.count(*op.counters, *(("flops",) * op.flops))
        if not op.store:
            ready = self.reg(domain + "r", rd, True)
            self.emit(f"{ready} = issue + {op.latency}")

    def integer(self, mn, rd, sources, imm, extra, obs) -> None:
        """An integer-core row: ALU, memory, stream configuration, or a
        control transfer that ends the block."""
        op = ISA[mn]
        self.count(("h", mn))
        self.begin(obs)
        if op.unit == KIND_JUMP:
            return self.transfer(op, extra, obs, f"{self.it()} +=")
        self.count("int_instructions")
        self.issue(sources)
        operands = [self.reg("x", t) for t in sources]
        if op.unit == KIND_BRANCH:  # branches leave no timeline row
            self.emit(f"if {compute_source(op, operands)[1]}:")
            self.depth += 1
            self.transfer(op, extra, obs, "it = issue +")
            self.depth -= 1
            self.emit("it = issue + 1")
            return self.end(obs)
        if mn == "scfgwi":
            arms, error, mover, field, dimension = extra
            self.need("movers", "s.movers")
            if arms:
                self.emit(f"issue = movers[{mover}].queue(issue, {self.ft()})")
        self.row(obs, "int")
        self.emit("it = issue + 1")
        if mn == "scfgwi":
            if error is not None:
                self.emit(f"raise {error}")
            self.emit(
                f"movers[{mover}].configure({field}, {dimension}, "
                f"{operands[0]})"
            )
        elif op.shape == "csr":
            if extra[0] is not None:
                self.emit(f"raise SimulationError({extra[0]})")
            if mn == "csrci":  # the drain: wait for the FPU
                self.emit(f"if {self.ft()} > it: it = ft")
            self.emit(f"s.streaming = {mn == 'csrsi'}")
        else:
            value = compute_source(op, operands, imm)[1]
            self.result(op, rd if not op.store else sources[0], value, "x")
        self.end(obs)

    def transfer(self, op, extra, obs, timing: str) -> None:
        """A taken branch or jump: the fetch bubble, then the exit."""
        taken, undefined = extra
        self.emit(f"{timing} {1 + op.latency}")
        if undefined is not None:
            error = f'AssemblerError(f"undefined label {{{undefined}!r}}")'
            return self.emit(f"raise {error}")
        self.end(obs, exit=taken)
        self.emit(f"return {taken}")

    def fpu(self, mn, rd, sources, imm, extra, obs, dispatch=None) -> None:
        """One FPU instruction: standalone it takes an integer-core
        dispatch slot, in an FREP body it is dispatched at ``dispatch``."""
        op = ISA[mn]
        pops, push = extra
        if dispatch is None:
            self.count(("h", mn))
            self.begin(obs)
            self.emit(f"ready = {self.it()}; it += 1")
        else:
            self.emit(f"ready = {dispatch}")
        self.count("fpu_instructions")
        for mode, token, pop in zip(op.reads, sources, pops):
            if not pop:
                ready = self.reg("xr" if mode == "x" else "fr", token)
                self.emit(f"if {ready} > ready: ready = {ready}")
        self.need("st", "0", "s.trace.fpu_stall_cycles += st")
        self.emit(f"issue = ready if ready > {self.ft(True)} else ft")
        self.emit("if issue > ft: st += issue - ft")
        self.row(obs, "fpu")
        self.emit("ft = issue + 1")
        operands = []
        for i, (mode, token, pop) in enumerate(zip(op.reads, sources, pops)):
            if pop:  # a stream element, also left in the register
                self.stream(token[1], f"v{i}")
                self.count("ssr_reads")
                self.emit(f"{self.reg('f', token, True)} = v{i}")
            domain = "x" if mode == "x" else "f"
            operands.append(f"v{i}" if pop else self.reg(domain, token))
        prelude, value = compute_source(op, operands, imm)
        for line in prelude:
            self.emit(line)
        if push:
            self.emit(f"res = {value}")
            self.count(*op.counters, *(("flops",) * op.flops))
            self.stream(rd[1], "res", push=True)
            self.count("ssr_writes")
        else:
            self.result(op, rd if not op.store else sources[0], value, "f")
        if dispatch is None:
            self.end(obs)

    def frep(self, mn, rd, sources, imm, extra, obs) -> None:
        """``frep.o``: an issue slot and the body fed to the sequencer,
        then the body replayed; iteration 0 carries the staggered
        dispatch cycles, later ones dispatch at 0."""
        self.count(("h", mn))
        if len(extra) == 1:  # an illegal body: raised when executed
            self.emit(f"raise {extra[0]}")
            return
        length, body, me = extra
        self.count("frep", "int_instructions")
        x, ready = self.reg("x", sources[0]), self.reg("xr", sources[0])
        self.need("ex", "s.executed")
        self.need("k", "0")
        if self.careful:
            self.need("maxi", "s.max_instructions")
        else:  # a budget crossing replays under the careful variant
            self.pre.append(
                f"if ex + ({x} + 1) * {length} > s.max_instructions: "
                f"return s.table[{me} | {_CAREFUL}][0](s)"
            )
        self.begin(obs)
        self.emit(f"fi = {ready} if {ready} > {self.it()} else it")
        self.emit(f"it = fi + {1 + length}; d = fi + 1; dl = s.deadline")
        self.emit(f"for k in range({x} + 1):")
        self.depth += 1
        self.emit(
            "if dl is not None and monotonic() > dl: "
            "raise budget_error(ex, s.deadline_seconds, in_frep=True)"
        )
        if not self.careful:
            self.emit(f"ex += {length}")
        self.events = self.laps
        for j, (bmn, *operands) in enumerate(body):
            self.tail = 0 if self.careful else length - 1 - j
            self.count(("h", bmn))
            if self.careful:
                self.emit("ex += 1")
                self.emit("if ex > maxi: raise budget_error(ex, in_frep=True)")
            self.fpu(bmn, *operands, dispatch=f"d + {j}" if j else "d")
        self.events, self.tail = self.once, 0
        self.emit(f"d = -{length}")  # dispatch 0: never binds
        self.depth -= 1
        self.emit("s.executed = ex")
        self.emit(
            f"if {x} >= 0: laps = s.laps; "
            f"laps[{me}] = laps.get({me}, 0) + {x} + 1"
        )
        self.end(obs, 1 + length)

    def source(self, shape, registers: int, parameters: int):
        """``(text, marks by line number)`` of the block's factory."""
        last = sum(item[0] != "fall" for item in shape) - 1
        self.inline = all(item[0] != "scfgwi" for item in shape)
        for index, (mn, *operands) in enumerate(shape):
            self.tail = last - index
            if mn in ("fall", "ret"):
                self.emit(f"return {operands[0] if operands else None}")
                continue
            unit = ISA[mn].unit
            generate = {KIND_FPU: self.fpu, KIND_FREP: self.frep}
            generate.get(unit, self.integer)(mn, *operands)
        head = ["def make(FAULTS, U, P):"]
        for prefix, count in ("u", registers), ("p", parameters):
            if count:
                names = "".join(f"{prefix}{i}, " for i in range(count))
                head.append(f"    {names}= {prefix.upper()}")
        head.append("    def blk(s):")
        loads = self.loads.items()
        head += [f"        {name} = {load}" for name, load in loads]
        head += [f"        {line}" for line in self.pre]
        head.append("        try:")
        laps = "k" if "k" in self.loads else "0"
        executed = "ex" if "ex" in self.loads else "s.executed"
        tail = [
            "        except BaseException as e:",
            f"            _unwind(s, e, FAULTS, {laps}, {executed})",
            "            raise",
        ]
        if self.stores:
            tail.append("        finally:")
            tail += [f"            {store}" for store in self.stores.values()]
        text = "\n".join(head + self.lines + tail + ["    return blk\n"])
        first = len(head) + 1
        return text, {first + i: mark for i, mark in enumerate(self.marks)}


def _stream_fault(mover, memory, addr, count, index, *push) -> None:
    """Raise an inline stream access's error: write the mover's state
    back and repeat the access through it."""
    mover.addr, mover.repeat_count, mover.index[0] = addr, count, index
    if push:
        mover.next_write(memory, *push)
    mover.next_read(memory)


def _carry(mover, addr: int, index: int):
    """An inline stream's innermost dimension wrapped: carry outward."""
    mover.addr, mover.index[0] = addr, index
    mover._carry()
    return mover.addr, mover.index[0], mover.exhausted


def _tallies(events) -> tuple:
    """Static counter events as ``((name, count), ...)``, first-seen order."""
    totals: dict = {}
    for name in events:
        totals[name] = totals.get(name, 0) + 1
    return tuple(totals.items())


def _apply(trace, tallies, times: int) -> None:
    """Add ``times`` x ``tallies`` to a trace (histogram names are
    ``("h", mnemonic)``)."""
    if times <= 0:
        return
    histogram = trace.histogram
    for name, count in tallies:
        if name.__class__ is tuple:
            histogram[name[1]] = histogram.get(name[1], 0) + count * times
        else:
            setattr(trace, name, getattr(trace, name) + count * times)


def _unwind(s: _State, error: BaseException, faults, laps, executed) -> None:
    """Leave the reference's counters at a fault inside a block: the
    executed count and the static events up to the faulting line."""
    once, per_lap, marks = faults
    tail, before, within = marks[error.__traceback__.tb_lineno]
    s.executed = executed - tail
    _apply(s.trace, _tallies(once[:before]), 1)
    _apply(s.trace, _tallies(per_lap), laps)
    _apply(s.trace, _tallies(per_lap[:within]), 1)


def _instantiate(decoded, start: int, stop: int, key: int, observer: int):
    """The table entry ``(function, top-level instructions, deltas)``
    of the block ``[start, stop)`` entered under ``key``."""
    shape, registers, params = _shape(decoded, start, stop, key, observer)
    careful = bool(key & _CAREFUL)
    with _DECODE_LOCK:
        code = _CODE.get((shape, observer, careful))
        if code is None:
            if len(_CODE) >= _CODE_LIMIT:
                linecache.cache.pop(_CODE.pop(next(iter(_CODE)))[3], None)
            gen = _Gen(careful)
            text, marks = gen.source(shape, len(registers), len(params))
            name = f"<repro.snitch.engine: block {hash(shape):x}>"
            # Registered so tracebacks through the block show its source.
            lines = text.splitlines(True)
            linecache.cache[name] = (len(text), None, lines, name)
            scope: dict = {}
            exec(compile(text, name, "exec"), globals(), scope)
            code = _CODE[shape, observer, careful] = (
                scope["make"],
                (tuple(gen.once), tuple(gen.laps), marks),
                (_tallies(gen.once), _tallies(gen.laps)),
                name,
            )
    make, faults, deltas, _ = code
    return make(faults, registers, params), stop - start, deltas


class _Table(dict):
    """Dispatch key -> ``(function, top-level instructions, deltas)``,
    one per program and observer variant, instantiated on first use."""

    def __init__(self, decoded: "DecodedProgram", observer: int):
        self.decoded, self.observer = decoded, observer

    def __missing__(self, key: int):
        decoded = self.decoded
        pc = key >> _PC
        if not 0 <= pc < decoded.n:  # raised where the reference does
            raise SimulationError(f"pc out of range: {pc}")
        stop = pc + 1 if key & _SINGLE else decoded.blocks.get(pc, pc + 1)
        entry = _instantiate(decoded, pc, stop, key, self.observer)
        self[key] = entry
        return entry


# -- decode driver ------------------------------------------------------------


class DecodedProgram:
    """One program split into basic blocks, decode run once."""

    __slots__ = ("n", "insts", "labels", "blocks", "tables")

    def __init__(self, program: Program, blocks: dict):
        #: Loop block leader -> end: run as one function.
        self.blocks = blocks
        self.tables: dict = {}
        # Snapshot for cache invalidation (see :meth:`matches`).
        self.insts = list(program.instructions)
        self.n = len(self.insts)
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
    """Split (and cache) a program into basic blocks.

    Memoized on the ``Program``, so every machine running it (every
    core of a cluster, every run of a reused kernel) shares one decode.
    Published under :data:`_DECODE_LOCK` with a double check: racing
    callers share one complete decode, never a torn or a redundant one.
    """
    cached = getattr(program, "_decoded", None)
    if cached is not None and cached.matches(program):
        return cached
    with _DECODE_LOCK:
        cached = getattr(program, "_decoded", None)
        if cached is not None and cached.matches(program):
            return cached
        with span("engine.decode", instructions=len(program.instructions)):
            return _decode_miss(program)


def _decode_miss(program: Program) -> DecodedProgram:
    insts = program.instructions
    labels = program.labels
    n = len(insts)
    leaders = {0, *labels.values()}
    back_edges = []
    for pc, inst in enumerate(insts):
        kind = inst.kind
        if kind == KIND_FREP:
            leaders.add(pc)
            leaders.add(pc + 1 + max(inst.frep_length or 0, 0))
        elif kind == KIND_BRANCH or kind == KIND_JUMP or kind == KIND_RET:
            leaders.add(pc + 1)
            target = labels.get(inst.target)
            if target is not None and target <= pc:
                back_edges.append((target, pc))
    starts = sorted(pc for pc in leaders if 0 <= pc < n)
    blocks = {
        start: stop
        for start, stop in zip(starts, starts[1:] + [n])
        if insts[start].kind != KIND_FREP
        and any(low <= start <= high for low, high in back_edges)
    }
    decoded = DecodedProgram(program, blocks)
    program._decoded = decoded
    _DECODE_REGISTRY[id(program)] = weakref.ref(program)
    _prune_decode_registry()
    return decoded


def _crawl(s: _State, table: _Table, key: int, n: int, counts: dict):
    """The ``n`` instructions from ``key`` one at a time, with the
    reference's per-instruction budget and deadline checks."""
    maxi, deadline = s.max_instructions, s.deadline
    for _ in range(n):
        key |= _SINGLE
        fn = table[key][0]
        ex = s.executed + 1
        s.executed = ex
        if ex > maxi:
            raise budget_error(ex)
        if deadline is not None and not ex & 4095 and monotonic() > deadline:
            raise budget_error(ex, s.deadline_seconds)
        nxt = fn(s)
        counts[key] = counts.get(key, 0) + 1
        if nxt is None:
            return None
        key = nxt
    return key


def execute(machine: SnitchMachine, entry: str):
    """Run a machine to ``ret`` on the block engine.

    Mirrors the reference interpreter's main loop (including the order
    of the pc-range, budget, and ``ret`` checks) a block at a time on
    flat state; the state and the tallied counters are written back to
    the machine even when an execution error propagates.
    """
    decoded = decode(machine.program)
    pc = machine.program.entry(entry)
    s = _make_state(machine)
    observer = (1 if machine.record_timeline else 0) | (
        2 if machine.profiler is not None else 0
    )
    table = s.table = decoded.tables.get(observer) or (
        decoded.tables.setdefault(observer, _Table(decoded, observer))
    )
    key = pc << _PC | _signature(s)
    counts: dict = {}
    count = counts.get
    maxi, deadline = s.max_instructions, s.deadline
    try:
        while True:
            fn, n, _ = table[key]
            ex = s.executed
            nex = ex + n
            if nex > maxi or (
                deadline is not None and nex >> 12 != ex >> 12
            ):
                nxt = _crawl(s, table, key, n, counts)
            else:
                s.executed = nex
                nxt = fn(s)
                counts[key] = count(key, 0) + 1
            if nxt is None:
                break
            key = nxt
    finally:
        trace, laps = s.trace, s.laps
        for key, times in counts.items():
            once, per_lap = table[key][2]
            _apply(trace, once, times)
            _apply(trace, per_lap, laps.get(key, 0))
        _sync_state(machine, s)


__all__ = [
    "ENGINE_VERSION",
    "DecodedProgram",
    "clear_decode_cache",
    "decode",
    "decode_cache_size",
    "execute",
]
