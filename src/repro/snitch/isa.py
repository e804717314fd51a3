"""The simulated ISA, stated once.

The simulated ISA is the subset of RV32IMAFD plus the Snitch extensions
that the backend emits: FREP (``frep.o``), SSR configuration (``scfgwi``,
``csrsi``/``csrci`` on ``ssrcfg``) and the pre-standard packed-SIMD
instructions.  :data:`ISA` is the only place that knows what an
instruction is — one :class:`Op` row per mnemonic carrying its unit
class, assembler operand shape, compute expression, result latency,
FLOPs (per the paper's methodology: an FMA counts as two) and the trace
counters it bumps.  The assembler derives its parser table from the
``shape`` column, the reference interpreter (:mod:`.machine`) evaluates
rows directly, and the fast engine (:mod:`.engine`) generates its
basic blocks from the same rows, so the two cannot state different
semantics.  ``docs/MACHINE_MODEL.md`` describes the timing model the
latency column feeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import copysign, inf
from typing import Sequence

from .memory import F32, F32X2, F64, U32, U64


class SimulationError(Exception):
    """Raised on illegal programs (bad streams, runaway execution...)."""


# -- timing parameters (docs/MACHINE_MODEL.md) ----------------------------------
#
# Referenced only through the ``latency`` column of the table below.

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


# -- register images --------------------------------------------------------------
#
# FP registers hold raw 64-bit images; compute expressions below are
# written against these prebound codecs.

PACK_Q, UNPACK_Q = U64.pack, U64.unpack
PACK_D, UNPACK_D = F64.pack, F64.unpack
UNPACK_FF = F32X2.unpack


def round_f32(value: float) -> float:
    """Round a double to the nearest single (ties to even), IEEE-754:
    a magnitude past the largest finite single becomes ±inf — no
    warning, no exception.  The one rounding rule for every ``.s`` and
    packed-SIMD result."""
    try:
        return F32.unpack(F32.pack(value))[0]
    except OverflowError:
        return -inf if value < 0 else inf


def f64_to_bits(value: float) -> int:
    """IEEE-754 bits of a double."""
    return UNPACK_Q(PACK_D(value))[0]


def bits_to_f64(bits: int) -> float:
    """Double from IEEE-754 bits."""
    return UNPACK_D(PACK_Q(bits & (2**64 - 1)))[0]


def f32_to_bits(value: float) -> int:
    """IEEE-754 bits of a single (``value`` rounded by :func:`round_f32`)."""
    return U32.unpack(F32.pack(round_f32(value)))[0]


def bits_to_f32(bits: int) -> float:
    """Single from IEEE-754 bits."""
    return F32.unpack(U32.pack(bits & 0xFFFFFFFF))[0]


def pack_f32x2(lane0: float, lane1: float) -> int:
    """Round two values to singles and pack them into one 64-bit
    register image (lane 0 in the low half)."""
    try:
        return UNPACK_Q(F32X2.pack(lane0, lane1))[0]
    except OverflowError:
        return f32_to_bits(lane0) | (f32_to_bits(lane1) << 32)


def unpack_f32x2(bits: int) -> tuple[float, float]:
    """Unpack the two single-precision lanes of a register image."""
    return UNPACK_FF(PACK_Q(bits))


#: The canonical NaN (``0x7ff8000000000000``; ``0x7fc00000`` once
#: rounded to a single).
CANONICAL_NAN = UNPACK_D(PACK_Q(0x7FF8000000000000))[0]


def max_number(a: float, b: float) -> float:
    """RISC-V ``fmax``: IEEE 754-2019 maximumNumber.  A NaN operand
    yields the other one, two NaNs the canonical NaN, and +0 > -0."""
    if a != a:
        return b if b == b else CANONICAL_NAN
    if b != b or a > b:
        return a
    if a == b == 0.0 and copysign(1.0, a) > 0:
        return a
    return b


def min_number(a: float, b: float) -> float:
    """RISC-V ``fmin``: IEEE 754-2019 minimumNumber.  A NaN operand
    yields the other one, two NaNs the canonical NaN, and -0 < +0."""
    if a != a:
        return b if b == b else CANONICAL_NAN
    if b != b or a < b:
        return a
    if a == b == 0.0 and copysign(1.0, a) < 0:
        return a
    return b


# -- the table --------------------------------------------------------------------

#: Values of :attr:`Op.unit` / :attr:`Inst.kind` — the execution-unit
#: classes the cycle model distinguishes.
KIND_INT = "int"
KIND_FPU = "fpu"
KIND_BRANCH = "branch"
KIND_JUMP = "jump"
KIND_RET = "ret"
KIND_FREP = "frep"


@dataclass(frozen=True)
class Op:
    """One row of :data:`ISA`: everything the simulator knows about a
    mnemonic."""

    #: Execution-unit class (``KIND_*``).
    unit: str
    #: Assembler operand shape (``assembler._parse_<shape>``).
    shape: str
    #: How each source operand is read, one letter per source: ``x``
    #: integer register; ``f`` FP operand — pops the read stream when
    #: the register is an armed, enabled SSR; ``r`` FP register file
    #: directly (store data never touches a stream).
    reads: str = ""
    #: Compute expression (Python source); ``None`` for structural rows
    #: the interpreters implement by hand (``frep.o``, ``ret``, ``j``,
    #: ``scfgwi``, ``csrsi``/``csrci``).  Scalar rows are a template
    #: over ``{a} {b} {c} {imm}`` — raw integers, or operand values
    #: decoded per ``fmt`` — substituted in place so the engine pays no
    #: temporaries; packed rows are a (low lane, high lane) pair over
    #: the unpacked single-precision lanes ``a0 a1 b0 b1 c0 c1``.  The
    #: value is rd's result, a branch's condition, or a memory row's
    #: byte address.
    expr: str | tuple[str, str] | None = None
    #: Operand/result format of ``f`` operands: ``None`` raw bits,
    #: ``"d"`` double, ``"v"`` two packed singles.
    fmt: str | None = None
    #: Cycles after issue until rd is usable; for control transfers,
    #: the extra fetch-bubble cycles when taken.
    latency: int = 1
    #: FLOPs counted per execution (> 0 exactly for FPU arithmetic).
    flops: int = 0
    #: :class:`~repro.snitch.trace.ExecutionTrace` counters bumped by
    #: one, beyond the unit's own instruction counter.
    counters: tuple[str, ...] = ()
    #: Memory rows: bytes loaded into rd from / stored from the first
    #: source to the address ``expr`` (register file direct, no stream).
    load: int = 0
    store: int = 0

    @cached_property
    def compute(self):
        """``expr`` as a function ``(a, b, c, imm)`` over raw operand
        values — what the reference interpreter calls."""
        prelude, result = compute_source(self, "abc")
        body = "".join(f"    {line}\n" for line in prelude)
        scope: dict = {}
        exec(
            f"def compute(a=0, b=0, c=0, imm=0):\n{body}"
            f"    return {result}\n",
            globals(),
            scope,
        )
        return scope["compute"]


def compute_source(
    op: Op, operands: Sequence[str], imm: str = "imm"
) -> tuple[list[str], str]:
    """Python source of a row's compute expression over the given
    operand texts: (prelude statements, result expression).  The text
    names this module's codecs and helpers, and the immediate ``imm``."""
    if op.fmt == "v":
        prelude = [
            f"{lane}0, {lane}1 = UNPACK_FF(PACK_Q({text}))"
            for lane, text in zip("abc", operands)
        ]
        return prelude, "pack_f32x2({}, {})".format(*op.expr)
    decode = "UNPACK_D(PACK_Q({}))[0]" if op.fmt == "d" else "{}"
    values = {
        name: text if mode == "x" else decode.format(text)
        for name, text, mode in zip("abc", operands, op.reads)
    }
    result = op.expr.format(imm=imm, **values)
    if op.fmt == "d":
        result = f"UNPACK_Q(PACK_D({result}))[0]"
    return [], result


def _alu(shape: str, reads: str, expr: str, latency: int = 1) -> Op:
    return Op(KIND_INT, shape, reads, expr, latency=latency)


def _branch(shape: str, reads: str, condition: str) -> Op:
    return Op(
        KIND_BRANCH, shape, reads, condition, latency=BRANCH_TAKEN_PENALTY
    )


def _fp(shape: str, reads: str, expr, fmt: str | None, flops: int = 0) -> Op:
    """FPU datapath row: arithmetic (``flops`` > 0) or move/convert."""
    counters = ("fpu_arith_cycles",) if flops else ()
    if shape == "fma":
        counters += ("fmadd",)
    latency = FP_LATENCY if flops else 1
    return Op(KIND_FPU, shape, reads, expr, fmt, latency, flops, counters)


def _fp_mem(shape: str, width: int) -> Op:
    if shape == "load":
        return Op(
            KIND_FPU, shape, "x", "{a} + {imm}",
            latency=FP_LOAD_LATENCY, counters=("loads",), load=width,
        )
    return Op(
        KIND_FPU, shape, "rx", "{b} + {imm}",
        counters=("stores",), store=width,
    )


ISA: dict[str, Op] = {
    # integer core
    "li": _alu("rd_imm", "", "{imm}"),
    "mv": _alu("rd_rs", "x", "{a}"),
    "add": _alu("rd_rs_rs", "xx", "{a} + {b}"),
    "sub": _alu("rd_rs_rs", "xx", "{a} - {b}"),
    "mul": _alu("rd_rs_rs", "xx", "{a} * {b}", MUL_LATENCY),
    "addi": _alu("rd_rs_imm", "x", "{a} + {imm}"),
    "slli": _alu("rd_rs_imm", "x", "{a} << {imm}"),
    "lw": Op(
        KIND_INT, "load", "x", "{a} + {imm}",
        latency=INT_LOAD_LATENCY, counters=("loads",), load=4,
    ),
    "sw": Op(
        KIND_INT, "store", "xx", "{b} + {imm}",
        counters=("stores",), store=4,
    ),
    # Snitch stream configuration
    "scfgwi": Op(KIND_INT, "scfgwi", "x"),
    "csrsi": Op(KIND_INT, "csr"),
    "csrci": Op(KIND_INT, "csr"),
    # control
    "blt": _branch("branch2", "xx", "{a} < {b}"),
    "bge": _branch("branch2", "xx", "{a} >= {b}"),
    "bne": _branch("branch2", "xx", "{a} != {b}"),
    "beq": _branch("branch2", "xx", "{a} == {b}"),
    "bnez": _branch("branch1", "x", "{a} != 0"),
    "j": Op(KIND_JUMP, "jump", latency=BRANCH_TAKEN_PENALTY),
    "ret": Op(KIND_RET, "none"),
    "frep.o": Op(KIND_FREP, "frep", "x"),
    # FP loads/stores (execute on the FPU-side LSU)
    "fld": _fp_mem("load", 8),
    "flw": _fp_mem("load", 4),
    "fsd": _fp_mem("store", 8),
    "fsw": _fp_mem("store", 4),
    # FP moves/converts (single-cycle result, no FLOPs)
    "fcvt.d.w": _fp("rd_rs", "x", "float({a})", "d"),
    "vfcpka.s.s": _fp("rd_rs_rs", "ff", ("a0", "b0"), "v"),
    # ``fmv.d`` counts as one operation: data-movement kernels (Fill)
    # are given an NM FLOP roofline in paper Table 1, so the register
    # copy that realises each element *is* the counted operation.
    "fmv.d": _fp("rd_rs", "f", "{a}", None, flops=1),
    "fadd.d": _fp("rd_rs_rs", "ff", "{a} + {b}", "d", flops=1),
    "fsub.d": _fp("rd_rs_rs", "ff", "{a} - {b}", "d", flops=1),
    "fmul.d": _fp("rd_rs_rs", "ff", "{a} * {b}", "d", flops=1),
    "fdiv.d": _fp("rd_rs_rs", "ff", "{a} / {b}", "d", flops=1),
    "fmax.d": _fp("rd_rs_rs", "ff", "max_number({a}, {b})", "d", flops=1),
    "fmin.d": _fp("rd_rs_rs", "ff", "min_number({a}, {b})", "d", flops=1),
    "fmadd.d": _fp("fma", "fff", "{a} * {b} + {c}", "d", flops=2),
    # scalar singles live in lane 0; the high half of rd is cleared
    "fadd.s": _fp("rd_rs_rs", "ff", ("a0 + b0", "0.0"), "v", flops=1),
    "fsub.s": _fp("rd_rs_rs", "ff", ("a0 - b0", "0.0"), "v", flops=1),
    "fmul.s": _fp("rd_rs_rs", "ff", ("a0 * b0", "0.0"), "v", flops=1),
    "fmax.s": _fp(
        "rd_rs_rs", "ff", ("max_number(a0, b0)", "0.0"), "v", flops=1
    ),
    "fmin.s": _fp(
        "rd_rs_rs", "ff", ("min_number(a0, b0)", "0.0"), "v", flops=1
    ),
    "fmadd.s": _fp("fma", "fff", ("a0 * b0 + c0", "0.0"), "v", flops=2),
    # packed SIMD: two f32 lanes per register; rd_acc rows read rd as
    # their first source
    "vfadd.s": _fp("rd_rs_rs", "ff", ("a0 + b0", "a1 + b1"), "v", flops=2),
    "vfmul.s": _fp("rd_rs_rs", "ff", ("a0 * b0", "a1 * b1"), "v", flops=2),
    "vfmax.s": _fp(
        "rd_rs_rs", "ff", ("max_number(a0, b0)", "max_number(a1, b1)"),
        "v", flops=2,
    ),
    "vfmac.s": _fp(
        "rd_acc_rs", "fff",
        ("a0 + round_f32(b0 * c0)", "a1 + round_f32(b1 * c1)"),
        "v", flops=4,
    ),
    "vfsum.s": _fp(
        "rd_acc_rs", "ff", ("a0 + round_f32(b0 + b1)", "a1"), "v", flops=2
    ),
}


@dataclass
class Inst:
    """One decoded assembly instruction."""

    mnemonic: str
    #: Destination register name (``None`` for stores/branches).
    rd: str | None = None
    #: Source register names, in assembly order.
    sources: tuple[str, ...] = ()
    #: Immediate operand (offsets, shift amounts, scfgwi addresses).
    imm: int | None = None
    #: Branch/jump target label.
    target: str | None = None
    #: CSR name for csr instructions.
    csr: str | None = None
    #: FREP: number of body instructions.
    frep_length: int | None = None
    #: Source line (debugging aid for traces).
    text: str = ""
    #: Execution-unit class (the row's :attr:`Op.unit`), resolved once
    #: at construction so the predecoding engine never re-derives it.
    kind: str = ""

    def __post_init__(self) -> None:
        if not self.kind:
            self.kind = ISA[self.mnemonic].unit

    def __str__(self) -> str:
        return self.text or self.mnemonic


def frep_body(instructions: Sequence[Inst], pc: int) -> Sequence[Inst]:
    """The body of the ``frep.o`` at ``pc`` — the one legality check:
    a positive length, inside the program, FPU instructions only (all
    the sequencer accepts)."""
    length = instructions[pc].frep_length or 0
    if length <= 0:
        raise SimulationError("frep.o with non-positive body length")
    body = instructions[pc + 1 : pc + 1 + length]
    if len(body) != length:
        raise SimulationError("frep.o body runs past end of program")
    for inst in body:
        if inst.kind != KIND_FPU:
            raise SimulationError(
                f"illegal instruction in FREP body: {inst.mnemonic}"
            )
    return body


# -- SSR configuration word encoding -------------------------------------------
#
# ``scfgwi rs1, imm`` writes the integer register to the configuration
# word ``imm & 31`` of data mover ``imm >> 5``:
#
#   word 0..3   bound of dimension d, stored as (iterations - 1);
#               dimension 0 is the innermost
#   word 8..11  byte stride of dimension d
#   word 16     repetition count, stored as (repeats - 1): every element
#               is served that many times (the paper's zero-stride
#               optimization target)
#   word 24+d   write the base pointer and arm the mover for *reading*
#               with d+1 active dimensions
#   word 28+d   as above, for *writing*

WORD_BOUND_BASE = 0
WORD_STRIDE_BASE = 8
WORD_REPEAT = 16
WORD_READ_POINTER_BASE = 24
WORD_WRITE_POINTER_BASE = 28

#: Number of hardware address-generation dimensions per data mover.
SSR_MAX_DIMS = 4

#: Number of data movers (ft0, ft1, ft2).
SSR_COUNT = 3

#: (field, first word, word count) of the configuration space.
_SCFG_FIELDS = (
    ("bound", WORD_BOUND_BASE, SSR_MAX_DIMS),
    ("stride", WORD_STRIDE_BASE, SSR_MAX_DIMS),
    ("repeat", WORD_REPEAT, 1),
    ("read", WORD_READ_POINTER_BASE, SSR_MAX_DIMS),
    ("write", WORD_WRITE_POINTER_BASE, SSR_MAX_DIMS),
)


def scfg_address(data_mover: int, word: int) -> int:
    """Encode an ``scfgwi`` immediate for (data mover, word)."""
    return (data_mover << 5) | word


def scfg_decode(address: int) -> tuple[int, int]:
    """Decode an ``scfgwi`` immediate into (data mover, word)."""
    return address >> 5, address & 31


def scfg_action(address: int) -> tuple[int, str, int]:
    """Decode an ``scfgwi`` immediate into what it does: (data mover,
    field, dimension) with field ``bound``/``stride``/``repeat``, or
    ``read``/``write`` to arm the mover with ``dimension + 1`` active
    dimensions."""
    mover, word = scfg_decode(address)
    if not 0 <= mover < SSR_COUNT:
        raise SimulationError(f"scfgwi: no data mover {mover}")
    for field, base, count in _SCFG_FIELDS:
        if base <= word < base + count:
            return mover, field, word - base
    raise SimulationError(f"scfgwi: unknown config word {word}")


__all__ = [
    "ISA",
    "Inst",
    "Op",
    "SimulationError",
    "compute_source",
    "frep_body",
    "max_number",
    "min_number",
    "FP_LATENCY",
    "FP_LOAD_LATENCY",
    "INT_LOAD_LATENCY",
    "MUL_LATENCY",
    "BRANCH_TAKEN_PENALTY",
    "KIND_INT",
    "KIND_FPU",
    "KIND_BRANCH",
    "KIND_JUMP",
    "KIND_RET",
    "KIND_FREP",
    "round_f32",
    "f64_to_bits",
    "bits_to_f64",
    "f32_to_bits",
    "bits_to_f32",
    "pack_f32x2",
    "unpack_f32x2",
    "SSR_MAX_DIMS",
    "SSR_COUNT",
    "WORD_BOUND_BASE",
    "WORD_STRIDE_BASE",
    "WORD_REPEAT",
    "WORD_READ_POINTER_BASE",
    "WORD_WRITE_POINTER_BASE",
    "scfg_address",
    "scfg_decode",
    "scfg_action",
]
