"""Assembler: RISC-V/Snitch assembly text to an executable program.

The backend emits textual assembly (paper Figure 8: ``.asm`` is the
interchange format between compiler and simulator); this module parses it
back into :class:`~repro.snitch.isa.Inst` sequences.  Keeping text as the
interface means the simulator exercises exactly what the compiler prints,
including handwritten kernels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..backend.registers import is_float_register, is_int_register
from .isa import ISA, Inst


class AssemblerError(Exception):
    """Raised on unparseable assembly."""


_MEM_OPERAND = re.compile(r"^(-?\d+)\((\w+)\)$")
_LABEL = re.compile(r"[\w.$]+")


@dataclass
class Program:
    """A fully assembled program: instructions plus label/symbol maps."""

    instructions: list[Inst] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)

    def entry(self, name: str) -> int:
        """Instruction index of a label."""
        if name not in self.labels:
            raise AssemblerError(f"undefined label {name!r}")
        return self.labels[name]

    def static_counts(self) -> dict[str, int]:
        """Static instruction histogram (Table 3's Assembly Operations)."""
        counts: dict[str, int] = {}
        for inst in self.instructions:
            counts[inst.mnemonic] = counts.get(inst.mnemonic, 0) + 1
        return counts


def _register(token: str, line: str) -> str:
    token = token.strip()
    if not (is_int_register(token) or is_float_register(token)):
        raise AssemblerError(f"unknown register {token!r} in: {line}")
    return token


def _split_operands(rest: str) -> list[str]:
    rest = rest.strip()
    if not rest:
        return []
    return [part.strip() for part in rest.split(",")]


def assemble(text: str) -> Program:
    """Assemble a program from text; resolves labels in one pass."""
    program = Program()
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        first_token = line.split(None, 1)[0]
        if line.startswith(".") and not first_token.endswith(":"):
            continue  # directives (.globl etc.) carry no code
        while ":" in line:
            label, _, line = line.partition(":")
            label = label.strip()
            if not _LABEL.fullmatch(label):
                raise AssemblerError(f"bad label {label!r}")
            program.labels[label] = len(program.instructions)
            line = line.strip()
        if not line:
            continue
        program.instructions.append(_parse_instruction(line))
    return program


def _parse_instruction(line: str) -> Inst:
    parts = line.split(None, 1)
    mnemonic = parts[0]
    rest = parts[1] if len(parts) > 1 else ""
    operands = _split_operands(rest)
    build = _PARSERS.get(mnemonic)
    if build is None:
        raise AssemblerError(f"unknown mnemonic {mnemonic!r} in: {line}")
    inst = build(mnemonic, operands, line)
    inst.text = line
    return inst


# -- per-shape parsers ------------------------------------------------------------


def _parse_rd_rs_rs(mnemonic, ops, line):
    if len(ops) != 3:
        raise AssemblerError(f"expected 3 operands: {line}")
    return Inst(
        mnemonic,
        rd=_register(ops[0], line),
        sources=(_register(ops[1], line), _register(ops[2], line)),
    )


def _parse_rd_rs_imm(mnemonic, ops, line):
    if len(ops) != 3:
        raise AssemblerError(f"expected 3 operands: {line}")
    return Inst(
        mnemonic,
        rd=_register(ops[0], line),
        sources=(_register(ops[1], line),),
        imm=int(ops[2], 0),
    )


def _parse_rd_imm(mnemonic, ops, line):
    if len(ops) != 2:
        raise AssemblerError(f"expected 2 operands: {line}")
    return Inst(mnemonic, rd=_register(ops[0], line), imm=int(ops[1], 0))


def _parse_rd_rs(mnemonic, ops, line):
    if len(ops) != 2:
        raise AssemblerError(f"expected 2 operands: {line}")
    return Inst(
        mnemonic,
        rd=_register(ops[0], line),
        sources=(_register(ops[1], line),),
    )


def _parse_load(mnemonic, ops, line):
    if len(ops) != 2:
        raise AssemblerError(f"expected 2 operands: {line}")
    match = _MEM_OPERAND.match(ops[1])
    if match is None:
        raise AssemblerError(f"bad memory operand {ops[1]!r}: {line}")
    return Inst(
        mnemonic,
        rd=_register(ops[0], line),
        sources=(_register(match.group(2), line),),
        imm=int(match.group(1)),
    )


def _parse_store(mnemonic, ops, line):
    if len(ops) != 2:
        raise AssemblerError(f"expected 2 operands: {line}")
    match = _MEM_OPERAND.match(ops[1])
    if match is None:
        raise AssemblerError(f"bad memory operand {ops[1]!r}: {line}")
    return Inst(
        mnemonic,
        sources=(
            _register(ops[0], line),  # value
            _register(match.group(2), line),  # base
        ),
        imm=int(match.group(1)),
    )


def _parse_fma(mnemonic, ops, line):
    if len(ops) != 4:
        raise AssemblerError(f"expected 4 operands: {line}")
    return Inst(
        mnemonic,
        rd=_register(ops[0], line),
        sources=tuple(_register(op, line) for op in ops[1:]),
    )


def _parse_branch2(mnemonic, ops, line):
    if len(ops) != 3:
        raise AssemblerError(f"expected 3 operands: {line}")
    return Inst(
        mnemonic,
        sources=(_register(ops[0], line), _register(ops[1], line)),
        target=ops[2],
    )


def _parse_branch1(mnemonic, ops, line):
    if len(ops) != 2:
        raise AssemblerError(f"expected 2 operands: {line}")
    return Inst(
        mnemonic, sources=(_register(ops[0], line),), target=ops[1]
    )


def _parse_jump(mnemonic, ops, line):
    if len(ops) != 1:
        raise AssemblerError(f"expected 1 operand: {line}")
    return Inst(mnemonic, target=ops[0])


def _parse_none(mnemonic, ops, line):
    if ops:
        raise AssemblerError(f"expected no operands: {line}")
    return Inst(mnemonic)


def _parse_csr(mnemonic, ops, line):
    if len(ops) != 2:
        raise AssemblerError(f"expected 2 operands: {line}")
    return Inst(mnemonic, csr=ops[0], imm=int(ops[1], 0))


def _parse_scfgwi(mnemonic, ops, line):
    if len(ops) != 2:
        raise AssemblerError(f"expected 2 operands: {line}")
    return Inst(
        mnemonic,
        sources=(_register(ops[0], line),),
        imm=int(ops[1], 0),
    )


def _parse_frep(mnemonic, ops, line):
    if len(ops) != 4:
        raise AssemblerError(
            f"frep.o takes max_rep, length, stagger_max, stagger_mask: "
            f"{line}"
        )
    return Inst(
        mnemonic,
        sources=(_register(ops[0], line),),
        frep_length=int(ops[1], 0),
    )


def _parse_rd_acc_rs(mnemonic, ops, line):
    """vfmac.s / vfsum.s: rd is read *and* written."""
    if mnemonic == "vfsum.s":
        if len(ops) != 2:
            raise AssemblerError(f"expected 2 operands: {line}")
        return Inst(
            mnemonic,
            rd=_register(ops[0], line),
            sources=(_register(ops[0], line), _register(ops[1], line)),
        )
    if len(ops) != 3:
        raise AssemblerError(f"expected 3 operands: {line}")
    return Inst(
        mnemonic,
        rd=_register(ops[0], line),
        sources=(
            _register(ops[0], line),
            _register(ops[1], line),
            _register(ops[2], line),
        ),
    )


#: mnemonic -> shape parser, from the ISA table's ``shape`` column.
_PARSERS = {
    mnemonic: globals()[f"_parse_{op.shape}"] for mnemonic, op in ISA.items()
}

#: Mnemonics the assembler understands (exported for tests).
SUPPORTED_MNEMONICS = frozenset(_PARSERS)


__all__ = ["AssemblerError", "Program", "assemble", "SUPPORTED_MNEMONICS"]
