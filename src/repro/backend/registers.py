"""RISC-V register file model and ABI facts.

The paper allocates from "the 15 integer (a and t) and 20 FP registers
(fa and ft) that are specified as caller-saved in the RISC-V ABI"
(Section 3.3), and Snitch reserves ``ft0``/``ft1``/``ft2`` while streaming
is enabled (Section 3.2).  This module is the single source of truth for
those sets; both the allocator and the simulator import it.
"""

from __future__ import annotations

#: Integer registers by ABI name, in encoding order x0..x31.
INT_REGISTERS = (
    "zero", "ra", "sp", "gp", "tp",
    "t0", "t1", "t2",
    "s0", "s1",
    "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7",
    "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
    "t3", "t4", "t5", "t6",
)

#: Floating-point registers by ABI name, in encoding order f0..f31.
FLOAT_REGISTERS = (
    "ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "ft6", "ft7",
    "fs0", "fs1",
    "fa0", "fa1", "fa2", "fa3", "fa4", "fa5", "fa6", "fa7",
    "fs2", "fs3", "fs4", "fs5", "fs6", "fs7", "fs8", "fs9", "fs10", "fs11",
    "ft8", "ft9", "ft10", "ft11",
)

#: Caller-saved integer registers the allocator may hand out (15).
ALLOCATABLE_INT = (
    "t0", "t1", "t2", "t3", "t4", "t5", "t6",
    "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7",
)

#: Caller-saved FP registers the allocator may hand out (20).
ALLOCATABLE_FLOAT = (
    "ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "ft6", "ft7",
    "ft8", "ft9", "ft10", "ft11",
    "fa0", "fa1", "fa2", "fa3", "fa4", "fa5", "fa6", "fa7",
)

#: FP registers with stream semantics on Snitch; reserved while streaming.
SNITCH_STREAM_REGISTERS = ("ft0", "ft1", "ft2")

#: Registers holding the first function arguments per the RISC-V ABI.
INT_ARG_REGISTERS = ("a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7")
FLOAT_ARG_REGISTERS = ("fa0", "fa1", "fa2", "fa3", "fa4", "fa5", "fa6", "fa7")

_INT_INDEX = {name: i for i, name in enumerate(INT_REGISTERS)}
_FLOAT_INDEX = {name: i for i, name in enumerate(FLOAT_REGISTERS)}


def is_int_register(name: str) -> bool:
    """Whether ``name`` names an integer register."""
    return name in _INT_INDEX


def is_float_register(name: str) -> bool:
    """Whether ``name`` names a floating-point register."""
    return name in _FLOAT_INDEX


__all__ = [
    "INT_REGISTERS",
    "FLOAT_REGISTERS",
    "ALLOCATABLE_INT",
    "ALLOCATABLE_FLOAT",
    "SNITCH_STREAM_REGISTERS",
    "INT_ARG_REGISTERS",
    "FLOAT_ARG_REGISTERS",
    "is_int_register",
    "is_float_register",
]
