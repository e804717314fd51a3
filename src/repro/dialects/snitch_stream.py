"""The ``snitch_stream`` dialect: register-level streaming regions.

``snitch_stream.streaming_region`` "encapsulates the streaming
configuration and the region where streaming is enabled" (paper
Section 3.2, Figure 6 item c).  Operands are *pointer registers*; stride
patterns are compile-time constants expressed directly in bounds and byte
strides, which is what enables the two peephole optimizations the paper
calls out (contiguous-access collapsing and zero-stride repetition,
Figure 6 item d) before the op is lowered to ``scfgwi`` configuration
writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..backend.registers import SNITCH_STREAM_REGISTERS
from ..ir.attributes import ArrayAttr, Attribute, DenseIntAttr
from ..ir.core import Block, IRError, Operation, Region, SSAValue
from ..ir.irdl import (
    Dialect,
    attr_def,
    irdl_op_definition,
    region_def,
    var_operand_def,
)
from ..ir.traits import HasMemoryEffect
from .riscv import INT_REGISTER, FloatRegisterType
from .stream import ReadableStreamType, WritableStreamType


@dataclass(frozen=True)
class StridePattern(Attribute):
    """Constant bounds and byte strides for one stream data mover.

    Dimension 0 is the outermost; the stream walks the pattern in
    row-major order emitting ``prod(ub)`` elements.
    """

    ub: DenseIntAttr
    strides: DenseIntAttr

    def __init__(self, ub: Sequence[int], strides: Sequence[int]):
        object.__setattr__(self, "ub", DenseIntAttr(ub))
        object.__setattr__(self, "strides", DenseIntAttr(strides))

    def __str__(self) -> str:
        return (
            f"#snitch_stream.stride_pattern<ub = {self.ub}, "
            f"strides = {self.strides}>"
        )

    @property
    def rank(self) -> int:
        """Number of loop dimensions in the pattern."""
        return len(self.ub.values)

    @property
    def count(self) -> int:
        """Total number of elements the stream produces/consumes."""
        total = 1
        for bound in self.ub.values:
            total *= bound
        return total

    def offsets(self) -> list[int]:
        """All byte offsets the stream visits, in order."""
        result: list[int] = []

        def rec(dim: int, base: int):
            if dim == self.rank:
                result.append(base)
                return
            for i in range(self.ub[dim]):
                rec(dim + 1, base + i * self.strides[dim])

        rec(0, 0)
        return result

    def simplified(self) -> "StridePattern":
        """Canonical form used before emitting configuration writes.

        Applies the paper's two pattern optimizations:

        * drop size-1 dimensions;
        * collapse a contiguous pair: if ``strides[d] == ub[d+1] *
          strides[d+1]`` the two dims describe one contiguous run and are
          merged, "reducing the number of generated assembly operations
          for accelerator configuration".

        A trailing zero stride (the repetition optimization) is kept
        as-is; the lowering recognises it and emits the dedicated repeat
        configuration instead of an address dimension.
        """
        dims = [
            (u, s)
            for u, s in zip(self.ub.values, self.strides.values)
            if u != 1
        ]
        if not dims:
            dims = [(1, 0)]
        changed = True
        while changed:
            changed = False
            for d in range(len(dims) - 1):
                u0, s0 = dims[d]
                u1, s1 = dims[d + 1]
                if s0 == u1 * s1 and s1 != 0:
                    dims[d : d + 2] = [(u0 * u1, s1)]
                    changed = True
                    break
        return StridePattern([u for u, _ in dims], [s for _, s in dims])


@irdl_op_definition
class StreamingRegionOp(Operation):
    """Scope where SSR streaming is enabled, over pointer registers.

    Operands: input pointers then output pointers.  The body receives one
    readable stream per input (bound to ``ft0``, ``ft1``, ...) and one
    writable stream per output (bound to the next stream registers);
    :meth:`verify_extra_` checks one stream per operand, each in its
    operand's direction.  The region is lowered before register
    allocation, and the stream registers its lowering names are kept
    out of the allocatable pool by the allocator's exclusion pass
    (paper Figure 6 items A and E).
    """

    name = "snitch_stream.streaming_region"
    traits = frozenset([HasMemoryEffect])
    __slots__ = ()

    inputs = var_operand_def(
        INT_REGISTER, doc="Input pointer registers."
    )
    outputs = var_operand_def(
        INT_REGISTER, doc="Output pointer registers."
    )
    patterns = attr_def(
        ArrayAttr,
        doc="Stride pattern per streamed operand (inputs then outputs).",
    )
    body = region_def(doc="The streaming body.")

    def __init__(
        self,
        inputs: Sequence[SSAValue],
        outputs: Sequence[SSAValue],
        patterns: Sequence[StridePattern],
        body: Region | None = None,
    ):
        inputs = list(inputs)
        outputs = list(outputs)
        total = len(inputs) + len(outputs)
        if total > len(SNITCH_STREAM_REGISTERS):
            raise IRError(
                f"streaming_region: {total} streams requested but Snitch "
                f"has {len(SNITCH_STREAM_REGISTERS)} stream registers"
            )
        if body is None:
            arg_types: list = []
            for i in range(len(inputs)):
                arg_types.append(
                    ReadableStreamType(
                        FloatRegisterType(SNITCH_STREAM_REGISTERS[i])
                    )
                )
            for j in range(len(outputs)):
                arg_types.append(
                    WritableStreamType(
                        FloatRegisterType(
                            SNITCH_STREAM_REGISTERS[len(inputs) + j]
                        )
                    )
                )
            body = Region([Block(arg_types)])
        super().__init__(
            operands=inputs + outputs,
            attributes={
                "patterns": ArrayAttr(list(patterns)),
                "operand_segment_sizes": DenseIntAttr(
                    [len(inputs), len(outputs)]
                ),
            },
            regions=[body],
        )

    @property
    def body_block(self) -> Block:
        """The streaming body."""
        return self.body.block

    def verify_extra_(self) -> None:
        n_in = len(self.inputs)
        n_out = len(self.outputs)
        if len(self.patterns) != n_in + n_out:
            raise IRError("streaming_region: one pattern per operand")
        block = self.body.first_block
        if block is None:
            raise IRError("streaming_region: empty body")
        if len(block.args) != n_in + n_out:
            raise IRError(
                "streaming_region: one stream block argument per operand"
            )
        for i, arg in enumerate(block.args):
            expected = (
                ReadableStreamType if i < n_in else WritableStreamType
            )
            if not isinstance(arg.type, expected):
                raise IRError(
                    f"streaming_region: block arg {i} has wrong stream "
                    "direction"
                )


SNITCH_STREAM = Dialect(
    "snitch_stream",
    ops=[StreamingRegionOp],
    attrs=[StridePattern],
    doc="register-level streaming regions with constant stride patterns",
)


__all__ = ["StridePattern", "StreamingRegionOp", "SNITCH_STREAM"]
