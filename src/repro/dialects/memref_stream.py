"""The ``memref_stream`` dialect: the scheduling bridge (paper Figure 7).

This dialect sits between ``linalg`` and the Snitch-specific
``snitch_stream`` dialect.  Its two key deviations from ``linalg`` are:

* ``memref_stream.generic`` carries *explicit* iteration ``bounds`` instead
  of inferring them from shapes — required once operands become unshaped
  streams — plus the extended iterator kind ``"interleaved"`` produced by
  unroll-and-jam;
* ``memref_stream.streaming_region`` expresses streaming over *abstract
  values* (memrefs in, typed streams inside) before any registers exist.

Scheduling decisions (fill fusion, scalar replacement, unroll-and-jam) are
recorded by rewriting these ops in place, before access is separated from
execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..ir.affine_map import AffineMap
from ..ir.attributes import (
    ArrayAttr,
    Attribute,
    DenseIntAttr,
    MemRefType,
    StringAttr,
    TypeAttribute,
)
from ..ir.core import Block, IRError, Operation, Region, SSAValue
from ..ir.irdl import (
    BaseAttr,
    Dialect,
    ElementOf,
    attr_def,
    irdl_op_definition,
    operand_def,
    region_def,
    result_def,
    var_operand_def,
)
from ..ir.traits import HasMemoryEffect, IsTerminator
from .stream import ReadableStreamType, WritableStreamType

#: Iterator kinds; "interleaved" marks dims created by unroll-and-jam.
ITERATOR_KINDS = ("parallel", "reduction", "interleaved")


@dataclass(frozen=True)
class StridePatternAttr(Attribute):
    """Upper bounds plus an affine index map for one streamed operand.

    This is the high-level counterpart of a Snitch SSR configuration: the
    stream visits ``index_map(i0, ..., iN-1)`` for every point of the
    iteration space ``[0, ub0) x ... x [0, ubN-1)`` in row-major order.
    """

    ub: DenseIntAttr
    index_map: AffineMap

    def __str__(self) -> str:
        return (
            f"#memref_stream.stride_pattern<ub = {self.ub}, "
            f"index_map = {self.index_map}>"
        )

    def byte_strides_and_offset(
        self, memref_type: MemRefType
    ) -> tuple[tuple[int, ...], int]:
        """Derive per-iteration-dim byte strides and base byte offset."""
        strides = self.index_map.strides(memref_type.byte_strides())
        offset = self.index_map.offset(memref_type.byte_strides())
        return strides, offset

    def access_sequence(self, memref_type: MemRefType) -> list[int]:
        """All visited byte offsets in order (used by tests/the verifier)."""
        offsets = []

        def rec(prefix: list[int]):
            if len(prefix) == len(self.ub.values):
                idx = self.index_map.evaluate(prefix)
                flat = sum(
                    i * s for i, s in zip(idx, memref_type.byte_strides())
                )
                offsets.append(flat)
                return
            for i in range(self.ub[len(prefix)]):
                rec(prefix + [i])

        rec([])
        return offsets


#: Marker for outputs still read from memory (no fused fill).
FROM_MEMORY = StringAttr("from_memory")


@irdl_op_definition
class GenericOp(Operation):
    """``memref_stream.generic``: linalg.generic with explicit bounds.

    Inputs may be memrefs *or* readable streams; outputs are memrefs.  The
    attribute ``inits`` holds, per output, either :data:`FROM_MEMORY` (the
    body receives the current memory value) or a :class:`FloatAttr`
    constant (a fused ``linalg.fill``: the accumulator starts from the
    constant and memory is never read).

    When iterator kinds include ``interleaved`` dims, the body is expected
    to process ``prod(interleaved bounds)`` elements per operand at once
    (paper Figure 7).
    """

    name = "memref_stream.generic"
    traits = frozenset([HasMemoryEffect])
    __slots__ = ()

    inputs = var_operand_def(
        doc="Input operands (memrefs or readable streams)."
    )
    outputs = var_operand_def(doc="Output operands (memrefs).")
    indexing_maps = attr_def(
        ArrayAttr, doc="One affine map per operand (inputs then outputs)."
    )
    iterator_types = attr_def(
        ArrayAttr,
        elem=StringAttr,
        doc="Iterator kind per iteration dimension.",
    )
    bounds = attr_def(
        DenseIntAttr, doc="Explicit iteration-space bounds."
    )
    inits = attr_def(
        ArrayAttr,
        doc="Per-output init: `from_memory` or a fused fill constant.",
    )
    body = region_def(
        doc="The scalar (or interleaved-vector) computation body."
    )

    def __init__(
        self,
        inputs: Sequence[SSAValue],
        outputs: Sequence[SSAValue],
        indexing_maps: Sequence[AffineMap],
        iterator_types: Sequence[str],
        bounds: Sequence[int],
        body: Region,
        inits: Sequence[Attribute] | None = None,
    ):
        inputs = list(inputs)
        outputs = list(outputs)
        if inits is None:
            inits = [FROM_MEMORY] * len(outputs)
        super().__init__(
            operands=inputs + outputs,
            attributes={
                "indexing_maps": ArrayAttr(list(indexing_maps)),
                "iterator_types": ArrayAttr(
                    [StringAttr(k) for k in iterator_types]
                ),
                "bounds": DenseIntAttr(list(bounds)),
                "inits": ArrayAttr(list(inits)),
                "operand_segment_sizes": DenseIntAttr(
                    [len(inputs), len(outputs)]
                ),
            },
            regions=[body],
        )

    @property
    def body_block(self) -> Block:
        """The scalar (or interleaved-vector) computation body."""
        return self.body.block

    # -- derived info -------------------------------------------------------------

    @property
    def interleave_factor(self) -> int:
        """Product of the bounds of all ``interleaved`` dims (1 if none)."""
        factor = 1
        for kind, bound in zip(self.iterator_types, self.bounds):
            if kind == "interleaved":
                factor *= bound
        return factor

    @property
    def reduction_dims(self) -> list[int]:
        """Indices of the reduction dims."""
        return [
            i
            for i, kind in enumerate(self.iterator_types)
            if kind == "reduction"
        ]

    @property
    def parallel_dims(self) -> list[int]:
        """Indices of the parallel (including interleaved) dims."""
        return [
            i
            for i, kind in enumerate(self.iterator_types)
            if kind != "reduction"
        ]

    def output_map_dims(self) -> list[int]:
        """Iteration dims an output map ranges over.

        After scalar replacement the reduction dims are excluded from the
        output index space (paper Figure 7: "no reduction dimension
        indices as it is performed in register").
        """
        num_dims = len(self.bounds)
        out_maps = self.indexing_maps[len(self.inputs) :]
        if out_maps and out_maps[0].num_dims == num_dims:
            return list(range(num_dims))
        return self.parallel_dims

    def operand_byte_strides(self) -> list[tuple[int, ...]]:
        """Per operand (inputs then outputs), the byte stride of each
        iteration dim.

        Every entry is indexed by iteration dim, outputs included: an
        output map ranges over :meth:`output_map_dims` only, and the
        dims outside it (the reduction dims of a scalar-replaced
        generic) get stride 0 — the output does not move along them.
        """
        num_dims = len(self.bounds)
        num_inputs = len(self.inputs)
        out_dims = self.output_map_dims()
        per_operand = []
        for index, (value, amap) in enumerate(
            zip(self.operands, self.indexing_maps)
        ):
            if not isinstance(value.type, MemRefType):
                raise IRError(
                    "memref_stream.generic: byte strides need memref "
                    "operands"
                )
            strides = amap.strides(value.type.byte_strides())
            if index >= num_inputs:
                if amap.num_dims != len(out_dims):
                    raise IRError(
                        "memref_stream.generic: output map "
                        "dimensionality mismatch"
                    )
                expanded = [0] * num_dims
                for position, dim in enumerate(out_dims):
                    expanded[dim] = strides[position]
                strides = tuple(expanded)
            per_operand.append(strides)
        return per_operand

    @property
    def is_scalar_replaced(self) -> bool:
        """Whether reductions accumulate in registers (not memory)."""
        if not self.reduction_dims:
            return False
        out_maps = self.indexing_maps[len(self.inputs) :]
        return bool(out_maps) and out_maps[0].num_dims != len(self.bounds)

    def verify_extra_(self) -> None:
        if len(self.indexing_maps) != len(self.operands):
            raise IRError(
                "memref_stream.generic: one indexing map per operand"
            )
        for kind in self.iterator_types:
            if kind not in ITERATOR_KINDS:
                raise IRError(
                    f"memref_stream.generic: bad iterator kind {kind!r}"
                )
        if len(self.iterator_types) != len(self.bounds):
            raise IRError(
                "memref_stream.generic: bounds/iterator_types length "
                "mismatch"
            )
        if len(self.inits) != len(self.outputs):
            raise IRError("memref_stream.generic: one init per output")
        num_dims = len(self.bounds)
        for amap in self.indexing_maps[: len(self.inputs)]:
            if amap.num_dims != num_dims:
                raise IRError(
                    "memref_stream.generic: input map dim mismatch"
                )
        block = self.body.first_block
        if block is None or not isinstance(block.last_op, YieldOp):
            raise IRError(
                "memref_stream.generic: body must end with "
                "memref_stream.yield"
            )
        factor = self.interleave_factor
        expected_args = len(self.operands) * factor
        if len(block.args) != expected_args:
            raise IRError(
                f"memref_stream.generic: body takes {expected_args} args "
                f"({len(self.operands)} operands x factor {factor}), got "
                f"{len(block.args)}"
            )
        if len(block.last_op.operands) != len(self.outputs) * factor:
            raise IRError(
                "memref_stream.generic: yield arity must be outputs x "
                "interleave factor"
            )


@irdl_op_definition
class YieldOp(Operation):
    """Terminator of a ``memref_stream.generic`` body."""

    name = "memref_stream.yield"
    traits = frozenset([IsTerminator])
    __slots__ = ()

    values = var_operand_def(doc="The yielded output values.")


@irdl_op_definition
class StreamingRegionOp(Operation):
    """Scope in which operands are accessed through streams.

    Operands are input memrefs then output memrefs; ``patterns`` holds one
    :class:`StridePatternAttr` per operand (inputs first).  The body block
    receives one ``!stream.readable`` per input and one
    ``!stream.writable`` per output.
    """

    name = "memref_stream.streaming_region"
    traits = frozenset([HasMemoryEffect])
    __slots__ = ()

    inputs = var_operand_def(
        BaseAttr(MemRefType), doc="Streamed input memrefs."
    )
    outputs = var_operand_def(
        BaseAttr(MemRefType), doc="Streamed output memrefs."
    )
    patterns = attr_def(
        ArrayAttr,
        doc="Stride pattern per streamed operand (inputs then outputs).",
    )
    body = region_def(doc="The streaming body.")

    @staticmethod
    def body_for(
        input_element_types: Sequence[TypeAttribute],
        output_element_types: Sequence[TypeAttribute],
    ) -> tuple[Region, Block]:
        """A fresh body region with the correct stream-typed block args."""
        arg_types: list[TypeAttribute] = [
            ReadableStreamType(t) for t in input_element_types
        ]
        arg_types += [WritableStreamType(t) for t in output_element_types]
        block = Block(arg_types)
        return Region([block]), block

    @property
    def body_block(self) -> Block:
        """The streaming body."""
        return self.body.block

    def verify_extra_(self) -> None:
        if len(self.patterns) != len(self.operands):
            raise IRError(
                "memref_stream.streaming_region: one pattern per operand"
            )
        n_in = len(self.inputs)
        n_out = len(self.outputs)
        block = self.body.first_block
        if block is None:
            raise IRError("memref_stream.streaming_region: empty body")
        if len(block.args) != n_in + n_out:
            raise IRError(
                "memref_stream.streaming_region: one stream block arg per "
                "operand"
            )
        for arg in block.args[:n_in]:
            if not isinstance(arg.type, ReadableStreamType):
                raise IRError(
                    "memref_stream.streaming_region: input args must be "
                    "readable streams"
                )
        for arg in block.args[n_in:]:
            if not isinstance(arg.type, WritableStreamType):
                raise IRError(
                    "memref_stream.streaming_region: output args must be "
                    "writable streams"
                )


@irdl_op_definition
class ReadOp(Operation):
    """Pops one element from a readable stream."""

    name = "memref_stream.read"
    traits = frozenset([HasMemoryEffect])
    __slots__ = ()

    stream = operand_def(
        BaseAttr(ReadableStreamType), doc="The stream being read."
    )
    result = result_def(
        default=ElementOf("stream"), doc="The popped element."
    )


@irdl_op_definition
class WriteOp(Operation):
    """Pushes one element into a writable stream."""

    name = "memref_stream.write"
    traits = frozenset([HasMemoryEffect])
    __slots__ = ()

    value = operand_def(doc="The element pushed.")
    stream = operand_def(
        BaseAttr(WritableStreamType), doc="The stream written to."
    )


MEMREF_STREAM = Dialect(
    "memref_stream",
    ops=[GenericOp, YieldOp, StreamingRegionOp, ReadOp, WriteOp],
    attrs=[StridePatternAttr],
    doc="the scheduling bridge: explicit bounds + streams over memrefs "
    "(paper Fig. 7)",
)


__all__ = [
    "ITERATOR_KINDS",
    "FROM_MEMORY",
    "StridePatternAttr",
    "GenericOp",
    "YieldOp",
    "StreamingRegionOp",
    "ReadOp",
    "WriteOp",
    "MEMREF_STREAM",
]
