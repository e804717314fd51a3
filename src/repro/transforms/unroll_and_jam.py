"""Unroll-and-jam: interleave independent reductions (Table 3's last stage).

"Read-after-write conflicts are averted by applying unroll-and-jam, which
interleaves multiple iterations in the innermost loops, trading off
increased code size and register pressure for performance. ...the FPU has
three stages for all operations, so stalls are minimized when the unroll
factor is at least four" (paper Section 3.4).

The pass splits one parallel dimension ``d`` of bound ``B`` into an outer
dimension of bound ``B/F`` (kept in place) and a new innermost
``interleaved`` dimension of bound ``F``, then replicates the body ``F``
times with block arguments grouped per operand (paper Figure 7).
"""

from __future__ import annotations

from ..dialects import memref_stream
from ..ir.affine_map import (
    AffineDimExpr,
    AffineMap,
    expr_uses_dim,
    substitute_dims,
)
from ..ir.attributes import ArrayAttr, DenseIntAttr, StringAttr
from ..ir.core import Block, IRError, Operation, Region, SSAValue
from ..ir.pass_manager import ModulePass
from ..ir.rewriter import PatternRewriter, TypedPattern, apply_patterns

#: Minimum factor that hides the FPU pipeline (3 stages + writeback).
MIN_FACTOR = 4
#: Do not interleave more than this (register pressure).
MAX_FACTOR = 8


#: Explicit no-unroll fallback of :func:`select_unroll_factor`.
NO_UNROLL = 1


def legal_unroll_factors(bound: int) -> list[int]:
    """Every factor the pass can legally apply to a dimension bound.

    The pass has no remainder loop, so a factor must divide the bound
    exactly; register pressure caps it at :data:`MAX_FACTOR`.  This is
    the legality model the schedule-space autotuner enumerates.  An
    empty dim (``bound < 2``) has nothing to interleave.
    """
    if bound < 2:
        return []
    return [
        factor
        for factor in range(2, MAX_FACTOR + 1)
        if bound % factor == 0
    ]


def select_unroll_factor(bound: int) -> int:
    """The paper's automatic factor selection for a dimension bound.

    Prefer the smallest divisor of ``bound`` that is at least
    :data:`MIN_FACTOR` (four hides the FPU pipeline); fully unroll tiny
    dims; fall back to a smaller divisor (partial stall).

    A bound with no divisor in ``[2, MAX_FACTOR]`` — any prime larger
    than :data:`MAX_FACTOR`, e.g. 11 or 13 — cannot be interleaved
    without a remainder loop, which the pass does not generate.  The
    selection then returns :data:`NO_UNROLL` (1) and the op is left
    untouched; the tuner's legality model
    (:func:`legal_unroll_factors`) relies on exactly this contract.
    """
    if bound <= MIN_FACTOR:
        return bound
    for factor in range(MIN_FACTOR, MAX_FACTOR + 1):
        if bound % factor == 0:
            return factor
    for factor in (3, 2):
        if bound % factor == 0:
            return factor
    # Explicit fallback: divisor-free bound (prime > MAX_FACTOR).
    return NO_UNROLL


def unroll_dim_candidates(op: memref_stream.GenericOp) -> list[int]:
    """Parallel dims on which every output varies, outermost first.

    Only these dims yield independent interleaved accumulators; the
    automatic selection takes the innermost, the ``dim`` pass option
    (and the autotuner) may pick any of them.
    """
    out_maps = op.indexing_maps[len(op.inputs) :]
    candidates = []
    for dim in op.parallel_dims:
        # Output maps are over the compressed parallel space after
        # scalar replacement; translate the dim index.
        out_dim = op.parallel_dims.index(dim)
        varies = all(
            any(d != 0 for d in amap.unit_deltas()[out_dim])
            for amap in out_maps
        )
        if varies:
            candidates.append(dim)
    return candidates


def select_unroll_dim(op: memref_stream.GenericOp) -> int | None:
    """The parallel dim to interleave: the innermost parallel dim on
    which every output varies (so the interleaved accumulators are
    independent)."""
    candidates = unroll_dim_candidates(op)
    return candidates[-1] if candidates else None


class _UnrollAndJamPattern(TypedPattern):
    op_type = memref_stream.GenericOp

    def rewrite(
        self, op: memref_stream.GenericOp, rewriter: PatternRewriter
    ) -> None:
        if not op.reduction_dims or not op.is_scalar_replaced:
            return  # only reductions suffer accumulator RAW stalls
        if op.interleave_factor != 1:
            return  # already interleaved
        dim = select_unroll_dim(op)
        if dim is None:
            return
        factor = select_unroll_factor(op.bounds[dim])
        if factor <= 1:
            return
        _apply_unroll_and_jam(op, dim, factor)
        rewriter.changed = True


def _apply_unroll_and_jam(
    op: memref_stream.GenericOp, dim: int, factor: int
) -> None:
    bounds = list(op.bounds)
    if bounds[dim] % factor:
        raise IRError("unroll factor must divide the dimension bound")
    num_dims = len(bounds)
    new_dim = num_dims  # the interleaved dim, appended last

    # Input maps range over the full iteration space.
    def split_full(amap: AffineMap) -> AffineMap:
        replacement = AffineDimExpr(dim) * factor + AffineDimExpr(new_dim)
        exprs = [
            substitute_dims(e, {dim: replacement}) for e in amap.exprs
        ]
        return AffineMap(num_dims + 1, exprs)

    # Output maps range over the compressed (parallel-only) space.
    out_dim = op.parallel_dims.index(dim)
    num_par = len(op.parallel_dims)

    def split_output(amap: AffineMap) -> AffineMap:
        replacement = AffineDimExpr(out_dim) * factor + AffineDimExpr(
            num_par
        )
        exprs = [
            substitute_dims(e, {out_dim: replacement}) for e in amap.exprs
        ]
        return AffineMap(num_par + 1, exprs)

    maps = op.indexing_maps
    new_maps = [split_full(m) for m in maps[: len(op.inputs)]]
    new_maps += [split_output(m) for m in maps[len(op.inputs) :]]

    bounds[dim] //= factor
    bounds.append(factor)
    kinds = op.iterator_types + ["interleaved"]

    op.set_attribute("indexing_maps", ArrayAttr(new_maps))
    op.set_attribute("bounds", DenseIntAttr(bounds))
    op.set_attribute(
        "iterator_types", ArrayAttr([StringAttr(k) for k in kinds])
    )
    _interleave_body(op, factor)


def _interleave_body(op: memref_stream.GenericOp, factor: int) -> None:
    """Replicate the body ``factor`` times, grouping args per operand."""
    old_block = op.body_block
    num_operands = len(old_block.args)
    new_block = Block(
        [
            old_block.args[operand].type
            for operand in range(num_operands)
            for _ in range(factor)
        ]
    )
    yielded: list[SSAValue] = [None] * (len(op.outputs) * factor)  # type: ignore[list-item]
    yield_op = old_block.last_op
    assert isinstance(yield_op, memref_stream.YieldOp)
    n_in = len(op.inputs)
    for copy in range(factor):
        mapping: dict[int, SSAValue] = {}
        for operand in range(num_operands):
            mapping[id(old_block.args[operand])] = new_block.args[
                operand * factor + copy
            ]
        for body_op in old_block.ops:
            if isinstance(body_op, memref_stream.YieldOp):
                for out_index, value in enumerate(body_op.operands):
                    yielded[out_index * factor + copy] = mapping.get(
                        id(value), value
                    )
                continue
            new_block.add_op(body_op.clone(mapping))
    new_block.add_op(memref_stream.YieldOp(yielded))
    region = op.regions[0]
    for body_op in old_block.ops:
        body_op.drop_all_references()
        body_op.detach()
    region.detach_block(old_block)
    region.add_block(new_block)


class UnrollAndJamPass(ModulePass):
    """Interleave reductions to hide the FPU pipeline latency.

    Both schedule choices are typed pass options, spec-expressible as
    ``unroll-and-jam{factor=4 dim=1}``; either defaults to the paper's
    automatic heuristic (:func:`select_unroll_factor` /
    :func:`select_unroll_dim`) when omitted.  An op whose bounds make
    the requested (dim, factor) illegal — the dim not output-varying,
    or the factor not dividing the bound — is left untouched, so a
    mis-sized explicit schedule degrades to the un-unrolled kernel
    instead of mis-compiling.
    """

    name = "unroll-and-jam"

    def __init__(self, factor: int | None = None, dim: int | None = None):
        #: Optional fixed factor (None = automatic selection).
        self.factor = factor
        #: Optional fixed dim to interleave (None = innermost varying).
        self.dim = dim

    def run(self, module: Operation) -> None:
        if self.factor is None and self.dim is None:
            apply_patterns(module, [_UnrollAndJamPattern()])
            return
        for op in list(module.walk()):
            if not isinstance(op, memref_stream.GenericOp):
                continue
            if not op.reduction_dims or not op.is_scalar_replaced:
                continue
            if op.interleave_factor != 1:
                continue
            candidates = unroll_dim_candidates(op)
            if self.dim is None:
                dim = candidates[-1] if candidates else None
            elif self.dim in candidates:
                dim = self.dim
            else:
                continue  # requested dim is not legal for this op
            if dim is None:
                continue
            factor = (
                self.factor
                if self.factor is not None
                else select_unroll_factor(op.bounds[dim])
            )
            if factor <= 1 or op.bounds[dim] % factor:
                # NO_UNROLL (or an explicit degenerate factor): leave
                # the op untouched rather than rewriting it into a
                # factor-1 interleave, an extra dim that buys nothing.
                continue
            _apply_unroll_and_jam(op, dim, factor)


__all__ = [
    "UnrollAndJamPass",
    "legal_unroll_factors",
    "select_unroll_factor",
    "select_unroll_dim",
    "unroll_dim_candidates",
    "MIN_FACTOR",
    "MAX_FACTOR",
    "NO_UNROLL",
]
