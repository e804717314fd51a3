"""Scalar replacement of reduction accumulators (Table 3 "+ Scalar Repl.").

"To avoid accumulating intermediate results in memory, we exclude the
reduction indices from the iteration space specifications of the
results, guiding our lowering to loops to use local values for
accumulation" (paper Section 3.4).  Concretely: an output map over the
full iteration space ``(d_par..., d_red...) -> (...)`` is rewritten to a
map over the parallel dims only; the lowering then keeps the accumulator
in a register across the whole reduction.
"""

from __future__ import annotations

from ..dialects import memref_stream
from ..ir.affine_map import AffineDimExpr, AffineMap, substitute_dims
from ..ir.attributes import ArrayAttr
from ..ir.core import Operation
from ..ir.pass_manager import ModulePass
from ..ir.rewriter import PatternRewriter, TypedPattern, apply_patterns


def can_scalar_replace(op: memref_stream.GenericOp) -> bool:
    """Whether the generic's outputs are invariant in the reduction dims."""
    red = set(op.reduction_dims)
    if not red:
        return False
    if op.is_scalar_replaced:
        return False
    num_dims = len(op.bounds)
    for amap in op.indexing_maps[len(op.inputs) :]:
        if amap.num_dims != num_dims:
            return False
        deltas = amap.unit_deltas()
        for dim in red:
            if any(d != 0 for d in deltas[dim]):
                return False  # output actually varies with the reduction
    return True


class _ScalarReplacePattern(TypedPattern):
    op_type = memref_stream.GenericOp

    def rewrite(
        self, op: memref_stream.GenericOp, rewriter: PatternRewriter
    ) -> None:
        if not can_scalar_replace(op):
            return
        parallel = op.parallel_dims
        # Old parallel dim -> its index in the compressed dim space.
        mapping = {
            old: AffineDimExpr(new) for new, old in enumerate(parallel)
        }
        maps = op.indexing_maps
        new_out_maps = []
        for amap in maps[len(op.inputs) :]:
            exprs = [substitute_dims(e, mapping) for e in amap.exprs]
            new_out_maps.append(AffineMap(len(parallel), exprs))
        op.set_attribute(
            "indexing_maps",
            ArrayAttr(maps[: len(op.inputs)] + new_out_maps),
        )
        rewriter.changed = True


class ScalarReplacementPass(ModulePass):
    """Exclude reduction dims from all output index spaces."""

    name = "scalar-replacement"

    def run(self, module: Operation) -> None:
        apply_patterns(module, [_ScalarReplacePattern()])


__all__ = ["ScalarReplacementPass", "can_scalar_replace"]
