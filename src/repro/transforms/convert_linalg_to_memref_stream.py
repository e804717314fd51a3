"""Convert ``linalg.generic``/``linalg.fill`` to ``memref_stream.generic``.

The entry pass of the backend: it makes iteration bounds explicit (they
are inferred from operand shapes at the linalg level, paper Section 3.4)
and normalizes the dimension order to [parallel..., reduction...] so the
scheduling passes can assume reductions are innermost.
"""

from __future__ import annotations

from ..dialects import linalg, memref_stream
from ..ir.affine_map import AffineMap, permute_map
from ..ir.core import Block, Operation, Region
from ..ir.pass_manager import ModulePass
from ..ir.rewriter import PatternRewriter, TypedPattern, apply_patterns


def _permutation_to_canonical(iterator_types: list[str]) -> list[int]:
    """Old dim index per new position: parallels first, reductions last."""
    parallels = [
        i for i, kind in enumerate(iterator_types) if kind == "parallel"
    ]
    reductions = [
        i for i, kind in enumerate(iterator_types) if kind == "reduction"
    ]
    return parallels + reductions


class _ConvertGeneric(TypedPattern):
    """linalg.generic -> memref_stream.generic with explicit bounds."""

    op_type = linalg.GenericOp

    def rewrite(self, op: linalg.GenericOp, rewriter: PatternRewriter):
        bounds = op.iteration_bounds()
        iterator_types = op.iterator_types
        perm = _permutation_to_canonical(iterator_types)
        new_bounds = [bounds[i] for i in perm]
        new_kinds = [iterator_types[i] for i in perm]
        new_maps = [permute_map(m, perm) for m in op.indexing_maps]
        body = op.regions[0]
        op.detach_region(body)
        old_yield = body.block.last_op
        assert isinstance(old_yield, linalg.YieldOp)
        values = list(old_yield.operands)
        old_yield.erase()
        body.block.add_op(memref_stream.YieldOp(values))
        new_op = memref_stream.GenericOp(
            inputs=list(op.inputs),
            outputs=list(op.outputs),
            indexing_maps=new_maps,
            iterator_types=new_kinds,
            bounds=new_bounds,
            body=body,
        )
        rewriter.replace_matched_op(new_op, [])


class _ConvertFill(TypedPattern):
    """linalg.fill -> a rank-parallel memref_stream.generic.

    The body ignores the (unused) current value and yields the fill
    scalar, which stays an outside-defined SSA value.
    """

    op_type = linalg.FillOp

    def rewrite(self, op: linalg.FillOp, rewriter: PatternRewriter):
        out_type = op.output.type
        rank = out_type.rank
        block = Block([out_type.element_type])
        block.add_op(memref_stream.YieldOp([op.fill_value]))
        new_op = memref_stream.GenericOp(
            inputs=[],
            outputs=[op.output],
            indexing_maps=[AffineMap.identity(rank)],
            iterator_types=["parallel"] * rank,
            bounds=list(out_type.shape),
            body=Region([block]),
        )
        rewriter.replace_matched_op(new_op, [])


class ConvertLinalgToMemrefStreamPass(ModulePass):
    """Module pass running both conversion patterns to fixpoint."""

    name = "convert-linalg-to-memref-stream"

    def run(self, module: Operation) -> None:
        apply_patterns(module, [_ConvertGeneric(), _ConvertFill()])


__all__ = ["ConvertLinalgToMemrefStreamPass"]
