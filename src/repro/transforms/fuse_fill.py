"""Fuse an output-zeroing fill into the consuming generic (Table 3).

MatMul-style kernels arrive as two linalg operations: a ``linalg.fill``
zeroing the output and the reduction itself (paper Section 4.1).  After
conversion both are ``memref_stream.generic`` ops.  This pass recognises
a constant fill whose buffer is next consumed as the output of a
reduction generic and records the constant in the consumer's ``inits``
attribute: the accumulator then starts from the constant, "eliminating
the remaining loads and stores" on the output (Section 4.4).
"""

from __future__ import annotations

from ..dialects import arith, memref_stream
from ..ir.attributes import ArrayAttr, FloatAttr
from ..ir.core import Operation
from ..ir.pass_manager import ModulePass
from ..ir.rewriter import PatternRewriter, TypedPattern, apply_patterns


def fill_constant(op: memref_stream.GenericOp) -> FloatAttr | None:
    """The constant a fill-like generic writes, or ``None``.

    Fill-like: no inputs, one output, a body that only yields a value
    produced by ``arith.constant``.
    """
    if op.inputs or len(op.outputs) != 1:
        return None
    block = op.body_block
    ops = block.ops
    if len(ops) != 1 or not isinstance(ops[0], memref_stream.YieldOp):
        return None
    yielded = ops[0].operands[0]
    owner = yielded.owner
    if not isinstance(owner, arith.ConstantOp):
        return None
    value = owner.value
    if not isinstance(value, FloatAttr):
        return None
    return value


class _FuseFillPattern(TypedPattern):
    """Matches the *consumer* generic and looks back for a fill."""

    op_type = memref_stream.GenericOp

    def rewrite(
        self, op: memref_stream.GenericOp, rewriter: PatternRewriter
    ) -> None:
        if not op.reduction_dims:
            return
        if op.parent is None:
            return
        previous = op.prev_op
        if not isinstance(previous, memref_stream.GenericOp):
            return
        constant = fill_constant(previous)
        if constant is None:
            return
        filled_buffer = previous.outputs[0]
        inits = op.inits
        changed = False
        for i, output in enumerate(op.outputs):
            if output is filled_buffer and inits[i] == (
                memref_stream.FROM_MEMORY
            ):
                inits[i] = constant
                changed = True
        if not changed:
            return
        op.set_attribute("inits", ArrayAttr(inits))
        rewriter.erase_op(previous)
        rewriter.changed = True


class FuseFillPass(ModulePass):
    """Run the fill-fusion pattern to fixpoint over a module."""

    name = "fuse-fill"

    def run(self, module: Operation) -> None:
        apply_patterns(module, [_FuseFillPattern()])


__all__ = ["FuseFillPass", "fill_constant"]
