"""Lower ``snitch_stream.streaming_region`` to configuration instructions.

Each streamed operand's stride pattern is first simplified (size-1 dims
dropped, contiguous dims collapsed — paper Figure 6 item d); a trailing
zero-stride dimension becomes the data mover's *repetition* counter, the
"dedicated optimization, reducing the pressure on the memory
interconnect".  The region is then replaced by:

    li/scfgwi ...   per-dimension bounds and strides, and repetition
    scfgwi ...      the base pointers (each write arms its mover)
    csrsi ssrcfg, 1
    <region body, with rv_snitch.read turned into register references>
    csrci ssrcfg, 1

Configure once per loop nest, arm per iteration: movers keep their
configuration words, so when the region sits in ``rv_scf.for`` loops
that run no other stream-config writer, the bound/stride/repetition
words are emitted ahead of the outermost such loop and only the pointer
writes and the ``ssrcfg`` toggles stay inside.  A zero word is written
from ``zero``.

Enable and drain once per loop nest: when that hoisted loop runs
nothing besides the region but integer ALU ops (pointer advances, loop
control) and nested loops, ``csrsi`` follows the hoisted words ahead
of the loop, a single ``csrci`` follows the loop, and each iteration
keeps only its pointer writes.  A pointer write then queues the next
row's job while the FPU still works on this one: the movers shadow
their job registers one deep (docs/MACHINE_MODEL.md, section 5).  No
FP value can live in ``ft0``-``ft2`` across the widened enable window:
the register allocator withholds every stream register the function
names, function-wide.

Otherwise the drain (``csrci``) lands right after the region, unless
only integer ALU ops (a row's pointer advances) follow it in its
``rv_scf.for`` body: then it lands at the head of that body and after
the loop, so the advances, the loop counter and the taken back-edge
issue while the FPU still works, and each iteration's head drains the
one before (the first iteration's, with streaming still off, only
synchronises).

Stream reads become ``rv.get_register`` ops naming the stream register:
at the assembly level, *consuming* ``ft0``/``ft1``/``ft2`` is what pops
the stream.
"""

from __future__ import annotations

from ..dialects import riscv, riscv_scf, riscv_snitch, snitch_stream
from ..ir.core import IRError, Operation, SSAValue
from ..ir.pass_manager import ModulePass
from ..ir.rewriter import PatternRewriter, TypedPattern, apply_patterns
from ..snitch.isa import (
    SSR_MAX_DIMS,
    WORD_BOUND_BASE,
    WORD_READ_POINTER_BASE,
    WORD_REPEAT,
    WORD_STRIDE_BASE,
    WORD_WRITE_POINTER_BASE,
    scfg_address,
)
from .lowering_kit import FunctionLowering


def hardware_pattern(
    pattern: snitch_stream.StridePattern,
) -> tuple[list[tuple[int, int]], int]:
    """(outermost-first (ub, stride) dims, repeat count) for the SSRs."""
    simplified = pattern.simplified()
    dims = list(zip(simplified.ub.values, simplified.strides.values))
    repeat = 1
    if len(dims) > 1 and dims[-1][1] == 0:
        repeat = dims[-1][0]
        dims = dims[:-1]
    if len(dims) > SSR_MAX_DIMS:
        raise IRError(
            f"stride pattern needs {len(dims)} dims; SSRs have "
            f"{SSR_MAX_DIMS} (hoist more loops)"
        )
    return dims, repeat


#: Ops that write stream configuration once lowered.
_CONFIG_WRITERS = (snitch_stream.StreamingRegionOp, riscv_snitch.ScfgwiOp)


#: Integer ALU ops: they touch neither the FPU, nor memory, nor streams.
_INT_ALU = (riscv.RdRsRsInstruction, riscv.RdRsImmInstruction, riscv.LiOp)


def _config_anchor(op: snitch_stream.StreamingRegionOp) -> Operation:
    """The op ahead of which ``op``'s bound/stride/repeat words go.

    Those words come from the region's attributes, so they are invariant
    in every enclosing loop: they move before the outermost enclosing
    ``rv_scf.for`` in which no other stream-config writer runs.
    """
    anchor, loop = op, op.parent_op
    while isinstance(loop, riscv_scf.ForOp) and not any(
        nested is not op and isinstance(nested, _CONFIG_WRITERS)
        for nested in loop.walk()
    ):
        anchor, loop = loop, loop.parent_op
    return anchor


#: What a loop nest may run besides its region to stay enabled: no
#: FPU, memory or stream work (``rv.get_register`` emits nothing).
_NEST_OPS = (*_INT_ALU, riscv.GetRegisterOp, riscv_scf.YieldOp)


def _streams_whole_nest(
    op: snitch_stream.StreamingRegionOp, loop: Operation
) -> bool:
    """Whether ``loop`` runs nothing but ``op`` and integer ALU ops
    (pointer advances, loop control), in any nesting of loops: then
    streaming stays enabled across the whole nest."""
    for nested in loop.body_block.ops:
        if isinstance(nested, riscv_scf.ForOp):
            if not _streams_whole_nest(op, nested):
                return False
        elif nested is not op and not isinstance(nested, _NEST_OPS):
            return False
    return True


def _drain_loop(op: snitch_stream.StreamingRegionOp):
    """The ``rv_scf.for`` whose body only integer ALU ops (the pointer
    advances) follow ``op`` in, else None: ``op``'s drain then moves to
    the head of that body and after the loop."""
    after = op.next_op
    while isinstance(after, _INT_ALU):
        after = after.next_op
    if isinstance(after, riscv_scf.YieldOp):
        return op.parent_op
    return None


class _LowerStreamingRegion(TypedPattern):
    op_type = snitch_stream.StreamingRegionOp

    def rewrite(
        self,
        op: snitch_stream.StreamingRegionOp,
        rewriter: PatternRewriter,
    ) -> None:
        anchor = _config_anchor(op)
        whole_nest = anchor is not op and _streams_whole_nest(op, anchor)
        config_ops: list[Operation] = []
        # Pointer writes (which arm the movers) stay with the region;
        # inside a loop nest the rest is hoisted above it, the enable
        # too when nothing else runs in the nest.
        arm_ops = config_ops if anchor is op else []
        constants: dict[int, SSAValue] = {}  # one li per value

        def li(value: int):
            if value not in constants:
                li_op = FunctionLowering.li_op(value)
                config_ops.append(li_op)
                constants[value] = li_op.results[0]
            return constants[value]

        n_in = len(op.inputs)
        for mover, (pointer, pattern) in enumerate(
            zip(op.operands, op.patterns)
        ):
            dims, repeat = hardware_pattern(pattern)
            rank = len(dims)
            # SSR dimension 0 is the innermost = the last pattern dim.
            for ssr_dim, (ub, stride) in enumerate(reversed(dims)):
                config_ops.append(
                    riscv_snitch.ScfgwiOp(
                        li(ub - 1),
                        scfg_address(mover, WORD_BOUND_BASE + ssr_dim),
                    )
                )
                config_ops.append(
                    riscv_snitch.ScfgwiOp(
                        li(stride),
                        scfg_address(mover, WORD_STRIDE_BASE + ssr_dim),
                    )
                )
            # Program the repetition counter even when it is 1: movers
            # keep their configuration across regions.
            config_ops.append(
                riscv_snitch.ScfgwiOp(
                    li(repeat - 1), scfg_address(mover, WORD_REPEAT)
                )
            )
            base = (
                WORD_READ_POINTER_BASE
                if mover < n_in
                else WORD_WRITE_POINTER_BASE
            )
            arm_ops.append(
                riscv_snitch.ScfgwiOp(
                    pointer, scfg_address(mover, base + rank - 1)
                )
            )
        (config_ops if whole_nest else arm_ops).append(
            riscv_snitch.CsrsiOp("ssrcfg", 1)
        )
        if arm_ops is not config_ops:
            rewriter.insert_before(config_ops, anchor)
        rewriter.insert_before(arm_ops, op)

        # Convert stream reads into register references and fold stream
        # writes into their producers, everywhere in the nested body.
        for nested in list(op.walk()):
            if isinstance(nested, riscv_snitch.ReadOp):
                if len(nested.result.uses) != 1:
                    raise IRError(
                        "each stream read must be consumed exactly once: "
                        "every operand occurrence of a stream register "
                        "pops one element"
                    )
                # Core primitives: no pattern here matches what a
                # rewriter would re-enqueue (as for the body below).
                get_reg = riscv.GetRegisterOp(nested.result.type)
                nested.parent.insert_op_before(get_reg, nested)
                nested.result.replace_all_uses_with(get_reg.result)
                nested.erase()
            elif isinstance(nested, riscv_snitch.WriteOp):
                _lower_stream_write(nested, rewriter)

        # Inline the body: block args (the stream handles) have no
        # remaining uses after read conversion.
        body = op.body_block
        for arg in body.args:
            if arg.has_uses:
                raise IRError(
                    "stream handle still used after read lowering"
                )
        for body_op in body.ops:
            body_op.detach()
            op.parent.insert_op_before(body_op, op)
        loop = _drain_loop(op)
        if whole_nest:
            drains = [anchor.next_op]
        elif loop is None:
            drains = [op]
        else:
            drains = [loop.body_block.first_op, loop.next_op]
        for at in drains:
            rewriter.insert_before([riscv_snitch.CsrciOp("ssrcfg", 1)], at)
        rewriter.erase_op(op)


def _lower_stream_write(
    write: riscv_snitch.WriteOp, rewriter: PatternRewriter
) -> None:
    """Fold a stream push into its producer, or emit a register move.

    Writing the stream register *is* the push: when the pushed value is
    produced by an adjacent instruction whose only consumer is the push,
    the producer's destination is simply re-typed to the stream register
    (``fadd.d ft2, ft0, ft1`` computes *and* stores).  Otherwise an
    ``fmv.d`` into the stream register realises the push.
    """
    stream_type = write.stream.type
    register_type = stream_type.element_type
    value = write.value
    producer = value.owner
    foldable = (
        isinstance(producer, riscv.RISCVInstruction)
        and producer.parent is write.parent
        and len(value.uses) == 1
        and isinstance(value.type, riscv.FloatRegisterType)
        and not value.type.is_allocated
    )
    if foldable:
        value.set_type(register_type)
        rewriter.erase_op(write)
        return
    move = riscv.FMVOp(value, result_type=register_type)
    rewriter.replace_op(write, move, new_results=[])


class LowerSnitchStreamPass(ModulePass):
    """Replace streaming regions with scfgwi/csr configuration code."""

    name = "lower-snitch-stream"

    def run(self, module: Operation) -> None:
        apply_patterns(module, [_LowerStreamingRegion()])


__all__ = ["LowerSnitchStreamPass", "hardware_pattern"]
