"""Static stream-balance verification.

Snitch data movers deliver exactly ``prod(ub)`` elements per activation;
a body that pops too few or too many elements silently skews every
subsequent access.  Because the backend keeps control flow *structured*
(paper Section 3.3) and loop bounds are compile-time ``li`` constants,
the exact number of reads/writes a ``snitch_stream.streaming_region``
body performs is statically computable — so the compiler can prove
stream balance instead of hoping for it.

The pass walks each streaming region, multiplying every
``rv_snitch.read``/``rv_snitch.write`` (and, after write folding, every
instruction result pinned to a write stream register) by the trip counts
of its enclosing structured loops, and compares the totals with the
stride-pattern element counts.
"""

from __future__ import annotations

from ..dialects import riscv, riscv_scf, riscv_snitch, snitch_stream
from ..ir.core import Block, IRError, Operation, SSAValue
from ..ir.pass_manager import ModulePass


class StreamBalanceError(IRError):
    """A streaming region consumes/produces the wrong element count."""


def constant_of(value: SSAValue) -> int | None:
    """The statically known integer a register value holds, if any."""
    owner = value.owner
    if isinstance(owner, riscv.LiOp):
        return owner.immediate
    if isinstance(owner, riscv.GetRegisterOp):
        vtype = owner.result.type
        if (
            isinstance(vtype, riscv.IntRegisterType)
            and vtype.register == "zero"
        ):
            return 0
    return None


def trip_count(loop: Operation) -> int | None:
    """Statically known iteration count of a structured loop."""
    if isinstance(loop, riscv_snitch.FrepOuter):
        max_rep = constant_of(loop.max_rep)
        return None if max_rep is None else max_rep + 1
    assert isinstance(loop, riscv_scf.ForOp)
    lower = constant_of(loop.lower_bound)
    upper = constant_of(loop.upper_bound)
    step = constant_of(loop.step)
    if None in (lower, upper, step) or step <= 0:
        return None
    if upper <= lower:
        return 0
    return (upper - lower + step - 1) // step


def _count_events(block: Block, stream_id, multiplier: int, totals):
    """Accumulate stream pops/pushes under ``block``."""
    for op in block.ops:
        if isinstance(op, riscv_snitch.ReadOp):
            key = id(op.stream)
            totals[key] = totals.get(key, 0) + multiplier
        elif isinstance(op, riscv_snitch.WriteOp):
            key = id(op.stream)
            totals[key] = totals.get(key, 0) + multiplier
        elif isinstance(op, (riscv_scf.ForOp, riscv_snitch.FrepOuter)):
            trips = trip_count(op)
            if trips is None:
                raise StreamBalanceError(
                    "cannot statically bound a loop inside a streaming "
                    "region"
                )
            _count_events(
                op.body.block, stream_id, multiplier * trips, totals
            )
        elif op.regions:
            raise StreamBalanceError(
                f"unexpected nested region op {op.name} while counting "
                "stream events"
            )


def verify_streaming_region(
    region_op: snitch_stream.StreamingRegionOp,
) -> None:
    """Check one region: per-stream event count == pattern count."""
    totals: dict[int, int] = {}
    _count_events(region_op.body_block, None, 1, totals)
    for arg, pattern in zip(region_op.body_block.args, region_op.patterns):
        expected = pattern.count
        actual = totals.get(id(arg), 0)
        if actual != expected:
            direction = (
                "reads" if id(arg) in totals or expected else "writes"
            )
            raise StreamBalanceError(
                f"stream {arg!r} moves {actual} elements but its "
                f"pattern describes {expected} ({direction} mismatch)"
            )


class VerifyStreamsPass(ModulePass):
    """Prove stream balance for every streaming region in the module."""

    name = "verify-streams"

    def run(self, module: Operation) -> None:
        for op in module.walk():
            if isinstance(op, snitch_stream.StreamingRegionOp):
                verify_streaming_region(op)


__all__ = [
    "VerifyStreamsPass",
    "StreamBalanceError",
    "constant_of",
    "trip_count",
    "verify_streaming_region",
]
