"""IR construction helper.

A :class:`Builder` tracks an insertion point inside a block and appends
operations there, mirroring MLIR's ``OpBuilder``.  All kernel builders and
lowering passes construct IR through it.

Insertion points are *anchor-based*: a point is "before ``anchor``" (or
"at the end" when the anchor is ``None``), so every insertion is an O(1)
linked-list splice and the point stays valid across unrelated mutations
of the same block — no positional index to maintain.
"""

from __future__ import annotations

from typing import TypeVar

from .core import Block, IRError, Operation

OpT = TypeVar("OpT", bound=Operation)


class InsertPoint:
    """A position inside a block where new operations are inserted.

    ``anchor`` is the operation new ops are inserted *before*; ``None``
    means "append at the end of the block" — unless ``at_block_start``
    is set, in which case the point tracks the (possibly changing)
    start of the block itself.
    """

    __slots__ = ("block", "anchor", "at_block_start")

    def __init__(
        self,
        block: Block,
        anchor: Operation | None = None,
        at_block_start: bool = False,
    ):
        if anchor is not None and anchor.parent is not block:
            raise IRError("insertion anchor not in block")
        self.block = block
        self.anchor = anchor
        self.at_block_start = at_block_start

    @property
    def index(self) -> int:
        """The positional index of this point (O(n); for inspection)."""
        if self.at_block_start:
            return 0
        if self.anchor is None:
            return len(self.block.ops)
        return self.block.index_of(self.anchor)

    @staticmethod
    def at_end(block: Block) -> "InsertPoint":
        """Insertion point after the last operation of ``block``."""
        return InsertPoint(block, None)

    @staticmethod
    def at_start(block: Block) -> "InsertPoint":
        """Insertion point before the first operation of ``block``
        (tracking the block start even as ops are added around it)."""
        return InsertPoint(block, None, at_block_start=True)

    @staticmethod
    def before(op: Operation) -> "InsertPoint":
        """Insertion point immediately before ``op``."""
        if op.parent is None:
            raise IRError("operation is not attached to a block")
        return InsertPoint(op.parent, op)

    @staticmethod
    def after(op: Operation) -> "InsertPoint":
        """Insertion point immediately after ``op``."""
        if op.parent is None:
            raise IRError("operation is not attached to a block")
        return InsertPoint(op.parent, op.next_op)


class Builder:
    """Appends operations at a movable insertion point."""

    def __init__(self, insert_point: InsertPoint):
        self.insert_point = insert_point

    # -- constructors --------------------------------------------------------

    @staticmethod
    def at_end(block: Block) -> "Builder":
        """A builder appending at the end of ``block``."""
        return Builder(InsertPoint.at_end(block))

    @staticmethod
    def at_start(block: Block) -> "Builder":
        """A builder inserting at the start of ``block``."""
        return Builder(InsertPoint.at_start(block))

    @staticmethod
    def before(op: Operation) -> "Builder":
        """A builder inserting before ``op``."""
        return Builder(InsertPoint.before(op))

    # -- insertion -------------------------------------------------------------

    def insert(self, op: OpT) -> OpT:
        """Insert ``op`` at the current point and advance past it."""
        point = self.insert_point
        if point.at_block_start:
            # First insertion lands at the block start; the point then
            # becomes an ordinary anchor so subsequent inserts keep
            # source order.
            first = point.block.first_op
            if first is None:
                point.block.add_op(op)
            else:
                point.block.insert_op_before(op, first)
            point.at_block_start = False
            point.anchor = op.next_op
        elif point.anchor is None:
            point.block.add_op(op)
        else:
            point.block.insert_op_before(op, point.anchor)
        return op


__all__ = ["Builder", "InsertPoint"]
