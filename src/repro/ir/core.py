"""Core SSA-with-regions IR data structures.

This is the structural heart of the reproduction: operations with operands,
results, attributes and nested regions; regions with blocks; blocks with
arguments and a doubly-linked list of operations.  The design follows MLIR
(paper Section 2.1 and Table 4): instructions are *operations*, instruction
operands are *SSA values*, registers are encoded in *types*, and scoping is
expressed with *blocks and regions*.

Use-def chains are maintained eagerly so the register allocator can perform
its backwards walk (Section 3.3) and so rewrites can do RAUW safely.

Operations are linked into their block *intrusively*: every
:class:`Operation` carries ``prev_op``/``next_op`` pointers, so
insert-before/after, detach and erase are O(1) regardless of block size —
the property that keeps rewriting linear in module size on the large
unrolled kernels of the evaluation sweeps (Figures 10/11).
:attr:`Block.ops` and :attr:`Operation.operands` are lightweight live
views, not per-access tuple copies.

Every mutation of attached IR goes through the primitives of this module
(``Block._link``/``add_op``/``_unlink``, ``Operation.add_operand``/
``set_operand``/``drop_all_references``/``set_attribute``/
``remove_attribute``/``add_region``/``detach_region``,
``SSAValue.set_type``, ``Block.add_arg``, ``Region.add_block``/
``detach_block``), and each of them notes what it touched into the
thread's :class:`ChangeSet` when one is installed — that is what lets
the pass manager verify after a pass only what the pass changed
(:func:`repro.ir.verifier.verify_changes`).  Code outside ``repro.ir``
never writes ``.type``, ``.attributes[...]``, ``._operands``, ``.uses``,
``.parent``, ``.prev_op`` or ``.next_op`` itself.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Sequence

from .attributes import Attribute, TypeAttribute


class IRError(Exception):
    """Raised on malformed IR (verification failures, bad mutations)."""


# ---------------------------------------------------------------------------
# Change recording
# ---------------------------------------------------------------------------


class ChangeSet:
    """What one pass did, as noted by the mutation primitives.

    Five insertion-ordered sets (dicts with ``None`` values, so that
    diagnostics and the work done from them are reproducible), named
    after what the verifier has to re-establish for their members:

    ``placed``
        ops spliced into a block (new or moved) or given a block or
        region: their subtree's position in the IR changed;
    ``unlinked``
        ops taken out of a block — gone for good unless also
        ``placed``: either way, what used their results may no longer
        be dominated by them;
    ``modified``
        ops whose operands or attributes changed, or that lost a
        region or block;
    ``retyped``
        values whose type changed;
    ``blocks``
        blocks that lost an op or gained an argument: like the blocks
        of ``placed`` ops, their owner may no longer like its body.

    The three rewrite-driver counts of the pass ride along, so that
    ``PassManager.pass_stats`` is per compile, not per process.
    """

    __slots__ = (
        "placed",
        "unlinked",
        "modified",
        "retyped",
        "blocks",
        "ops_visited",
        "pattern_invocations",
        "rewrites_applied",
    )

    def __init__(self):
        self.placed: dict[Operation, None] = {}
        self.unlinked: dict[Operation, None] = {}
        self.modified: dict[Operation, None] = {}
        self.retyped: dict[SSAValue, None] = {}
        self.blocks: dict[Block, None] = {}
        self.ops_visited = 0
        self.pattern_invocations = 0
        self.rewrites_applied = 0

    def __bool__(self) -> bool:
        """Whether any IR mutation was noted."""
        return bool(
            self.placed
            or self.unlinked
            or self.modified
            or self.retyped
            or self.blocks
        )

    def absorb(self, other: "ChangeSet") -> None:
        """Add everything ``other`` recorded to this set."""
        self.placed.update(other.placed)
        self.unlinked.update(other.unlinked)
        self.modified.update(other.modified)
        self.retyped.update(other.retyped)
        self.blocks.update(other.blocks)
        self.ops_visited += other.ops_visited
        self.pattern_invocations += other.pattern_invocations
        self.rewrites_applied += other.rewrites_applied


class _Recording(threading.local):
    """The calling thread's recorders (the service compiles on
    connection threads; each sees only its own compile)."""

    #: Where the mutation primitives note what they touch, or None.
    changes: ChangeSet | None = None
    #: Where the rewrite drivers add their counts, or None.
    rewrites: ChangeSet | None = None


#: Installed and removed by :meth:`PassManager.run` around each pass.
RECORDING = _Recording()


# ---------------------------------------------------------------------------
# SSA values
# ---------------------------------------------------------------------------


class Use:
    """One use of an SSA value: ``operation.operands[index]``."""

    __slots__ = ("operation", "index")

    def __init__(self, operation: "Operation", index: int):
        self.operation = operation
        self.index = index

    def __repr__(self) -> str:
        return f"Use({self.operation.name}, {self.index})"


class SSAValue:
    """A value in SSA form: defined once, used many times.

    ``type`` is the value's type attribute and ``uses`` the live use list.
    """

    __slots__ = ("type", "uses", "name_hint")

    def __init__(self, type: TypeAttribute, name_hint: str | None = None):
        self.type = type
        self.uses: list[Use] = []
        self.name_hint = name_hint

    def set_type(self, type: TypeAttribute) -> None:
        """Change the value's type in place (e.g. assign its register)."""
        self.type = type
        if RECORDING.changes is not None:
            RECORDING.changes.retyped[self] = None

    # -- use management -----------------------------------------------------

    def add_use(self, use: Use) -> None:
        """Record a new use of this value."""
        self.uses.append(use)

    def remove_use(self, operation: "Operation", index: int) -> None:
        """Drop the use at ``operation.operands[index]``."""
        for i, use in enumerate(self.uses):
            if use.operation is operation and use.index == index:
                del self.uses[i]
                return
        raise IRError(f"use not found on {self}")

    def replace_all_uses_with(self, other: "SSAValue") -> None:
        """Redirect every use of this value to ``other`` (RAUW)."""
        if other is self:
            return
        for use in list(self.uses):
            use.operation.set_operand(use.index, other)

    @property
    def has_uses(self) -> bool:
        """Whether any operation still refers to this value."""
        return bool(self.uses)

    @property
    def users(self) -> list["Operation"]:
        """Operations using this value (with duplicates for multi-use)."""
        return [use.operation for use in self.uses]

    @property
    def owner(self) -> "Operation | Block":
        """The operation or block defining this value."""
        raise NotImplementedError

    def __repr__(self) -> str:
        hint = self.name_hint or "?"
        return f"<{type(self).__name__} %{hint}: {self.type}>"


class OpResult(SSAValue):
    """A value produced by an operation."""

    __slots__ = ("op", "index")

    def __init__(
        self,
        type: TypeAttribute,
        op: "Operation",
        index: int,
        name_hint: str | None = None,
    ):
        # Inlined SSAValue.__init__ (results are built per op on the
        # hottest construction path).
        self.type = type
        self.uses = []
        self.name_hint = name_hint
        self.op = op
        self.index = index

    @property
    def owner(self) -> "Operation":
        return self.op


class BlockArgument(SSAValue):
    """A value bound on entry to a block (e.g. a loop induction variable)."""

    __slots__ = ("block", "index")

    def __init__(
        self,
        type: TypeAttribute,
        block: "Block",
        index: int,
        name_hint: str | None = None,
    ):
        super().__init__(type, name_hint)
        self.block = block
        self.index = index

    @property
    def owner(self) -> "Block":
        return self.block


# ---------------------------------------------------------------------------
# Lightweight sequence views
# ---------------------------------------------------------------------------


class OperandsView:
    """A live, read-only view of an operation's operand list.

    Reflects mutations through :meth:`Operation.set_operand` /
    :meth:`Operation.add_operand` immediately; supports the sequence
    protocol without allocating a fresh tuple per access.  Callers that
    need snapshot semantics take an explicit ``tuple(op.operands)``.
    """

    __slots__ = ("_values",)

    def __init__(self, values: list[SSAValue]):
        self._values = values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[SSAValue]:
        return iter(self._values)

    def __reversed__(self) -> Iterator[SSAValue]:
        return reversed(self._values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._values[index])
        return self._values[index]

    def __contains__(self, value) -> bool:
        return value in self._values

    def __eq__(self, other) -> bool:
        if isinstance(other, OperandsView):
            other = other._values
        if not isinstance(other, (list, tuple)):
            return NotImplemented
        return len(self._values) == len(other) and all(
            a == b for a, b in zip(self._values, other)
        )

    def __repr__(self) -> str:
        return f"OperandsView({self._values!r})"


class BlockOps:
    """A live view of a block's operation list (intrusive linked list).

    Iteration is mutation-safe against *erasing the op just yielded*:
    the successor is captured before each yield.  ``len`` is O(1);
    positional indexing is O(index) and intended for tests and
    small-block inspection, not hot paths.
    """

    __slots__ = ("_block",)

    def __init__(self, block: "Block"):
        self._block = block

    def __len__(self) -> int:
        return self._block._num_ops

    def __bool__(self) -> bool:
        return self._block._first_op is not None

    def __iter__(self) -> Iterator["Operation"]:
        op = self._block._first_op
        while op is not None:
            next_op = op.next_op
            yield op
            op = next_op

    def __reversed__(self) -> Iterator["Operation"]:
        op = self._block._last_op
        while op is not None:
            prev_op = op.prev_op
            yield op
            op = prev_op

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        count = self._block._num_ops
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("block op index out of range")
        # Walk from the nearer end.
        if index <= count // 2:
            op = self._block._first_op
            for _ in range(index):
                op = op.next_op
        else:
            op = self._block._last_op
            for _ in range(count - 1 - index):
                op = op.prev_op
        return op

    def __contains__(self, op) -> bool:
        return (
            isinstance(op, Operation) and op.parent is self._block
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, BlockOps):
            if other._block is self._block:
                return True
            other = tuple(other)
        if not isinstance(other, (list, tuple)):
            return NotImplemented
        if self._block._num_ops != len(other):
            return False
        return all(a is b for a, b in zip(self, other))

    def index(self, op: "Operation") -> int:
        """Position of ``op`` in the block (O(n))."""
        for i, existing in enumerate(self):
            if existing is op:
                return i
        raise IRError("operation not in block")

    def __repr__(self) -> str:
        return f"BlockOps({list(self)!r})"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


class Operation:
    """A single IR operation.

    Subclasses set the class attribute ``name`` (e.g. ``"arith.addf"``) and
    ``traits`` and usually provide a typed ``__init__`` plus properties for
    named operand/result access.  Storage is fully generic, so passes can
    treat all operations uniformly.

    ``prev_op``/``next_op`` are the intrusive block-list links; they are
    ``None`` while the operation is detached.
    """

    name = "builtin.unregistered"
    #: Set of trait classes (see :mod:`repro.ir.traits`).
    traits: frozenset = frozenset()

    __slots__ = (
        "_operands",
        "_operands_view",
        "results",
        "attributes",
        "regions",
        "parent",
        "prev_op",
        "next_op",
    )

    def __init__(
        self,
        operands: Sequence[SSAValue] = (),
        result_types: Sequence[TypeAttribute] = (),
        attributes: dict[str, Attribute] | None = None,
        regions: Sequence["Region"] = (),
    ):
        operand_list: list[SSAValue] = []
        self._operands = operand_list
        self._operands_view = None
        self.results: list[OpResult] = [
            OpResult(t, self, i) for i, t in enumerate(result_types)
        ]
        self.attributes: dict[str, Attribute] = (
            {} if attributes is None else dict(attributes)
        )
        self.regions: list[Region] = []
        self.parent: Block | None = None
        self.prev_op: Operation | None = None
        self.next_op: Operation | None = None
        for value in operands:
            # Inlined add_operand: construction is the hottest IR path.
            if not isinstance(value, SSAValue):
                raise IRError(
                    f"operand of {self.name} must be an SSAValue, got "
                    f"{type(value).__name__}"
                )
            value.uses.append(Use(self, len(operand_list)))
            operand_list.append(value)
        for region in regions:
            self.add_region(region)

    # -- operand management --------------------------------------------------

    @property
    def operands(self) -> OperandsView:
        """The operation's operands, as a live read-only view."""
        view = self._operands_view
        if view is None:
            view = self._operands_view = OperandsView(self._operands)
        return view

    def add_operand(self, value: SSAValue) -> None:
        """Append ``value`` to the operand list, recording the use."""
        if not isinstance(value, SSAValue):
            raise IRError(
                f"operand of {self.name} must be an SSAValue, got "
                f"{type(value).__name__}"
            )
        index = len(self._operands)
        self._operands.append(value)
        value.add_use(Use(self, index))
        if RECORDING.changes is not None:
            RECORDING.changes.modified[self] = None

    def set_operand(self, index: int, value: SSAValue) -> None:
        """Replace the operand at ``index`` with ``value``."""
        old = self._operands[index]
        old.remove_use(self, index)
        self._operands[index] = value
        value.add_use(Use(self, index))
        if RECORDING.changes is not None:
            RECORDING.changes.modified[self] = None

    def drop_all_references(self) -> None:
        """Detach this op (and nested ops) from all used values."""
        for index, value in enumerate(self._operands):
            value.remove_use(self, index)
        self._operands.clear()
        if RECORDING.changes is not None:
            RECORDING.changes.modified[self] = None
        for region in self.regions:
            for block in region.blocks:
                for op in block.ops:
                    op.drop_all_references()

    # -- attribute management -------------------------------------------------

    def set_attribute(self, key: str, value: Attribute) -> None:
        """Set (or overwrite) the attribute ``key``."""
        self.attributes[key] = value
        if RECORDING.changes is not None:
            RECORDING.changes.modified[self] = None

    def remove_attribute(self, key: str) -> None:
        """Drop the attribute ``key`` (which must be present)."""
        del self.attributes[key]
        if RECORDING.changes is not None:
            RECORDING.changes.modified[self] = None

    # -- region management ----------------------------------------------------

    def add_region(self, region: "Region") -> None:
        """Attach ``region`` as the last region of this operation."""
        if region.parent is not None:
            raise IRError("region already attached to an operation")
        region.parent = self
        self.regions.append(region)
        if RECORDING.changes is not None:
            RECORDING.changes.placed[self] = None

    def detach_region(self, region: "Region") -> None:
        """Take ``region`` (with everything in it) off this operation."""
        if region.parent is not self:
            raise IRError("region not attached to this operation")
        self.regions.remove(region)
        region.parent = None
        if RECORDING.changes is not None:
            RECORDING.changes.modified[self] = None

    @property
    def body(self) -> "Region":
        """The single region of this op; errors if there is not exactly one."""
        if len(self.regions) != 1:
            raise IRError(f"{self.name} has {len(self.regions)} regions")
        return self.regions[0]

    # -- navigation ------------------------------------------------------------

    @property
    def parent_op(self) -> "Operation | None":
        """The operation whose region contains this operation."""
        if self.parent is None or self.parent.parent is None:
            return None
        return self.parent.parent.parent

    def is_ancestor_of(self, other: "Operation") -> bool:
        """Whether ``other`` is nested (transitively) inside this op."""
        op = other.parent_op
        while op is not None:
            if op is self:
                return True
            op = op.parent_op
        return False

    def is_attached_to(self, root: "Operation") -> bool:
        """Whether this op's parent chain reaches ``root``.

        ``False`` for ops hanging off a detached/erased subtree — even
        when their own ``parent`` link is still set (erasing an op
        detaches the op itself but leaves the internal links of its
        regions intact).  Rewrite drivers use this to drop stale
        worklist entries.
        """
        op = self
        while op is not root:
            block = op.parent
            if block is None or block.parent is None:
                return False
            op = block.parent.parent
            if op is None:
                return False
        return True

    def _nested_ops(self) -> Iterator["Operation"]:
        """Direct child operations, across all regions and blocks."""
        for region in self.regions:
            for block in region.blocks:
                op = block._first_op
                while op is not None:
                    next_op = op.next_op
                    yield op
                    op = next_op

    def walk(self) -> Iterator["Operation"]:
        """Pre-order traversal of this op and all nested operations.

        Iterative (no recursive generator chain) and copy-free: block
        successors are captured before each yield, so erasing the
        yielded op itself is safe.  Callers that erase *other* ops
        mid-walk should snapshot with ``list(root.walk())`` first.
        """
        yield self
        if not self.regions:
            return
        stack: list[Iterator[Operation]] = [self._nested_ops()]
        while stack:
            op = next(stack[-1], None)
            if op is None:
                stack.pop()
                continue
            yield op
            if op.regions:
                stack.append(op._nested_ops())

    # -- traits -----------------------------------------------------------------

    def has_trait(self, trait: type) -> bool:
        """Whether the operation carries the given trait."""
        return trait in type(self).traits

    # -- mutation -----------------------------------------------------------------

    def clone(self, value_map: dict[int, SSAValue]) -> "Operation":
        """A detached copy of this region-free op, remapped by ``value_map``.

        Like MLIR's ``clone(IRMapping&)``: operands are looked up in
        ``value_map`` (keyed by ``id`` of the old value; unmapped
        values are used as they are) and the copy's results are
        recorded in it, so cloning a block op by op threads the
        mapping through.  Same class, result types and (copied)
        attributes.
        """
        if self.regions:
            raise IRError(f"cannot clone {self.name}: it has regions")
        copy = object.__new__(type(self))
        Operation.__init__(
            copy,
            operands=[value_map.get(id(v), v) for v in self._operands],
            result_types=[result.type for result in self.results],
            attributes=self.attributes,
        )
        for old, new in zip(self.results, copy.results):
            value_map[id(old)] = new
        return copy

    def detach(self) -> None:
        """Remove this operation from its parent block (keeping uses)."""
        if self.parent is None:
            return
        self.parent._unlink(self)

    def erase(self) -> None:
        """Remove and destroy this operation.

        All results must be unused; nested operations are erased too.
        """
        for result in self.results:
            if result.has_uses:
                raise IRError(
                    f"cannot erase {self.name}: result still has uses"
                )
        self.detach()
        self.drop_all_references()

    def verify_(self) -> None:
        """Op-specific verification hook; subclasses override."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class Block:
    """A straight-line sequence of operations with block arguments.

    Operations are stored as an intrusive doubly-linked list threaded
    through :attr:`Operation.prev_op`/:attr:`Operation.next_op`:
    insertion at either end or around an existing op, detaching and
    erasing are all O(1).
    """

    __slots__ = (
        "args",
        "_first_op",
        "_last_op",
        "_num_ops",
        "_ops_view",
        "parent",
    )

    def __init__(self, arg_types: Sequence[TypeAttribute] = ()):
        self.args: list[BlockArgument] = [
            BlockArgument(t, self, i) for i, t in enumerate(arg_types)
        ]
        self._first_op: Operation | None = None
        self._last_op: Operation | None = None
        self._num_ops = 0
        self._ops_view: BlockOps | None = None
        self.parent: Region | None = None

    # -- op list management ---------------------------------------------------

    @property
    def ops(self) -> BlockOps:
        """The operations of the block, as a live sequence view."""
        view = self._ops_view
        if view is None:
            view = self._ops_view = BlockOps(self)
        return view

    @property
    def first_op(self) -> Operation | None:
        """First operation, or ``None`` if the block is empty."""
        return self._first_op

    @property
    def last_op(self) -> Operation | None:
        """Last operation, or ``None`` if the block is empty."""
        return self._last_op

    def _check_detached(self, op: Operation) -> None:
        if op.parent is not None:
            raise IRError("operation already attached to a block")

    def _link(
        self,
        op: Operation,
        prev_op: Operation | None,
        next_op: Operation | None,
    ) -> None:
        """Splice a detached ``op`` between ``prev_op`` and ``next_op``."""
        op.prev_op = prev_op
        op.next_op = next_op
        if prev_op is None:
            self._first_op = op
        else:
            prev_op.next_op = op
        if next_op is None:
            self._last_op = op
        else:
            next_op.prev_op = op
        op.parent = self
        self._num_ops += 1
        if RECORDING.changes is not None:
            RECORDING.changes.placed[op] = None

    def _unlink(self, op: Operation) -> None:
        """O(1) removal of an attached ``op`` from the list."""
        prev_op, next_op = op.prev_op, op.next_op
        if prev_op is None:
            self._first_op = next_op
        else:
            prev_op.next_op = next_op
        if next_op is None:
            self._last_op = prev_op
        else:
            next_op.prev_op = prev_op
        op.prev_op = None
        op.next_op = None
        op.parent = None
        self._num_ops -= 1
        if RECORDING.changes is not None:
            RECORDING.changes.unlinked[op] = None
            RECORDING.changes.blocks[self] = None

    def add_op(self, op: Operation) -> None:
        """Append ``op`` at the end of the block (O(1))."""
        if op.parent is not None:
            raise IRError("operation already attached to a block")
        # Inlined append fast path: building IR is the hottest loop of
        # every lowering pass.
        last = self._last_op
        op.prev_op = last
        if last is None:
            self._first_op = op
        else:
            last.next_op = op
        self._last_op = op
        op.parent = self
        self._num_ops += 1
        if RECORDING.changes is not None:
            RECORDING.changes.placed[op] = None

    def add_ops(self, ops: Iterable[Operation]) -> None:
        """Append several operations at the end of the block."""
        for op in ops:
            self.add_op(op)

    def insert_op_before(self, op: Operation, before: Operation) -> None:
        """Insert ``op`` immediately before ``before`` (O(1))."""
        self._check_detached(op)
        if before.parent is not self:
            raise IRError("anchor operation not in block")
        self._link(op, before.prev_op, before)

    def insert_op_after(self, op: Operation, after: Operation) -> None:
        """Insert ``op`` immediately after ``after`` (O(1))."""
        self._check_detached(op)
        if after.parent is not self:
            raise IRError("anchor operation not in block")
        self._link(op, after, after.next_op)

    def index_of(self, op: Operation) -> int:
        """Position of ``op`` in this block (O(n); debugging/tests)."""
        if op.parent is not self:
            raise IRError("operation not in block")
        return self.ops.index(op)

    # -- argument management ----------------------------------------------------

    def add_arg(
        self, type: TypeAttribute, name_hint: str | None = None
    ) -> BlockArgument:
        """Append a new block argument of the given type."""
        arg = BlockArgument(type, self, len(self.args), name_hint)
        self.args.append(arg)
        if RECORDING.changes is not None:
            RECORDING.changes.blocks[self] = None
        return arg

    # -- navigation ----------------------------------------------------------------

    @property
    def parent_op(self) -> Operation | None:
        """The operation owning the region that contains this block."""
        return self.parent.parent if self.parent is not None else None

    def __repr__(self) -> str:
        return f"<Block with {self._num_ops} ops>"


class Region:
    """A list of blocks owned by an operation."""

    __slots__ = ("blocks", "parent")

    def __init__(self, blocks: Sequence[Block] = ()):
        self.blocks: list[Block] = []
        self.parent: Operation | None = None
        for block in blocks:
            self.add_block(block)

    @property
    def block(self) -> Block:
        """The single block of the region; errors otherwise."""
        if len(self.blocks) != 1:
            raise IRError(f"region has {len(self.blocks)} blocks")
        return self.blocks[0]

    @property
    def first_block(self) -> Block | None:
        """The entry block, or ``None`` for an empty region."""
        return self.blocks[0] if self.blocks else None

    def add_block(self, block: Block) -> None:
        """Append ``block`` to the region."""
        if block.parent is not None:
            raise IRError("block already attached to a region")
        block.parent = self
        self.blocks.append(block)
        if RECORDING.changes is not None and self.parent is not None:
            RECORDING.changes.placed[self.parent] = None

    def detach_block(self, block: Block) -> None:
        """Take ``block`` (with everything in it) out of the region."""
        if block.parent is not self:
            raise IRError("block not attached to this region")
        self.blocks.remove(block)
        block.parent = None
        if RECORDING.changes is not None and self.parent is not None:
            RECORDING.changes.modified[self.parent] = None

    def __repr__(self) -> str:
        return f"<Region with {len(self.blocks)} blocks>"


def single_block_region(ops: Sequence[Operation], arg_types=()) -> Region:
    """Convenience: a region holding one block with the given ops."""
    block = Block(arg_types)
    block.add_ops(ops)
    return Region([block])


__all__ = [
    "IRError",
    "ChangeSet",
    "RECORDING",
    "Use",
    "SSAValue",
    "OpResult",
    "BlockArgument",
    "OperandsView",
    "BlockOps",
    "Operation",
    "Block",
    "Region",
    "single_block_region",
]
