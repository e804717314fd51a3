"""Structural IR verification.

:func:`verify` holds five invariants over an op and everything nested
inside it — the ones every pass relies on:

1. *parent links*: every op's ``parent`` is the block that lists it;
2. *use lists*: every operand's use list records the op at that index;
3. *dominance*: every operand is defined earlier in the same block, or
   in an enclosing one, without crossing an ``IsolatedFromAbove`` op;
4. *terminators* sit last in their block;
5. *hooks*: every op's ``verify_`` passes.

Running the verifier between pipeline stages is how the test suite
catches mis-lowerings early.

The full walk is O(ops + uses): scope sets are allocated per *block*
(never per op), use lists are indexed once per value (no per-use rescans
of multi-use values), and the use-list and dominance checks share one
pass over each op's operands.  :func:`verify_changes` re-establishes the
same five invariants from a :class:`~repro.ir.core.ChangeSet`, only
where the recorded mutations can have broken them — ``verify_each``
pipelines pay for what a pass changed, not for the module's size.
``verify`` is the oracle: it decides every diagnostic, and the
differential suite holds the two to the same verdict.
"""

from __future__ import annotations

from ..obs.metrics import METRICS
from .core import Block, ChangeSet, IRError, Operation, OpResult, SSAValue
from .traits import IsolatedFromAbove, IsTerminator

#: Op visits by each entry point (one per op per kind of check).
_CHECKED_FULL = METRICS.counter("ir_verify_ops_checked", mode="full")
_CHECKED_INCREMENTAL = METRICS.counter(
    "ir_verify_ops_checked", mode="incremental"
)


class VerificationError(IRError):
    """Raised when the IR violates a structural invariant."""


def _wrong_parent(op: Operation) -> VerificationError:
    return VerificationError(f"{op.name}: wrong parent block")


def _missing_use(op: Operation, index: int) -> VerificationError:
    return VerificationError(
        f"{op.name}: operand #{index} missing from use list"
    )


def _not_dominated(op: Operation, operand: SSAValue) -> VerificationError:
    return VerificationError(
        f"{op.name}: operand {operand!r} does not dominate its use (or "
        "is not in scope)"
    )


def _terminator_not_last(op: Operation) -> VerificationError:
    return VerificationError(
        f"{op.name}: terminator is not the last op of its block"
    )


def verify(op: Operation) -> int:
    """Verify ``op`` and everything nested inside it; returns how many
    ops that is."""
    use_sets: dict[int, set[tuple[int, int]]] = {}
    _check_use_list(op, use_sets)
    op.verify_()
    size = 1 + _verify_regions(op, set(), use_sets)
    _CHECKED_FULL.inc(size)
    return size


def _check_use_list(
    op: Operation, use_sets: dict[int, set[tuple[int, int]]]
) -> None:
    """Every operand's use list must record this op at this index.

    ``use_sets`` memoizes each value's use list as a set of
    ``(id(op), index)`` pairs for the duration of one ``verify`` call,
    so a value with many uses is indexed once instead of rescanned at
    every use site.
    """
    for index, operand in enumerate(op._operands):
        if not _use_recorded(op, index, operand, use_sets):
            raise _missing_use(op, index)


def _use_recorded(op, index, operand, use_sets) -> bool:
    """Whether ``operand.uses`` records ``op.operands[index]``.

    Short use lists are scanned directly; long ones (shared constants,
    induction variables) are indexed once per ``verify`` call so the
    check stays O(1) per use instead of O(uses) per use.
    """
    uses = operand.uses
    if len(uses) <= 4:
        for use in uses:
            if use.operation is op and use.index == index:
                return True
        return False
    key = id(operand)
    use_set = use_sets.get(key)
    if use_set is None:
        use_set = {(id(u.operation), u.index) for u in uses}
        use_sets[key] = use_set
    return (id(op), index) in use_set


#: Op classes overriding the (no-op) default ``verify_`` hook — skips
#: a virtual call per op per round for the common hook-less classes.
#: Probed inline by ``_verify_block`` (its hot loop deliberately
#: inlines both this cache lookup and ``_use_recorded``'s short-list
#: fast path).
_HAS_VERIFY_HOOK: dict[type, bool] = {}


def _verify_regions(
    op: Operation,
    enclosing_values: set[int],
    use_sets: dict[int, set[tuple[int, int]]],
) -> int:
    """Verify the blocks of ``op``; returns how many ops they hold."""
    if IsolatedFromAbove in type(op).traits:
        enclosing_values = _EMPTY_SCOPE
    checked = 0
    for region in op.regions:
        for block in region.blocks:
            checked += _verify_block(block, enclosing_values, use_sets)
    return checked


#: Shared empty scope for isolated-from-above regions (read-only here:
#: blocks copy it before defining values).
_EMPTY_SCOPE: set[int] = set()


def _verify_block(
    block: Block,
    enclosing_values: set[int],
    use_sets: dict[int, set[tuple[int, int]]],
) -> int:
    # One scope copy per block (values defined here must not leak to
    # sibling blocks); individual ops read it without copying.  The op
    # list and operand storage are accessed directly — this loop runs
    # after the first and last pass of every pipeline.
    defined = set(enclosing_values)
    defined_add = defined.add
    for arg in block.args:
        defined_add(id(arg))
    last_op = block.last_op
    has_hook_cache = _HAS_VERIFY_HOOK
    checked = block._num_ops
    op = block.first_op
    while op is not None:
        if op.parent is not block:
            raise _wrong_parent(op)
        for index, operand in enumerate(op._operands):
            # Use-list consistency and dominance in one operand pass
            # (short use lists scanned inline; long ones via the memo).
            uses = operand.uses
            if len(uses) <= 4:
                for use in uses:
                    if use.operation is op and use.index == index:
                        break
                else:
                    raise _missing_use(op, index)
            elif not _use_recorded(op, index, operand, use_sets):
                raise _missing_use(op, index)
            if id(operand) not in defined:
                raise _not_dominated(op, operand)
        cls = op.__class__
        if IsTerminator in cls.traits and op is not last_op:
            raise _terminator_not_last(op)
        hook = has_hook_cache.get(cls)
        if hook is None:
            hook = cls.verify_ is not Operation.verify_
            has_hook_cache[cls] = hook
        if hook:
            op.verify_()
        if op.regions:
            checked += _verify_regions(op, defined, use_sets)
        for result in op.results:
            defined_add(id(result))
        op = op.next_op
    return checked


# ---------------------------------------------------------------------------
# Verification of a change set
# ---------------------------------------------------------------------------


def verify_changes(root: Operation, changes: ChangeSet, size: int) -> int:
    """Verify ``root`` given that :func:`verify` held before ``changes``.

    ``changes`` must hold every mutation made under ``root`` since —
    which is what :data:`~repro.ir.core.RECORDING` guarantees for code
    that mutates through :mod:`repro.ir.core` — and ``size`` is what
    the last verification of ``root`` returned; returns the size now
    (an estimate, exact again whenever the full verifier ran).

    Same verdict as ``verify(root)``.  The full verifier runs, and
    decides the diagnostic, whenever the incremental checks find a
    violation, and does all the work when the change is as wide as the
    module (a function lowered wholesale, a body unrolled): one linear
    walk checks a new op cheaper than set-driven checks can.  An empty
    change set visits no op.
    """
    if not changes:
        return size
    placed, modified = changes.placed, changes.modified
    if root not in placed and 2 * (len(placed) + len(modified)) <= size:
        try:
            _CHECKED_INCREMENTAL.inc(_check_changes(root, changes))
        except Exception:
            # Whatever went wrong — a violation, or a hook (any code)
            # choking on what a violation left behind — the oracle
            # finds it again and words it.
            pass
        else:
            return size + len(placed) - len(changes.unlinked)
    return verify(root)


def _check_changes(root: Operation, changes: ChangeSet) -> int:
    """The incremental checks (``root`` itself not ``placed``); returns
    the op visits made.  Which recorded set dirties which invariant is
    the table in docs/ROBUSTNESS.md.  The loops below run after every
    pass: they are written for few bytecodes per op."""
    placed, unlinked, modified = (
        changes.placed, changes.unlinked, changes.modified
    )

    # Liveness: what ``verify(root)`` would reach.  Erased and
    # not-yet-attached ops are recorded too, and are nobody's business.
    live_blocks: dict[Block | None, bool] = {None: False}
    live_get = live_blocks.get

    def block_live(block: Block | None) -> bool:
        live = live_get(block)
        if live is None:
            region = block.parent
            owner = None if region is None else region.parent
            live = live_blocks[block] = owner is root or (
                owner is not None and block_live(owner.parent)
            )
        return live

    # Invariant 3 for ops that are live and not the root.
    position: dict[Operation, int] = {}

    def index_block(block: Block) -> None:
        op = block._first_op
        while op is not None:
            position[op] = len(position)
            op = op.next_op

    def dominates(value: SSAValue, user: Operation) -> bool:
        """Climb from ``user`` to the block defining ``value``."""
        if isinstance(value, OpResult):
            def_op = value.op
            def_block = def_op.parent
        else:
            def_op = None
            def_block = value.block
        while user is not root:
            block = user.parent
            if block is def_block:
                if def_op is None:
                    return True
                if def_op not in position:
                    index_block(block)
                return position[def_op] < position[user]
            user = block.parent.parent
            if IsolatedFromAbove in type(user).traits:
                return False
        return False

    def check_operands(op: Operation) -> None:
        block = op.parent
        for operand in op._operands:
            # Defined in the same block, nearly always.
            if isinstance(operand, OpResult):
                def_op = operand.op
                if def_op.parent is block:
                    if def_op not in position:
                        index_block(block)
                    if position[def_op] < position[op]:
                        continue
                    raise _not_dominated(op, operand)
            elif operand.block is block:
                continue
            if not dominates(operand, op):
                raise _not_dominated(op, operand)

    def check_regions(op: Operation, carried: list[Operation]) -> None:
        """Invariants 1, 3 and 4 for everything under ``op``; the ops
        that no entry of ``placed`` stands for are also ``carried``."""
        for region in op.regions:
            for block in region.blocks:
                nested = block._first_op
                while nested is not None:
                    if nested.parent is not block:
                        raise _wrong_parent(nested)
                    if nested not in placed:
                        carried.append(nested)
                        check_operands(nested)
                        if nested.regions:
                            check_regions(nested, carried)
                    following = nested.next_op
                    if (
                        following is not None
                        and IsTerminator in type(nested).traits
                    ):
                        raise _terminator_not_last(nested)
                    nested = following

    # Where an op sits: every op placed, with all under it and its
    # block neighbours (a terminator must stay last) ...
    new_ops: list[Operation] = []
    moved_ops: list[Operation] = []
    dirty = dict(changes.blocks)  # blocks whose op or arg list changed
    for op in placed:
        block = op.parent
        live = live_get(block)
        if live is None:
            live = block_live(block)
        if not live:
            continue
        dirty[block] = None
        check_operands(op)
        before = op.prev_op
        if (
            before is not None
            and before not in placed  # or it says so itself, below
            and IsTerminator in type(before).traits
        ):
            raise _terminator_not_last(before)
        if op.next_op is not None and IsTerminator in type(op).traits:
            raise _terminator_not_last(op)
        carried = moved_ops if op in unlinked else new_ops
        carried.append(op)
        if op.regions:
            check_regions(op, carried)
    visits = len(new_ops) + len(moved_ops)
    # ... the new operands of ops that stayed where they were ...
    for op in modified:
        if op not in placed and block_live(op.parent):
            visits += 1
            check_operands(op)
    # ... and what used the results of an op before it moved or went.
    for op in unlinked:
        for result in op.results:
            for use in result.uses:
                user = use.operation
                if (
                    user not in placed
                    and user not in modified
                    and block_live(user.parent)
                    and not dominates(result, user)
                ):
                    raise _not_dominated(user, result)

    # What an op says of itself.  Use lists: ops new to the tree (with
    # all they bring along) and ops with new operands.
    relinked: dict[Operation, None] = dict(modified)
    relinked.update(dict.fromkeys(new_ops))
    # Hooks: those ops, ops defining or using a retyped value, and the
    # op around each of them and around every block whose op or
    # argument list changed — a hook reads its body's arguments and ops.
    hooked = dict(relinked)
    for value in changes.retyped:
        if isinstance(value, OpResult):
            hooked[value.op] = None
        else:
            hooked[value.block.parent_op] = None
        for use in value.uses:
            hooked[use.operation] = None
    hooked.pop(None, None)
    for op in hooked:
        dirty[op.parent] = None
    dirty.pop(None, None)
    for block in dirty:
        region = block.parent
        if region is not None and region.parent is not None:
            hooked[region.parent] = None
    use_sets: dict[int, set[tuple[int, int]]] = {}
    for op in hooked:
        live = live_get(op.parent)
        if live is None:
            live = block_live(op.parent)
        if live or op is root:
            visits += 1
            if op in relinked:
                _check_use_list(op, use_sets)
            op.verify_()
    return visits


__all__ = ["VerificationError", "verify", "verify_changes"]
