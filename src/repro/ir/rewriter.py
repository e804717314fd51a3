"""Pattern rewriting infrastructure.

The paper's lowerings are "structured as small, self-contained passes"
(Section 3.4) built from peephole rewrites ("simple peephole rewrites for
custom optimizations", Section 3.2).  This module provides the machinery:
:class:`RewritePattern` subclasses match one operation and mutate the IR
through a :class:`PatternRewriter`; :func:`apply_patterns` drives them
with a greedy worklist.

The driver is worklist-based so pattern application is ~O(rewrites)
instead of O(rounds x ops x patterns): the worklist is seeded with one
pre-order walk, patterns are dispatched from a per-op-class index
(:class:`TypedPattern` declares its class; generic patterns try every
op), and a successful rewrite re-enqueues only the new ops and the users
of changed values.  The original fixpoint re-walk driver is retained as
:func:`apply_patterns_naive` — the reference oracle for differential
tests.  Both drivers flush their counts into the calling thread's
per-pass recorder, from which the pass manager builds ``pass_stats``.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from .core import RECORDING, IRError, Operation, SSAValue


def _flush(visited: int, invoked: int, applied: int) -> None:
    """Credit one driver call's counts (ops visited, pattern
    invocations, rewrites applied) to the calling thread's per-pass
    :class:`~repro.ir.core.ChangeSet`, if a pass manager installed one.

    The drivers accumulate plain local ints in their hot loops and
    flush once per call, so ``PassManager.pass_stats`` is per compile,
    whatever other threads rewrite meanwhile.
    """
    tally = RECORDING.rewrites
    if tally is not None:
        tally.ops_visited += visited
        tally.pattern_invocations += invoked
        tally.rewrites_applied += applied


class PatternRewriter:
    """Mutation interface handed to patterns.

    Tracks whether anything changed so the driver knows when the
    fixpoint is reached, which ops were inserted and which values were
    substituted — the worklist driver re-enqueues exactly those.
    """

    def __init__(self, current_op: Operation):
        self.current_op = current_op
        self.changed = False
        #: Ops inserted by the pattern (worklist re-enqueue roots).
        self.added_ops: list[Operation] = []
        #: Values that replaced old results (their users re-enqueue).
        self.replaced_values: list[SSAValue] = []
        #: Values that lost a use through an erasure: their producers
        #: (possibly newly dead) and remaining users re-enqueue.
        self.freed_values: list[SSAValue] = []
        #: Block neighbours of erased ops: position-dependent patterns
        #: (e.g. prev_op adjacency matches) become applicable when an
        #: intervening op disappears, so the ops around an erasure are
        #: re-enqueued too.
        self.adjacent_ops: list[Operation] = []

    # -- insertion -------------------------------------------------------------

    def insert_before(
        self, ops: "Operation | Sequence[Operation]", anchor: Operation | None = None
    ) -> None:
        """Insert op(s) right before ``anchor`` (default: the matched op)."""
        anchor = anchor or self.current_op
        block = anchor.parent
        if block is None:
            raise IRError("anchor not attached to a block")
        for op in _as_ops(ops):
            block.insert_op_before(op, anchor)
            self.added_ops.append(op)
        self.changed = True

    # -- replacement --------------------------------------------------------------

    def replace_op(
        self,
        op: Operation,
        new_ops: "Operation | Sequence[Operation]",
        new_results: Sequence[SSAValue] | None = None,
    ) -> None:
        """Replace ``op`` with ``new_ops``.

        ``new_results`` provides the replacement for each old result; when
        omitted the results of the last new op are used.
        """
        ops = _as_ops(new_ops)
        block = op.parent
        if block is None:
            raise IRError("cannot replace a detached operation")
        for new_op in ops:
            block.insert_op_before(new_op, op)
            self.added_ops.append(new_op)
        if new_results is None:
            new_results = list(ops[-1].results) if ops else []
        if len(new_results) != len(op.results):
            raise IRError(
                f"replacing {op.name}: expected {len(op.results)} results, "
                f"got {len(new_results)}"
            )
        for old, new in zip(op.results, new_results):
            old.replace_all_uses_with(new)
            self.replaced_values.append(new)
        self._record_freed(op)
        op.erase()
        self.changed = True

    def replace_matched_op(self, new_ops, new_results=None) -> None:
        """Replace the op the pattern matched."""
        self.replace_op(self.current_op, new_ops, new_results)

    def erase_op(self, op: Operation) -> None:
        """Erase ``op`` (results must be unused)."""
        self._record_freed(op)
        op.erase()
        self.changed = True

    def _record_freed(self, op: Operation) -> None:
        """Record every value losing a use when ``op`` is erased —
        including uses held by ops nested inside its regions, which
        ``drop_all_references`` will drop along with the subtree —
        plus the op's block neighbours (adjacency matches may open up
        once the op is gone)."""
        if op.prev_op is not None:
            self.adjacent_ops.append(op.prev_op)
        if op.next_op is not None:
            self.adjacent_ops.append(op.next_op)
        if op.regions:
            for nested in op.walk():
                self.freed_values.extend(nested._operands)
        else:
            self.freed_values.extend(op._operands)

    def erase_matched_op(self) -> None:
        """Erase the op the pattern matched."""
        self.erase_op(self.current_op)


def _as_ops(ops) -> list[Operation]:
    if isinstance(ops, Operation):
        return [ops]
    return list(ops)


class RewritePattern:
    """One rewrite rule; subclasses implement :meth:`match_and_rewrite`."""

    def match_and_rewrite(
        self, op: Operation, rewriter: PatternRewriter
    ) -> None:
        """Attempt to rewrite ``op``; mutate through ``rewriter`` on match."""
        raise NotImplementedError


class TypedPattern(RewritePattern):
    """A pattern that fires only on a specific operation class.

    Besides the type-narrowed :meth:`rewrite` hook, ``op_type`` lets the
    worklist driver index the pattern by op class so non-matching ops
    never even invoke it.
    """

    #: Operation class this pattern applies to.
    op_type: type[Operation] = Operation

    def match_and_rewrite(self, op, rewriter) -> None:
        if isinstance(op, self.op_type):
            self.rewrite(op, rewriter)

    def rewrite(self, op, rewriter: PatternRewriter) -> None:
        """Type-narrowed rewrite hook."""
        raise NotImplementedError


class PatternIndex:
    """Dispatch table: op class -> the patterns that can match it.

    :class:`TypedPattern` entries apply only to subclasses of their
    ``op_type``; plain patterns apply to every op.  The per-class
    candidate tuple (in original pattern order) is computed once per
    concrete op class and cached.
    """

    __slots__ = ("_patterns", "_cache")

    def __init__(self, patterns: Iterable[RewritePattern]):
        self._patterns: list[tuple[type[Operation], RewritePattern]] = [
            (
                pattern.op_type
                if isinstance(pattern, TypedPattern)
                else Operation,
                pattern,
            )
            for pattern in patterns
        ]
        self._cache: dict[type, tuple[RewritePattern, ...]] = {}

    def __len__(self) -> int:
        return len(self._patterns)

    def patterns_for(
        self, op_class: type[Operation]
    ) -> tuple[RewritePattern, ...]:
        """Candidate patterns for ``op_class``, in registration order."""
        cached = self._cache.get(op_class)
        if cached is None:
            cached = tuple(
                pattern
                for op_type, pattern in self._patterns
                if issubclass(op_class, op_type)
            )
            self._cache[op_class] = cached
        return cached


def apply_patterns(
    root: Operation,
    patterns: Iterable[RewritePattern],
    max_iterations: int = 200,
) -> bool:
    """Greedily apply ``patterns`` under ``root`` until fixpoint.

    Returns whether anything changed.  Worklist-driven: one walk seeds
    the list, rewrites re-enqueue only their follow-up work (ops the
    pattern inserted, users of substituted values, and — for in-place
    updates — the matched op's own subtree), and entries whose parent
    chain no longer reaches ``root`` (erased subtrees) are dropped.

    ``max_iterations`` bounds the total number of rewrites at
    ``max_iterations * initial-op-count``; exceeding it raises
    :class:`IRError`, mirroring the fixpoint driver's divergence check.
    """
    index = PatternIndex(patterns)
    if not len(index):
        return False
    patterns_for = index.patterns_for
    dispatch = index._cache
    # Seed with candidate ops only: ops no pattern can match never
    # enter the worklist (the walk itself is still one linear pass).
    worklist: deque[Operation] = deque()
    seed_size = 0
    for op in root.walk():
        seed_size += 1
        cls = type(op)
        cands = dispatch.get(cls)
        if cands is None:
            cands = patterns_for(cls)
        if cands:
            worklist.append(op)
    enqueued = {id(op) for op in worklist}
    rewrite_budget = max_iterations * max(1, seed_size)
    changed_any = False
    rewrites = 0
    # Local accumulators; flushed to the pass's recorder once per call
    # (including on divergence).
    visited = invoked = applied = 0

    def enqueue(op: Operation) -> None:
        if id(op) not in enqueued and patterns_for(type(op)):
            enqueued.add(id(op))
            worklist.append(op)

    try:
        while worklist:
            op = worklist.popleft()
            enqueued.discard(id(op))
            # Drop stale entries: ops erased since being enqueued,
            # including ops nested inside an erased ancestor (their own
            # parent link is still set — only the subtree root was
            # detached).
            if op is not root and not op.is_attached_to(root):
                continue
            visited += 1
            for pattern in patterns_for(type(op)):
                invoked += 1
                rewriter = PatternRewriter(op)
                pattern.match_and_rewrite(op, rewriter)
                if not rewriter.changed:
                    continue
                applied += 1
                changed_any = True
                rewrites += 1
                if rewrites > rewrite_budget:
                    raise IRError("pattern application did not converge")
                for new_op in rewriter.added_ops:
                    if new_op.parent is None:
                        continue
                    if new_op.regions:
                        for nested in new_op.walk():
                            enqueue(nested)
                    else:
                        enqueue(new_op)
                for value in rewriter.replaced_values:
                    for use in value.uses:
                        enqueue(use.operation)
                for value in rewriter.freed_values:
                    # An erasure dropped a use: the producer may now be
                    # dead, and remaining users may match differently
                    # (e.g. single-use fusion guards).
                    owner = value.owner
                    if isinstance(owner, Operation):
                        enqueue(owner)
                    for use in value.uses:
                        enqueue(use.operation)
                for neighbour in rewriter.adjacent_ops:
                    if neighbour.parent is not None:
                        enqueue(neighbour)
                if op.parent is not None or op is root:
                    # In-place update: revisit the op and anything
                    # nested under it (a pattern may swap whole body
                    # blocks).
                    if op.regions:
                        for nested in op.walk():
                            enqueue(nested)
                    else:
                        enqueue(op)
                break
    finally:
        _flush(visited, invoked, applied)
    return changed_any


def apply_patterns_naive(
    root: Operation,
    patterns: Iterable[RewritePattern],
    max_iterations: int = 200,
) -> bool:
    """Reference driver: re-walk the module to fixpoint each round.

    The original O(rounds x ops x patterns) formulation.  Kept as the
    differential-testing oracle for :func:`apply_patterns` — both must
    produce structurally identical IR on confluent pattern sets.
    """
    pattern_list = list(patterns)
    changed_any = False
    visited = invoked = applied = 0
    try:
        for _ in range(max_iterations):
            changed_this_round = False
            for op in list(root.walk()):
                if op is not root and not op.is_attached_to(root):
                    continue  # erased by an earlier pattern this round
                visited += 1
                for pattern in pattern_list:
                    invoked += 1
                    rewriter = PatternRewriter(op)
                    pattern.match_and_rewrite(op, rewriter)
                    if rewriter.changed:
                        applied += 1
                        changed_this_round = True
                        changed_any = True
                        break
                # A changed op may have been erased; move on to a fresh
                # walk entry either way.
            if not changed_this_round:
                return changed_any
        raise IRError("pattern application did not converge")
    finally:
        _flush(visited, invoked, applied)


__all__ = [
    "PatternRewriter",
    "RewritePattern",
    "TypedPattern",
    "PatternIndex",
    "apply_patterns",
    "apply_patterns_naive",
]
