"""Loop interchange: permute the iteration space of a generic.

The iteration order of a ``memref_stream.generic`` is implicit in the
order of its dimensions: streams visit their elements in row-major
order over ``bounds``, so permuting the dimensions permutes every
operand's access sequence — the classic interchange scheduling choice
the paper's multi-level design makes "cheap to express" (Section 3.4).
The pass rewrites ``bounds``, ``iterator_types`` and every indexing map
in place; the body is untouched because it is point-wise in the
iteration space.

The permutation is expressed as a pass option so a chosen schedule
round-trips through the textual pipeline-spec language::

    interchange{permutation=1-0-2}

``permutation[new] = old``: new dimension ``new`` iterates what was
dimension ``old`` (the same convention as the canonical ordering of
``convert-linalg-to-memref-stream``).

Legality: the Snitch lowering requires dimensions ordered parallel-
then-reduction, so only permutations preserving that partition are
accepted (:func:`legal_interchange_permutations` enumerates them — the
schedule-space autotuner's legality model).  The pass must run *before*
``scalar-replacement`` (output maps still range over the full space)
and before ``unroll-and-jam`` (no ``interleaved`` dims yet).
"""

from __future__ import annotations

from itertools import permutations as _itertools_permutations

from ..dialects import memref_stream
from ..ir.affine_map import permute_map
from ..ir.attributes import ArrayAttr, DenseIntAttr, StringAttr
from ..ir.core import IRError, Operation
from ..ir.pass_manager import ModulePass


def parse_permutation(text: str) -> tuple[int, ...]:
    """Parse the spec-level ``"1-0-2"`` form into a dim index tuple."""
    try:
        perm = tuple(int(part) for part in text.split("-"))
    except ValueError:
        raise IRError(
            f"interchange: malformed permutation {text!r} (expected "
            "dash-separated dim indices like '1-0-2')"
        ) from None
    if sorted(perm) != list(range(len(perm))):
        raise IRError(
            f"interchange: {text!r} is not a permutation of "
            f"0..{len(perm) - 1}"
        )
    return perm


def format_permutation(permutation) -> str:
    """The spec-level form of a permutation: ``"1-0-2"``."""
    return "-".join(str(int(d)) for d in permutation)


def legal_interchange_permutations(
    iterator_types,
) -> list[tuple[int, ...]]:
    """Every permutation keeping parallel dims before reduction dims.

    This is the legality model shared by the pass and the autotuner:
    the Snitch lowering insists on [parallel..., reduction...] order,
    so the legal interchanges are exactly (permutation of the parallel
    dims) x (permutation of the reduction dims).  Identity included.
    """
    parallels = [
        i for i, kind in enumerate(iterator_types) if kind == "parallel"
    ]
    reductions = [
        i for i, kind in enumerate(iterator_types) if kind == "reduction"
    ]
    if len(parallels) + len(reductions) != len(iterator_types):
        return []  # interleaved dims present: interchange ran too late
    return [
        par + red
        for par in _itertools_permutations(parallels)
        for red in _itertools_permutations(reductions)
    ]


def apply_interchange(
    op: memref_stream.GenericOp, permutation: tuple[int, ...]
) -> None:
    """Permute ``op``'s iteration space in place (must be legal)."""
    bounds = list(op.bounds)
    kinds = op.iterator_types
    if len(permutation) != len(bounds):
        raise IRError(
            f"interchange: permutation {format_permutation(permutation)} "
            f"has {len(permutation)} dims but the generic iterates "
            f"{len(bounds)}"
        )
    if op.is_scalar_replaced:
        raise IRError(
            "interchange must run before scalar-replacement (output "
            "maps no longer range over the full iteration space)"
        )
    if "interleaved" in kinds:
        raise IRError(
            "interchange must run before unroll-and-jam (interleaved "
            "dims are pinned innermost)"
        )
    new_kinds = [kinds[old] for old in permutation]
    if permutation not in legal_interchange_permutations(kinds):
        raise IRError(
            f"interchange: {format_permutation(permutation)} reorders "
            f"{kinds} to {new_kinds}, breaking the parallel-then-"
            "reduction order the Snitch lowering requires"
        )
    op.set_attribute(
        "bounds", DenseIntAttr([bounds[old] for old in permutation])
    )
    op.set_attribute(
        "iterator_types", ArrayAttr([StringAttr(k) for k in new_kinds])
    )
    op.set_attribute(
        "indexing_maps",
        ArrayAttr([permute_map(m, permutation) for m in op.indexing_maps]),
    )


class InterchangePass(ModulePass):
    """Permute generic iteration spaces (``permutation=1-0-2``).

    Applies to every ``memref_stream.generic`` whose rank matches the
    permutation's length; other generics (e.g. a rank-2 fill next to a
    rank-3 matmul) are left alone.  An empty permutation (the default)
    is the identity — the pass is then a no-op, so the option-free
    spec form stays round-trippable.
    """

    name = "interchange"

    def __init__(self, permutation: str = ""):
        #: Spec-level permutation ("1-0-2"); "" = identity/no-op.
        self.permutation = permutation

    def run(self, module: Operation) -> None:
        if not self.permutation:
            return
        perm = parse_permutation(self.permutation)
        for op in module.walk():
            if not isinstance(op, memref_stream.GenericOp):
                continue
            if len(op.bounds) != len(perm):
                continue
            apply_interchange(op, perm)


__all__ = [
    "InterchangePass",
    "apply_interchange",
    "format_permutation",
    "legal_interchange_permutations",
    "parse_permutation",
]
