"""Affine expressions and maps.

``linalg.generic`` and ``memref_stream.generic`` describe how loop iteration
indices map onto operand elements through *affine maps* (paper Section 2.2:
"affine mappings between iteration space and operand data").  The stream
lowering (Section 3.4) turns these maps plus the iteration bounds into the
per-dimension strides programmed into the Snitch stream semantic registers.

This module implements the small affine sub-language needed for that:
dimension variables, integer constants, addition and multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .attributes import Attribute


class AffineExpr:
    """Base class of affine expressions over dimension variables."""

    def evaluate(self, dims: Sequence[int]) -> int:
        """Evaluate the expression for concrete dimension values."""
        raise NotImplementedError

    # Operator sugar -------------------------------------------------------

    def __add__(self, other: "AffineExpr | int") -> "AffineExpr":
        return AffineBinaryExpr("+", self, _as_expr(other))

    def __radd__(self, other: int) -> "AffineExpr":
        return _as_expr(other) + self

    def __mul__(self, other: "AffineExpr | int") -> "AffineExpr":
        return AffineBinaryExpr("*", self, _as_expr(other))

    def __rmul__(self, other: int) -> "AffineExpr":
        return _as_expr(other) * self


@dataclass(frozen=True)
class AffineDimExpr(AffineExpr):
    """A reference to iteration dimension ``position`` (printed ``dN``)."""

    position: int

    def evaluate(self, dims: Sequence[int]) -> int:
        return dims[self.position]

    def __str__(self) -> str:
        return f"d{self.position}"


@dataclass(frozen=True)
class AffineConstantExpr(AffineExpr):
    """An integer constant."""

    value: int

    def evaluate(self, dims: Sequence[int]) -> int:
        return self.value

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class AffineBinaryExpr(AffineExpr):
    """A binary affine expression; ``kind`` is ``"+"`` or ``"*"``."""

    kind: str
    lhs: AffineExpr
    rhs: AffineExpr

    def __post_init__(self):
        if self.kind not in ("+", "*"):
            raise ValueError(f"unsupported affine operator {self.kind!r}")

    def evaluate(self, dims: Sequence[int]) -> int:
        left = self.lhs.evaluate(dims)
        right = self.rhs.evaluate(dims)
        return left + right if self.kind == "+" else left * right

    def __str__(self) -> str:
        return f"({self.lhs} {self.kind} {self.rhs})"


def _as_expr(value: "AffineExpr | int") -> AffineExpr:
    if isinstance(value, AffineExpr):
        return value
    return AffineConstantExpr(int(value))


def substitute_dims(
    expr: AffineExpr, mapping: dict[int, AffineExpr]
) -> AffineExpr:
    """Replace dimension expressions according to ``mapping``.

    Dimensions absent from the mapping are left untouched.  Used by
    unroll-and-jam (``d -> d_outer * F + d_inner``) and by
    :func:`permute_map`.
    """
    if isinstance(expr, AffineDimExpr):
        return mapping.get(expr.position, expr)
    if isinstance(expr, AffineBinaryExpr):
        return AffineBinaryExpr(
            expr.kind,
            substitute_dims(expr.lhs, mapping),
            substitute_dims(expr.rhs, mapping),
        )
    return expr


def expr_uses_dim(expr: AffineExpr, position: int) -> bool:
    """Whether ``expr`` references dimension ``position``."""
    if isinstance(expr, AffineDimExpr):
        return expr.position == position
    if isinstance(expr, AffineBinaryExpr):
        return expr_uses_dim(expr.lhs, position) or expr_uses_dim(
            expr.rhs, position
        )
    return False


def permute_map(amap: "AffineMap", permutation: Sequence[int]) -> "AffineMap":
    """Rewrite a map for a permuted iteration space.

    ``permutation[new]`` is the old dimension index that new dimension
    ``new`` iterates, so every ``d_old`` in the map becomes ``d_new``.
    Used by the linalg conversion (normalising to parallel-then-
    reduction order).
    """
    mapping = {
        old: AffineDimExpr(new) for new, old in enumerate(permutation)
    }
    exprs = [substitute_dims(e, mapping) for e in amap.exprs]
    return AffineMap(amap.num_dims, exprs)


@dataclass(frozen=True)
class AffineMap(Attribute):
    """A multi-dimensional affine map ``(d0, ..., dN-1) -> (e0, ..., eM-1)``.

    Used both as a ``linalg`` indexing map and, via :meth:`strides`, to
    derive the stride pattern of a stream semantic register.
    """

    num_dims: int
    exprs: tuple[AffineExpr, ...]

    def __init__(self, num_dims: int, exprs: Sequence[AffineExpr]):
        object.__setattr__(self, "num_dims", num_dims)
        object.__setattr__(self, "exprs", tuple(exprs))
        # Derived-data cache (unit deltas, linearity): maps are
        # immutable, but these are re-queried by every scheduling pass
        # and verifier round.  Not a dataclass field — stays out of
        # __eq__/__hash__/__repr__.
        object.__setattr__(self, "_derived", {})

    # -- constructors -------------------------------------------------------

    @staticmethod
    def identity(rank: int) -> "AffineMap":
        """``(d0, ..., dN-1) -> (d0, ..., dN-1)``."""
        return AffineMap(rank, tuple(AffineDimExpr(i) for i in range(rank)))

    @staticmethod
    def from_callable(num_dims: int, fn) -> "AffineMap":
        """Build a map from a Python lambda over dim expressions."""
        dims = tuple(AffineDimExpr(i) for i in range(num_dims))
        result = fn(*dims)
        if isinstance(result, AffineExpr):
            result = (result,)
        return AffineMap(num_dims, tuple(_as_expr(e) for e in result))

    @staticmethod
    def constant(num_dims: int, values: Sequence[int]) -> "AffineMap":
        """A map producing fixed constants regardless of the input dims."""
        return AffineMap(
            num_dims, tuple(AffineConstantExpr(int(v)) for v in values)
        )

    # -- queries -------------------------------------------------------------

    @property
    def num_results(self) -> int:
        """Number of result expressions."""
        return len(self.exprs)

    def evaluate(self, dims: Sequence[int]) -> tuple[int, ...]:
        """Apply the map to concrete dimension values."""
        if len(dims) != self.num_dims:
            raise ValueError(
                f"expected {self.num_dims} dims, got {len(dims)}"
            )
        return tuple(e.evaluate(dims) for e in self.exprs)

    def is_linear(self) -> bool:
        """Check linearity by probing superposition on the unit vectors."""
        cached = self._derived.get("is_linear")
        if cached is not None:
            return cached
        zero = self.evaluate((0,) * self.num_dims)
        deltas = self.unit_deltas()
        result = True
        for d in range(self.num_dims):
            unit = deltas[d]
            for scale in (1, 2, 5):
                point = [0] * self.num_dims
                point[d] = scale
                got = self.evaluate(point)
                want = tuple(z + scale * u for z, u in zip(zero, unit))
                if got != want:
                    result = False
                    break
            if not result:
                break
        self._derived["is_linear"] = result
        return result

    def unit_deltas(self) -> list[tuple[int, ...]]:
        """Per-dimension deltas of the results for a unit step in that dim."""
        cached = self._derived.get("unit_deltas")
        if cached is None:
            zero = self.evaluate((0,) * self.num_dims)
            cached = []
            for d in range(self.num_dims):
                point = [0] * self.num_dims
                point[d] = 1
                at_one = self.evaluate(point)
                cached.append(tuple(a - z for a, z in zip(at_one, zero)))
            self._derived["unit_deltas"] = cached
        return list(cached)

    def strides(self, operand_strides: Sequence[int]) -> tuple[int, ...]:
        """Linear stride of the mapped flat offset per iteration dimension.

        ``operand_strides`` are the operand's strides (in elements or bytes);
        the result has one entry per *iteration* dimension and feeds directly
        into a stream stride pattern.  Raises ``ValueError`` for non-linear
        maps, which cannot be streamed.
        """
        if len(operand_strides) != self.num_results:
            raise ValueError(
                f"map has {self.num_results} results but operand has "
                f"{len(operand_strides)} strides"
            )
        if not self.is_linear():
            raise ValueError(f"map {self} is not linear; cannot stream")
        out = []
        for delta in self.unit_deltas():
            out.append(sum(d * s for d, s in zip(delta, operand_strides)))
        return tuple(out)

    def __str__(self) -> str:
        dims = ", ".join(f"d{i}" for i in range(self.num_dims))
        exprs = ", ".join(str(e) for e in self.exprs)
        return f"affine_map<({dims}) -> ({exprs})>"


__all__ = [
    "AffineExpr",
    "AffineDimExpr",
    "AffineConstantExpr",
    "AffineBinaryExpr",
    "AffineMap",
    "permute_map",
    "substitute_dims",
    "expr_uses_dim",
]
