"""Unit + property tests for affine expressions and maps."""

import pytest
from hypothesis import given, strategies as st

from repro.ir import AffineConstantExpr, AffineDimExpr, AffineMap
from repro.ir.affine_map import (
    expr_uses_dim,
    permute_map,
    substitute_dims,
)


class TestAffineExpr:
    def test_dim_evaluate(self):
        assert AffineDimExpr(1).evaluate((10, 20)) == 20

    def test_constant_evaluate(self):
        assert AffineConstantExpr(7).evaluate((1, 2)) == 7

    def test_operator_sugar(self):
        d0 = AffineDimExpr(0)
        expr = d0 * 5 + 3
        assert expr.evaluate((2,)) == 13

    def test_radd_rmul(self):
        d0 = AffineDimExpr(0)
        assert (3 + d0).evaluate((4,)) == 7
        assert (3 * d0).evaluate((4,)) == 12

    def test_expr_uses_dim(self):
        expr = AffineDimExpr(0) * 5 + AffineDimExpr(2)
        assert expr_uses_dim(expr, 0)
        assert not expr_uses_dim(expr, 1)
        assert expr_uses_dim(expr, 2)

    def test_substitute_dims(self):
        expr = AffineDimExpr(0) + AffineDimExpr(1)
        new = substitute_dims(expr, {0: AffineDimExpr(2) * 4})
        assert new.evaluate((0, 1, 3)) == 13


class TestAffineMap:
    def test_identity(self):
        m = AffineMap.identity(3)
        assert m.evaluate((1, 2, 3)) == (1, 2, 3)

    def test_from_callable(self):
        m = AffineMap.from_callable(2, lambda i, j: (i * 5 + j,))
        assert m.evaluate((2, 3)) == (13,)

    def test_from_callable_single_expr(self):
        m = AffineMap.from_callable(2, lambda i, j: j)
        assert m.num_results == 1
        assert m.evaluate((4, 9)) == (9,)

    def test_constant_map(self):
        m = AffineMap.constant(2, [7, 8])
        assert m.evaluate((100, 200)) == (7, 8)

    def test_evaluate_wrong_arity(self):
        with pytest.raises(ValueError):
            AffineMap.identity(2).evaluate((1,))

    def test_unit_deltas_identity(self):
        m = AffineMap.identity(2)
        assert m.unit_deltas() == [(1, 0), (0, 1)]

    def test_unit_deltas_window(self):
        m = AffineMap.from_callable(4, lambda i, j, ki, kj: (i + ki, j + kj))
        deltas = m.unit_deltas()
        assert deltas[0] == (1, 0)
        assert deltas[2] == (1, 0)
        assert deltas[3] == (0, 1)

    def test_is_linear(self):
        assert AffineMap.from_callable(2, lambda i, j: (i * 3 + j,)).is_linear()

    def test_strides_matvec_x(self):
        """Paper Fig 7: X map (d0,d1,d2) -> (d1) over a 200-vector."""
        m = AffineMap.from_callable(3, lambda d0, d1, d2: (d1,))
        assert m.strides((8,)) == (0, 8, 0)

    def test_strides_matvec_y(self):
        """Paper Fig 7: Y map (d0,d1,d2) -> (d0*5+d2, d1)."""
        m = AffineMap.from_callable(
            3, lambda d0, d1, d2: (d0 * 5 + d2, d1)
        )
        # Y is 5x200 f64: byte strides (1600, 8)
        assert m.strides((1600, 8)) == (8000, 8, 1600)

    def test_strides_arity_error(self):
        m = AffineMap.identity(2)
        with pytest.raises(ValueError):
            m.strides((8,))

    def test_permute_map(self):
        """``permutation[new] = old``: over (i, k, j), matmul's A map is
        (d0, d1); reordered to the canonical (i, j, k) it is (d0, d2)."""
        a_map = AffineMap.from_callable(3, lambda i, k, j: (i, k))
        canonical = permute_map(a_map, (0, 2, 1))
        assert canonical.num_dims == 3
        assert canonical.evaluate((5, 7, 9)) == (5, 9)
        # Swapping two dims twice is the identity.
        assert permute_map(canonical, (0, 2, 1)) == a_map

    @given(
        coeffs=st.lists(st.integers(0, 9), min_size=2, max_size=4),
        point=st.lists(st.integers(0, 20), min_size=2, max_size=4),
    )
    def test_strides_predict_evaluation(self, coeffs, point):
        """For linear maps, offset(p) == sum(stride_d * p_d)."""
        n = min(len(coeffs), len(point))
        coeffs, point = coeffs[:n], point[:n]
        expr = AffineConstantExpr(0)
        for d, c in enumerate(coeffs):
            expr = expr + AffineDimExpr(d) * c
        m = AffineMap(n, (expr,))
        strides = m.strides((1,))
        predicted = sum(s * p for s, p in zip(strides, point))
        assert m.evaluate(point)[0] == predicted
