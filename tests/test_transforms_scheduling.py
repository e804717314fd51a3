"""Tests for the scheduling passes: conversion, fill fusion, scalar
replacement, unroll-and-jam (paper Section 3.4, Table 3 stages)."""

import pytest

from repro import kernels
from repro.dialects import linalg, memref_stream
from repro.ir import FloatAttr, verify
from repro.transforms.convert_linalg_to_memref_stream import (
    ConvertLinalgToMemrefStreamPass,
)
from repro.transforms.fuse_fill import FuseFillPass, fill_constant
from repro.transforms.scalar_replacement import (
    ScalarReplacementPass,
    can_scalar_replace,
)
from repro.transforms.unroll_and_jam import (
    MAX_FACTOR,
    NO_UNROLL,
    UnrollAndJamPass,
    legal_unroll_factors,
    select_unroll_dim,
    select_unroll_factor,
    unroll_dim_candidates,
)


def _generics(module):
    return [
        op
        for op in module.walk()
        if isinstance(op, memref_stream.GenericOp)
    ]


def convert(module):
    ConvertLinalgToMemrefStreamPass().run(module)
    verify(module)
    return module


class TestConvertLinalg:
    def test_no_linalg_remains(self):
        module, _ = kernels.matmul(2, 4, 6)
        convert(module)
        assert not any(
            isinstance(op, (linalg.GenericOp, linalg.FillOp))
            for op in module.walk()
        )

    def test_bounds_explicit(self):
        module, _ = kernels.matmul(2, 4, 6)
        convert(module)
        # fill generic + matmul generic
        fills, mm = _generics(module)
        assert mm.bounds == (2, 6, 4)

    def test_canonical_dim_order(self):
        module, _ = kernels.conv3x3(4, 4)
        convert(module)
        conv = _generics(module)[-1]
        kinds = conv.iterator_types
        first_reduction = kinds.index("reduction")
        assert all(k == "reduction" for k in kinds[first_reduction:])

    def test_fill_becomes_parallel_generic(self):
        module, _ = kernels.fill(2, 3)
        convert(module)
        (g,) = _generics(module)
        assert g.iterator_types == ["parallel", "parallel"]
        assert not g.inputs


class TestFuseFill:
    def _converted_matmul(self):
        module, _ = kernels.matmul(1, 8, 4)
        convert(module)
        return module

    def test_fill_constant_detection(self):
        module = self._converted_matmul()
        fill_generic = _generics(module)[0]
        constant = fill_constant(fill_generic)
        assert isinstance(constant, FloatAttr)
        assert constant.value == 0.0

    def test_fusion_removes_fill(self):
        module = self._converted_matmul()
        FuseFillPass().run(module)
        generics = _generics(module)
        assert len(generics) == 1
        (init,) = generics[0].inits
        assert isinstance(init, FloatAttr) and init.value == 0.0

    def test_elementwise_not_fused(self):
        module, _ = kernels.sum_kernel(2, 2)
        convert(module)
        FuseFillPass().run(module)
        assert len(_generics(module)) == 1  # unchanged

    def test_pool_neutral_fused(self):
        module, _ = kernels.max_pool3x3(2, 4)
        convert(module)
        FuseFillPass().run(module)
        (g,) = _generics(module)
        (init,) = g.inits
        assert init.value == kernels.POOL_NEUTRAL_MIN


class TestScalarReplacement:
    def _matmul_generic(self):
        module, _ = kernels.matmul(1, 8, 4)
        convert(module)
        FuseFillPass().run(module)
        return module, _generics(module)[0]

    def test_applicability(self):
        module, g = self._matmul_generic()
        assert can_scalar_replace(g)

    def test_output_map_compressed(self):
        module, g = self._matmul_generic()
        ScalarReplacementPass().run(module)
        verify(module)
        assert g.is_scalar_replaced
        out_map = g.indexing_maps[-1]
        assert out_map.num_dims == len(g.parallel_dims)

    def test_idempotent(self):
        module, g = self._matmul_generic()
        ScalarReplacementPass().run(module)
        maps_before = g.indexing_maps
        ScalarReplacementPass().run(module)
        assert g.indexing_maps == maps_before

    def test_not_applicable_without_reduction(self):
        module, _ = kernels.sum_kernel(2, 2)
        convert(module)
        (g,) = _generics(module)
        assert not can_scalar_replace(g)


class TestUnrollAndJam:
    def test_factor_selection(self):
        """Paper: at least four to hide the 3-stage FPU pipeline."""
        assert select_unroll_factor(20) == 4
        assert select_unroll_factor(5) == 5  # smallest divisor >= 4
        assert select_unroll_factor(8) == 4
        assert select_unroll_factor(12) == 4
        assert select_unroll_factor(4) == 4  # full unroll of tiny dims
        assert select_unroll_factor(3) == 3
        assert select_unroll_factor(9) == 3  # fall back below four
        assert select_unroll_factor(7) == 7
        assert select_unroll_factor(11) == 1  # prime, nothing fits

    def _scheduled_matmul(self, m=1, k=200, n=5):
        module, _ = kernels.matmul(m, k, n)
        convert(module)
        FuseFillPass().run(module)
        ScalarReplacementPass().run(module)
        return module, _generics(module)[0]

    def test_unroll_dim_is_output_varying(self):
        module, g = self._scheduled_matmul()
        dim = select_unroll_dim(g)
        assert g.iterator_types[dim] == "parallel"
        assert dim == 1  # the N dimension

    def test_interleaved_dim_appended(self):
        """Paper Fig 7: matvec becomes bounds [1, 200, 5] with an
        interleaved innermost dim (here [1, 1, 200, 5])."""
        module, g = self._scheduled_matmul()
        UnrollAndJamPass().run(module)
        verify(module)
        assert g.iterator_types[-1] == "interleaved"
        assert g.bounds == (1, 1, 200, 5)
        assert g.interleave_factor == 5

    def test_body_replicated_grouped_by_operand(self):
        module, g = self._scheduled_matmul()
        UnrollAndJamPass().run(module)
        block = g.body_block
        # 3 operands x factor 5 block args; 5 muls + 5 adds + yield.
        assert len(block.args) == 15
        mul_count = sum(
            1 for op in block.ops if op.name == "arith.mulf"
        )
        assert mul_count == 5
        assert len(block.last_op.operands) == 5

    def test_prime_bounds_fall_back_explicitly(self):
        """Divisor-free bounds (primes > MAX_FACTOR) must select
        NO_UNROLL — the pass has no remainder loop, so this is the
        contract the tuner's legality model builds on."""
        for prime in (11, 13, 17, 19, 23, 101):
            assert prime > MAX_FACTOR
            assert select_unroll_factor(prime) == NO_UNROLL == 1

    def test_selected_factor_is_always_legal(self):
        """Whatever the heuristic picks divides the bound exactly."""
        for bound in range(1, 65):
            factor = select_unroll_factor(bound)
            assert bound % factor == 0
            if factor > 1 and bound > MAX_FACTOR:
                assert factor in legal_unroll_factors(bound)

    def test_legal_unroll_factors(self):
        assert legal_unroll_factors(12) == [2, 3, 4, 6]
        assert legal_unroll_factors(8) == [2, 4, 8]
        assert legal_unroll_factors(11) == []  # prime > MAX_FACTOR
        assert legal_unroll_factors(1) == []
        assert legal_unroll_factors(0) == []  # every factor divides 0

    def test_prime_bound_leaves_op_untouched(self):
        module, g = self._scheduled_matmul(1, 16, 11)
        UnrollAndJamPass().run(module)
        assert g.interleave_factor == 1  # explicit no-unroll fallback

    def test_explicit_factor(self):
        module, g = self._scheduled_matmul(1, 16, 8)
        UnrollAndJamPass(factor=2).run(module)
        assert g.interleave_factor == 2

    def test_explicit_dim_option(self):
        """dim= picks the interleave dim; an illegal dim is skipped."""
        module, g = self._scheduled_matmul(4, 16, 8)
        assert unroll_dim_candidates(g) == [0, 1]
        UnrollAndJamPass(factor=2, dim=0).run(module)
        verify(module)
        assert g.interleave_factor == 2
        # The outer (M) dim was split: 4 -> 2 with factor 2 appended.
        assert g.bounds == (2, 8, 16, 2)

    def test_illegal_dim_option_degrades_to_no_unroll(self):
        module, g = self._scheduled_matmul(4, 16, 8)
        UnrollAndJamPass(factor=2, dim=2).run(module)  # a reduction dim
        assert g.interleave_factor == 1

    def test_nondividing_factor_degrades_to_no_unroll(self):
        module, g = self._scheduled_matmul(1, 16, 8)
        UnrollAndJamPass(factor=3).run(module)
        assert g.interleave_factor == 1

    def test_factor_one_leaves_op_untouched(self):
        """An explicit factor of 1 (or dim= hitting the NO_UNROLL
        heuristic) must not rewrite the op into a degenerate factor-1
        interleave."""
        module, g = self._scheduled_matmul(1, 16, 8)
        UnrollAndJamPass(factor=1).run(module)
        assert "interleaved" not in g.iterator_types
        assert g.bounds == (1, 8, 16)

    def test_dim_option_with_prime_bound_leaves_op_untouched(self):
        module, g = self._scheduled_matmul(11, 4, 4)
        UnrollAndJamPass(dim=0).run(module)  # bound 11 -> NO_UNROLL
        assert "interleaved" not in g.iterator_types
        assert g.bounds == (11, 4, 4)

    def test_elementwise_untouched(self):
        module, _ = kernels.relu(4, 4)
        convert(module)
        (g,) = _generics(module)
        UnrollAndJamPass().run(module)
        assert g.interleave_factor == 1
