"""Tests for the memref_stream bridge dialect (paper Figure 7)."""

import pytest

from repro.dialects import arith, memref, memref_stream
from repro.ir import AffineMap, Block, IRError, MemRefType, Region, f64


def _buffers():
    x = memref.AllocOp(MemRefType(f64, (200,)))
    y = memref.AllocOp(MemRefType(f64, (5, 200)))
    z = memref.AllocOp(MemRefType(f64, (5,)))
    return x.result, y.result, z.result


def _matvec_generic(scalar_replaced=True, interleave=1):
    """The paper's running matvec example at the memref_stream level."""
    x, y, z = _buffers()
    bounds = [5, 200]
    kinds = ["parallel", "reduction"]
    x_map = AffineMap.from_callable(2, lambda d0, d1: (d1,))
    y_map = AffineMap.from_callable(2, lambda d0, d1: (d0, d1))
    if scalar_replaced:
        z_map = AffineMap.from_callable(1, lambda d0: (d0,))
    else:
        z_map = AffineMap.from_callable(2, lambda d0, d1: (d0,))
    block = Block([f64] * 3)
    prod = arith.MulfOp(block.args[0], block.args[1])
    acc = arith.AddfOp(block.args[2], prod.result)
    block.add_ops([prod, acc, memref_stream.YieldOp([acc.result])])
    return memref_stream.GenericOp(
        inputs=[x, y],
        outputs=[z],
        indexing_maps=[x_map, y_map, z_map],
        iterator_types=kinds,
        bounds=bounds,
        body=Region([block]),
    )


class TestGeneric:
    def test_explicit_bounds(self):
        g = _matvec_generic()
        assert g.bounds == (5, 200)

    def test_reduction_and_parallel_dims(self):
        g = _matvec_generic()
        assert g.reduction_dims == [1]
        assert g.parallel_dims == [0]

    def test_scalar_replaced_detection(self):
        assert _matvec_generic(scalar_replaced=True).is_scalar_replaced
        assert not _matvec_generic(
            scalar_replaced=False
        ).is_scalar_replaced

    def test_default_inits_from_memory(self):
        g = _matvec_generic()
        assert g.inits == [memref_stream.FROM_MEMORY]

    def test_interleave_factor_default(self):
        assert _matvec_generic().interleave_factor == 1

    def test_verify_bounds_length(self):
        g = _matvec_generic()
        from repro.ir.attributes import DenseIntAttr

        g.attributes["bounds"] = DenseIntAttr([5])
        with pytest.raises(IRError):
            g.verify_()

    def test_verify_body_arity_with_interleaving(self):
        g = _matvec_generic()
        from repro.ir.attributes import ArrayAttr, DenseIntAttr, StringAttr

        # Claim an interleaved dim of 4 without widening the body.
        g.attributes["bounds"] = DenseIntAttr([5, 200, 4])
        g.attributes["iterator_types"] = ArrayAttr(
            [
                StringAttr("parallel"),
                StringAttr("reduction"),
                StringAttr("interleaved"),
            ]
        )
        from repro.ir import AffineMap as AM

        g.attributes["indexing_maps"] = ArrayAttr(
            [
                AM.from_callable(3, lambda a, b, c: (b,)),
                AM.from_callable(3, lambda a, b, c: (a, b)),
                AM.from_callable(2, lambda a, c: (a,)),
            ]
        )
        with pytest.raises(IRError):
            g.verify_()


class TestDerivedAccessFacts:
    """``operand_byte_strides`` / ``output_map_dims``: what every
    generic lowering reads instead of recomputing."""

    def test_not_scalar_replaced_outputs_range_over_all_dims(self):
        g = _matvec_generic(scalar_replaced=False)
        assert g.output_map_dims() == [0, 1]
        # x[d1], y[d0, d1] (row pitch 200 * 8 bytes), z[d0].
        assert g.operand_byte_strides() == [(0, 8), (1600, 8), (8, 0)]

    def test_scalar_replaced_output_is_still_indexed_by_iteration_dim(self):
        g = _matvec_generic(scalar_replaced=True)
        assert g.output_map_dims() == [0]
        # The output map has one dim; the reduction dim reads stride 0.
        assert g.operand_byte_strides() == [(0, 8), (1600, 8), (8, 0)]

    def test_interleaved_dim_last(self):
        """After unroll-and-jam by 5 the output map ranges over
        [parallel, interleaved] = iteration dims [0, 2]."""
        from repro import kernels
        from repro.transforms.pipelines import build_pipeline

        module, _ = kernels.matmul(2, 3, 10)
        build_pipeline(
            "convert-linalg-to-memref-stream,scalar-replacement,"
            "unroll-and-jam{factor=5}"
        ).run(module)
        (g,) = [
            op
            for op in module.walk()
            if isinstance(op, memref_stream.GenericOp)
            and op.reduction_dims
        ]
        assert g.iterator_types == [
            "parallel", "parallel", "reduction", "interleaved",
        ]
        assert g.output_map_dims() == [0, 1, 3]
        a, b, c = g.operand_byte_strides()
        assert a == (3 * 8, 0, 8, 0)  # A[i, k]
        assert b == (0, 5 * 8, 10 * 8, 8)  # B[k, 5 * j + f]
        assert c == (10 * 8, 5 * 8, 0, 8)  # C[i, 5 * j + f]

    def test_transposed_map(self):
        x = memref.AllocOp(MemRefType(f64, (4, 6))).result
        z = memref.AllocOp(MemRefType(f64, (6, 4))).result
        block = Block([f64, f64])
        block.add_op(memref_stream.YieldOp([block.args[0]]))
        g = memref_stream.GenericOp(
            inputs=[x],
            outputs=[z],
            indexing_maps=[
                AffineMap.from_callable(2, lambda i, j: (j, i)),
                AffineMap.identity(2),
            ],
            iterator_types=["parallel", "parallel"],
            bounds=[6, 4],
            body=Region([block]),
        )
        assert g.operand_byte_strides() == [(8, 6 * 8), (4 * 8, 8)]

    def test_mismatched_output_map_rejected(self):
        g = _matvec_generic(scalar_replaced=False)
        from repro.ir.attributes import ArrayAttr

        maps = g.indexing_maps
        maps[2] = AffineMap.from_callable(3, lambda a, b, c: (a,))
        g.attributes["indexing_maps"] = ArrayAttr(maps)
        with pytest.raises(IRError, match="dimensionality"):
            g.operand_byte_strides()

