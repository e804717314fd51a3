"""linalg-level builders for the Table 1 micro-kernels.

Each builder returns ``(module, spec)``: a fresh linalg-level module and
a :class:`KernelSpec` describing its calling convention, FLOP roofline
and numpy oracle.  Kernels with reductions are built as a
``linalg.fill`` + ``linalg.generic`` pair, "the form used by most MLIR
DNN frontends" (paper Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..dialects import arith, func, linalg
from ..dialects.builtin import ModuleOp
from ..ir.affine_map import AffineMap
from ..ir.attributes import MemRefType, f64
from ..ir.core import Block, Region

#: Neutral element used to initialise max-pooling accumulators.  The
#: fcvt-based constant materialisation needs an integral value, so we
#: use a very negative integer instead of -inf; test data stays well
#: above it.
POOL_NEUTRAL_MIN = -100_000_000.0


@dataclass
class ArrayArg:
    """One array parameter of a kernel."""

    shape: tuple[int, ...]
    #: "in", "out" or "inout".
    role: str
    dtype: type = np.float64


@dataclass
class ScalarArg:
    """One scalar (f64) parameter of a kernel."""

    role: str = "in"


#: (rtol, atol) of the numpy check per result dtype; the 32-bit
#: kernels round per lane, so only a relative bound holds there.
CHECK_TOLERANCES = {
    np.dtype(np.float64): (1e-7, 1e-9),
    np.dtype(np.float32): (1e-4, 0.0),
}


class OracleMismatch(ValueError):
    """A kernel's results do not match its numpy oracle."""


@dataclass
class KernelSpec:
    """Calling convention + oracle + roofline for one kernel."""

    name: str
    arguments: list
    #: Maps the input argument values to the expected contents of every
    #: array argument after the kernel ran (None = unchanged).
    reference: Callable
    #: Paper Table 1 FLOP count (minimum FPU cycles = flops / 2 if FMA).
    flops: int
    #: Whether the inner op is an FMA (2 FLOPs/cycle peak) or not.
    uses_fma: bool = False

    @property
    def min_cycles(self) -> int:
        """Theoretical minimum cycles (the paper's roofline)."""
        return self.flops // 2 if self.uses_fma else self.flops

    def random_arguments(self, seed: int = 0) -> list:
        """Random inputs (zeroed outputs) for testing/benchmarking."""
        rng = np.random.default_rng(seed)
        values = []
        for argument in self.arguments:
            if isinstance(argument, ScalarArg):
                values.append(float(rng.uniform(-1.0, 1.0)))
            elif argument.role == "in":
                values.append(
                    rng.uniform(-1.0, 1.0, argument.shape).astype(
                        argument.dtype
                    )
                )
            else:
                values.append(
                    np.zeros(argument.shape, dtype=argument.dtype)
                )
        return values

    def check(self, arguments: Sequence, arrays: Sequence) -> None:
        """Compare a run's ``arrays`` with the oracle on ``arguments``
        (the inputs it ran on), within :data:`CHECK_TOLERANCES` of
        each array's dtype; raises :class:`OracleMismatch` naming the
        first differing argument and its worst error."""
        expected = self.reference(*arguments)
        for index, (got, want) in enumerate(zip(arrays, expected)):
            if want is None:
                continue
            rtol, atol = CHECK_TOLERANCES[got.dtype]
            if not np.allclose(got, want, rtol=rtol, atol=atol):
                error = np.abs(got - want)
                worst = np.unravel_index(np.argmax(error), error.shape)
                raise OracleMismatch(
                    f"{self.name}: argument {index} does not match the "
                    f"numpy oracle: worst error {error[worst]:.3g} at "
                    f"{tuple(map(int, worst))} (rtol {rtol:g}, atol "
                    f"{atol:g})"
                )


def _memref(shape: Sequence[int]) -> MemRefType:
    return MemRefType(f64, tuple(shape))


def _binary_body(op_class) -> Region:
    """Body block ``(x, y, z_old) -> op(x, y)``."""
    block = Block([f64, f64, f64])
    result = op_class(block.args[0], block.args[1])
    block.add_op(result)
    block.add_op(linalg.YieldOp([result.result]))
    return Region([block])


# ---------------------------------------------------------------------------
# Element-wise kernels
# ---------------------------------------------------------------------------


def fill(n: int, m: int) -> tuple[ModuleOp, KernelSpec]:
    """Fill: ``out[i, j] = value`` (value passed as an argument)."""
    fn = func.FuncOp("fill", [f64, _memref((n, m))])
    value, out = fn.args
    fn.entry_block.add_op(linalg.FillOp(value, out))
    fn.entry_block.add_op(func.ReturnOp())
    spec = KernelSpec(
        name="fill",
        arguments=[ScalarArg(), ArrayArg((n, m), "out")],
        reference=lambda v, out_arr: [None, np.full((n, m), v)],
        flops=n * m,
    )
    return ModuleOp([fn]), spec


def sum_kernel(n: int, m: int) -> tuple[ModuleOp, KernelSpec]:
    """Element-wise sum: ``z = x + y``."""
    fn = func.FuncOp(
        "sum", [_memref((n, m)), _memref((n, m)), _memref((n, m))]
    )
    x, y, z = fn.args
    identity = AffineMap.identity(2)
    fn.entry_block.add_op(
        linalg.GenericOp(
            inputs=[x, y],
            outputs=[z],
            indexing_maps=[identity, identity, identity],
            iterator_types=["parallel", "parallel"],
            body=_binary_body(arith.AddfOp),
        )
    )
    fn.entry_block.add_op(func.ReturnOp())
    spec = KernelSpec(
        name="sum",
        arguments=[
            ArrayArg((n, m), "in"),
            ArrayArg((n, m), "in"),
            ArrayArg((n, m), "out"),
        ],
        reference=lambda a, b, _z: [None, None, a + b],
        flops=n * m,
    )
    return ModuleOp([fn]), spec


def relu(n: int, m: int) -> tuple[ModuleOp, KernelSpec]:
    """ReLU: ``z = max(x, 0)``."""
    fn = func.FuncOp("relu", [_memref((n, m)), _memref((n, m))])
    x, z = fn.args
    zero = arith.ConstantOp.from_float(0.0, f64)
    fn.entry_block.add_op(zero)
    block = Block([f64, f64])
    fmax = arith.MaximumfOp(block.args[0], zero.result)
    block.add_op(fmax)
    block.add_op(linalg.YieldOp([fmax.result]))
    identity = AffineMap.identity(2)
    fn.entry_block.add_op(
        linalg.GenericOp(
            inputs=[x],
            outputs=[z],
            indexing_maps=[identity, identity],
            iterator_types=["parallel", "parallel"],
            body=Region([block]),
        )
    )
    fn.entry_block.add_op(func.ReturnOp())
    spec = KernelSpec(
        name="relu",
        arguments=[ArrayArg((n, m), "in"), ArrayArg((n, m), "out")],
        reference=lambda a, _z: [None, np.maximum(a, 0.0)],
        flops=n * m,
    )
    return ModuleOp([fn]), spec


# ---------------------------------------------------------------------------
# Fixed-size reduction kernels (3x3 windows)
# ---------------------------------------------------------------------------


def _window_maps() -> list[AffineMap]:
    """(image, out) maps for 3x3 windows over dims (i, j, ki, kj)."""
    image = AffineMap.from_callable(
        4, lambda i, j, ki, kj: (i + ki, j + kj)
    )
    out = AffineMap.from_callable(4, lambda i, j, ki, kj: (i, j))
    return [image, out]


def conv3x3(n: int, m: int) -> tuple[ModuleOp, KernelSpec]:
    """3x3 convolution (cross-correlation), zero-initialised output."""
    fn = func.FuncOp(
        "conv3x3",
        [_memref((n + 2, m + 2)), _memref((3, 3)), _memref((n, m))],
    )
    image, weights, out = fn.args
    zero = arith.ConstantOp.from_float(0.0, f64)
    fn.entry_block.add_op(zero)
    fn.entry_block.add_op(linalg.FillOp(zero.result, out))
    image_map, out_map = _window_maps()
    weight_map = AffineMap.from_callable(
        4, lambda i, j, ki, kj: (ki, kj)
    )
    block = Block([f64, f64, f64])
    prod = arith.MulfOp(block.args[0], block.args[1])
    acc = arith.AddfOp(block.args[2], prod.result)
    block.add_ops([prod, acc, linalg.YieldOp([acc.result])])
    fn.entry_block.add_op(
        linalg.GenericOp(
            inputs=[image, weights],
            outputs=[out],
            indexing_maps=[image_map, weight_map, out_map],
            iterator_types=[
                "parallel", "parallel", "reduction", "reduction",
            ],
            body=Region([block]),
        )
    )
    fn.entry_block.add_op(func.ReturnOp())
    from .reference import ref_conv3x3

    spec = KernelSpec(
        name="conv3x3",
        arguments=[
            ArrayArg((n + 2, m + 2), "in"),
            ArrayArg((3, 3), "in"),
            ArrayArg((n, m), "out"),
        ],
        reference=lambda img, w, _o: [None, None, ref_conv3x3(img, w)],
        flops=18 * n * m,
        uses_fma=True,
    )
    return ModuleOp([fn]), spec


def _pool(
    name: str, n: int, m: int, body_op, init_value: float, reference
) -> tuple[ModuleOp, KernelSpec]:
    fn = func.FuncOp(
        name, [_memref((n + 2, m + 2)), _memref((n, m))]
    )
    image, out = fn.args
    init = arith.ConstantOp.from_float(init_value, f64)
    fn.entry_block.add_op(init)
    fn.entry_block.add_op(linalg.FillOp(init.result, out))
    image_map, out_map = _window_maps()
    block = Block([f64, f64])
    combine = body_op(block.args[1], block.args[0])
    block.add_ops([combine, linalg.YieldOp([combine.result])])
    fn.entry_block.add_op(
        linalg.GenericOp(
            inputs=[image],
            outputs=[out],
            indexing_maps=[image_map, out_map],
            iterator_types=[
                "parallel", "parallel", "reduction", "reduction",
            ],
            body=Region([block]),
        )
    )
    fn.entry_block.add_op(func.ReturnOp())
    spec = KernelSpec(
        name=name,
        arguments=[
            ArrayArg((n + 2, m + 2), "in"),
            ArrayArg((n, m), "out"),
        ],
        reference=reference,
        flops=9 * n * m,
    )
    return ModuleOp([fn]), spec


def max_pool3x3(n: int, m: int) -> tuple[ModuleOp, KernelSpec]:
    """3x3 max pooling, stride 1."""
    from .reference import ref_max_pool3x3

    return _pool(
        "max_pool3x3",
        n,
        m,
        arith.MaximumfOp,
        POOL_NEUTRAL_MIN,
        lambda img, _o: [None, ref_max_pool3x3(img)],
    )


def sum_pool3x3(n: int, m: int) -> tuple[ModuleOp, KernelSpec]:
    """3x3 sum pooling, stride 1."""
    from .reference import ref_sum_pool3x3

    return _pool(
        "sum_pool3x3",
        n,
        m,
        arith.AddfOp,
        0.0,
        lambda img, _o: [None, ref_sum_pool3x3(img)],
    )


# ---------------------------------------------------------------------------
# Matrix kernels
# ---------------------------------------------------------------------------


def _matmul_like(
    name: str,
    a_shape: tuple[int, int],
    b_shape: tuple[int, int],
    c_shape: tuple[int, int],
    a_map: AffineMap,
    b_map: AffineMap,
    reference,
    flops: int,
) -> tuple[ModuleOp, KernelSpec]:
    fn = func.FuncOp(
        name, [_memref(a_shape), _memref(b_shape), _memref(c_shape)]
    )
    a, b, c = fn.args
    zero = arith.ConstantOp.from_float(0.0, f64)
    fn.entry_block.add_op(zero)
    fn.entry_block.add_op(linalg.FillOp(zero.result, c))
    c_map = AffineMap.from_callable(3, lambda i, j, k: (i, j))
    block = Block([f64, f64, f64])
    prod = arith.MulfOp(block.args[0], block.args[1])
    acc = arith.AddfOp(block.args[2], prod.result)
    block.add_ops([prod, acc, linalg.YieldOp([acc.result])])
    fn.entry_block.add_op(
        linalg.GenericOp(
            inputs=[a, b],
            outputs=[c],
            indexing_maps=[a_map, b_map, c_map],
            iterator_types=["parallel", "parallel", "reduction"],
            body=Region([block]),
        )
    )
    fn.entry_block.add_op(func.ReturnOp())
    spec = KernelSpec(
        name=name,
        arguments=[
            ArrayArg(a_shape, "in"),
            ArrayArg(b_shape, "in"),
            ArrayArg(c_shape, "out"),
        ],
        reference=reference,
        flops=flops,
        uses_fma=True,
    )
    return ModuleOp([fn]), spec


def matmul(m: int, k: int, n: int) -> tuple[ModuleOp, KernelSpec]:
    """MatMul: ``C[MxN] = A[MxK] @ B[KxN]`` with zeroing fill."""
    return _matmul_like(
        "matmul",
        (m, k),
        (k, n),
        (m, n),
        AffineMap.from_callable(3, lambda i, j, kk: (i, kk)),
        AffineMap.from_callable(3, lambda i, j, kk: (kk, j)),
        lambda a, b, _c: [None, None, a @ b],
        flops=2 * m * n * k,
    )


def matmul_transposed(
    m: int, k: int, n: int
) -> tuple[ModuleOp, KernelSpec]:
    """MatMulT: ``C[MxN] = A[MxK] @ B[NxK].T`` with zeroing fill."""
    return _matmul_like(
        "matmul_t",
        (m, k),
        (n, k),
        (m, n),
        AffineMap.from_callable(3, lambda i, j, kk: (i, kk)),
        AffineMap.from_callable(3, lambda i, j, kk: (j, kk)),
        lambda a, b, _c: [None, None, a @ b.T],
        flops=2 * m * n * k,
    )


def matvec(rows: int, cols: int) -> tuple[ModuleOp, KernelSpec]:
    """Paper Figure 2: ``z[rows] = Y[rows x cols] @ x[cols]``."""
    fn = func.FuncOp(
        "matvec",
        [_memref((cols,)), _memref((rows, cols)), _memref((rows,))],
    )
    x, y, z = fn.args
    zero = arith.ConstantOp.from_float(0.0, f64)
    fn.entry_block.add_op(zero)
    fn.entry_block.add_op(linalg.FillOp(zero.result, z))
    x_map = AffineMap.from_callable(2, lambda d0, d1: (d1,))
    y_map = AffineMap.from_callable(2, lambda d0, d1: (d0, d1))
    z_map = AffineMap.from_callable(2, lambda d0, d1: (d0,))
    block = Block([f64, f64, f64])
    prod = arith.MulfOp(block.args[0], block.args[1])
    acc = arith.AddfOp(block.args[2], prod.result)
    block.add_ops([prod, acc, linalg.YieldOp([acc.result])])
    fn.entry_block.add_op(
        linalg.GenericOp(
            inputs=[x, y],
            outputs=[z],
            indexing_maps=[x_map, y_map, z_map],
            iterator_types=["parallel", "reduction"],
            body=Region([block]),
        )
    )
    fn.entry_block.add_op(func.ReturnOp())
    spec = KernelSpec(
        name="matvec",
        arguments=[
            ArrayArg((cols,), "in"),
            ArrayArg((rows, cols), "in"),
            ArrayArg((rows,), "out"),
        ],
        reference=lambda xv, ym, _z: [None, None, ym @ xv],
        flops=2 * rows * cols,
        uses_fma=True,
    )
    return ModuleOp([fn]), spec


#: Canonical kernel name -> (builder, number of size arguments): the
#: Table 1 suite as one registry shared by the CLI tools and the
#: schedule-space autotuner.
KERNEL_BUILDERS = {
    "fill": (fill, 2),
    "sum": (sum_kernel, 2),
    "relu": (relu, 2),
    "conv3x3": (conv3x3, 2),
    "max_pool3x3": (max_pool3x3, 2),
    "sum_pool3x3": (sum_pool3x3, 2),
    "matmul": (matmul, 3),
    "matmul_t": (matmul_transposed, 3),
    "matvec": (matvec, 2),
}


__all__ = [
    "ArrayArg",
    "CHECK_TOLERANCES",
    "ScalarArg",
    "KernelSpec",
    "OracleMismatch",
    "KERNEL_BUILDERS",
    "POOL_NEUTRAL_MIN",
    "fill",
    "sum_kernel",
    "relu",
    "conv3x3",
    "max_pool3x3",
    "sum_pool3x3",
    "matmul",
    "matmul_transposed",
    "matvec",
]
