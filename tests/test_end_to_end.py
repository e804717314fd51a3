"""End-to-end integration tests: every kernel through every pipeline,
validated against the numpy oracles."""

import numpy as np
import pytest

from repro import api, kernels
from repro.kernels import OracleMismatch
from repro.kernels.builders import ArrayArg
from repro.transforms.pipelines import PIPELINE_NAMES

KERNEL_CASES = [
    ("sum", kernels.sum_kernel, (8, 20)),
    ("fill", kernels.fill, (8, 20)),
    ("relu", kernels.relu, (8, 20)),
    ("matmul-row", kernels.matmul, (1, 40, 8)),
    ("matmul-square", kernels.matmul, (4, 16, 8)),
    ("matvec", kernels.matvec, (5, 40)),
    ("conv3x3", kernels.conv3x3, (4, 8)),
    ("max_pool3x3", kernels.max_pool3x3, (4, 8)),
    ("sum_pool3x3", kernels.sum_pool3x3, (4, 8)),
    ("matmul_t", kernels.matmul_transposed, (4, 16, 8)),
]


def run_case(builder, sizes, pipeline, seed=7):
    module, spec = builder(*sizes)
    compiled = api.compile_linalg(module, pipeline=pipeline)
    arguments = spec.random_arguments(seed=seed)
    result = api.run_kernel(compiled, arguments)
    expected = spec.reference(*arguments)
    return spec, compiled, result, expected


@pytest.mark.parametrize("pipeline", PIPELINE_NAMES)
@pytest.mark.parametrize(
    "name,builder,sizes", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES]
)
def test_kernel_correct(name, builder, sizes, pipeline):
    """The central correctness matrix: 10 kernels x 9 pipelines."""
    spec, compiled, result, expected = run_case(builder, sizes, pipeline)
    for got, want in zip(result.arrays, expected):
        if want is None:
            continue
        np.testing.assert_allclose(got, want, atol=1e-9, rtol=1e-12)


@pytest.mark.parametrize(
    "name,builder,sizes", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES]
)
def test_ours_beats_baselines(name, builder, sizes):
    """Our flow is strictly faster than both comparison flows."""
    _, _, ours, _ = run_case(builder, sizes, "ours")
    _, _, clang, _ = run_case(builder, sizes, "clang")
    _, _, mlir, _ = run_case(builder, sizes, "mlir")
    assert ours.trace.cycles < clang.trace.cycles
    assert ours.trace.cycles < mlir.trace.cycles


@pytest.mark.parametrize(
    "name,builder,sizes", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES]
)
def test_ours_no_explicit_memory_traffic(name, builder, sizes):
    """With streams + fused fill, no fld/fsd/lw/sw executes at all."""
    _, _, result, _ = run_case(builder, sizes, "ours")
    assert result.trace.loads == 0
    assert result.trace.stores == 0


def test_results_deterministic():
    """The simulator is deterministic (paper Section 4.1)."""
    a = run_case(kernels.matmul, (1, 40, 8), "ours")[2]
    b = run_case(kernels.matmul, (1, 40, 8), "ours")[2]
    assert a.trace.cycles == b.trace.cycles
    assert a.trace.histogram == b.trace.histogram
    np.testing.assert_array_equal(a.arrays[2], b.arrays[2])


@pytest.mark.parametrize("m,k,n", [(1, 4, 4), (2, 8, 4), (3, 5, 7), (1, 200, 5)])
def test_matmul_shape_sweep(m, k, n):
    spec, _, result, expected = run_case(
        kernels.matmul, (m, k, n), "ours"
    )
    np.testing.assert_allclose(
        result.arrays[2], expected[2], atol=1e-9
    )


@pytest.mark.parametrize("n,m", [(1, 4), (2, 2), (3, 6), (7, 5)])
def test_elementwise_odd_shapes(n, m):
    for builder in (kernels.sum_kernel, kernels.relu, kernels.fill):
        spec, _, result, expected = run_case(builder, (n, m), "ours")
        for got, want in zip(result.arrays, expected):
            if want is not None:
                np.testing.assert_allclose(got, want, atol=1e-12)


def test_scalar_argument_passed_in_fa0():
    module, spec = kernels.fill(2, 3)
    compiled = api.compile_linalg(module, pipeline="ours")
    result = api.run_kernel(compiled, [2.5, np.zeros((2, 3))])
    np.testing.assert_array_equal(
        result.arrays[1], np.full((2, 3), 2.5)
    )


def test_inputs_not_clobbered():
    module, spec = kernels.sum_kernel(4, 4)
    compiled = api.compile_linalg(module, pipeline="ours")
    args = spec.random_arguments(seed=1)
    result = api.run_kernel(compiled, args)
    np.testing.assert_array_equal(result.arrays[0], args[0])
    np.testing.assert_array_equal(result.arrays[1], args[1])


class TestKernelSpecCheck:
    """``KernelSpec.check`` at the edge of each dtype's tolerance."""

    @staticmethod
    def _spec(want):
        return kernels.KernelSpec(
            name="copy",
            arguments=[ArrayArg(want.shape, "out", want.dtype.type)],
            reference=lambda _out: [want],
            flops=0,
        )

    @pytest.mark.parametrize(
        "dtype, want, bound",
        [
            # float64: rtol 1e-7, atol 1e-9.
            (np.float64, 0.0, 1e-9),
            (np.float64, 1.0, 1e-9 + 1e-7),
            (np.float64, -250.0, 1e-9 + 250 * 1e-7),
            # float32: rtol 1e-4 and no absolute slack.
            (np.float32, 1.0, 1e-4),
            (np.float32, -250.0, 250 * 1e-4),
        ],
    )
    def test_tolerance_boundary(self, dtype, want, bound):
        expected = np.array([want, 0.5], dtype=dtype)
        spec = self._spec(expected)
        for inside in (0.99 * bound, -0.99 * bound):
            got = np.array([want + inside, 0.5], dtype=dtype)
            spec.check([got], [got])
        got = np.array([want + 1.01 * bound, 0.5], dtype=dtype)
        with pytest.raises(OracleMismatch, match="argument 0"):
            spec.check([got], [got])

    def test_float32_has_no_absolute_slack(self):
        spec = self._spec(np.zeros(2, dtype=np.float32))
        spec.check([None], [np.zeros(2, dtype=np.float32)])
        with pytest.raises(OracleMismatch):
            spec.check([None], [np.array([0.0, 1e-30], np.float32)])

    def test_message_names_argument_and_worst_error(self):
        module, spec = kernels.sum_kernel(2, 3)
        arguments = spec.random_arguments(seed=0)
        got = [None, None, arguments[0] + arguments[1]]
        spec.check(arguments, got)
        got[2][1, 2] += 0.5
        got[2][0, 0] += 0.25
        with pytest.raises(OracleMismatch) as info:
            spec.check(arguments, got)
        assert isinstance(info.value, ValueError)
        message = str(info.value)
        assert message.startswith(
            "sum: argument 2 does not match the numpy oracle: "
            "worst error 0.5 at (1, 2)"
        )
        assert "rtol 1e-07, atol 1e-09" in message
