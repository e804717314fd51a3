"""Tests for the public API (compile/run/metrics)."""

import numpy as np
import pytest

from repro import api, kernels
from repro.kernels import lowlevel
from repro.transforms.pipelines import build_pipeline


class TestCompileLinalg:
    def test_returns_compiled_kernel(self):
        module, _ = kernels.sum_kernel(4, 4)
        compiled = api.compile_linalg(module)
        assert compiled.entry == "sum"
        assert ".globl sum" in compiled.asm
        assert compiled.program.entry("sum") == 0

    def test_unknown_pipeline_rejected(self):
        module, _ = kernels.sum_kernel(4, 4)
        with pytest.raises(ValueError):
            api.compile_linalg(module, pipeline="llvm")

    def test_snapshots_off_by_default(self):
        module, _ = kernels.sum_kernel(4, 4)
        assert api.compile_linalg(module).snapshots == []

    def test_register_usage_reported(self):
        module, _ = kernels.sum_kernel(4, 4)
        fp, integer = api.compile_linalg(module).register_usage()
        assert fp >= 1 and integer >= 1

    def test_unroll_factor_forwarded(self):
        module, _ = kernels.matmul(1, 40, 8)
        compiled = api.compile_linalg(
            module, pipeline="ours", unroll_factor=2
        )
        # Two accumulators: the peeled first step, then the FREP body.
        assert compiled.asm.count("fmadd.d") == 4


class TestRunKernel:
    def test_scalar_and_array_arguments(self):
        module, spec = kernels.fill(3, 5)
        compiled = api.compile_linalg(module)
        result = api.run_kernel(compiled, [7.0, np.zeros((3, 5))])
        assert result.arrays[0] is None  # scalar slot
        np.testing.assert_array_equal(
            result.arrays[1], np.full((3, 5), 7.0)
        )

    def test_fresh_memory_per_run(self):
        module, spec = kernels.sum_kernel(4, 4)
        compiled = api.compile_linalg(module)
        a = api.run_kernel(compiled, spec.random_arguments(seed=1))
        b = api.run_kernel(compiled, spec.random_arguments(seed=2))
        assert not np.array_equal(a.arrays[2], b.arrays[2])

    def test_instruction_budget_enforced(self):
        module, spec = kernels.matmul(1, 200, 5)
        compiled = api.compile_linalg(module, pipeline="table3-baseline")
        from repro.snitch.machine import SimulationError

        with pytest.raises(SimulationError):
            api.run_kernel(
                compiled,
                spec.random_arguments(),
                max_instructions=100,
            )


class TestCompileLowlevel:
    def test_runs_backend_only(self):
        module, spec = lowlevel.lowlevel_sum_f32(2, 4)
        compiled = api.compile_lowlevel(module, spec.name)
        assert "frep.o" in compiled.asm
        assert "csrsi" in compiled.asm


class TestKernelSpec:
    def test_random_arguments_roles(self):
        _, spec = kernels.sum_kernel(4, 4)
        args = spec.random_arguments()
        assert (args[2] == 0).all()  # outputs zeroed
        assert args[0].shape == (4, 4)

    def test_min_cycles_fma(self):
        _, spec = kernels.matmul(2, 3, 4)
        assert spec.flops == 2 * 2 * 3 * 4
        assert spec.min_cycles == spec.flops // 2

    def test_min_cycles_non_fma(self):
        _, spec = kernels.relu(4, 4)
        assert spec.min_cycles == spec.flops

    def test_reference_shapes(self):
        _, spec = kernels.conv3x3(4, 6)
        args = spec.random_arguments()
        expected = spec.reference(*args)
        assert expected[2].shape == (4, 6)


class TestPipelineFactory:
    def test_all_named_pipelines_build(self):
        from repro.transforms.pipelines import PIPELINE_NAMES

        for name in PIPELINE_NAMES:
            manager = build_pipeline(name)
            assert manager.passes, name

    def test_ours_pass_order(self):
        spec = build_pipeline("ours").pipeline_spec
        order = spec.split(",")
        assert order.index("fuse-fill") < order.index(
            "scalar-replacement"
        )
        assert order.index("unroll-and-jam") < order.index(
            "lower-to-snitch"
        )
        assert order.index("allocate-registers") < order.index(
            "lower-riscv-scf"
        )
