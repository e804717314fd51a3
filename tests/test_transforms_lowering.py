"""Tests for the lowering passes: snitch emission, stream config,
loop flattening, FMA fusion."""

import pytest

from repro import kernels
from repro.api import compile_linalg
from repro.dialects import riscv, riscv_func
from repro.dialects.snitch_stream import StridePattern
from repro.ir import Builder, IRError
from repro.transforms.lower_snitch_stream import hardware_pattern
from repro.transforms.fuse_fmadd import FuseFMAddPass
from repro.dialects.builtin import ModuleOp
from repro.dialects.riscv import FloatRegisterType


class TestHardwarePattern:
    def test_contiguous_collapse(self):
        dims, repeat = hardware_pattern(
            StridePattern([5, 200], [1600, 8])
        )
        assert dims == [(1000, 8)]
        assert repeat == 1

    def test_trailing_zero_becomes_repeat(self):
        """The paper's dedicated repetition optimization."""
        dims, repeat = hardware_pattern(
            StridePattern([200, 5], [8, 0])
        )
        assert dims == [(200, 8)]
        assert repeat == 5

    def test_leading_zero_stride_kept(self):
        dims, repeat = hardware_pattern(
            StridePattern([4, 9], [0, 8])
        )
        assert dims == [(4, 0), (9, 8)]
        assert repeat == 1

    def test_too_many_dims_rejected(self):
        with pytest.raises(IRError):
            hardware_pattern(
                StridePattern([7, 3, 5, 7, 11], [1, 2, 4, 8, 16])
            )


class TestFuseFMAdd:
    def _module_with(self, ops):
        fn = riscv_func.FuncOp("f", [])
        fn.entry_block.add_ops(ops + [riscv_func.ReturnOp()])
        return ModuleOp([fn]), fn

    def _fregs(self, n):
        return [
            riscv.GetRegisterOp(FloatRegisterType(f"fa{i}"))
            for i in range(n)
        ]

    def test_mul_add_fused(self):
        regs = self._fregs(3)
        mul = riscv.FMulDOp(regs[0].result, regs[1].result)
        add = riscv.FAddDOp(regs[2].result, mul.rd)
        module, fn = self._module_with(regs + [mul, add])
        FuseFMAddPass().run(module)
        kinds = [op.name for op in fn.entry_block.ops]
        assert "rv.fmadd.d" in kinds
        assert "rv.fmul.d" not in kinds

    def test_multi_use_product_not_fused(self):
        regs = self._fregs(3)
        mul = riscv.FMulDOp(regs[0].result, regs[1].result)
        add = riscv.FAddDOp(mul.rd, regs[2].result)
        extra = riscv.FAddDOp(mul.rd, mul.rd)
        module, fn = self._module_with(regs + [mul, add, extra])
        FuseFMAddPass().run(module)
        kinds = [op.name for op in fn.entry_block.ops]
        assert "rv.fmul.d" in kinds

    def test_single_precision_fused(self):
        regs = self._fregs(3)
        mul = riscv.FMulSOp(regs[0].result, regs[1].result)
        add = riscv.FAddSOp(mul.rd, regs[2].result)
        module, fn = self._module_with(regs + [mul, add])
        FuseFMAddPass().run(module)
        assert any(
            op.name == "rv.fmadd.s" for op in fn.entry_block.ops
        )


class TestEmittedStructure:
    """Assembly-level checks of what each pipeline produces."""

    def test_ours_matmul_asm_shape(self):
        module, _ = kernels.matmul(1, 200, 5)
        asm = compile_linalg(module, pipeline="ours").asm
        assert "frep.o" in asm
        assert "csrsi ssrcfg, 1" in asm
        assert "csrci ssrcfg, 1" in asm
        assert "scfgwi" in asm
        assert asm.count("fmadd.d") == 5  # interleaved by 5
        assert "fld" not in asm and "fsd" not in asm

    def test_ours_sum_single_instruction_loop(self):
        module, _ = kernels.sum_kernel(8, 8)
        asm = compile_linalg(module, pipeline="ours").asm
        # The whole kernel collapses to one streamed fadd under FREP.
        assert "frep.o" in asm
        assert asm.count("fadd.d") == 1
        assert "blt" not in asm  # no software loop at all

    def test_baseline_has_no_snitch_extensions(self):
        module, _ = kernels.matmul(1, 8, 4)
        asm = compile_linalg(module, pipeline="table3-baseline").asm
        assert "frep.o" not in asm
        assert "scfgwi" not in asm
        assert "fld" in asm and "fsd" in asm

    def test_streams_stage_keeps_explicit_output(self):
        module, _ = kernels.matmul(1, 8, 4)
        asm = compile_linalg(module, pipeline="table3-streams").asm
        assert "scfgwi" in asm
        assert "frep.o" not in asm
        assert "fld" in asm and "fsd" in asm  # output RMW

    def test_fuse_stage_eliminates_memory_ops(self):
        module, _ = kernels.matmul(1, 8, 4)
        asm = compile_linalg(module, pipeline="table3-fuse").asm
        assert "fld" not in asm and "fsd" not in asm

    def test_loops_flattened_to_labels(self):
        module, _ = kernels.matmul(4, 8, 4)
        asm = compile_linalg(module, pipeline="clang").asm
        assert "blt" in asm
        assert ".for_body" in asm
        assert "rv_scf" not in asm

    def test_conv_streaming_region_inside_hoisted_loop(self):
        """Conv's 5-d pattern forces per-row stream re-arming: the
        stream configuration sits *inside* the hoisted row loop."""
        module, _ = kernels.conv3x3(8, 20)
        asm = compile_linalg(module, pipeline="ours").asm
        # Two loops: the hoisted row loop (textually first) and the
        # group loop; the config belongs to the hoisted loop's body.
        outer_body = asm.split(".for_body", 2)[1]
        assert "scfgwi" in outer_body

    def test_repeat_optimization_emitted(self):
        """MatMul's A operand is served via the repetition counter: the
        simulated data mover 0 ends up configured with repeat = 5."""
        import numpy as np
        from repro.snitch import SnitchMachine, TCDM, assemble

        module, spec = kernels.matmul(1, 200, 5)
        compiled = compile_linalg(module, pipeline="ours")
        memory = TCDM()
        args = spec.random_arguments(seed=0)
        pointers = {}
        for i, array in enumerate(args):
            base = memory.allocate(array.nbytes)
            memory.write_array(base, array)
            pointers[f"a{i}"] = base
        machine = SnitchMachine(assemble(compiled.asm), memory)
        machine.run(compiled.entry, int_args=pointers)
        assert machine.movers[0].repeat == 4  # serves each a[k] 5 times
        # and the stream pattern collapsed to a single hardware dim
        assert machine.movers[0].dims == 1


class TestSnapshots:
    def test_progressive_lowering_recorded(self):
        module, _ = kernels.matvec(5, 20)
        compiled = compile_linalg(module, pipeline="ours", snapshots=True)
        names = [name for name, _ in compiled.snapshots]
        assert names[0] == "input"
        assert "convert-linalg-to-memref-stream" in names
        assert "unroll-and-jam" in names
        assert "allocate-registers" in names
        # the memref_stream level is visible mid-pipeline
        mid = dict(compiled.snapshots)["scalar-replacement"]
        assert "memref_stream.generic" in mid


#: Generic lowerer -> the named flow whose backend tail follows it.
_LOWERER_FLOWS = {
    "lower-to-snitch": "table3-frep",
    "lower-generic-to-pointer-loops": "clang",
    "lower-generic-to-loops": "table3-baseline",
}


class TestFusedFillNeedsScalarReplacement:
    """A fused fill constant only seeds a register accumulator: every
    generic lowerer rejects ``fuse-fill`` without ``scalar-replacement``
    instead of compiling a wrong answer (stale output memory on the
    streaming path, a re-seeded accumulator on the loop paths)."""

    KERNELS = [
        ("matmul", (4, 8, 8)),
        ("conv3x3", (4, 4)),
        ("max_pool3x3", (4, 4)),
        ("matvec", (8, 8)),
    ]

    @staticmethod
    def _spec(lowerer, scheduling):
        from repro.transforms.pipelines import NAMED_PIPELINES

        flow = NAMED_PIPELINES[_LOWERER_FLOWS[lowerer]]
        tail = flow.split(f"{lowerer},", 1)[1]
        return (
            f"convert-linalg-to-memref-stream,{scheduling},{lowerer},{tail}"
        )

    @pytest.mark.parametrize("lowerer", sorted(_LOWERER_FLOWS))
    @pytest.mark.parametrize("kernel,sizes", KERNELS)
    def test_fuse_fill_alone_is_rejected(self, lowerer, kernel, sizes):
        from repro.transforms.lowering_kit import LoweringError

        module, _ = kernels.KERNEL_BUILDERS[kernel][0](*sizes)
        with pytest.raises(LoweringError, match="scalar-replacement") as info:
            compile_linalg(module, self._spec(lowerer, "fuse-fill"))
        assert "memref_stream.generic" in str(info.value)

    @pytest.mark.parametrize("lowerer", sorted(_LOWERER_FLOWS))
    @pytest.mark.parametrize("kernel,sizes", KERNELS)
    def test_with_scalar_replacement_matches_numpy(
        self, lowerer, kernel, sizes
    ):
        """Outputs are pre-poisoned: ``random_arguments`` zeroes them,
        and a 0.0 fill would hide an ignored fused constant."""
        import numpy as np

        from repro.api import run_kernel
        from repro.kernels.builders import ArrayArg

        module, spec = kernels.KERNEL_BUILDERS[kernel][0](*sizes)
        compiled = compile_linalg(
            module, self._spec(lowerer, "fuse-fill,scalar-replacement")
        )
        arguments = spec.random_arguments(seed=1)
        for value, argument in zip(arguments, spec.arguments):
            if isinstance(argument, ArrayArg) and argument.role != "in":
                value.fill(7.0)
        inputs = [
            a.copy() if isinstance(a, np.ndarray) else a for a in arguments
        ]
        arrays = run_kernel(compiled, arguments).arrays
        for got, want in zip(arrays, spec.reference(*inputs)):
            if want is not None:
                np.testing.assert_allclose(got, want, rtol=1e-9)
