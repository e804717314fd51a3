"""Tests for the lowering passes: snitch emission, stream config,
loop flattening, FMA contraction."""

import re

import numpy as np
import pytest

from repro import kernels
from repro.api import compile_linalg, run_kernel
from repro.dialects import arith
from repro.dialects.snitch_stream import StridePattern
from repro.ir import IRError
from repro.ir.attributes import f64
from repro.ir.core import Block
from repro.kernels.builders import _pool
from repro.transforms.lower_snitch_stream import hardware_pattern
from repro.transforms.lowering_kit import LoweringError, plan_contraction


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


class TestPlanContraction:
    """FMA contraction is planned on the arith body before emission
    (``plan_contraction``), the way ``fuse-fmadd`` once rewrote the
    emitted ``fmul``/``fadd`` pairs."""

    def _block(self):
        return Block([f64, f64, f64])

    def test_single_use_product_contracts(self):
        block = self._block()
        a, b, c = block.args
        mul = arith.MulfOp(a, b)
        add = arith.AddfOp(c, mul.result)
        block.add_ops([mul, add])
        assert plan_contraction(block.ops) == {
            id(add): (a, b, c),
            id(mul): None,
        }

    def test_multi_use_product_not_contracted(self):
        block = self._block()
        a, b, c = block.args
        mul = arith.MulfOp(a, b)
        add = arith.AddfOp(mul.result, c)
        extra = arith.AddfOp(mul.result, mul.result)
        block.add_ops([mul, add, extra])
        assert plan_contraction(block.ops) == {}

    def test_product_from_another_block_not_contracted(self):
        outer, inner = self._block(), self._block()
        mul = arith.MulfOp(outer.args[0], outer.args[1])
        outer.add_op(mul)
        add = arith.AddfOp(inner.args[0], mul.result)
        inner.add_op(add)
        assert plan_contraction([*outer.ops, *inner.ops]) == {}

    def test_lhs_product_tried_before_rhs(self):
        block = self._block()
        a, b, c = block.args
        left = arith.MulfOp(a, b)
        right = arith.MulfOp(b, c)
        add = arith.AddfOp(left.result, right.result)
        block.add_ops([left, right, add])
        assert plan_contraction(block.ops) == {
            id(add): (a, b, right.result),
            id(left): None,
        }

    @pytest.mark.parametrize(
        "pipeline", ["ours", "table3-baseline", "clang", "table3-streams"]
    )
    def test_every_rv_producing_lowering_contracts(self, pipeline):
        """lower-to-snitch, convert-to-riscv and
        lower-generic-to-pointer-loops all emit fmadd.d and no
        separate fmul.d/fadd.d for matmul's multiply-add."""
        module, _ = kernels.matmul(2, 3, 4)
        asm = compile_linalg(module, pipeline=pipeline).asm
        assert "fmadd.d" in asm
        assert "fmul.d" not in asm and "fadd.d" not in asm


class TestFloatConstants:
    """``fcvt.d.w`` converts a 32-bit integer register, so no other
    float constant can be materialised: it is a ``LoweringError`` that
    names the value, never a raw ``OverflowError``/``ValueError`` or an
    ``li`` RV32 cannot encode."""

    @staticmethod
    def _pool(init: float):
        module, _ = _pool(
            "max_pool3x3", 2, 2, arith.MaximumfOp, init, lambda *_: None
        )
        return module

    @pytest.mark.parametrize("pipeline", ["ours", "clang"])
    @pytest.mark.parametrize(
        "value",
        [float("inf"), float("-inf"), float("nan"), 3e9, -(2.0**31) - 1, 0.5],
    )
    def test_unrepresentable_constant_rejected(self, pipeline, value):
        with pytest.raises(
            LoweringError, match=re.escape(f"float constant {value} ")
        ):
            compile_linalg(self._pool(value), pipeline=pipeline)

    @pytest.mark.parametrize("pipeline", ["ours", "clang"])
    @pytest.mark.parametrize("value", [-(2.0**31), 2.0**31 - 1])
    def test_int32_extremes_materialise_exactly(self, pipeline, value):
        compiled = compile_linalg(self._pool(value), pipeline=pipeline)
        image = np.zeros((4, 4))
        out = run_kernel(compiled, [image, np.ones((2, 2))]).arrays[1]
        assert np.array_equal(out, np.full((2, 2), max(value, 0.0)))


class TestEmittedStructure:
    """Assembly-level checks of what each pipeline produces."""

    def test_ours_matmul_asm_shape(self):
        module, _ = kernels.matmul(1, 200, 5)
        asm = compile_linalg(module, pipeline="ours").asm
        assert "frep.o" in asm
        assert "csrsi ssrcfg, 1" in asm
        assert "csrci ssrcfg, 1" in asm
        assert "scfgwi" in asm
        # Interleaved by 5: the peeled first step, then the FREP body.
        assert asm.count("fmadd.d") == 10
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
        """Every clang loop has a constant trip count and an unused
        induction variable (pointers walk instead): each becomes a
        guard-free down-counter closed by ``bnez``."""
        module, _ = kernels.matmul(4, 8, 4)
        asm = compile_linalg(module, pipeline="clang").asm
        bodies = [
            line for line in asm.splitlines() if line.startswith(".for_body")
        ]
        assert len(bodies) == asm.count("bnez") == 3
        assert "blt" not in asm and "bge" not in asm
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
