"""Tests for the Compiler facade, named-pipeline specs and goldens.

The golden test hand-builds the legacy hardcoded pass lists (the
if/elif chain the registry redesign replaced) and checks that every
named pipeline still compiles the paper's Table 3 kernel to
byte-identical assembly through the new spec-driven path.
"""

import numpy as np
import pytest

from repro import api, kernels
from repro.compiler import CompiledKernel, Compiler
from repro.ir.pass_manager import (
    PassInstrumentation,
    PassManager,
    PrintIRInstrumentation,
)
from repro.ir.pipeline_spec import (
    PipelineSpecError,
    parse_pipeline_spec,
    print_pipeline_spec,
)
from repro.transforms.allocate_registers_pass import AllocateRegistersPass
from repro.transforms.canonicalize import (
    CanonicalizePass,
    EliminateIdentityMovesPass,
)
from repro.transforms.convert_linalg_to_memref_stream import (
    ConvertLinalgToMemrefStreamPass,
)
from repro.transforms.convert_to_riscv import ConvertToRISCVPass
from repro.transforms.dce import DeadCodeEliminationPass
from repro.transforms.fuse_fill import FuseFillPass
from repro.transforms.lower_generic_to_loops import LowerGenericToLoopsPass
from repro.transforms.lower_generic_to_pointer_loops import (
    LowerGenericToPointerLoopsPass,
)
from repro.transforms.lower_riscv_scf import LowerRiscvScfPass
from repro.transforms.lower_snitch_stream import LowerSnitchStreamPass
from repro.transforms.lower_to_snitch import LowerToSnitchPass
from repro.transforms.pipelines import (
    NAMED_PIPELINES,
    PIPELINE_NAMES,
    build_pipeline,
    expand_pipeline,
)
from repro.transforms.scalar_replacement import ScalarReplacementPass
from repro.transforms.unroll_and_jam import UnrollAndJamPass
from repro.transforms.verify_streams import VerifyStreamsPass


def _snitch_backend():
    return [
        VerifyStreamsPass(),
        LowerSnitchStreamPass(),
        CanonicalizePass(),
        DeadCodeEliminationPass(),
        AllocateRegistersPass(),
        LowerRiscvScfPass(),
        EliminateIdentityMovesPass(),
    ]


def _loops_backend():
    return [
        ConvertToRISCVPass(),
        DeadCodeEliminationPass(),
        AllocateRegistersPass(),
        LowerRiscvScfPass(),
        EliminateIdentityMovesPass(),
    ]


def _pointer_backend():
    return [
        DeadCodeEliminationPass(),
        AllocateRegistersPass(),
        LowerRiscvScfPass(),
        EliminateIdentityMovesPass(),
    ]


def legacy_passes(name):
    """The pre-registry hardcoded pipelines, verbatim."""
    front = [ConvertLinalgToMemrefStreamPass()]
    if name in ("ours", "table3-unroll"):
        return front + [
            FuseFillPass(),
            ScalarReplacementPass(),
            UnrollAndJamPass(None),
            LowerToSnitchPass(use_frep=True),
            *_snitch_backend(),
        ]
    if name == "table3-baseline":
        return front + [LowerGenericToLoopsPass(), *_loops_backend()]
    if name == "clang":
        return front + [
            LowerGenericToPointerLoopsPass(),
            *_pointer_backend(),
        ]
    if name == "table3-streams":
        return front + [
            LowerToSnitchPass(use_frep=False),
            *_snitch_backend(),
        ]
    if name == "table3-scalar":
        return front + [
            ScalarReplacementPass(),
            LowerToSnitchPass(use_frep=False),
            *_snitch_backend(),
        ]
    if name == "table3-frep":
        return front + [
            ScalarReplacementPass(),
            LowerToSnitchPass(use_frep=True),
            *_snitch_backend(),
        ]
    if name == "table3-fuse":
        return front + [
            FuseFillPass(),
            ScalarReplacementPass(),
            LowerToSnitchPass(use_frep=True),
            *_snitch_backend(),
        ]
    if name == "mlir":
        return front + [
            ScalarReplacementPass(),
            LowerGenericToPointerLoopsPass(),
            *_pointer_backend(),
        ]
    raise AssertionError(name)


class TestGoldenEquivalence:
    @pytest.mark.parametrize("name", PIPELINE_NAMES)
    def test_named_pipeline_matches_legacy_asm(self, name):
        """Acceptance: byte-identical matmul(1, 200, 5) assembly."""
        module, _ = kernels.matmul(1, 200, 5)
        legacy = PassManager(legacy_passes(name))
        legacy.run(module)
        from repro.backend.asm_emitter import emit_module

        legacy_asm = emit_module(module)

        module, _ = kernels.matmul(1, 200, 5)
        new_asm = Compiler(name).compile(module).asm
        assert new_asm == legacy_asm

    def test_lowlevel_pipeline_matches_legacy_tail(self):
        """compile_lowlevel's inline pass list became "lowlevel"."""
        from repro.kernels import lowlevel

        module, spec = lowlevel.lowlevel_sum_f32(2, 4)
        legacy = PassManager(
            [
                LowerSnitchStreamPass(),
                CanonicalizePass(),
                DeadCodeEliminationPass(),
                AllocateRegistersPass(),
                LowerRiscvScfPass(),
                EliminateIdentityMovesPass(),
            ]
        )
        legacy.run(module)
        from repro.backend.asm_emitter import emit_module

        legacy_asm = emit_module(module)

        module, spec = lowlevel.lowlevel_sum_f32(2, 4)
        compiled = api.compile_lowlevel(module, spec.name)
        assert compiled.asm == legacy_asm


class TestNamedPipelineSpecs:
    @pytest.mark.parametrize("name", sorted(NAMED_PIPELINES))
    def test_spec_round_trips(self, name):
        """Acceptance: parse(pm.pipeline_spec) round-trips for every
        named pipeline (this is the tier-1 registry regression gate)."""
        manager = build_pipeline(name)
        specs = parse_pipeline_spec(manager.pipeline_spec)
        assert print_pipeline_spec(specs) == manager.pipeline_spec
        rebuilt = build_pipeline(manager.pipeline_spec)
        assert rebuilt.pipeline_spec == manager.pipeline_spec

    @pytest.mark.parametrize("name", sorted(NAMED_PIPELINES))
    def test_declared_spec_is_canonical(self, name):
        manager = build_pipeline(name)
        assert manager.pipeline_spec == NAMED_PIPELINES[name]

    def test_expand_pipeline_passthrough(self):
        assert expand_pipeline("ours") == NAMED_PIPELINES["ours"]
        assert expand_pipeline("dce,canonicalize") == "dce,canonicalize"

    def test_expand_pipeline_unknown_name(self):
        with pytest.raises(PipelineSpecError, match="unknown pipeline"):
            expand_pipeline("llvm")

    def test_unroll_factor_override(self):
        manager = build_pipeline("ours", unroll_factor=2)
        assert "unroll-and-jam{factor=2}" in manager.pipeline_spec


class TestCompilerFacade:
    def test_default_pipeline_is_ours(self):
        module, _ = kernels.sum_kernel(4, 4)
        compiled = Compiler().compile(module)
        assert isinstance(compiled, CompiledKernel)
        assert compiled.entry == "sum"
        assert "frep.o" in compiled.asm

    def test_accepts_raw_spec_string(self):
        module, _ = kernels.sum_kernel(4, 4)
        spec = NAMED_PIPELINES["table3-streams"]
        compiled = Compiler(spec).compile(module)
        assert ".globl sum" in compiled.asm
        assert "frep.o" not in compiled.asm  # use-frep=false honoured

    def test_accepts_pass_manager(self):
        module, _ = kernels.sum_kernel(4, 4)
        manager = build_pipeline("ours")
        compiled = Compiler(manager).compile(module)
        assert compiled.entry == "sum"

    def test_accepts_pass_sequence(self):
        module, _ = kernels.sum_kernel(4, 4)
        passes = [
            ConvertLinalgToMemrefStreamPass(),
            LowerToSnitchPass(),
            *_snitch_backend(),
        ]
        compiled = Compiler(passes).compile(module)
        assert compiled.entry == "sum"

    def test_bad_pipeline_fails_at_construction(self):
        with pytest.raises(PipelineSpecError):
            Compiler("not-a-pipeline")
        with pytest.raises(PipelineSpecError):
            Compiler("dce{oops=1}")

    def test_pipeline_spec_property(self):
        assert Compiler("ours").pipeline_spec == NAMED_PIPELINES["ours"]

    def test_flow_that_never_reaches_rv_raises_lowering_error(self):
        """A spec that stops short of the rv dialects is a lowering
        failure like any other: ``except IRError`` catches it."""
        from repro.ir import IRError
        from repro.transforms.lowering_kit import LoweringError

        assert issubclass(LoweringError, IRError)
        module, _ = kernels.sum_kernel(4, 4)
        spec = (
            "convert-linalg-to-memref-stream,lower-generic-to-loops,"
            "dce,allocate-registers,lower-riscv-scf,"
            "eliminate-identity-moves"
        )
        with pytest.raises(LoweringError, match="produced no rv_func.func"):
            Compiler(spec).compile(module)

    def test_unroll_factor(self):
        module, _ = kernels.matmul(1, 40, 8)
        compiled = Compiler("ours", unroll_factor=2).compile(module)
        # Two accumulators: the peeled first step, then the FREP body.
        assert compiled.asm.count("fmadd.d") == 4

    def test_explicit_entry(self):
        from repro.kernels import lowlevel

        module, spec = lowlevel.lowlevel_sum_f32(2, 4)
        compiled = Compiler("lowlevel", verify_input=False).compile(
            module, entry=spec.name
        )
        assert compiled.entry == spec.name

    def test_snapshots_and_timings_recorded(self):
        module, _ = kernels.sum_kernel(4, 4)
        compiled = Compiler("ours", snapshots=True).compile(module)
        assert compiled.snapshots[0][0] == "input"
        names = [name for name, _ in compiled.pass_timings]
        assert names == [
            spec.name
            for spec in parse_pipeline_spec(NAMED_PIPELINES["ours"])
        ]
        assert all(seconds >= 0 for _, seconds in compiled.pass_timings)

    def test_timings_fresh_per_compile(self):
        compiler = Compiler("ours")
        for _ in range(2):
            module, _ = kernels.sum_kernel(4, 4)
            compiled = compiler.compile(module)
            assert len(compiled.pass_timings) == len(
                parse_pipeline_spec(NAMED_PIPELINES["ours"])
            )

    def test_instrumentation_hooks_fire_in_order(self):
        events = []

        class Recorder(PassInstrumentation):
            def before_pass(self, pass_, module):
                events.append(("before", pass_.name))

            def after_pass(self, pass_, module, elapsed):
                events.append(("after", pass_.name))
                assert elapsed >= 0

        module, _ = kernels.sum_kernel(4, 4)
        Compiler("ours", instrument=Recorder()).compile(module)
        expected_names = [
            spec.name
            for spec in parse_pipeline_spec(NAMED_PIPELINES["ours"])
        ]
        assert events == [
            (phase, name)
            for name in expected_names
            for phase in ("before", "after")
        ]

    def test_print_ir_instrumentation(self, capsys):
        module, _ = kernels.sum_kernel(4, 4)
        Compiler(
            "ours", instrument=PrintIRInstrumentation()
        ).compile(module)
        out = capsys.readouterr().out
        assert "// -----// IR after dce //----- //" in out

    def test_verify_each_off_still_compiles(self):
        module, _ = kernels.sum_kernel(4, 4)
        compiled = Compiler("ours", verify_each=False).compile(module)
        assert compiled.entry == "sum"

    def test_compiled_kernel_runs(self):
        module, spec = kernels.sum_kernel(4, 4)
        compiled = Compiler(
            NAMED_PIPELINES["table3-frep"]
        ).compile(module)
        arguments = spec.random_arguments(seed=3)
        result = api.run_kernel(compiled, arguments)
        expected = spec.reference(*arguments)
        for got, want in zip(result.arrays, expected):
            if want is not None:
                np.testing.assert_allclose(got, want, atol=1e-9)
