"""Tests for the pass registry: auto-registration, options, build."""

import functools

import pytest

from repro.compiler import Compiler
from repro.ir import op_registry
from repro.ir.pass_manager import ModulePass, PassInstrumentation
from repro.ir.pipeline_spec import (
    PassSpec,
    PipelineSpecError,
    parse_pipeline_spec,
)
from repro.kernels.builders import KERNEL_BUILDERS
from repro.transforms.pipelines import NAMED_PIPELINES, PIPELINE_NAMES
from repro.transforms.registry import PASS_REGISTRY, PassRegistry


#: Every pass the transforms package ships, by canonical name.
EXPECTED_PASSES = {
    "allocate-registers",
    "canonicalize",
    "convert-linalg-to-memref-stream",
    "convert-to-riscv",
    "dce",
    "eliminate-identity-moves",
    "fuse-fill",
    "lower-generic-to-loops",
    "lower-generic-to-pointer-loops",
    "lower-riscv-scf",
    "lower-snitch-stream",
    "lower-to-snitch",
    "scalar-replacement",
    "unroll-and-jam",
    "verify-streams",
}

#: The dialects the linalg-level flows lower through, above the ISA.
LOWERING_LEVELS = ("linalg", "memref_stream", "snitch_stream", "rv_scf")

#: One small shape per Table 1 kernel.
TABLE1_SHAPES = {
    "fill": (2, 4),
    "sum": (2, 4),
    "relu": (2, 4),
    "conv3x3": (4, 4),
    "max_pool3x3": (4, 4),
    "sum_pool3x3": (4, 4),
    "matmul": (2, 4, 4),
    "matmul_t": (2, 4, 4),
    "matvec": (4, 4),
}


def _level_op_names() -> list[str]:
    op_registry.populate()
    return sorted(
        op.name
        for dialect in LOWERING_LEVELS
        for op in op_registry.get_dialect(dialect).ops
    )


@functools.cache
def _ops_seen_in_named_pipelines() -> frozenset[str]:
    """Every op name in the IR after any pass of any named pipeline,
    over one shape per Table 1 kernel."""

    class SeenOps(PassInstrumentation):
        def __init__(self):
            self.names: set[str] = set()

        def after_pass(self, pass_, module, elapsed):
            self.names.update(op.name for op in module.walk())

    seen = SeenOps()
    for kernel, (builder, _) in KERNEL_BUILDERS.items():
        for pipeline in PIPELINE_NAMES:
            module, _ = builder(*TABLE1_SHAPES[kernel])
            # The input counts too: no pass leaves linalg behind.
            seen.names.update(op.name for op in module.walk())
            Compiler(pipeline, instrument=seen).compile(module)
    return frozenset(seen.names)


class TestAutoRegistration:
    def test_every_transform_pass_registered(self):
        assert EXPECTED_PASSES <= set(PASS_REGISTRY.names())

    def test_every_registered_pass_runs_in_a_named_pipeline(self):
        """A pass no named pipeline runs is reachable only from raw
        specs: it earns its place in one, or leaves."""
        used = {
            spec.name
            for pipeline in NAMED_PIPELINES.values()
            for spec in parse_pipeline_spec(pipeline)
        }
        assert set(PASS_REGISTRY.names()) - used == set()

    @pytest.mark.parametrize("op_name", _level_op_names())
    def test_every_level_op_appears_in_a_named_pipeline(self, op_name):
        """An op of a lowering level that no named pipeline's IR ever
        holds is reachable only from tests: it earns a producer and a
        consumer, or leaves."""
        assert op_name in _ops_seen_in_named_pipelines()

    def test_no_unnamed_pass_registered(self):
        assert "unnamed-pass" not in PASS_REGISTRY

    def test_all_names_canonical_kebab_case(self):
        import re

        for name in PASS_REGISTRY.names():
            assert re.fullmatch(r"[a-z][a-z0-9]*(-[a-z0-9]+)*", name), (
                f"{name!r} is not kebab-case"
            )

    def test_repro_package_subclass_auto_registers(self):
        # Simulate a pass defined inside the package: auto-registration
        # is keyed on the class's module.
        cls = type(
            "ProbeRegistrationPass",
            (ModulePass,),
            {
                "__module__": "repro.transforms.probe",
                "__doc__": "Probe.",
                "name": "probe-registration",
                "run": lambda self, module: None,
            },
        )
        try:
            assert "probe-registration" in PASS_REGISTRY
            assert PASS_REGISTRY.get("probe-registration").cls is cls
        finally:
            PASS_REGISTRY._entries.pop("probe-registration")

    def test_outside_package_subclass_not_auto_registered(self):
        class ExternalPass(ModulePass):
            """External passes must opt in via register_pass."""

            name = "external-probe"

            def run(self, module):
                pass

        assert "external-probe" not in PASS_REGISTRY

    def test_duplicate_name_rejected_at_class_definition(self):
        with pytest.raises(ValueError, match="duplicate pass name"):
            type(
                "ImpostorDcePass",
                (ModulePass,),
                {
                    "__module__": "repro.transforms.impostor",
                    "name": "dce",
                    "run": lambda self, module: None,
                },
            )

    def test_explicit_register_duplicate_rejected(self):
        class ImpostorDcePass(ModulePass):
            name = "dce"

            def run(self, module):
                pass

        with pytest.raises(ValueError, match="duplicate pass name"):
            PASS_REGISTRY.register(ImpostorDcePass)

    def test_nameless_subclass_skipped(self):
        cls = type(
            "Helper",
            (ModulePass,),
            {"__module__": "repro.transforms.helper"},
        )  # inherits "unnamed-pass"; must not register
        assert cls.name == "unnamed-pass"
        assert "unnamed-pass" not in PASS_REGISTRY

    def test_non_kebab_name_rejected(self):
        registry = PassRegistry()

        class BadName(ModulePass):
            name = "camelCase"

            def run(self, module):
                pass

        with pytest.raises(ValueError, match="kebab-case"):
            registry.register(BadName)

    def test_explicit_register_requires_name(self):
        registry = PassRegistry()
        with pytest.raises(ValueError, match="no canonical 'name'"):
            registry.register(type(ModulePass)("Anon", (), {}))


class TestOptionIntrospection:
    def test_unroll_factor_is_int(self):
        factor, dim = PASS_REGISTRY.get("unroll-and-jam").options
        assert factor.name == "factor"
        assert factor.py_name == "factor"
        assert factor.type is int
        assert factor.default is None
        assert not factor.required
        assert dim.name == "dim"
        assert dim.type is int
        assert dim.default is None

    def test_use_frep_is_bool(self):
        (option,) = PASS_REGISTRY.get("lower-to-snitch").options
        assert option.name == "use-frep"
        assert option.type is bool
        assert option.default is True

    def test_optionless_pass(self):
        assert PASS_REGISTRY.get("dce").options == ()

    def test_summary_from_docstring(self):
        assert "latency" in PASS_REGISTRY.get("unroll-and-jam").summary


class TestBuild:
    def test_build_default(self):
        pass_ = PASS_REGISTRY.build(PassSpec("unroll-and-jam"))
        assert pass_.factor is None

    def test_build_with_int_option(self):
        pass_ = PASS_REGISTRY.build(
            PassSpec("unroll-and-jam", {"factor": 4})
        )
        assert pass_.factor == 4

    def test_build_with_bool_option(self):
        pass_ = PASS_REGISTRY.build(
            PassSpec("lower-to-snitch", {"use-frep": False})
        )
        assert pass_.use_frep is False

    def test_int_coerced_from_string(self):
        pass_ = PASS_REGISTRY.build(
            PassSpec("unroll-and-jam", {"factor": "8"})
        )
        assert pass_.factor == 8

    def test_unknown_pass_suggests_and_lists(self):
        with pytest.raises(PipelineSpecError) as info:
            PASS_REGISTRY.build(PassSpec("unroll-and-jamm"))
        message = str(info.value)
        assert "unknown pass 'unroll-and-jamm'" in message
        assert "did you mean unroll-and-jam" in message
        assert "registered passes:" in message

    def test_unknown_option_lists_valid_ones(self):
        with pytest.raises(PipelineSpecError) as info:
            PASS_REGISTRY.build(
                PassSpec("unroll-and-jam", {"factorr": 4})
            )
        message = str(info.value)
        assert "unknown option 'factorr' for pass 'unroll-and-jam'" in (
            message
        )
        assert "valid options: factor" in message

    def test_option_on_optionless_pass(self):
        with pytest.raises(PipelineSpecError, match="takes no options"):
            PASS_REGISTRY.build(PassSpec("dce", {"x": 1}))

    def test_bool_option_type_mismatch(self):
        with pytest.raises(
            PipelineSpecError,
            match="expects a bool .* got 1",
        ):
            PASS_REGISTRY.build(
                PassSpec("lower-to-snitch", {"use-frep": 1})
            )

    def test_int_option_type_mismatch(self):
        with pytest.raises(
            PipelineSpecError, match="expects an int, got 'many'"
        ):
            PASS_REGISTRY.build(
                PassSpec("unroll-and-jam", {"factor": "many"})
            )

    def test_errors_are_value_errors(self):
        with pytest.raises(ValueError):
            PASS_REGISTRY.build(PassSpec("nope"))
