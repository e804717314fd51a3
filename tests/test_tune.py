"""Tests for the schedule-space autotuner (repro.tune)."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from repro import api, kernels
from repro.compiler import COMPILER_VERSION, Compiler
from repro.dialects import memref_stream
from repro.kernels import networks
from repro.snitch.engine import ENGINE_VERSION
from repro.snitch.machine import SnitchMachine
from repro.snitch.memory import TCDM
from repro.tools import kernel_tuner
from repro.transforms.pipelines import (
    build_pipeline,
    scheduled_pipeline_spec,
)
from repro.tune import (
    CompileFault,
    ScheduleConfig,
    ScheduleError,
    ScheduleSpace,
    TuneCache,
    TunedSchedule,
    VerifyFault,
    evaluate_config,
    load_schedules,
    save_schedules,
    schedule_table,
    tune_kernel,
)

DOCS = Path(__file__).resolve().parent.parent / "docs"


class TestScheduleConfig:
    def test_default(self):
        config = ScheduleConfig()
        assert config.unroll_factor is None
        module_a, _ = kernels.matmul(2, 4, 6)
        module_b, _ = kernels.matmul(2, 4, 6)
        default_asm = api.compile_linalg(module_a, pipeline="ours").asm
        tuned_asm = api.compile_linalg(
            module_b, pipeline=config.pipeline_spec()
        ).asm
        assert default_asm == tuned_asm

    def test_key_and_json_round_trip(self):
        config = ScheduleConfig(unroll_factor=4)
        assert config.key() == "factor=4"
        assert ScheduleConfig.from_json(config.to_json()) == config
        assert ScheduleConfig.from_json(
            ScheduleConfig().to_json()
        ) == ScheduleConfig()

    def test_spec_carries_options(self):
        spec = ScheduleConfig(unroll_factor=8).pipeline_spec()
        assert spec == scheduled_pipeline_spec(unroll_factor=8)
        assert "unroll-and-jam{factor=8}" in spec

    def test_scheduled_spec_default_matches_ours(self):
        """scheduled_pipeline_spec() with no choices == 'ours'."""
        module_a, _ = kernels.matmul(2, 4, 6)
        module_b, _ = kernels.matmul(2, 4, 6)
        ours = api.compile_linalg(module_a, pipeline="ours").asm
        scheduled = api.compile_linalg(
            module_b, pipeline=scheduled_pipeline_spec()
        ).asm
        assert ours == scheduled


class TestScheduleSpace:
    def test_matmul_space(self):
        space = ScheduleSpace.for_kernel("matmul", (4, 4, 12))
        configs = list(space.configs())
        assert configs[0] == ScheduleConfig()
        assert space.size() == len(configs) == 4
        # N=12 is unrolled: {auto (4), 2, 3, 6}.
        keys = {c.key() for c in configs}
        assert "factor=auto" in keys
        assert "factor=6" in keys

    def test_elementwise_has_no_unroll_axis(self):
        space = ScheduleSpace.for_kernel("relu", (4, 8))
        assert all(
            c.unroll_factor is None for c in space.configs()
        )

    def test_factor_axis_follows_the_unroll_dim(self):
        # matmul(6, 4, 8) unrolls N=8 (divisors 2, 4, 8; heuristic 4),
        # not M=6 (whose divisors would add 3 and 6).
        space = ScheduleSpace.for_kernel("matmul", (6, 4, 8))
        assert space.unroll_factors == (None, 2, 8)

    @pytest.mark.parametrize(
        "kernel, sizes",
        [
            ("matmul", (4, 4, 12)),
            ("matmul_t", (4, 8, 8)),
            ("matvec", (8, 16)),
            ("conv3x3", (8, 8)),
            ("max_pool3x3", (8, 8)),
            ("sum_pool3x3", (8, 8)),
        ],
    )
    def test_every_listed_factor_is_applied(self, kernel, sizes):
        """The space reads the unroll dim off the pass's own
        ``select_unroll_dim``: every factor it lists must interleave
        the kernel's reduction by exactly that factor, none may
        degrade to the un-unrolled kernel."""
        space = ScheduleSpace.for_kernel(kernel, sizes)
        assert len(space.unroll_factors) > 1
        for factor in space.unroll_factors[1:]:
            module, _ = space.builder(*space.sizes)
            build_pipeline(
                "convert-linalg-to-memref-stream,fuse-fill,"
                f"scalar-replacement,unroll-and-jam{{factor={factor}}}"
            ).run(module)
            (generic,) = [
                op
                for op in module.walk()
                if isinstance(op, memref_stream.GenericOp)
                and op.reduction_dims
            ]
            assert generic.interleave_factor == factor

    def test_empty_dims_have_only_the_default(self):
        """Every factor divides 0, but an empty dim has nothing to
        interleave: the space is the default alone."""
        space = ScheduleSpace.for_kernel("conv3x3", (0, 0))
        assert space.size() == 1
        assert [c.key() for c in space.configs()] == ["factor=auto"]

    def test_unknown_kernel(self):
        with pytest.raises(ScheduleError, match="unknown kernel"):
            ScheduleSpace.for_kernel("nope", (4, 4))

    def test_wrong_arity(self):
        with pytest.raises(ScheduleError, match="sizes"):
            ScheduleSpace.for_kernel("matmul", (4, 4))


class TestOracle:
    def test_default_config_matches_api(self):
        cycles, fault = evaluate_config(
            "matmul", (4, 8, 8), ScheduleConfig()
        )
        module, spec = kernels.matmul(4, 8, 8)
        compiled = api.compile_linalg(module, pipeline="ours")
        run = api.run_kernel(
            compiled, spec.random_arguments(seed=0)
        )
        assert fault is None and cycles == run.trace.cycles

    def test_mismatch_is_a_verify_fault(self, break_reference):
        break_reference("relu")
        cycles, fault = evaluate_config(
            "relu", (4, 8), ScheduleConfig()
        )
        assert cycles is None
        assert type(fault) is VerifyFault and fault.stage == "verify"
        assert fault.candidate == "factor=auto"
        assert "OracleMismatch: relu: argument 1" in fault.message
        assert evaluate_config(
            "relu", (4, 8), ScheduleConfig(), validate=False
        )[1] is None

    def test_build_error_is_a_compile_fault(self):
        cycles, fault = evaluate_config(
            "matmul", (-2, 3, 4), ScheduleConfig(unroll_factor=2)
        )
        assert cycles is None
        assert type(fault) is CompileFault and fault.stage == "compile"
        assert fault.candidate == "factor=2"
        assert "non-negative" in fault.message


class TestTuneKernel:
    def test_exhaustive_never_regresses(self):
        result = tune_kernel("matmul", (4, 4, 12))
        assert result.best.cycles <= result.default_cycles
        assert result.candidates_evaluated == 4
        assert any(o.config == ScheduleConfig() for o in result.candidates)

    def test_strict_improvement_exists(self):
        """conv3x3 8x8: factor 8 covers a whole output row, so its
        pattern fits the SSRs without the heuristic's hoisted row loop
        and beats factor 4 outright — the tuner's witness that the
        search can beat the paper heuristic."""
        result = tune_kernel("conv3x3", (8, 8))
        assert result.best.cycles < result.default_cycles
        assert result.best.config.unroll_factor == 8

    def test_every_config_measured_once_default_first(self):
        space = ScheduleSpace.for_kernel("matmul", (4, 4, 12))
        result = tune_kernel("matmul", (4, 4, 12), cache=TuneCache())
        assert [o.config for o in result.candidates] == list(
            space.configs()
        )
        assert result.candidates[0].config == ScheduleConfig()
        assert result.cache_misses == space.size()

    def test_unknown_strategy(self):
        with pytest.raises(ScheduleError, match="strategy"):
            tune_kernel("matmul", (4, 4, 4), strategy="magic")

    def test_parallel_workers_refused(self):
        with pytest.raises(ScheduleError, match="serially"):
            tune_kernel("matmul", (4, 4, 4), workers=2)
        assert tune_kernel("relu", (4, 8), workers=1).best.cycles > 0

    def test_tuned_winner_passes_differential(self):
        """Tuned asm runs identically on both engines and matches
        numpy — the tuner's oracle is the differential-tested one."""
        result = tune_kernel("matmul", (1, 16, 64))
        best = result.best
        module, spec = kernels.matmul(1, 16, 64)
        compiled = Compiler(best.pipeline_spec).compile(module)
        arguments = spec.random_arguments(seed=0)
        traces = []
        finals = []
        for reference in (False, True):
            memory = TCDM()
            int_args = {}
            placements = []
            for index, argument in enumerate(arguments):
                base = memory.allocate(argument.nbytes)
                memory.write_array(base, argument)
                int_args[f"a{index}"] = base
                placements.append((base, argument))
            machine = SnitchMachine(compiled.program, memory)
            runner = (
                machine.run_reference if reference else machine.run
            )
            traces.append(runner(compiled.entry, int_args=int_args))
            finals.append(
                [
                    memory.read_array(base, a.shape, a.dtype)
                    for base, a in placements
                ]
            )
        assert traces[0].cycles == traces[1].cycles == best.cycles
        for fast, ref in zip(finals[0], finals[1]):
            np.testing.assert_array_equal(fast, ref)
        expected = spec.reference(*arguments)
        np.testing.assert_allclose(
            finals[0][2], expected[2], atol=1e-8
        )


class TestCache:
    def test_second_run_is_all_hits(self, tmp_path):
        path = tmp_path / "cache.json"
        first = tune_kernel("matmul", (4, 4, 12), cache=path)
        assert first.cache_misses == 4 and first.cache_hits == 0
        second = tune_kernel("matmul", (4, 4, 12), cache=path)
        assert second.cache_hits == 4 and second.cache_misses == 0
        assert second.best.cycles == first.best.cycles

    def test_key_includes_engine_version(self, monkeypatch):
        key = TuneCache.key("matmul", (4, 4, 4), ScheduleConfig(), True)
        assert f"engine={ENGINE_VERSION}" in key
        monkeypatch.setattr("repro.snitch.engine.ENGINE_VERSION", 999)
        stale = TuneCache.key("matmul", (4, 4, 4), ScheduleConfig(), True)
        assert "engine=999" in stale and stale != key

    def test_validated_search_is_not_served_unchecked_cycles(
        self, tmp_path, break_reference
    ):
        """An unvalidated search's cycles must not answer a validated
        one: with the oracle broken, the validated rerun measures and
        faults instead of hitting."""
        path = tmp_path / "cache.json"
        tune_kernel("relu", (4, 8), cache=path, validate=False)
        break_reference("relu")
        with pytest.raises(ScheduleError, match="verify"):
            tune_kernel("relu", (4, 8), cache=path, validate=True)

    def test_unvalidated_search_is_not_served_verify_faults(
        self, tmp_path, break_reference
    ):
        path = tmp_path / "cache.json"
        break_reference("relu")
        with pytest.raises(ScheduleError, match="verify"):
            tune_kernel("relu", (4, 8), cache=path, validate=True)
        result = tune_kernel("relu", (4, 8), cache=path, validate=False)
        assert result.cache_misses == 1 and not result.faults

    def test_corrupt_file_is_quarantined(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            cache = TuneCache(path)
        assert len(cache) == 0
        # The corrupt bytes survive for inspection...
        corrupt = path.with_suffix(".json.corrupt")
        assert corrupt.read_text() == "{not json"
        result = tune_kernel("matmul", (4, 4, 12), cache=cache)
        assert result.cache_misses == 4
        # ...and a clean save replaced the store.
        assert json.loads(path.read_text())["schema"] == TuneCache.SCHEMA

    def test_in_memory_deduplicates_within_a_run(self):
        cache = TuneCache()
        tune_kernel("matmul", (4, 4, 12), cache=cache)
        result = tune_kernel("matmul", (4, 4, 12), cache=cache)
        assert result.cache_hits == 4

    def test_shared_cache_spans_kernels(self, tmp_path):
        """An open cache is saved after each search but stays usable,
        so one store serves several kernels."""
        path = tmp_path / "cache.json"
        cache = TuneCache(path)
        relu = tune_kernel("relu", (4, 8), cache=cache)
        matmul = tune_kernel("matmul", (4, 4, 12), cache=cache)
        on_disk = TuneCache(path)
        assert len(on_disk) == len(cache) == (
            relu.cache_misses + matmul.cache_misses
        )
        again = tune_kernel("relu", (4, 8), cache=on_disk)
        assert again.cache_misses == 0
        assert again.best.cycles == relu.best.cycles

    def test_failures_are_cached(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = TuneCache(path)
        key = TuneCache.key("matmul", (4, 4, 4), ScheduleConfig(), True)
        cache.put_failure(key, CompileFault(message="does not lower"))
        cache.save()
        reopened = TuneCache(path)
        hit, cycles, fault = reopened.lookup(key)
        assert hit and cycles is None
        # Schema 2 never stores a bare null: the failure is structured.
        assert fault == CompileFault(message="does not lower")
        assert None not in json.loads(path.read_text())["entries"].values()


class TestTunedSchedule:
    def test_json_round_trip(self, tmp_path):
        result = tune_kernel("matmul", (1, 16, 64))
        path = tmp_path / "schedules.json"
        save_schedules(path, [result.best])
        (loaded,) = load_schedules(path)
        assert loaded == result.best
        assert loaded.speedup >= 1.0

    def test_malformed_artifact(self, tmp_path):
        path = tmp_path / "schedules.json"
        path.write_text('{"schema": 1, "schedules": [{"kernel": "x"}]}')
        with pytest.raises(ScheduleError, match="malformed"):
            load_schedules(path)

    @pytest.mark.parametrize(
        "config",
        [
            # Spliced verbatim into the spec, this would add passes.
            {"unroll_factor": "2},dce,unroll-and-jam{factor=4"},
            {"unroll_factor": True},
            {"unroll_factor": 2.0},
            {"num_cores": 0},
            {"num_cores": "2"},
            # A record from before the interchange axis was removed:
            # loading it as the default schedule would be a lie.
            {"permutation": [1, 0, 2], "unroll_factor": None},
        ],
        ids=[
            "splice", "bool-factor", "float-factor", "zero-cores",
            "str-cores", "permuted",
        ],
    )
    def test_untrusted_config_is_refused(self, config, tmp_path):
        with pytest.raises(ScheduleError):
            ScheduleConfig.from_json(config)
        record = {
            "kernel": "matmul",
            "sizes": [4, 8, 8],
            "config": config,
            "pipeline_spec": scheduled_pipeline_spec(),
            "cycles": 600,
            "default_cycles": 600,
            "engine_version": ENGINE_VERSION,
            "compiler_version": COMPILER_VERSION,
        }
        with pytest.raises(ScheduleError, match="malformed"):
            TunedSchedule.from_json(record)
        path = tmp_path / "schedules.json"
        path.write_text(json.dumps({"schema": 1, "schedules": [record]}))
        with pytest.raises(ScheduleError, match="malformed"):
            load_schedules(path)

    def test_null_permutation_of_older_records_loads(self):
        """Older records always wrote these fields; at the values that
        meant "not used" they are harmless."""
        assert ScheduleConfig.from_json(
            {"permutation": None, "unroll_factor": 8, "num_cores": 1}
        ) == ScheduleConfig(unroll_factor=8)

    @pytest.mark.parametrize("field", ["engine_version", "compiler_version"])
    def test_record_without_versions_is_refused(self, field):
        """A record that does not say which engine and compiler
        measured its cycles cannot be stamped with today's."""
        record = TunedSchedule(
            kernel="relu",
            sizes=(4, 8),
            config=ScheduleConfig(),
            pipeline_spec=scheduled_pipeline_spec(),
            cycles=47,
            default_cycles=47,
        ).to_json()
        assert TunedSchedule.from_json(record).is_current()
        del record[field]
        with pytest.raises(
            ScheduleError, match="malformed TunedSchedule record"
        ):
            TunedSchedule.from_json(record)

    def test_networks_apply_tuned_schedules(self):
        """A tuned per-layer schedule drops whole-network cycles."""
        layers = [
            networks.LayerConfig("conv", kernels.conv3x3, (8, 8)),
            networks.LayerConfig("act", kernels.relu, (8, 8)),
        ]
        result = tune_kernel("conv3x3", (8, 8))
        table = schedule_table([result.best])
        assert ("conv3x3", (8, 8)) in table
        default_run = networks.run_network("mini", layers)
        tuned_run = networks.run_network(
            "mini", layers, schedules=table
        )
        assert (
            tuned_run.total_cycles < default_run.total_cycles
        )


class TestTunerCLI:
    def test_report_output(self, capsys, tmp_path):
        assert (
            kernel_tuner.main(
                [
                    "matmul", "4", "4", "12",
                    "--cache", str(tmp_path / "c.json"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "4 candidates" in out
        assert "winning spec:" in out

    def test_emit_spec_round_trips(self, capsys, tmp_path):
        assert (
            kernel_tuner.main(
                ["matmul", "1", "16", "64", "--emit-spec", "--no-cache"]
            )
            == 0
        )
        spec = capsys.readouterr().out.strip()
        module, kspec = kernels.matmul(1, 16, 64)
        compiled = api.compile_linalg(module, pipeline=spec)
        run = api.run_kernel(
            compiled, kspec.random_arguments(seed=0)
        )
        result = tune_kernel("matmul", (1, 16, 64))
        assert run.trace.cycles == result.best.cycles

    def test_save_artifact(self, capsys, tmp_path):
        artifact = tmp_path / "schedules.json"
        kernel_tuner.main(
            [
                "matmul", "4", "4", "4",
                "--no-cache", "--save", str(artifact),
            ]
        )
        (loaded,) = load_schedules(artifact)
        assert loaded.kernel == "matmul"
        # Saving again replaces (not duplicates) the entry.
        kernel_tuner.main(
            [
                "matmul", "4", "4", "4",
                "--no-cache", "--save", str(artifact),
            ]
        )
        assert len(load_schedules(artifact)) == 1

    def test_save_merges_with_existing_records(self, capsys, tmp_path):
        artifact = tmp_path / "schedules.json"
        for argv in (["relu", "4", "8"], ["matmul", "4", "4", "4"]):
            assert (
                kernel_tuner.main(
                    [*argv, "--no-cache", "--save", str(artifact)]
                )
                == 0
            )
        kernels_saved = sorted(s.kernel for s in load_schedules(artifact))
        assert kernels_saved == ["matmul", "relu"]

    def test_list_space(self, capsys):
        assert (
            kernel_tuner.main(["matmul", "4", "4", "12", "--list-space"])
            == 0
        )
        out = capsys.readouterr().out
        assert "4 legal configs" in out

    def test_save_keeps_an_unreadable_artifact(self, capsys, tmp_path):
        """A malformed record must not cost the file its good ones:
        the tuner refuses to rewrite what it could not read."""
        artifact = tmp_path / "schedules.json"
        kernel_tuner.main(
            ["relu", "4", "8", "--no-cache", "--save", str(artifact)]
        )
        payload = json.loads(artifact.read_text())
        payload["schedules"].append(
            dict(payload["schedules"][0], config={"tile": 4})
        )
        artifact.write_text(json.dumps(payload))
        before = artifact.read_bytes()
        code = kernel_tuner.main(
            ["matmul", "4", "4", "4", "--no-cache", "--save", str(artifact)]
        )
        assert code == 3
        assert "tuning failed" in capsys.readouterr().err
        assert artifact.read_bytes() == before

    def test_walkthrough_matches_the_cli(self, capsys):
        """docs/TUNING.md's console blocks are the CLI's exact output."""
        text = (DOCS / "TUNING.md").read_text()
        blocks = re.findall(r"```console\n(.*?)```", text, re.DOTALL)
        prompt = "$ PYTHONPATH=src python -m repro.tools.kernel_tuner "
        commands = []
        for block in blocks:
            command, *expected = block.splitlines()
            assert command.startswith(prompt), command
            argv = shlex.split(command[len(prompt):])
            commands.append(argv)
            assert kernel_tuner.main(argv) == 0
            assert capsys.readouterr().out.splitlines() == expected
        assert commands == [
            ["matmul", "4", "4", "12", "--list-space"],
            ["conv3x3", "8", "8", "--no-cache"],
        ]

    def test_help_lists_only_the_search_options(self, capsys):
        with pytest.raises(SystemExit):
            kernel_tuner.main(["--help"])
        out = capsys.readouterr().out
        for gone in (
            "--strategy", "--budget", "--workers", "--retries",
            "--cores", "--store",
        ):
            assert gone not in out


class TestTunedScheduleRecord:
    def test_engine_version_recorded(self):
        result = tune_kernel("matmul", (4, 4, 4))
        assert result.best.engine_version == ENGINE_VERSION
