"""The observability layer: metrics registry, span tracer, profiler.

Covers the :mod:`repro.obs` subsystem end to end:

* metrics — labeled counters/gauges/histograms, snapshot/delta,
  JSON + Prometheus text export, thread safety under contention;
* tracing — contextvars scoping (zero-cost when disabled), parent
  linkage, correlation IDs, cross-process absorb, Chrome trace-event
  export;
* profiler — the Table 1 cycle-attribution invariants (buckets
  partition the run exactly; FPU-arith agrees with the trace) and
  observer-effect freedom (profiled and traced runs stay bit-exact);
* the migrated counters: decode counts live in the registry only,
  ``REWRITE_STATS`` flushes into registry counters;
* ``ExecutionTrace`` JSON round-trip and multi-core merge.
"""

import json
import threading

import numpy as np
import pytest

from repro import api, kernels
from repro.ir.rewriter import REWRITE_STATS
from repro.obs.metrics import (
    METRICS,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profiler import BUCKETS, CycleProfiler
from repro.obs.tracing import (
    TraceRecorder,
    absorb,
    correlation,
    correlation_id,
    new_correlation_id,
    recording,
    span,
    tracing_enabled,
)
from repro.snitch import TCDM, assemble, decode
from repro.snitch.machine import SnitchMachine
from repro.snitch.trace import ExecutionTrace
from repro.transforms.pipelines import PIPELINE_NAMES


# -- metrics registry ---------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("jobs").inc(-1)

    def test_labels_separate_series(self):
        registry = MetricsRegistry()
        registry.counter("jobs", kind="compile").inc(2)
        registry.counter("jobs", kind="measure").inc(3)
        assert registry.counter("jobs", kind="compile").value == 2
        assert registry.counter("jobs", kind="measure").value == 3

    def test_same_name_same_labels_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a", x="1") is registry.counter(
            "a", x="1"
        )

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(TypeError):
            registry.gauge("thing")

    def test_gauge_set_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10.0)
        gauge.add(-3.0)
        assert gauge.value == 7.0

    def test_histogram_observe(self):
        histogram = Histogram("latency")
        for value in (0.002, 0.002, 5.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(5.004)
        assert snap["min"] == pytest.approx(0.002)
        assert snap["max"] == pytest.approx(5.0)

    def test_snapshot_and_delta(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc(2)
        before = registry.snapshot()
        registry.counter("jobs").inc(3)
        delta = registry.delta(before)
        assert delta["jobs"] == 3

    def test_to_json_shape(self):
        registry = MetricsRegistry()
        registry.counter("jobs", kind="a").inc()
        registry.gauge("depth").set(2)
        registry.histogram("lat").observe(0.5)
        doc = registry.to_json()
        assert set(doc) == {"counters", "gauges", "histograms"}
        assert doc["counters"]['jobs{kind="a"}'] == 1

    def test_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("jobs", kind="a").inc(2)
        registry.histogram("lat").observe(0.5)
        text = registry.to_prometheus()
        assert '# TYPE jobs counter' in text
        assert 'jobs{kind="a"} 2' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text

    def test_thread_safety_under_contention(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")

        def hammer():
            for _ in range(10_000):
                counter.inc()

        threads = [
            threading.Thread(target=hammer) for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 80_000

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc(5)
        registry.reset()
        assert registry.counter("jobs").value == 0


# -- legacy counter migration (satellite: thread-safety hole) ----------------


class TestMigratedCounters:
    def test_decode_stats_backed_by_registry(self):
        programs = METRICS.counter("engine_programs_decoded")
        instructions = METRICS.counter("engine_instructions_decoded")
        before = programs.value, instructions.value
        decode(assemble("main:\nli t0, 1\nret"))
        assert (programs.value, instructions.value) == (
            before[0] + 1, before[1] + 2,
        )

    def test_rewrite_stats_snapshot_delta(self):
        before = METRICS.snapshot()
        REWRITE_STATS.add(visited=2, invoked=1, applied=1)
        delta = METRICS.delta(before)
        assert delta["ir_rewrite_ops_visited"] == 2
        assert delta["ir_rewrite_pattern_invocations"] == 1
        assert delta["ir_rewrite_rewrites_applied"] == 1

    def test_rewrite_stats_concurrent_adds(self):
        before = METRICS.snapshot()

        def hammer():
            for _ in range(5_000):
                REWRITE_STATS.add(visited=1)

        threads = [
            threading.Thread(target=hammer) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert METRICS.delta(before)["ir_rewrite_ops_visited"] == 20_000


# -- span tracing -------------------------------------------------------------


class TestTracing:
    def test_disabled_by_default(self):
        assert not tracing_enabled()
        with span("noop.section") as handle:
            assert handle is None

    def test_recording_scopes_a_recorder(self):
        with recording() as recorder:
            assert tracing_enabled()
            with span("unit.work", detail=7):
                pass
        assert not tracing_enabled()
        events = recorder.events_json()
        assert len(events) == 1
        (event,) = events
        assert event["name"] == "unit.work"
        assert event["cat"] == "unit"
        assert event["ph"] == "X"
        assert event["args"]["detail"] == 7

    def test_parent_linkage(self):
        with recording() as recorder:
            with span("outer.op"):
                with span("inner.op"):
                    pass
        by_name = {
            event["name"]: event
            for event in recorder.events_json()
        }
        assert by_name["inner.op"]["args"]["parent"] == "outer.op"
        assert "parent" not in by_name["outer.op"]["args"]

    def test_correlation_id_rides_spans(self):
        cid = new_correlation_id()
        with recording() as recorder, correlation(cid):
            with span("unit.work"):
                pass
            assert correlation_id() == cid
        (event,) = recorder.events_json()
        assert event["args"]["correlation_id"] == cid

    def test_absorb_merges_foreign_events(self):
        foreign = [{"name": "far.away", "ph": "X", "args": {}}]
        absorb(foreign)  # disabled: no-op, no error
        with recording() as recorder:
            absorb(foreign)
        assert recorder.events_json() == foreign

    def test_fresh_thread_sees_no_recorder(self):
        seen = {}

        def probe():
            seen["enabled"] = tracing_enabled()

        with recording():
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen["enabled"] is False

    def test_chrome_trace_shape(self, tmp_path):
        with recording() as recorder:
            with span("unit.work"):
                pass
        doc = recorder.chrome_trace()
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        kinds = {event["ph"] for event in doc["traceEvents"]}
        assert kinds == {"M", "X"}
        path = recorder.save(tmp_path / "trace.json")
        reloaded = json.loads(path.read_text())
        assert reloaded["traceEvents"]

    def test_nested_recorders_innermost_wins(self):
        with recording() as outer:
            with recording() as inner:
                with span("unit.work"):
                    pass
            assert len(inner) == 1
            assert len(outer) == 0


# -- execution-trace round-trip + merge (satellite) --------------------------


class TestExecutionTraceSerde:
    def _run(self, sizes=(2, 4, 4)):
        module, spec = kernels.matmul(*sizes)
        compiled = api.compile_linalg(module, pipeline="ours")
        result = api.run_kernel(
            compiled, spec.random_arguments(seed=0)
        )
        return result.trace

    def test_round_trip_identity(self):
        trace = self._run()
        clone = ExecutionTrace.from_json(trace.to_json())
        assert clone == trace

    def test_json_is_plain_data(self):
        payload = self._run().to_json()
        json.dumps(payload)  # must be JSON-serializable as-is
        assert payload["cycles"] > 0

    def test_from_json_ignores_unknown_keys(self):
        payload = self._run().to_json()
        payload["from_the_future"] = 123
        clone = ExecutionTrace.from_json(payload)
        assert clone.cycles == payload["cycles"]

    def test_merge_cycles_maxed_counters_summed(self):
        first = ExecutionTrace()
        first.cycles = 100
        first.fpu_arith_cycles = 40
        first.fmadd = 10
        first.fpu_stall_cycles = 5
        first.histogram["fmadd.d"] = 4
        second = ExecutionTrace()
        second.cycles = 70
        second.fpu_arith_cycles = 30
        second.fmadd = 8
        second.fpu_stall_cycles = 9
        second.histogram["fmadd.d"] = 2
        second.histogram["fadd.d"] = 1
        merged = ExecutionTrace.merge([first, second])
        assert merged.cycles == 100  # critical path, not a sum
        assert merged.fpu_stall_cycles == 9  # also concurrent
        assert merged.fpu_arith_cycles == 70
        assert merged.fmadd == 18
        assert merged.histogram == {"fmadd.d": 6, "fadd.d": 1}


# -- cycle-attribution profiler ----------------------------------------------


def _profiled_run(kernel="matmul", sizes=(2, 4, 4), pipeline="ours"):
    builder, _ = kernels.KERNEL_BUILDERS[kernel]
    module, spec = builder(*sizes)
    compiled = api.compile_linalg(module, pipeline=pipeline)
    return api.run_kernel(
        compiled, spec.random_arguments(seed=0), profile=True
    )


def _machine_run(compiled, spec, profile, reference=False):
    """``run_kernel``'s set-up on a machine the test keeps: the
    timeline is recorded either way, the profiler attached on
    request, the engine chosen by ``reference``."""
    memory = TCDM()
    int_args, float_args = {}, {}
    for argument in spec.random_arguments(seed=0):
        if isinstance(argument, np.ndarray):
            base = memory.allocate(argument.nbytes)
            memory.write_array(base, argument)
            int_args[f"a{len(int_args)}"] = base
        else:
            float_args[f"fa{len(float_args)}"] = float(argument)
    machine = SnitchMachine(
        compiled.program, memory, record_timeline=True
    )
    profiler = CycleProfiler.attach(machine) if profile else None
    runner = machine.run_reference if reference else machine.run
    runner(compiled.entry, int_args=int_args, float_args=float_args)
    return machine, profiler and profiler.finalize(machine)


#: The nine Table 1 kernels at sizes that keep 81 cells under a second.
TABLE1_SMALL = (
    ("fill", (4, 4)),
    ("sum", (4, 4)),
    ("relu", (4, 4)),
    ("conv3x3", (6, 6)),
    ("max_pool3x3", (6, 6)),
    ("sum_pool3x3", (6, 6)),
    ("matmul", (2, 4, 4)),
    ("matmul_t", (2, 4, 4)),
    ("matvec", (4, 8)),
)


class TestCycleProfiler:
    @pytest.mark.parametrize("pipeline", sorted(PIPELINE_NAMES))
    @pytest.mark.parametrize("kernel,sizes", TABLE1_SMALL)
    def test_engine_profile_equals_reference_profile(
        self, kernel, sizes, pipeline
    ):
        builder, _ = kernels.KERNEL_BUILDERS[kernel]
        module, spec = builder(*sizes)
        compiled = api.compile_linalg(module, pipeline=pipeline)
        _, fast = _machine_run(compiled, spec, profile=True)
        _, oracle = _machine_run(
            compiled, spec, profile=True, reference=True
        )
        assert fast.to_json() == oracle.to_json()
        assert sum(fast.buckets.values()) == fast.cycles

    @pytest.mark.parametrize(
        "pipeline", ("ours", "table3-scalar", "table3-baseline")
    )
    def test_buckets_partition_the_run(self, pipeline):
        result = _profiled_run(pipeline=pipeline)
        profile = result.profile
        assert sum(profile.buckets.values()) == profile.cycles
        assert profile.idle == 0

    def test_fpu_arith_matches_trace(self):
        result = _profiled_run()
        assert (
            result.profile.buckets["fpu_arith"]
            == result.trace.fpu_arith_cycles
        )

    def test_regions_partition_the_run(self):
        profile = _profiled_run().profile
        region_total = sum(
            sum(buckets.values())
            for buckets in profile.regions.values()
        )
        assert region_total == profile.cycles

    def test_frep_body_dominates_ours(self):
        profile = _profiled_run(sizes=(4, 8, 8)).profile
        frep = sum(profile.regions["frep_body"].values())
        assert frep > 0
        assert profile.regions["frep_body"]["fpu_arith"] == frep

    def test_scalar_pipeline_shows_int_bottleneck(self):
        profile = _profiled_run(pipeline="table3-baseline").profile
        assert profile.buckets["int_core"] > profile.buckets[
            "fpu_arith"
        ]
        assert sum(profile.regions["frep_body"].values()) == 0

    def test_report_fields(self):
        profile = _profiled_run().profile
        doc = profile.to_json()
        assert set(doc["buckets"]) == set(BUCKETS)
        assert 0.0 <= doc["fpu_utilization"] <= 1.0
        assert doc["flops_per_cycle"] == pytest.approx(
            doc["flops"] / doc["cycles"]
        )
        assert "fpu utilization" in profile.summary()

    def test_attach_requires_timeline(self):
        module, _spec = kernels.matmul(2, 4, 4)
        compiled = api.compile_linalg(module, pipeline="ours")
        machine = SnitchMachine(compiled.program)
        with pytest.raises(ValueError):
            CycleProfiler.attach(machine)


# -- tuner span smuggling across the fork boundary ----------------------------


class TestTuneTracing:
    def test_worker_spans_reach_the_caller(self, tmp_path):
        from repro.tune.search import tune_kernel

        cid = new_correlation_id()
        with recording() as recorder, correlation(cid):
            result = tune_kernel(
                "relu", (4, 8), budget=2, workers=2,
                cache=tmp_path / "cache.json",
            )
        assert result.best.cycles > 0
        events = recorder.events_json()
        names = {event["name"] for event in events}
        assert {"tune.search", "tune.candidate", "sim.run"} <= names
        assert {
            event["args"].get("correlation_id") for event in events
        } == {cid}

    def test_serial_tuning_spans(self):
        from repro.tune.search import tune_kernel

        with recording() as recorder:
            tune_kernel("relu", (4, 8), budget=1)
        names = {
            event["name"] for event in recorder.events_json()
        }
        assert "tune.search" in names

    def test_untraced_tuning_unchanged(self):
        from repro.tune.search import tune_kernel

        plain = tune_kernel("sum", (4, 8), budget=2)
        with recording():
            traced = tune_kernel("sum", (4, 8), budget=2)
        assert traced.best.cycles == plain.best.cycles


# -- observer-effect freedom (satellite) -------------------------------------


class TestObserverEffectFreedom:
    """Instrumentation must never change what it observes."""

    @pytest.mark.parametrize(
        "kernel,sizes",
        (
            ("matmul", (2, 4, 4)),
            ("relu", (4, 8)),
            ("conv3x3", (6, 6)),
        ),
    )
    def test_profiled_run_is_bit_identical(self, kernel, sizes):
        builder, _ = kernels.KERNEL_BUILDERS[kernel]
        module, spec = builder(*sizes)
        compiled = api.compile_linalg(module, pipeline="ours")
        args = spec.random_arguments(seed=0)
        plain = api.run_kernel(compiled, list(args))
        profiled = api.run_kernel(
            compiled, list(args), profile=True
        )
        assert profiled.trace.cycles == plain.trace.cycles
        assert profiled.trace == plain.trace
        for got, want in zip(profiled.arrays, plain.arrays):
            np.testing.assert_array_equal(got, want)
        assert profiled.profile is not None
        assert plain.profile is None

    def test_profiled_engine_leaves_machine_untouched(self):
        """The profiler rides the fast engine: everything the machine
        exposes is the same with and without it."""
        module, spec = kernels.matmul(2, 4, 4)
        compiled = api.compile_linalg(module, pipeline="ours")
        plain, _ = _machine_run(compiled, spec, profile=False)
        profiled, _ = _machine_run(compiled, spec, profile=True)
        assert profiled.trace == plain.trace
        assert profiled.timeline == plain.timeline
        assert profiled.int_regs == plain.int_regs
        assert profiled.float_regs == plain.float_regs
        assert profiled.int_ready == plain.int_ready
        assert profiled.fp_ready == plain.fp_ready
        assert profiled.movers == plain.movers
        assert (profiled.int_time, profiled.fpu_time) == (
            plain.int_time, plain.fpu_time,
        )
        assert bytes(profiled.memory.data) == bytes(plain.memory.data)

    def test_traced_run_is_bit_identical(self):
        module, spec = kernels.matmul(2, 4, 4)
        compiled = api.compile_linalg(module, pipeline="ours")
        args = spec.random_arguments(seed=0)
        plain = api.run_kernel(compiled, list(args))
        with recording() as recorder:
            traced = api.run_kernel(compiled, list(args))
        assert traced.trace == plain.trace
        for got, want in zip(traced.arrays, plain.arrays):
            np.testing.assert_array_equal(got, want)
        assert any(
            event["name"] == "sim.run"
            for event in recorder.events_json()
        )
