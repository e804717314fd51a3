"""The observability layer: span tracer, profiler, bytecode counter.

Covers the :mod:`repro.obs` subsystem end to end:

* tracing — contextvars scoping (zero-cost when disabled), parent
  linkage, correlation IDs, cross-process absorb, Chrome trace-event
  export;
* profiler — the Table 1 cycle-attribution invariants (buckets
  partition the run exactly; FPU-arith agrees with the trace) and
  observer-effect freedom (profiled and traced runs stay bit-exact);
* host bytecode attribution: the parts partition the total;
* ``ExecutionTrace`` JSON round-trip and multi-core merge.
"""

import gc
import json
import sys
import threading

import numpy as np
import pytest

from repro import api, kernels
from repro.obs.profiler import (
    BUCKETS,
    REGIONS,
    CycleProfile,
    CycleProfiler,
)
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
from repro.snitch import TCDM
from repro.snitch.isa import ISA, Inst
from repro.snitch.machine import SnitchMachine
from repro.snitch.trace import ExecutionTrace
from repro.transforms.pipelines import PIPELINE_NAMES


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

    def test_every_pass_opens_a_span(self):
        """A compile's pass spans name the passes ``pass_timings``
        times, in order: the span is the other record of pass time."""
        module, _ = kernels.matmul(1, 4, 4)
        with recording() as recorder:
            compiled = api.compile_linalg(module, pipeline="ours")
        spans = [
            event["name"][len("pass."):]
            for event in recorder.events_json()
            if event["name"].startswith("pass.")
        ]
        assert spans == [name for name, _ in compiled.pass_timings]
        assert spans

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


#: The same nine kernels at the cycle-ledger sizes
#: (``benchmarks/bench_fpu_util.py``), and matmul once more at the
#: profile_sweep workload's 1-row FREP GEMM shape.
TABLE1_LEDGER = (
    ("fill", (8, 16)),
    ("sum", (8, 16)),
    ("relu", (8, 16)),
    ("conv3x3", (8, 8)),
    ("max_pool3x3", (8, 8)),
    ("sum_pool3x3", (8, 8)),
    ("matmul", (4, 8, 8)),
    ("matmul_t", (4, 8, 8)),
    ("matvec", (8, 16)),
    ("matmul", (1, 48, 48)),
)

#: Paint order of the oracle (ascending priority: later overwrites
#: earlier) — the bucket priority the closed form encodes.
PAINT_ORDER = (
    "fpu_stall",
    "int_core",
    "ssr_wait",
    "branch_bubble",
    "fpu_nonarith",
    "fpu_arith",
)


def _painted_profile(claims, windows, timeline, int_time, fpu_time):
    """The per-cycle painting attribution the closed form replaced —
    the oracle: every claim from both timelines painted onto one
    ``bytearray(cycles)`` in priority order, then counted (``flops``
    is left 0)."""
    total = max(int_time, fpu_time)

    # (region, bucket) -> small int code; 0 is "no claim".
    codes: dict = {}
    painted: list = []

    def claim(start, end, region, bucket):
        start, end = max(0, start), min(end, total)
        if start >= end:
            return
        code = codes.setdefault((region, bucket), len(codes) + 1)
        painted.append((start, end, code))

    for start, end, bucket in claims:
        claim(start, end, "scalar", bucket)
    windows = iter(windows)
    window = next(windows, None)
    prev_end = 0
    for index, (issue, unit, text) in enumerate(timeline):
        if unit != "fpu":
            continue
        while window is not None and index >= window[1]:
            window = next(windows, None)
        in_frep = window is not None and window[0] <= index < window[1]
        region = "frep_body" if in_frep else "scalar"
        if issue > prev_end:
            claim(prev_end, issue, region, "fpu_stall")
        op = text.split(None, 1)[0]
        bucket = "fpu_arith" if ISA[op].flops else "fpu_nonarith"
        claim(issue, issue + 1, region, bucket)
        prev_end = issue + 1

    rank = {bucket: index for index, bucket in enumerate(PAINT_ORDER)}
    rank_of = {code: rank[bucket] for (_, bucket), code in codes.items()}
    array = bytearray(total)
    for start, end, code in sorted(painted, key=lambda c: rank_of[c[2]]):
        array[start:end] = bytes([code]) * (end - start)
    buckets = dict.fromkeys(BUCKETS, 0)
    regions = {region: dict.fromkeys(BUCKETS, 0) for region in REGIONS}
    for (region, bucket), code in codes.items():
        buckets[bucket] += array.count(code)
        regions[region][bucket] += array.count(code)
    return CycleProfile(
        cycles=total, buckets=buckets, regions=regions,
        idle=array.count(0),
    )


def _assert_matches_painting(machine, profile):
    profiler = machine.profiler
    painted = _painted_profile(
        profiler._int_claims, profiler._frep_windows, machine.timeline,
        machine.int_time, machine.fpu_time,
    )
    painted.flops = machine.trace.flops
    assert profile.to_json() == painted.to_json()
    assert profile.idle == 0


def _cell_id(value) -> str:
    """``matmul``, ``(4, 8, 8)`` -> ``matmul``, ``4x8x8``."""
    return "x".join(map(str, value)) if isinstance(value, tuple) else value


class _Timelines:
    """A hand-made end state of a run: what ``finalize`` reads."""

    def __init__(self, int_time, timeline):
        self.int_time = int_time
        self.timeline = timeline
        self.fpu_time = max((row[0] + 1 for row in timeline), default=0)
        self.trace = ExecutionTrace()


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

    @pytest.mark.parametrize("reference", (False, True), ids=("engine", "ref"))
    @pytest.mark.parametrize("pipeline", sorted(PIPELINE_NAMES))
    @pytest.mark.parametrize(
        "kernel,sizes", TABLE1_SMALL + TABLE1_LEDGER, ids=_cell_id
    )
    def test_closed_form_equals_painting(
        self, kernel, sizes, pipeline, reference
    ):
        """The closed-form count against the per-cycle painting it
        replaced, on the same claims and timeline.  The engine ==
        reference test above runs both sides through one ``finalize``,
        so only this one can catch a wrong closed form."""
        builder, _ = kernels.KERNEL_BUILDERS[kernel]
        module, spec = builder(*sizes)
        compiled = api.compile_linalg(module, pipeline=pipeline)
        machine, profile = _machine_run(
            compiled, spec, profile=True, reference=reference
        )
        _assert_matches_painting(machine, profile)

    @pytest.mark.parametrize("reference", (False, True), ids=("engine", "ref"))
    @pytest.mark.parametrize(
        "kernel,sizes",
        (
            ("lowlevel_matmul_t_f32", (16, 8)),
            ("lowlevel_sum_f32", (4, 8)),
            ("lowlevel_relu_f32", (4, 8)),
            ("lowlevel_fill_f64", (4, 8)),
        ),
    )
    def test_closed_form_equals_painting_lowlevel(
        self, kernel, sizes, reference
    ):
        """The packed-SIMD and other dialect-level kernels of the
        profile_sweep workload."""
        module, spec = getattr(kernels, kernel)(*sizes)
        compiled = api.compile_lowlevel(module, spec.name)
        machine, profile = _machine_run(
            compiled, spec, profile=True, reference=reference
        )
        _assert_matches_painting(machine, profile)

    def test_closed_form_equals_painting_scalar_loop(self):
        """The profile_sweep workload's scalar_loop kernel: explicit
        loads/stores and taken branches on every iteration."""
        module, spec = kernels.matmul(1, 16, 16)
        compiled = api.compile_linalg(module, pipeline="table3-baseline")
        machine, profile = _machine_run(compiled, spec, profile=True)
        _assert_matches_painting(machine, profile)
        assert profile.buckets["branch_bubble"] > 0

    def test_integer_claim_hole_leaves_idle(self):
        """Cycle 2 has no integer claim and the FPU is not busy in it:
        the closed form leaves it idle.  The painting oracle charges it
        to the FPU stall under it and reads ``idle == 0``."""
        profiler = CycleProfiler()
        profiler.step(Inst("addi"), 0, 1, 0, 2, 0, 0)
        profiler.step(Inst("addi"), 1, 2, 3, 5, 0, 1)
        machine = _Timelines(5, [(4, "fpu", "fadd.d ft3, ft0, ft1")])
        profile = profiler.finalize(machine)
        assert profile.cycles == 5
        assert profile.buckets["int_core"] == 3
        assert profile.idle == 1

    def test_fpu_rows_sharing_a_cycle_leave_idle(self):
        """Two FPU rows issued in one cycle: the painting oracle reads
        ``idle == 0`` here, the closed form counts both rows and goes
        negative."""
        profiler = CycleProfiler()
        profiler.step(Inst("addi"), 0, 1, 0, 1, 0, 0)
        machine = _Timelines(1, [
            (issue, "fpu", "fadd.d ft3, ft0, ft1") for issue in (0, 1, 1, 2)
        ])
        profile = profiler.finalize(machine)
        assert profile.cycles == 3
        assert profile.buckets["fpu_arith"] == 4
        assert profile.idle == -1

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


# -- tuner spans -------------------------------------------------------------


class TestTuneTracing:
    def test_serial_tuning_spans(self, tmp_path):
        from repro.tune.search import tune_kernel

        cid = new_correlation_id()
        with recording() as recorder, correlation(cid):
            result = tune_kernel(
                "relu", (4, 8), cache=tmp_path / "cache.json"
            )
        assert result.best.cycles > 0
        events = recorder.events_json()
        names = {event["name"] for event in events}
        assert {"tune.search", "tune.candidate", "sim.run"} <= names
        assert {
            event["args"].get("correlation_id") for event in events
        } == {cid}

    def test_one_candidate_span_per_measurement(self):
        """``tune.candidate`` spans time real measurements only: a warm
        search opens its ``tune.search`` span and no candidate span."""
        from repro.tune import TuneCache
        from repro.tune.search import tune_kernel

        cache = TuneCache()

        def names():
            with recording() as recorder:
                result = tune_kernel("matmul", (4, 4, 12), cache=cache)
            return result, [e["name"] for e in recorder.events_json()]

        cold, cold_names = names()
        assert cold_names.count("tune.candidate") == cold.cache_misses == 4
        warm, warm_names = names()
        assert warm.cache_misses == 0
        assert warm_names.count("tune.search") == 1
        assert "tune.candidate" not in warm_names

    def test_untraced_tuning_unchanged(self):
        from repro.tune.search import tune_kernel

        plain = tune_kernel("sum", (4, 8))
        with recording():
            traced = tune_kernel("sum", (4, 8))
        assert traced.best.cycles == plain.best.cycles


# -- host bytecode attribution ---------------------------------------------------


def _plain_bytecodes(body) -> int:
    """The unattributed count of ``body()``: one bucket, same events."""
    count = 0

    def on_event(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return on_event

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return on_event

    sys.settrace(on_call)
    try:
        body()
    finally:
        sys.settrace(None)
    return count


class TestHostBytecodes:
    def test_parts_sum_to_the_total(self, monkeypatch):
        """Pass self counts, their post-pass verifies and the residual
        partition the opcode events of the compile: each is charged
        exactly once, and none is missed next to a plain count."""
        from repro.compiler import Compiler
        from repro.obs import hostprof

        events = 0
        real_settrace = sys.settrace

        def settrace(on_call):
            """Tally the opcode events the counter's tracer receives."""
            if on_call is None:
                return real_settrace(None)

            def tally(local):
                def traced(frame, event, arg):
                    nonlocal events
                    events += event == "opcode"
                    return tally(local(frame, event, arg))

                return traced

            real_settrace(lambda *call: tally(on_call(*call)))

        def compile_once(counter):
            module, _ = kernels.conv3x3(4, 4)
            return lambda: Compiler("ours", instrument=counter).compile(
                module
            )

        compile_once(hostprof.BytecodeCounter())()  # caches, imports
        plain = _plain_bytecodes(compile_once(hostprof.BytecodeCounter()))
        monkeypatch.setattr(hostprof.sys, "settrace", settrace)
        counter = hostprof.BytecodeCounter()
        counter.count(compile_once(counter))
        parts = counter.residual + sum(
            entry.self_count + entry.verify_count
            for entry in counter.passes
        )
        assert parts == counter.total == events
        assert abs(counter.total - plain) <= plain // 1000
        assert [entry.name for entry in counter.passes] == (
            Compiler("ours").pipeline_spec.split(",")
        )
        assert all(entry.self_count > 0 for entry in counter.passes)
        assert counter.passes[0].verify_count > 0  # a full verify
        assert counter.residual > 0  # input verify, emission

    def test_nothing_is_traced_after_counting(self):
        from repro.obs.hostprof import BytecodeCounter

        BytecodeCounter().count(lambda: None)
        assert sys.gettrace() is None

    def test_the_collector_runs_nothing_inside_the_count(self):
        """Python the cyclic collector runs (finalizers, ``gc.callbacks``)
        is not the body's: a collection due on every allocation, with a
        Python callback installed, leaves the count as it was, and the
        collector's on/off state is restored after."""
        from repro.obs.hostprof import BytecodeCounter

        def count():
            counter = BytecodeCounter()
            counter.count(lambda: [[index] for index in range(500)])
            return counter.total

        plain = count()
        phases = []

        def callback(phase, info):
            phases.append(phase)

        threshold = gc.get_threshold()
        gc.set_threshold(1)
        gc.callbacks.append(callback)
        try:
            assert count() == plain
        finally:
            gc.callbacks.remove(callback)
            gc.set_threshold(*threshold)
        assert phases  # the callback ran, outside the count
        assert gc.isenabled()
        gc.disable()
        try:
            count()
            assert not gc.isenabled()
        finally:
            gc.enable()


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
