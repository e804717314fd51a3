"""Tests of the end-to-end benchmark's own machinery.

Run explicitly (tier-1's ``testpaths`` does not include this
directory)::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import os
import re

import pytest

from benchmarks.e2e import harness, run, spec
from benchmarks.e2e.compare import compare, verdict
from benchmarks.e2e.inputs import request_epochs, shape_set

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- the contract -----------------------------------------------------------------


def test_benchmark_json_is_the_spec_and_within_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    assert contract == spec.benchmark_json()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert contract["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in contract[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in contract["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in contract["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.fullmatch(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    # The issue's table; a metric that cannot hold its bound is
    # demoted to per-layer, never given a wider one.
    assert spec.END_TO_END == {
        "setup_s": ("s", "lower", 0.15),
        "jobs_per_s": ("1/s", "higher", 0.10),
        "job_ms_p50": ("ms", "lower", 0.10),
        "job_ms_p90": ("ms", "lower", 0.15),
        "host_bytecodes": ("count", "lower", 0.005),
        "ours_cycles_total": ("cycles", "lower", spec.EXACT),
        "ours_fpu_util_mean": ("fraction", "higher", spec.EXACT),
        "peak_rss_mb": ("MiB", "lower", 0.10),
    }
    assert spec.END_TO_END["setup_s"][2] == max(
        bound for _, _, bound in spec.END_TO_END.values()
    )


def test_every_span_books_to_a_per_layer_metric():
    for name in spec.SPAN_METRIC:
        assert spec.span_metric(name) in spec.PER_LAYER
    assert spec.span_metric("pass.dce") == "pass.dce.ms"
    assert spec.span_metric("job") == "unattributed_share"
    assert spec.span_metric("pass.no-such-pass") == "unattributed_share"


# -- percentiles ------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert harness.percentile(samples, 50) == 50
    assert harness.percentile(samples, 90) == 90
    assert harness.percentile(samples, 100) == 100
    assert harness.percentile([3, 1, 2], 50) == 2
    assert harness.percentile([3, 1, 2], 1) == 1
    assert harness.percentile([7], 90) == 7
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_p90_needs_a_hundred_samples_for_ten_beyond():
    assert harness.samples_beyond(100, 90) == 10
    assert harness.samples_beyond(99, 90) == 9
    assert harness.samples_beyond(harness.MIN_SAMPLES, 90) >= 10


# -- calibration ------------------------------------------------------------------


class FakeMachine:
    """A clock that jobs and calibration samples advance; ``speed``
    is how much slower than nominal the machine currently runs."""

    NOMINAL_SAMPLE = harness.CAL_NOMINAL_S / harness.CAL_SAMPLES

    def __init__(self):
        self.now = 0.0
        self.speed = 1.0

    def clock(self):
        return self.now

    def calibrate(self):
        self.now += self.NOMINAL_SAMPLE * self.speed
        return self.NOMINAL_SAMPLE * self.speed

    def job(self, seconds):
        self.now += seconds * self.speed


def test_chunk_factor_arithmetic():
    sample = harness.CAL_NOMINAL_S / harness.CAL_SAMPLES
    assert harness.chunk_factor([sample] * 16) == pytest.approx(1.0)
    assert harness.chunk_factor([2 * sample] * 16) == pytest.approx(0.5)
    # A preempted sample at either end is trimmed away.
    assert harness.chunk_factor(
        [sample] * 14 + [50 * sample, 0.0]
    ) == pytest.approx(1.0)
    assert harness.CAL_TOLERANCE == 0.2
    assert harness.calibrations_agree([sample] * 8 + [1.15 * sample] * 8)
    assert not harness.calibrations_agree(
        [sample] * 8 + [1.25 * sample] * 8
    )


def test_calibrated_seconds_do_not_depend_on_machine_speed():
    results = []
    for speed in (1.0, 1.7):
        machine = FakeMachine()
        machine.speed = speed
        section = harness.run_timed(
            iter([[0.01] * 20] * 50),
            machine.job,
            chunk_jobs=20,
            seconds=3 * speed,
            min_samples=40,
            clock=machine.clock,
            calibrate=machine.calibrate,
        )
        assert section.discarded_chunks == 0
        assert len(section.rounds) >= harness.MIN_ROUNDS
        results.append(section)
    for section in results:
        assert section.jobs_per_s() == pytest.approx(100.0)
        assert harness.percentile(section.latencies, 90) == (
            pytest.approx(0.01)
        )
    assert results[1].raw_jobs_per_s() == pytest.approx(100.0 / 1.7)


@pytest.mark.parametrize("rerun", [True, False])
def test_a_chunk_that_saw_the_machine_change_speed_is_discarded(rerun):
    machine = FakeMachine()
    ran = []

    def job(index):
        ran.append(index)
        if len(ran) == 30:  # the middle of round 1's only chunk
            machine.speed = 3.0
        machine.job(0.01)

    section = harness.run_timed(
        iter([list(range(20))] * 50),
        job,
        chunk_jobs=20,
        seconds=1.0,
        rerun=rerun,
        min_samples=60,
        clock=machine.clock,
        calibrate=machine.calibrate,
    )
    assert section.discarded_chunks == 1
    assert section.attempted == len(ran)
    # Run again, the chunk is kept; where it cannot be, its round is
    # gone.  Either way every kept round reads the same before and
    # after the machine slowed down.
    assert ran[20:60] == list(range(20)) * 2
    assert sum(map(len, section.rounds)) == section.attempted - 20
    for kept in section.rounds:
        assert sum(kept) == pytest.approx(0.2)


def test_a_chunk_that_never_settles_takes_its_round_with_it():
    machine = FakeMachine()
    ran = []

    def job(index):
        ran.append(index)
        # Round 1 (one chunk) sees the machine flip speed at every
        # attempt; the rounds around it do not.
        if 20 <= len(ran) <= 20 * harness.CHUNK_ATTEMPTS + 20:
            machine.speed = 3.0 if len(ran) % 20 == 10 else machine.speed
            machine.speed = 1.0 if len(ran) % 20 == 0 else machine.speed
        machine.job(0.01)

    section = harness.run_timed(
        iter([list(range(20))] * 50),
        job,
        chunk_jobs=20,
        seconds=1.0,
        min_samples=60,
        clock=machine.clock,
        calibrate=machine.calibrate,
    )
    assert section.discarded_chunks == harness.CHUNK_ATTEMPTS
    assert sum(map(len, section.rounds)) == (
        section.attempted - 20 * harness.CHUNK_ATTEMPTS
    )
    for kept in section.rounds:
        assert sum(kept) == pytest.approx(0.2)


def test_short_rounds_batch_into_chunks_and_long_ones_split():
    chunks = list(harness.iter_chunks(iter([[1, 2, 3]] * 4), 6))
    assert [len(chunk) for chunk, _ in chunks] == [6, 6]
    assert all(ends for _, ends in chunks)
    chunks = list(harness.iter_chunks(iter([list(range(10))]), 3))
    assert [len(chunk) for chunk, _ in chunks] == [4, 4, 2]
    assert [ends for _, ends in chunks] == [False, False, True]


# -- spans ------------------------------------------------------------------------


def test_self_time_is_duration_minus_children_and_layers_sum_to_total():
    log = harness.SpanLog()
    log.spans = [
        # job 0: root 0..100, a 10..60 with child b 20..50, c 70..90
        ("job", 0, 100, 0),
        ("a", 10, 60, 0),
        ("b", 20, 50, 0),
        ("c", 70, 90, 0),
        # job 1 overlaps job 0 in time (another process) but is its
        # own tree.
        ("job", 50, 80, 1),
        ("a", 55, 75, 1),
    ]
    parents = [parent for parent, _ in log.nested()]
    assert parents == [-1, 0, 1, 0, -1, 4]
    own = log.self_seconds()
    assert own["a"] * 1e9 == pytest.approx(20 + 20)
    assert own["b"] * 1e9 == pytest.approx(30)
    assert own["c"] * 1e9 == pytest.approx(20)
    assert own["job"] * 1e9 == pytest.approx(30 + 10)
    # Layers + residual == total of the root spans.
    assert sum(own.values()) * 1e9 == pytest.approx(100 + 30)
    events = log.chrome_trace()["traceEvents"]
    assert events[2]["args"]["parent"] == "a"
    assert events[0]["args"]["parent"] is None


def test_absorbed_events_land_on_the_log_clock():
    import time

    log = harness.SpanLog()
    log.job = 3
    with log.span("outer"):
        start_us = time.time_ns() // 1000
        log.absorb([
            {"name": "sim.run", "ts": start_us, "dur": 0, "ph": "X"}
        ])
    (inner, outer) = log.spans
    assert inner[0] == "sim.run" and inner[3] == 3
    assert outer[1] - 2_000_000 <= inner[1] <= outer[2] + 2_000_000


# -- inputs -----------------------------------------------------------------------


def test_the_shape_set_is_the_same_for_every_seed():
    shapes = shape_set()
    assert len(shapes) == 38 and len(set(shapes)) == 38
    assert len(shape_set(smoke=True)) == 3


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_service_stream_is_75_percent_repeats_after_their_firsts(seed):
    shapes = shape_set(smoke=True)
    seen = set()
    epochs = 0
    for epoch in request_epochs(shapes, seed):
        epochs += 1
        firsts = sum(is_first for _, is_first in epoch)
        assert 4 * firsts == len(epoch)
        for request, is_first in epoch:
            assert (request in seen) != is_first
            seen.add(request)
    # 38 shapes x 8 distinct specs, two compiles an epoch: the full
    # shape set feeds the compiles of a smoke stream too.
    assert epochs == 152
    again = [
        [request for request, _ in epoch]
        for epoch in request_epochs(shapes, seed)
    ]
    assert len(again) == epochs


# -- compare ----------------------------------------------------------------------


def test_verdicts():
    assert verdict("jobs_per_s", 100, 100, 0) == "same"
    assert verdict("jobs_per_s", 100, 50, 0) == "worse"
    assert verdict("jobs_per_s", 100, 150, 0) == "better"
    assert verdict("job_ms_p50", 10, 11.5, 0) == "worse"
    assert verdict("job_ms_p50", 10, 10.1, 0.9) == "unresolved"
    assert verdict("ours_cycles_total", 43264, 43264, 0) == "same"
    assert verdict("ours_cycles_total", 43264, 43263, 0) == (
        "exact-mismatch"
    )


def test_compare_reads_one_run_per_workload():
    def result_set(p50, factor_spread):
        run_ = {
            "metrics": {
                name: {"value": p50 if name == "job_ms_p50" else 1.0}
                for name in spec.END_TO_END
            },
            "info": {"cal.factor_spread": factor_spread},
        }
        return {"workloads": dict.fromkeys(spec.WORKLOAD_NAMES, run_)}

    rows = compare(result_set(10, 0.01), result_set(10.5, 0.3))
    assert len(rows) == len(spec.WORKLOAD_NAMES) * len(spec.END_TO_END)
    verdicts = {(row.metric, row.verdict) for row in rows}
    # The machine's speed moved by more than the bound during one of
    # the runs: its times are unresolved, its counts are not.
    assert ("job_ms_p50", "unresolved") in verdicts
    assert ("jobs_per_s", "unresolved") in verdicts
    assert ("host_bytecodes", "same") in verdicts
    assert ("ours_cycles_total", "same") in verdicts
    worse = compare(result_set(10, 0.01), result_set(12, 0.01))
    assert ("job_ms_p50", "worse") in {(r.metric, r.verdict) for r in worse}


def test_the_service_stream_running_out_is_an_error():
    from benchmarks.e2e.workloads import ServiceMix

    workload = ServiceMix(0, True, "unused")
    workload.epochs = iter([["epoch"]])
    rounds = workload.rounds()
    assert next(rounds) == ["epoch"]
    with pytest.raises(RuntimeError, match="ran out"):
        next(rounds)


# -- the runs themselves ----------------------------------------------------------

_EXACT_UNITS = ("count", "cycles", "fraction")
# Not exact: shares of time, and what grows with the epochs a run fits.
_NOT_EXACT = (
    "unattributed_share", "cal.", "service.retries", "store.artifacts"
)


def _smoke(workload, trace, tmp_path, capsys):
    out = tmp_path / f"{workload}-{trace}.json"
    status = run.main([
        "--workload", workload, "--seed", "0", "--seconds", "0.5",
        "--smoke", "--trace", str(trace), "--out", str(out),
    ])
    last_line = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last_line)
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result["metrics"]) == list(expected)
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == expected[name][0]
    with open(out) as handle:
        assert json.load(handle)["metrics"] == result["metrics"]
    return result["metrics"]


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_two_traced_smoke_runs_agree_on_every_exact_metric(
    workload, tmp_path, capsys
):
    first = _smoke(workload, 1, tmp_path, capsys)
    second = _smoke(workload, 1, tmp_path, capsys)
    exact = [
        name for name, (unit, _) in spec.PER_LAYER.items()
        if unit in _EXACT_UNITS and not name.startswith(_NOT_EXACT)
    ]
    assert len(exact) > 60
    for name in exact:
        assert first[name]["value"] == second[name]["value"], name
    assert first["unattributed_share"]["value"] <= 0.10
    # The profiler's buckets partition the ours kernels' cycles.
    buckets = sum(
        first[f"cycles.{bucket}"]["value"] for bucket in spec.BUCKETS
    )
    assert buckets > 0
    if workload == "compile_suite":
        assert buckets == first["cycles.pipeline.ours"]["value"]
    if workload == "service_mix":
        assert first["service.hit_share"]["value"] == 0.75
        assert (
            first["service.hit_ms_p50"]["value"]
            < first["service.computed_ms_p50"]["value"]
        )
    assert os.path.exists(
        os.path.join(run.OUT_DIR, f"{workload}.trace.json")
    )


def test_two_end_to_end_smoke_runs_agree_on_the_simulated_metrics(
    tmp_path, capsys
):
    first = _smoke("compile_suite", 0, tmp_path, capsys)
    second = _smoke("compile_suite", 0, tmp_path, capsys)
    for name in ("ours_cycles_total", "ours_fpu_util_mean"):
        assert first[name]["value"] == second[name]["value"]
    assert all(entry["value"] != 0 for entry in first.values())


def test_ours_cycles_equal_the_tracked_history():
    """The Table 1 / network / Fig. 11 ``ours`` cycles are the
    ``default_cycles`` of results/BENCH_tuning.json."""
    from repro import api
    from repro.tune.schedule import resolve_kernel

    with open(os.path.join(ROOT, "results", "BENCH_tuning.json")) as handle:
        history = {
            (entry["kernel"], tuple(entry["sizes"])): entry["default_cycles"]
            for entry in json.load(handle)["entries"]
        }
    for kernel, sizes in shape_set():
        builder, resolved = resolve_kernel(kernel, sizes)
        module, kernel_spec = builder(*resolved)
        run_ = api.run_kernel(
            api.compile_linalg(module, "ours"),
            kernel_spec.random_arguments(0),
        )
        assert run_.trace.cycles == history[kernel, tuple(sizes)]
