"""One workload, one fresh process: the benchmark's entry point.

    python3 benchmarks/e2e/run.py --workload compile_suite --seed 0 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that yields the per-layer
metrics.  Either way the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is non-zero if anything failed.  ``python -m benchmarks.e2e run``
drives all five workloads through this script.
"""

import os
import sys
import time

_PROCESS_START = time.perf_counter()

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # Set iteration order feeds both the compiler's output and the
    # bytecode count; pin it before anything is hashed.
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for entry in (os.path.join(ROOT, "src"), ROOT):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import harness  # noqa: E402
from benchmarks.e2e.spec import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    SPAN_METRIC,
    WORKLOAD_NAMES,
    span_metric,
)

OUT_DIR = os.path.join(HERE, "out")
#: Share of a traced run's budget spent on the untraced reference
#: section that ``trace.overhead_ratio`` compares against.
REFERENCE_SHARE = 0.3


def parse_arguments(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="three shapes, a round or two: same schema, same checks",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print the calibrated set-up time, exit",
    )
    parser.add_argument(
        "--out", default=None,
        help="also write the result, with sample counts and "
        "calibration statistics, to this JSON file",
    )
    return parser.parse_args(argv)


class Jobs:
    """Runs a workload's jobs, counting failures instead of dying:
    a job that raised, faulted or returned something wrong is a
    failed job, and the run goes on."""

    def __init__(self, workload, traced: bool = False):
        self.workload = workload
        self.traced = traced
        self.failures: list[str] = []
        self.ordinals = itertools.count()
        if traced:
            from repro.obs.tracing import recording

            self.recording = recording

    def numbered(self, rounds):
        """Tag each job with its ordinal, so spans name their job."""
        for jobs in rounds:
            yield [(next(self.ordinals), job) for job in jobs]

    def run(self, tagged):
        ordinal, job = tagged
        try:
            if not self.traced:
                return self.workload.run_job(job)
            log = self.workload.log
            log.job = ordinal
            with self.recording() as recorder, log.span("job"):
                result = self.workload.traced_job(job)
            log.absorb(recorder.events_json())
            return result
        except Exception as error:  # the job failed; the run goes on
            return error

    def settle(self, tagged, result) -> None:
        _, job = tagged
        if not isinstance(result, Exception):
            try:
                self.workload.record(job, result)
                return
            except Exception as error:
                result = error
        self.failures.append(f"{type(result).__name__}: {result}")


def measure(workload, jobs, rounds, seconds, relaxed: bool):
    """One timed section.  ``relaxed`` (smoke runs, and the traced
    run, whose numbers are per round) takes whatever fits the budget
    instead of holding out for a hundred samples."""
    limits = {"min_samples": 1, "min_rounds": 1} if relaxed else {}
    return harness.run_timed(
        jobs.numbered(rounds),
        jobs.run,
        workload.chunk_jobs,
        seconds,
        # A traced job run twice would leave its spans twice.
        rerun=workload.rerun and not jobs.traced,
        after_job=jobs.settle,
        **limits,
    )


def setup_only_seconds(args) -> float:
    """Calibrated set-up time of one more fresh process."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--setup-only",
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(
        command, stdout=subprocess.PIPE, check=True, timeout=170
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def end_to_end_run(args, workload, setup_s: float):
    jobs = Jobs(workload)
    section = measure(
        workload, jobs, workload.rounds(), args.seconds, args.smoke
    )
    rss = max(harness.peak_rss_mb(), workload.extra_rss_mb())
    bytecodes = harness.count_bytecodes(workload.counted_pass)
    failures = jobs.failures + workload.verify()
    runs = [run for *_, run in workload.ours]
    # The extra set-up launches start their own server; ours is done.
    workload.close()
    setups = [setup_s] + [setup_only_seconds(args) for _ in range(2)]
    latencies = [d * 1000 for d in section.latencies]
    beyond = harness.samples_beyond(len(latencies), 90)
    if beyond < 10 and not args.smoke:
        failures.append(
            f"only {beyond} samples beyond p90: the run gave up at "
            "three times its budget"
        )
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": section.jobs_per_s(),
        "job_ms_p50": harness.percentile(latencies, 50),
        "job_ms_p90": harness.percentile(latencies, 90),
        "host_bytecodes": bytecodes,
        "ours_cycles_total": sum(run.trace.cycles for run in runs),
        "ours_fpu_util_mean": statistics.fmean(
            run.trace.fpu_utilization for run in runs
        ),
        "peak_rss_mb": rss,
    }
    info = {
        "samples": len(latencies),
        "samples_beyond_p90": beyond,
        "rounds": len(section.rounds),
        "jobs_per_round": len(section.rounds[0]),
        "setup_s_samples": setups,
        "cal.factor_median": statistics.median(section.factors),
        "cal.factor_spread": factor_spread(section.factors),
        "cal.discarded_chunks": section.discarded_chunks,
        "raw.jobs_per_s": section.raw_jobs_per_s(),
    }
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _, _) in END_TO_END.items()
    }
    return section.attempted, failures, metrics, info


def factor_spread(factors) -> float:
    """Quartile distance of the chunk factors over their median: how
    much the machine's speed moved during the run."""
    if len(factors) < 2:
        return 0.0
    low, _, high = statistics.quantiles(factors, n=4)
    return (high - low) / statistics.median(factors)


def traced_run(args, workload):
    rounds = workload.rounds()
    plain = Jobs(workload)
    reference = measure(
        workload, plain, rounds, args.seconds * REFERENCE_SHARE, True
    )
    workload.log = log = harness.SpanLog()
    traced = Jobs(workload, traced=True)
    section = measure(
        workload, traced, rounds,
        args.seconds * (1 - REFERENCE_SHARE), True,
    )
    kept = {
        ordinal for jobs in section.round_jobs for ordinal, _ in jobs
    }
    log.spans = [span for span in log.spans if span[3] in kept]
    failures = plain.failures + traced.failures + workload.verify()

    factor = statistics.median(section.factors)
    per_round = 1000 * factor / len(section.rounds)
    values = dict.fromkeys(PER_LAYER, 0)
    for name, seconds in log.self_seconds().items():
        values[span_metric(name)] += seconds * per_round
    # Self times partition the job spans: the layers plus what no
    # layer's span covers are the traced total.
    ms = {
        name: value for name, value in values.items()
        if PER_LAYER[name][0] == "ms"
    }
    total_ms = sum(ms.values()) + values["unattributed_share"]
    values["unattributed_share"] /= total_ms
    values.update(workload.layer_metrics(ms, reference, factor))
    values.update(workload.ours_cycle_buckets())
    values.update({
        "trace.overhead_ratio": (
            section.jobs_per_s() / reference.jobs_per_s()
        ),
        "cal.factor_median": factor,
        "cal.factor_spread": factor_spread(
            reference.factors + section.factors
        ),
        "cal.discarded_chunks": (
            reference.discarded_chunks + section.discarded_chunks
        ),
        "raw.jobs_per_s": reference.raw_jobs_per_s(),
    })
    trace_path = os.path.join(OUT_DIR, f"{workload.name}.trace.json")
    harness.write_json(trace_path, log.chrome_trace())
    info = {
        "trace_file": os.path.relpath(trace_path),
        "traced_rounds": len(section.rounds),
        "reference_rounds": len(reference.rounds),
        "spans": len(log.spans),
        "traced_ms_per_round": total_ms,
    }
    metrics = {
        name: {"value": values[name], "unit": PER_LAYER[name][0]}
        for name in PER_LAYER
    }
    return (
        reference.attempted + section.attempted, failures, metrics, info
    )


def main(argv=None) -> int:
    args = parse_arguments(argv)
    half = harness.CAL_SAMPLES // 2
    samples = [harness.calibration_sample() for _ in range(half)]
    sampling = sum(samples)
    from benchmarks.e2e.workloads import WORKLOADS

    scratch = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.smoke, scratch)
    # A terminated run still stops its server and clears its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.trace:
            workload.log = harness.SpanLog()
        workload.setup()
        workload.warm_up()
        ready = time.perf_counter() - _PROCESS_START
        # Process start to first timed job, less the calibration
        # samples taken at its start, in calibrated seconds.
        samples += [harness.calibration_sample() for _ in range(half)]
        setup_s = (ready - sampling) * harness.chunk_factor(samples)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            setup_spans = workload.log
            attempted, failures, metrics, info = traced_run(
                args, workload
            )
            factor = metrics["cal.factor_median"]["value"]
            for name, seconds in setup_spans.self_seconds().items():
                # Input generation happens once, in set-up: report
                # it per set-up, not per round.
                metrics[SPAN_METRIC[name]]["value"] = (
                    seconds * 1000 * factor
                )
        else:
            attempted, failures, metrics, info = end_to_end_run(
                args, workload, setup_s
            )
    finally:
        try:
            workload.close()
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    print(f"{args.workload} seed {args.seed} trace {args.trace}")
    print(harness.metric_table(metrics))
    for name, value in info.items():
        print(f"  ({name}: {value})")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    if args.out:
        harness.write_json(args.out, {**result, "info": info})
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
