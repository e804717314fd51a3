"""Shared measurement helpers of the end-to-end benchmark.

Everything a workload needs to turn wall-clock readings on a noisy,
shared two-core box into numbers that repeat: the calibration loop and
the chunked timed section built on it, nearest-rank percentiles, the
bytecode counter, in-memory spans with self-time accounting, and the
JSON/report writers.  Nothing here imports ``repro``.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: What one chunk's calibration samples are *defined* to take in
#: total.  A constant, never re-tuned: "calibrated seconds" are
#: seconds on a machine that runs the calibration loop in exactly
#: this time.
CAL_NOMINAL_S = 0.020
#: Calibration samples per chunk, spread evenly between its jobs.
CAL_SAMPLES = 16
_CAL_ITERATIONS = 7_500
#: Share of the samples dropped at each end before averaging: a
#: preempted sample is not a slow machine.
CAL_TRIM = 0.2
#: A chunk whose first and second half of samples differ by more than
#: this saw the machine change speed under it; one factor cannot
#: describe it and it is discarded and run again, at most
#: ``CHUNK_ATTEMPTS`` times in all.
CAL_TOLERANCE = 0.2
CHUNK_ATTEMPTS = 3
#: p90 is only reported with >= 10 samples beyond it.
MIN_SAMPLES = 100
MIN_ROUNDS = 3


class _Cell:
    __slots__ = ("value",)


def calibration_sample() -> float:
    """Seconds one pass of the fixed pure-Python loop took just now:
    object allocation, dict stores, attribute and int ops — the mix
    the compiler and the simulator are made of.

    The collector is off inside: what a collection costs is the heap
    the jobs left behind, not the machine's speed (with it on, the
    samples of one compile chunk spread 25 %; off, 5-9 %)."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        total = 0
        for i in range(_CAL_ITERATIONS):
            cell = _Cell()
            cell.value = i
            table[i & 1023] = cell
            total += cell.value ^ (total & 0xFF)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def trimmed_mean(samples) -> float:
    ordered = sorted(samples)
    drop = int(len(ordered) * CAL_TRIM)
    return statistics.fmean(ordered[drop:len(ordered) - drop])


def chunk_factor(samples) -> float:
    """Multiplier turning raw seconds into calibrated ones, from the
    calibration samples taken around them."""
    return CAL_NOMINAL_S / (CAL_SAMPLES * trimmed_mean(samples))


def calibrations_agree(samples) -> bool:
    """Whether the machine kept one speed while ``samples`` were
    taken: the two halves agree within ``CAL_TOLERANCE``."""
    half = len(samples) // 2
    first = trimmed_mean(samples[:half])
    second = trimmed_mean(samples[half:])
    return abs(first - second) <= CAL_TOLERANCE * min(first, second)


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` percent of the samples at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = math.ceil(p / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie beyond the p-th percentile."""
    return count - max(math.ceil(p / 100 * count), 1)


def iter_chunks(rounds, chunk_jobs: int):
    """Group a stream of rounds into calibration chunks.

    Yields ``(chunk, ends_round)``: ``chunk`` is a list of
    ``(round index, job)`` of about ``chunk_jobs`` jobs — a long round
    is split into equal parts, short rounds are batched whole — and
    ``ends_round`` says whether a round boundary follows it.
    """
    batch: list = []
    for index, jobs in enumerate(rounds):
        if len(jobs) >= chunk_jobs:
            parts = max(1, round(len(jobs) / chunk_jobs))
            size = math.ceil(len(jobs) / parts)
            for at in range(0, len(jobs), size):
                yield (
                    [(index, job) for job in jobs[at:at + size]],
                    at + size >= len(jobs),
                )
            continue
        batch.extend((index, job) for job in jobs)
        if len(batch) >= chunk_jobs:
            yield batch, True
            batch = []
    if batch:
        yield batch, True


@dataclass
class TimedSection:
    """What the timed section measured."""

    #: Kept rounds: calibrated seconds of every job, in job order.
    rounds: list = field(default_factory=list)
    #: The jobs of each kept round, parallel to ``rounds``.
    round_jobs: list = field(default_factory=list)
    #: Raw (uncalibrated) seconds, parallel to ``rounds``.
    raw_rounds: list = field(default_factory=list)
    #: Calibration factor of every kept chunk.
    factors: list = field(default_factory=list)
    discarded_chunks: int = 0
    #: Jobs started, kept or not.
    attempted: int = 0

    @property
    def latencies(self) -> list:
        return [d for kept in self.rounds for d in kept]

    def jobs_per_s(self) -> float:
        return len(self.rounds[0]) / statistics.median(
            sum(kept) for kept in self.rounds
        )

    def raw_jobs_per_s(self) -> float:
        return len(self.rounds[0]) / statistics.median(
            sum(kept) for kept in self.raw_rounds
        )


def _run_chunk(chunk, run_job, after_job, clock, calibrate):
    """One pass over ``chunk``: the calibration samples taken between
    its jobs and every job's raw duration."""
    # One sample every few short jobs, several per long job.
    every = max(1, len(chunk) // (CAL_SAMPLES - 1))
    burst = -(-(CAL_SAMPLES - 1) // len(chunk))
    samples = []
    durations = []
    for position, (_, job) in enumerate(chunk):
        if position % every == 0:
            samples.extend(calibrate() for _ in range(burst))
        t0 = clock()
        result = run_job(job)
        durations.append(clock() - t0)
        if after_job is not None:
            after_job(job, result)
    samples.append(calibrate())
    return samples, durations


def run_timed(
    rounds,
    run_job,
    chunk_jobs: int,
    seconds: float,
    *,
    rerun: bool = True,
    after_job=None,
    min_samples: int = MIN_SAMPLES,
    min_rounds: int = MIN_ROUNDS,
    clock=time.perf_counter,
    calibrate=calibration_sample,
) -> TimedSection:
    """The timed section: closed loop, one caller, calibrated chunks.

    Pulls rounds (lists of jobs) from ``rounds`` and runs them through
    ``run_job`` for about ``seconds`` seconds, ending on a round
    boundary; ``after_job(job, result)`` runs outside the timed
    window.  ``CAL_SAMPLES`` passes of the calibration loop are
    spread between the jobs of every chunk, so they see the machine
    the jobs saw; each job's duration is multiplied by its chunk's
    factor.  A chunk whose calibrations disagree is discarded and,
    where the jobs can be repeated (``rerun``), run again; one that
    cannot be, or never settles, takes the rounds it touched with it.
    The section keeps going until it has ``min_samples`` kept samples
    in at least ``min_rounds`` rounds — bounded at three times the
    budget if that leaves anything, ten times if not.
    """
    section = TimedSection()
    #: round index -> [calibrated latencies, raw seconds, jobs], or
    #: None once a chunk of that round was given up.
    live: dict = {}
    start = clock()
    boundaries = 0
    for chunk, ends_round in iter_chunks(rounds, chunk_jobs):
        for _ in range(CHUNK_ATTEMPTS if rerun else 1):
            samples, durations = _run_chunk(
                chunk, run_job, after_job, clock, calibrate
            )
            section.attempted += len(chunk)
            if calibrations_agree(samples):
                break
            section.discarded_chunks += 1
        else:
            samples = None
        if samples is None:
            for index, _ in chunk:
                live[index] = None
        else:
            factor = chunk_factor(samples)
            section.factors.append(factor)
            for (index, job), duration in zip(chunk, durations):
                kept = live.setdefault(index, [[], [], []])
                if kept is not None:
                    kept[0].append(duration * factor)
                    kept[1].append(duration)
                    kept[2].append(job)
        if not ends_round:
            continue
        for index in sorted(live):
            kept = live.pop(index)
            if kept is not None:
                section.rounds.append(kept[0])
                section.raw_rounds.append(kept[1])
                section.round_jobs.append(kept[2])
        boundaries += 1
        elapsed = clock() - start
        enough = (
            len(section.rounds) >= min_rounds
            and sum(map(len, section.rounds)) >= min_samples
        )
        # Stop at the boundary nearest the budget, not the first
        # one past it.
        if enough and elapsed + elapsed / boundaries / 2 >= seconds:
            break
        if elapsed >= 3 * seconds and section.rounds:
            break
        if elapsed >= 10 * seconds:
            raise RuntimeError(
                "no chunk kept: the machine never held one speed"
            )
    return section


def count_bytecodes(body) -> int:
    """Python bytecodes executed by ``body()`` in this thread.

    There is no PMU in the sandbox; ``sys.settrace`` with per-opcode
    events is the instruction counter that exists.  The count omits
    everything below the interpreter: C-level work (numpy, struct,
    hashing), I/O, and other processes.
    """
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


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024


# -- spans ----------------------------------------------------------------------


class SpanLog:
    """In-memory spans of a traced run: (name, start ns, end ns, job).

    Own spans are taken with ``perf_counter_ns``; spans ``src/``
    already emits (epoch microseconds, Chrome events) are absorbed
    onto the same clock.  Written out only when the run ends.
    """

    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []
        self.job = -1
        self._epoch_offset_ns = time.time_ns() - time.perf_counter_ns()

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans.append(
                (name, start, time.perf_counter_ns(), self.job)
            )

    def absorb(self, events) -> None:
        """Take over Chrome ``ph="X"`` events recorded inside ``src/``
        (this process or, shipped in a reply, the server's)."""
        for event in events:
            start = event["ts"] * 1000 - self._epoch_offset_ns
            self.spans.append(
                (event["name"], start, start + event["dur"] * 1000,
                 self.job)
            )

    def nested(self) -> list[tuple[int, int]]:
        """(parent index or -1, self ns) per span.

        A span's parent is the innermost span of the same job that
        contains its start; its self time is its duration minus the
        part of it its children cover.
        """
        order = sorted(
            range(len(self.spans)),
            key=lambda i: (
                self.spans[i][3], self.spans[i][1], -self.spans[i][2]
            ),
        )
        parents = [-1] * len(self.spans)
        covered = [0] * len(self.spans)
        stack: list[int] = []
        for i in order:
            _, start, end, job = self.spans[i]
            while stack and (
                self.spans[stack[-1]][3] != job
                or self.spans[stack[-1]][2] <= start
            ):
                stack.pop()
            if stack:
                parents[i] = stack[-1]
                # Clipped: a span shipped from another process may
                # stick out of its parent by a clock's rounding.
                covered[stack[-1]] += (
                    min(end, self.spans[stack[-1]][2]) - start
                )
            stack.append(i)
        return [
            (parents[i], max(0, end - start - covered[i]))
            for i, (_, start, end, _) in enumerate(self.spans)
        ]

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        totals: dict[str, float] = {}
        for (name, *_), (_, own) in zip(self.spans, self.nested()):
            totals[name] = totals.get(name, 0.0) + own / 1e9
        return totals

    def chrome_trace(self) -> dict:
        """Chrome trace events (load in Perfetto / chrome://tracing):
        one row per job, ``args.parent`` names the causing span."""
        nested = self.nested()
        origin = min((s[1] for s in self.spans), default=0)
        events = []
        for (name, start, end, job), (parent, own) in zip(
            self.spans, nested
        ):
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) / 1000,
                "dur": (end - start) / 1000,
                "pid": 1,
                "tid": job,
                "args": {
                    "job": job,
                    "parent": (
                        self.spans[parent][0] if parent >= 0 else None
                    ),
                    "self_us": own / 1000,
                },
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- output ---------------------------------------------------------------------


def write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def fmt(value: float) -> str:
    """Four significant digits for the human-readable tables; the
    JSON result line always carries the value as measured."""
    if value == 0 or not math.isfinite(value):
        return str(value)
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def metric_table(metrics: dict) -> str:
    """``name value unit`` lines for ``{name: {value, unit}}``."""
    width = max(map(len, metrics), default=0)
    return "\n".join(
        f"  {name:<{width}}  {fmt(entry['value']):>12} {entry['unit']}"
        for name, entry in metrics.items()
    )
