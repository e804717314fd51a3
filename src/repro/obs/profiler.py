"""Cycle-attribution profiler for the Snitch simulator.

Reproduces the paper's Table 1 methodology (Section 4.1): total
latency is broken into attribution buckets so FPU utilization can be
read directly as "cycles the FPU retired arithmetic / total cycles",
and the *rest* of the cycles are explained rather than lumped into
"overhead".

The simulator's timing model keeps two timelines (integer core, FPU)
that each advance contiguously: every integer instruction covers
``[int_time_before, int_time_after)`` and every FPU instruction covers
its stall gap ``[prev_fpu_end, issue)`` plus one busy cycle
``[issue, issue+1)``.  Both timelines therefore partition
``[0, their final time)`` with no holes, and total cycles is their
max.  Where both sides claim a cycle, the higher-priority claim wins:
a cycle where the FPU retires arithmetic counts as ``fpu_arith`` even
if the integer core was also busy — the utilization semantics — while
a cycle where the FPU merely *waits* is charged to whatever the
machine was actually doing, so scalar-pipeline kernels show their
address-arithmetic bottleneck as ``int_core``, not as FPU stalls.

Under those invariants every bucket has a closed form, counted in one
pass over each timeline — no per-cycle array:

* FPU busy cycles always win: ``fpu_arith`` / ``fpu_nonarith`` are the
  counts of FPU timeline rows (one flag lookup per distinct row text);
* ``fpu_stall`` is each row's gap ``[prev_end, issue)`` clipped to
  start at the final ``int_time`` — below it the integer timeline has
  a claim on every cycle, and any integer claim outranks a stall;
* each integer bucket is its claims' lengths minus the FPU-busy
  cycles inside them; the claims partition ``[0, int_time)``, so
  ``int_core`` is what the few ``ssr_wait`` and ``branch_bubble``
  claims leave of it;
* ``idle`` is ``cycles`` minus the sum of the buckets: 0 when both
  timelines are contiguous.  A hole in the integer claims makes it
  positive; overlapping claims, or two FPU rows sharing a cycle, make
  it negative — a timing-model change that breaks contiguity is loud.

Buckets, in ascending priority:

``fpu_stall``
    FPU waiting on operand latency or dispatch while the integer
    core is also idle — exposed latency, nothing else to blame.
``int_core``
    integer-core issue slots, scoreboard stalls, FPU/FREP dispatch.
``ssr_wait``
    integer core synchronizing with the FPU at stream disable
    (``csrci``) — the FREP/SSR drain.
``branch_bubble``
    taken-branch pipeline penalty cycles.
``fpu_nonarith``
    FPU busy with non-arithmetic work (FP loads/stores, moves).
``fpu_arith``
    FPU retiring arithmetic — the utilization numerator; matches
    ``ExecutionTrace.fpu_arith_cycles`` exactly.

Regions: FPU cycles issued from inside an FREP body are attributed to
the ``frep_body`` region, everything else to ``scalar`` — separating
the streamed inner loop from its scalar prologue/epilogue, as the
paper does when explaining utilization gaps.

Usage: the profiler rides either engine — both report every step
through :meth:`CycleProfiler.step` with the same numbers, so the
profile does not depend on which one ran::

    machine = SnitchMachine(program, record_timeline=True)
    profiler = CycleProfiler.attach(machine)
    machine.run(entry, ...)
    profile = profiler.finalize(machine)

or simply ``run_kernel(compiled, args, profile=True)``.  The default
``machine.profiler`` is ``None`` and each engine checks it once per
run — zero cost when disabled.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter

from ..snitch.isa import ISA, KIND_BRANCH, KIND_JUMP

#: Bucket names in report order.
BUCKETS = (
    "fpu_arith",
    "fpu_nonarith",
    "fpu_stall",
    "int_core",
    "ssr_wait",
    "branch_bubble",
)

REGIONS = ("scalar", "frep_body")

#: What :meth:`CycleProfiler.step` does per mnemonic, looked up once
#: per step: ``None`` (a plain ``int_core`` span, the common case),
#: ``"frep"``, ``"transfer"`` (branch or jump) or ``"csrci"``.
_STEP_KIND = {
    mnemonic: (
        "frep" if mnemonic == "frep.o"
        else "transfer" if op.unit in (KIND_BRANCH, KIND_JUMP)
        else "csrci" if mnemonic == "csrci"
        else None
    )
    for mnemonic, op in ISA.items()
}

# Field getters of timeline rows ``(issue, unit, text)`` and integer
# claims ``(start, end, bucket)``: finalize maps them in C.
_ISSUE = _START = itemgetter(0)
_END = itemgetter(1)
_TEXT = itemgetter(2)


def _stretches(windows, timeline):
    """The issue timeline cut at the FREP windows into ``(region,
    rows)`` stretches, in timeline order."""
    at = 0
    for tl0, tl1 in windows:
        yield "scalar", timeline[at:tl0]
        yield "frep_body", timeline[tl0:tl1]
        at = tl1
    yield "scalar", timeline[at:]


@dataclass
class CycleProfile:
    """Per-kernel cycle attribution (the Table 1 report row)."""

    cycles: int = 0
    flops: int = 0
    #: bucket -> cycles; sums to ``cycles``.
    buckets: dict = field(default_factory=dict)
    #: region -> bucket -> cycles; grand total is ``cycles``.
    regions: dict = field(default_factory=dict)
    #: ``cycles`` minus the buckets' sum — 0 while both timelines are
    #: contiguous; kept visible so a timing-model change that breaks
    #: contiguity is loud (positive: a hole, negative: an overlap).
    idle: int = 0

    @property
    def fpu_utilization(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.buckets.get("fpu_arith", 0) / self.cycles

    @property
    def flops_per_cycle(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.flops / self.cycles

    def to_json(self) -> dict:
        return {
            "cycles": self.cycles,
            "flops": self.flops,
            "fpu_utilization": self.fpu_utilization,
            "flops_per_cycle": self.flops_per_cycle,
            "buckets": dict(self.buckets),
            "regions": {
                region: dict(buckets)
                for region, buckets in self.regions.items()
            },
            "idle": self.idle,
        }

    def summary(self) -> str:
        lines = [
            f"cycles            {self.cycles}",
            f"flops             {self.flops}",
            f"flops/cycle       {self.flops_per_cycle:.3f}",
            f"fpu utilization   {100.0 * self.fpu_utilization:.1f}%",
        ]
        for bucket in BUCKETS:
            count = self.buckets.get(bucket, 0)
            share = 100.0 * count / self.cycles if self.cycles else 0.0
            lines.append(f"  {bucket:<15} {count:>10}  {share:5.1f}%")
        return "\n".join(lines)


class CycleProfiler:
    """Collects per-step claims from whichever engine runs.

    Attach before the run (``record_timeline`` must be on: the FPU
    side is reconstructed from the issue timeline), then
    :meth:`finalize` after it.  The hook is handed numbers, never the
    machine — the observer-effect-freedom test asserts profiled runs
    stay bit-identical.
    """

    def __init__(self):
        #: (start, end, bucket) claims on the integer timeline.
        self._int_claims: list[tuple[int, int, str]] = []
        #: [tl0, tl1) timeline-row windows covering FREP body issues.
        self._frep_windows: list[tuple[int, int]] = []

    @classmethod
    def attach(cls, machine) -> "CycleProfiler":
        """Create a profiler and hook it onto ``machine``."""
        if not machine.record_timeline:
            raise ValueError(
                "CycleProfiler needs record_timeline=True "
                "(the FPU side is derived from the issue timeline)"
            )
        profiler = cls()
        machine.profiler = profiler
        return profiler

    # -- engine hook -------------------------------------------------------------

    def step(
        self, inst, pc: int, pc_next: int,
        it0: int, it1: int, tl0: int, tl1: int,
    ) -> None:
        """One executed instruction (``frep.o`` with its whole replay
        is one step): the integer timeline moved ``it0 -> it1`` and the
        issue timeline grew from ``tl0`` to ``tl1`` rows."""
        kind = _STEP_KIND[inst.mnemonic]
        if kind is None:
            # Plain integer work, or the single dispatch slot of a
            # standalone FPU instruction.  Scoreboard stalls are the
            # integer core's problem, so the whole span is int_core.
            self._int_claims.append((it0, it1, "int_core"))
        elif kind == "frep":
            # frep.o issue + body dispatch into the sequencer; the FPU
            # rows appended during this step are the FREP body.
            self._int_claims.append((it0, it1, "int_core"))
            if tl1 > tl0:
                self._frep_windows.append((tl0, tl1))
        elif kind == "transfer" and pc_next != pc + 1:
            # Taken: the trailing cycles are the penalty.
            split = it1 - ISA[inst.mnemonic].latency
            self._int_claims.append((it0, split, "int_core"))
            self._int_claims.append((split, it1, "branch_bubble"))
        elif kind == "csrci":
            # One issue cycle, then the stream-disable drain: the
            # integer core parks until the FPU catches up.
            self._int_claims.append((it0, it0 + 1, "int_core"))
            if it1 > it0 + 1:
                self._int_claims.append((it0 + 1, it1, "ssr_wait"))
        else:
            self._int_claims.append((it0, it1, "int_core"))

    # -- report ------------------------------------------------------------------

    def finalize(self, machine) -> CycleProfile:
        """Count every bucket in closed form from the two timelines
        (see the module docstring): one pass over the issue timeline,
        one over the integer claims."""
        int_time, timeline = machine.int_time, machine.timeline
        total = max(int_time, machine.fpu_time)
        regions = {region: dict.fromkeys(BUCKETS, 0) for region in REGIONS}

        # FPU side, one stretch of the issue timeline at a time: the
        # FREP windows are frep_body, the rows between them scalar.
        # ``busy`` gathers every FPU issue cycle, ascending.
        busy: list[int] = []
        stretches = []  # (region, first, last) index ranges of busy
        texts: dict[str, list[str]] = {region: [] for region in REGIONS}
        for region, rows in _stretches(self._frep_windows, timeline):
            fpu = [row for row in rows if row[1] == "fpu"]
            texts[region] += map(_TEXT, fpu)
            stretches.append((region, len(busy), len(busy) + len(fpu)))
            busy += map(_ISSUE, fpu)

        for region, tally in regions.items():
            for text, rows in Counter(texts[region]).items():
                arith = ISA[text.split(None, 1)[0]].flops
                tally["fpu_arith" if arith else "fpu_nonarith"] += rows

        # A stall is a row's gap [prev_end, issue) clipped to start at
        # int_time; rows issued before int_time have none left.
        gap_from, tail = int_time, bisect_left(busy, int_time)
        for region, first, last in stretches:
            tally = regions[region]
            for issue in busy[max(first, tail):last]:
                if issue > gap_from:
                    tally["fpu_stall"] += issue - gap_from
                gap_from = issue + 1

        # Integer side: a claim [s, e) keeps e - s cycles less the busy
        # issues in it, below(e) - below(s).  The claims partition
        # [0, int_time), so int_core is their total length less all
        # busy issues below int_time, less what the few ssr_wait and
        # branch_bubble claims keep.
        claims = self._int_claims
        below = partial(bisect_left, busy)
        scalar = regions["scalar"]
        for start, end, bucket in [
            claim for claim in claims if claim[2] != "int_core"
        ]:
            scalar[bucket] += end - start - below(end) + below(start)
        scalar["int_core"] = (
            sum(map(_END, claims)) - sum(map(_START, claims))
            - below(int_time) - scalar["ssr_wait"] - scalar["branch_bubble"]
        )

        buckets = {
            bucket: sum(tally[bucket] for tally in regions.values())
            for bucket in BUCKETS
        }
        return CycleProfile(
            cycles=total,
            flops=machine.trace.flops,
            buckets=buckets,
            regions=regions,
            idle=total - sum(buckets.values()),
        )


__all__ = [
    "BUCKETS",
    "REGIONS",
    "CycleProfile",
    "CycleProfiler",
]
