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
max — so painting per-cycle claims from both sides into one array
yields a complete attribution with **zero idle cycles** and buckets
that sum exactly to the total.

Buckets (painted in ascending priority; later overwrites earlier, so
a cycle where the FPU retires arithmetic counts as ``fpu_arith`` even
if the integer core was also busy — the utilization semantics — while
a cycle where the FPU merely *waits* is charged to whatever the
machine was actually doing, so scalar-pipeline kernels show their
address-arithmetic bottleneck as ``int_core``, not as FPU stalls):

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

from dataclasses import dataclass, field

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

#: Paint order (ascending priority: later overwrites earlier).  FPU
#: busy cycles always win (dual issue — the FPU working is the useful
#: outcome); int-side attributions beat bare FPU stalls.
PAINT_ORDER = (
    "fpu_stall",
    "int_core",
    "ssr_wait",
    "branch_bubble",
    "fpu_nonarith",
    "fpu_arith",
)

REGIONS = ("scalar", "frep_body")

_IDLE = 0  # array code for "no claim" — must never survive finalize


@dataclass
class CycleProfile:
    """Per-kernel cycle attribution (the Table 1 report row)."""

    cycles: int = 0
    flops: int = 0
    #: bucket -> cycles; sums to ``cycles``.
    buckets: dict = field(default_factory=dict)
    #: region -> bucket -> cycles; grand total is ``cycles``.
    regions: dict = field(default_factory=dict)
    #: cycles no claim covered — 0 by construction; kept visible so a
    #: future timing-model change that breaks contiguity is loud.
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
        op = ISA[inst.mnemonic]
        if inst.mnemonic == "frep.o":
            # frep.o issue + body dispatch into the sequencer; the FPU
            # rows appended during this step are the FREP body.
            self._int_claims.append((it0, it1, "int_core"))
            if tl1 > tl0:
                self._frep_windows.append((tl0, tl1))
        elif op.unit in (KIND_BRANCH, KIND_JUMP):
            if pc_next != pc + 1:  # taken: trailing penalty
                split = it1 - op.latency
                self._int_claims.append((it0, split, "int_core"))
                self._int_claims.append((split, it1, "branch_bubble"))
            else:
                self._int_claims.append((it0, it1, "int_core"))
        elif inst.mnemonic == "csrci":
            # One issue cycle, then the stream-disable drain: the
            # integer core parks until the FPU catches up.
            self._int_claims.append((it0, it0 + 1, "int_core"))
            if it1 > it0 + 1:
                self._int_claims.append((it0 + 1, it1, "ssr_wait"))
        else:
            # Plain integer work, or the single dispatch slot of a
            # standalone FPU instruction.  Scoreboard stalls are the
            # integer core's problem, so the whole span is int_core.
            self._int_claims.append((it0, it1, "int_core"))

    # -- report ------------------------------------------------------------------

    def finalize(self, machine) -> CycleProfile:
        """Paint all claims into a cycle array and tally buckets."""
        total = max(machine.int_time, machine.fpu_time)
        trace = machine.trace

        # (region, bucket) -> small int code, in paint order.
        codes: dict[tuple[str, str], int] = {}
        claims: list[tuple[int, int, int]] = []

        def claim(start: int, end: int, region: str, bucket: str) -> None:
            start, end = max(0, start), min(end, total)
            if start >= end:
                return
            key = (region, bucket)
            code = codes.setdefault(key, len(codes) + 1)
            claims.append((start, end, code))

        for start, end, bucket in self._int_claims:
            claim(start, end, "scalar", bucket)

        # FPU side from the issue timeline: stall gap then busy cycle,
        # per instruction, contiguous over [0, fpu_time).
        windows = iter(self._frep_windows)
        window = next(windows, None)
        prev_end = 0
        for index, (issue, unit, text) in enumerate(machine.timeline):
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

        # Paint in bucket-priority order; later paints overwrite, so a
        # cycle claimed by both sides lands in the higher bucket.
        priority = {
            bucket: rank for rank, bucket in enumerate(PAINT_ORDER)
        }
        rank_of = {
            code: priority[bucket]
            for (_, bucket), code in codes.items()
        }
        array = bytearray(total)
        for start, end, code in sorted(
            claims, key=lambda item: rank_of[item[2]]
        ):
            array[start:end] = bytes([code]) * (end - start)

        buckets = {bucket: 0 for bucket in BUCKETS}
        regions = {
            region: {bucket: 0 for bucket in BUCKETS}
            for region in REGIONS
        }
        for (region, bucket), code in codes.items():
            count = array.count(code)
            buckets[bucket] += count
            regions[region][bucket] += count
        idle = array.count(_IDLE)

        return CycleProfile(
            cycles=total,
            flops=trace.flops,
            buckets=buckets,
            regions=regions,
            idle=idle,
        )


__all__ = [
    "BUCKETS",
    "PAINT_ORDER",
    "REGIONS",
    "CycleProfile",
    "CycleProfiler",
]
