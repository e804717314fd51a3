"""Cycle-oracle schedule search.

:func:`tune_kernel` walks a kernel's
:class:`~repro.tune.schedule.ScheduleSpace` — a handful of unroll
factors — and *measures* every config, serially and in-process:
look it up in the :class:`~repro.tune.cache.TuneCache`; on a miss
score it with :func:`evaluate_config`, the cycle oracle: compile it
through the ordinary ``Compiler`` facade with the config's pipeline
spec, run it on the predecoded engine and check it against the numpy
oracle.  Every failure becomes a structured
:class:`~repro.runtime.faults.Fault` on the candidate's outcome;
deterministic ones are cached with their provenance, so reruns skip
them.  The compiler default is measured first, so the winning
schedule is never worse than the untuned pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .. import api
from ..compiler import Compiler
from ..obs.tracing import span
from ..runtime.faults import Fault, classify_error
from .cache import TuneCache
from .schedule import (
    ScheduleConfig,
    ScheduleError,
    ScheduleSpace,
    TunedSchedule,
    resolve_kernel,
)


def evaluate_config(
    kernel: str,
    sizes: Sequence[int],
    config: ScheduleConfig,
    seed: int = 0,
    validate: bool = True,
    deadline_seconds: float | None = None,
) -> tuple[int | None, Fault | None]:
    """The cycle oracle: ``(cycles, None)`` of one schedule config, or
    ``(None, fault)``.

    Compiles the kernel with the config's pipeline spec, simulates it
    single-core on the predecoded engine (``deadline_seconds`` arms
    its wall-clock watchdog) and, with ``validate``, runs
    ``KernelSpec.check``.  An ``Exception`` becomes a fault classified
    by the stage it escaped and stamped with the config's key.
    """
    stage = "compile"
    try:
        builder, sizes = resolve_kernel(kernel, sizes)
        module, kernel_spec = builder(*sizes)
        arguments = kernel_spec.random_arguments(seed=seed)
        compiled = Compiler(config.pipeline_spec()).compile(module)
        stage = "simulate"
        run = api.run_kernel(
            compiled, arguments, deadline_seconds=deadline_seconds
        )
        if validate:
            stage = "verify"
            kernel_spec.check(arguments, run.arrays)
        return run.trace.cycles, None
    except Exception as error:  # classify, don't rank
        return None, classify_error(
            error, stage=stage, candidate=config.key()
        )


@dataclass
class CandidateOutcome:
    """One scored (or failed) schedule candidate."""

    config: ScheduleConfig
    #: Measured cycles; None when the config failed.
    cycles: int | None
    #: Whether the score came from the persistent cache.
    cached: bool
    #: Structured failure (None for a successful measurement).
    fault: Fault | None = None

    @property
    def valid(self) -> bool:
        return self.cycles is not None


@dataclass
class TuneResult:
    """Everything one tuning run learned."""

    kernel: str
    sizes: tuple[int, ...]
    seed: int
    best: TunedSchedule
    candidates: list[CandidateOutcome] = field(default_factory=list)
    #: Persistent-cache traffic of this run only.
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def default_cycles(self) -> int:
        return self.best.default_cycles

    @property
    def candidates_evaluated(self) -> int:
        return len(self.candidates)

    @property
    def faults(self) -> list[Fault]:
        """Structured faults of every failed candidate."""
        return [o.fault for o in self.candidates if o.fault is not None]

    def report(self) -> str:
        """A per-candidate table plus the winning schedule."""
        lines = [
            f"{self.kernel} {'x'.join(map(str, self.sizes))}: "
            f"{self.candidates_evaluated} candidates (seed {self.seed}), "
            f"default {self.default_cycles} -> best {self.best.cycles} "
            f"cycles ({self.best.speedup:.2f}x)",
            f"{'config':<36} {'cycles':>8} {'source':>7}",
        ]
        for outcome in sorted(
            self.candidates,
            key=lambda o: (o.cycles is None, o.cycles or 0),
        ):
            cycles = "failed" if not outcome.valid else str(outcome.cycles)
            source = "cache" if outcome.cached else "run"
            line = f"{outcome.config.key():<36} {cycles:>8} {source:>7}"
            if outcome.fault is not None:
                line += f"  [{outcome.fault.kind}]"
            lines.append(line)
        lines.append(f"winning spec: {self.best.pipeline_spec}")
        return "\n".join(lines)


def tune_kernel(
    kernel: str,
    sizes: Sequence[int],
    strategy: str = "exhaustive",
    seed: int = 0,
    cache: TuneCache | str | Path | None = None,
    validate: bool = True,
    deadline: float | None = None,
    workers: int | None = None,
) -> TuneResult:
    """Measure every config of a kernel's schedule space; returns the
    full result.

    ``seed`` fixes the input data, so a tuning run is reproducible end
    to end.  ``cache`` may be a path (opened, used, and saved) or an
    existing :class:`TuneCache` (saved but kept open, so several
    kernels can share one store); it is saved on the way out, also
    when the search is interrupted.  ``deadline`` bounds each
    candidate's wall-clock seconds through the engine's cooperative
    :class:`~repro.snitch.machine.DeadlineExceeded`; a timed-out
    candidate is a transient fault and is not cached.

    ``strategy`` (only ``"exhaustive"``) and ``workers`` (only
    ``None`` or ``1``) are accepted because the end-to-end benchmark,
    which ordinary changes leave frozen, still passes them; they go
    with the next change to the benchmark.
    """
    if strategy != "exhaustive":
        raise ScheduleError(
            f"unknown strategy {strategy!r} (the search is exhaustive)"
        )
    if workers not in (None, 1):
        raise ScheduleError(
            f"workers={workers!r}: the search runs serially"
        )
    space = ScheduleSpace.for_kernel(kernel, sizes)
    if not isinstance(cache, TuneCache):
        cache = TuneCache(cache)
    hits0, misses0 = cache.hits, cache.misses
    candidates: list[CandidateOutcome] = []
    try:
        with span("tune.search", kernel=kernel):
            for config in space.configs():
                key = TuneCache.key(
                    space.kernel, space.sizes, config, validate
                )
                cached, cycles, fault = cache.lookup(key)
                if not cached:
                    with span("tune.candidate", candidate=config.key()):
                        cycles, fault = evaluate_config(
                            space.kernel,
                            space.sizes,
                            config,
                            seed=seed,
                            validate=validate,
                            deadline_seconds=deadline,
                        )
                    if fault is None:
                        cache.put(key, cycles)
                    elif not fault.retryable:
                        # Deterministic failures are worth remembering;
                        # a timeout may succeed next run.
                        cache.put_failure(key, fault)
                candidates.append(
                    CandidateOutcome(
                        config=config,
                        cycles=cycles,
                        cached=cached,
                        fault=fault,
                    )
                )
    finally:
        cache.save()
    default = candidates[0]
    if not default.valid:
        raise ScheduleError(
            f"{space.kernel}: the default schedule failed "
            f"({default.fault.describe()}); tuning has no baseline"
        )
    best = min(
        (o for o in candidates if o.valid), key=lambda o: o.cycles
    )
    return TuneResult(
        kernel=space.kernel,
        sizes=space.sizes,
        seed=seed,
        best=TunedSchedule(
            kernel=space.kernel,
            sizes=space.sizes,
            config=best.config,
            pipeline_spec=best.config.pipeline_spec(),
            cycles=best.cycles,
            default_cycles=default.cycles,
        ),
        candidates=candidates,
        cache_hits=cache.hits - hits0,
        cache_misses=cache.misses - misses0,
    )


__all__ = [
    "CandidateOutcome",
    "TuneResult",
    "evaluate_config",
    "tune_kernel",
]
