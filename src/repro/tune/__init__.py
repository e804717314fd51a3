"""Schedule-space autotuning (cycle-oracle search).

The scheduling decisions the compiler normally makes heuristically —
the unroll-and-jam factor (a pass option) and the cluster core count
(an execution choice) — are explicit here, and the predecoded
simulator is fast enough to *measure* every choice instead of
predicting it.  This package closes that loop:

* :mod:`repro.tune.schedule` — :class:`ScheduleConfig` (one point in
  the schedule space, round-trippable as a pipeline-spec string),
  :class:`ScheduleSpace` (the legal configs of one kernel) and
  :class:`TunedSchedule` (a persisted winning schedule that
  ``api``/``kernels.networks`` can apply);
* :mod:`repro.tune.search` — the search driver: exhaustive, budgeted
  random, and greedy coordinate-descent strategies, each candidate
  compiled through the ``Compiler`` facade and scored by cycles on the
  predecoded engine (optionally fanned out across worker processes);
* :mod:`repro.tune.cache` — a crash-safe persistent JSON cycle cache
  keyed by (kernel, shape, config, engine + compiler version) so
  repeated tuning runs and CI are incremental (corrupt files
  quarantine, concurrent savers merge).

What the tuner shares with the service lives one layer down, in
:mod:`repro.runtime`, and is re-exported here where it is part of the
tuner's API: the structured fault taxonomy every evaluation failure
is classified into plus the deterministic fault-injection harness the
chaos tests drive (:mod:`repro.runtime.faults`), and
:class:`HardenedPool`, the retry/timeout/respawn/degrade worker pool
candidate evaluation runs on (:mod:`repro.runtime.workers`).

See ``docs/TUNING.md``, ``docs/ROBUSTNESS.md`` and
``python -m repro.tools.kernel_tuner``.
"""

from ..runtime.faults import (
    FAULT_KINDS,
    CancelledFault,
    CompileFault,
    Fault,
    FaultInjector,
    InjectedError,
    Injection,
    OverloadFault,
    SimFault,
    TimeoutFault,
    TransportFault,
    UnknownFault,
    VerifyFault,
    WorkerCrash,
    classify_error,
)
from ..runtime.workers import HardenedPool, PoolConfig
from .cache import TuneCache
from .schedule import (
    ScheduleConfig,
    ScheduleError,
    ScheduleSpace,
    TunedSchedule,
    load_schedules,
    save_schedules,
    schedule_table,
)
from .search import (
    CandidateOutcome,
    SearchInterrupted,
    TuneResult,
    evaluate_config,
    tune_kernel,
)

__all__ = [
    "FAULT_KINDS",
    "CancelledFault",
    "CandidateOutcome",
    "CompileFault",
    "Fault",
    "FaultInjector",
    "HardenedPool",
    "InjectedError",
    "Injection",
    "OverloadFault",
    "PoolConfig",
    "ScheduleConfig",
    "ScheduleError",
    "ScheduleSpace",
    "SearchInterrupted",
    "SimFault",
    "TimeoutFault",
    "TransportFault",
    "TuneCache",
    "TuneResult",
    "TunedSchedule",
    "UnknownFault",
    "VerifyFault",
    "WorkerCrash",
    "classify_error",
    "evaluate_config",
    "load_schedules",
    "save_schedules",
    "schedule_table",
    "tune_kernel",
]
