"""Schedule-space autotuning (cycle-oracle search).

The unroll-and-jam factor is a scheduling decision the compiler
normally makes with a heuristic; the predecoded simulator is fast
enough to *measure* every legal choice instead of predicting it.
This package closes that loop:

* :mod:`repro.tune.schedule` — :class:`ScheduleConfig` (one point in
  the schedule space, round-trippable as a pipeline-spec string),
  :class:`ScheduleSpace` (the legal configs of one kernel) and
  :class:`TunedSchedule` (a persisted winning schedule that
  ``api``/``kernels.networks`` can apply);
* :mod:`repro.tune.search` — :func:`evaluate_config`, the cycle
  oracle (one single-core compile, run and numpy check, returning
  ``(cycles, fault)``; the service's ``measure`` jobs call it too),
  and :func:`tune_kernel`, one serial, exhaustive search over it;
* :mod:`repro.tune.cache` — a crash-safe persistent JSON cycle cache
  keyed by (kernel, shape, config, validate, engine + compiler
  version) so repeated tuning runs and CI are incremental (corrupt
  files quarantine, concurrent savers merge).

Every evaluation failure is classified into the structured fault
taxonomy of :mod:`repro.runtime.faults`, shared with the service and
re-exported here because it is the type of ``CandidateOutcome.fault``.

See ``docs/TUNING.md``, ``docs/ROBUSTNESS.md`` and
``python -m repro.tools.kernel_tuner``.
"""

from ..runtime.faults import (
    FAULT_KINDS,
    CompileFault,
    Fault,
    SimFault,
    TimeoutFault,
    UnknownFault,
    VerifyFault,
    classify_error,
)
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
    TuneResult,
    evaluate_config,
    tune_kernel,
)

__all__ = [
    "FAULT_KINDS",
    "CandidateOutcome",
    "CompileFault",
    "Fault",
    "ScheduleConfig",
    "ScheduleError",
    "ScheduleSpace",
    "SimFault",
    "TimeoutFault",
    "TuneCache",
    "TuneResult",
    "TunedSchedule",
    "UnknownFault",
    "VerifyFault",
    "classify_error",
    "evaluate_config",
    "load_schedules",
    "save_schedules",
    "schedule_table",
    "tune_kernel",
]
