"""Unified observability layer: span tracing and profiling.

Three instruments, one package; the counts a compile, a
simulation or a served request produce live with their owners
(``CompiledKernel.pass_timings``/``pass_stats``, the server's
``stats()``), not in a registry here:

* :mod:`repro.obs.tracing` — a ``contextvars``-based span tracer with
  parent/child propagation, correlation IDs, and Chrome trace-event
  (Perfetto-loadable) JSON export.  Disabled by default: every
  instrumentation site checks a context-local recorder and is a no-op
  (one ``ContextVar.get``) until :func:`repro.obs.tracing.recording`
  installs one.
* :mod:`repro.obs.profiler` — a cycle-attribution profiler that rides
  the simulator (either engine) and breaks a kernel's total latency into
  FPU-arith / FPU-nonarith / FPU-stall / branch-bubble / SSR-wait /
  int-core buckets per region (FREP body vs. scalar), reproducing the
  paper's Table 1 FPU-utilization methodology.
* :mod:`repro.obs.hostprof` — a bytecode counter that charges every
  Python bytecode of a compile to one pass, its post-pass verify or
  the unattributed residual.

See ``docs/OBSERVABILITY.md`` for where each count lives, the span
taxonomy and correlation-ID semantics.
"""

from .tracing import (
    TraceRecorder,
    correlation,
    correlation_id,
    new_correlation_id,
    recording,
    span,
    tracing_enabled,
)

__all__ = [
    "TraceRecorder",
    "correlation",
    "correlation_id",
    "new_correlation_id",
    "recording",
    "span",
    "tracing_enabled",
]
