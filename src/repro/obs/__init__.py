"""Unified observability layer: metrics, span tracing, profiling.

Three instruments, one package (PR 10):

* :mod:`repro.obs.metrics` — a thread-safe labeled metrics registry
  (counters, gauges, histograms) with ``snapshot()``/``delta()`` and
  JSON / Prometheus-text export.  The process-wide :data:`METRICS`
  registry absorbs the formerly scattered module globals: the
  engine's decode counts are plain registry counters
  (``engine_programs_decoded``, ``engine_instructions_decoded``);
  ``REWRITE_STATS`` survives as a thin view over its atomic counters.
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

See ``docs/OBSERVABILITY.md`` for the metric names, span taxonomy and
correlation-ID semantics.
"""

from .metrics import METRICS, Counter, Gauge, Histogram, MetricsRegistry
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
    "METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceRecorder",
    "correlation",
    "correlation_id",
    "new_correlation_id",
    "recording",
    "span",
    "tracing_enabled",
]
