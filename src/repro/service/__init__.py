"""Compile-and-tune as a service.

The multi-level compilation flow is deterministic: one (canonical
module text, pipeline spec, engine + compiler version) triple always
yields the same assembly, pass statistics, and simulated cycle count.
This package turns that determinism into a serving layer:

* :mod:`repro.service.server` — :class:`CompileServer`, a long-lived
  batch server: store-first request handling, single-flight
  deduplication of identical in-flight requests, a
  :class:`~repro.runtime.workers.HardenedPool` worker tier for compile
  and simulate jobs, and per-request structured fault reporting via
  the :mod:`repro.runtime.faults` taxonomy;
* :mod:`repro.service.journal` — :class:`RequestJournal`, the
  server's crash-safe record of accepted-but-unfinished work;
* :mod:`repro.service.wire` — the server's end of the wire protocol:
  a Unix-socket ``serve_forever`` loop (threaded connections, request
  deadlines, admission backpressure, graceful SIGTERM/SIGINT drain
  with documented exit codes, and a chaos injection layer via
  ``REPRO_FAULTS``);
* :mod:`repro.service.client` — :class:`ServiceClient`:
  connect/call timeouts, bounded retry with exponential backoff +
  jitter, transparent reconnect across server restarts, and a circuit
  breaker (:class:`CircuitOpenError`) that half-opens on a probe
  ping.  Transport failures surface as :class:`ServiceUnavailable`
  carrying a structured taxonomy fault.

What the service shares with the tuner sits one layer down in
:mod:`repro.runtime`: the fault taxonomy, the worker pool, the
durable-write helper and the content-addressed
:class:`ArtifactStore`, re-exported here because serving from it is
the point.

``api.compile_linalg``/``api.compile_lowlevel`` accept ``store=`` for
an opt-in content-addressed fast path, ``tune_kernel`` reads and
writes :class:`~repro.tune.schedule.TunedSchedule` artifacts through
the same store, and ``python -m repro.tools.kernel_service`` is the
CLI (``serve`` / ``submit`` / ``batch`` / ``stats`` / ``gc``).

See ``docs/SERVICE.md``.
"""

from ..runtime.store import ArtifactStore, StoreError
from .client import (
    CircuitOpenError,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
)
from .journal import RequestJournal
from .server import CompileServer, ServiceRequest, ServiceResult
from .wire import (
    EXIT_CRASH,
    EXIT_OK,
    EXIT_SIGINT,
    EXIT_SIGTERM,
    serve_forever,
)

__all__ = [
    "EXIT_CRASH",
    "EXIT_OK",
    "EXIT_SIGINT",
    "EXIT_SIGTERM",
    "ArtifactStore",
    "CircuitOpenError",
    "CompileServer",
    "RequestJournal",
    "ServiceClient",
    "ServiceError",
    "ServiceRequest",
    "ServiceResult",
    "ServiceUnavailable",
    "StoreError",
    "serve_forever",
]
