"""The long-lived compile-and-tune batch server.

:class:`CompileServer` is the in-process serving core (the Unix-socket
front end lives in :mod:`repro.service.wire`).  Every request is one
deterministic job — compile a kernel through a pipeline spec, or
measure a schedule config's cycles — and resolution is store-first:

1. the request is mapped to its content address (sha256 of canonical
   module text, canonical pipeline spec / config key, engine and
   compiler version);
2. the :class:`~repro.runtime.store.ArtifactStore` is consulted — a
   hit rehydrates the artifact without touching a worker;
3. misses are **single-flight deduplicated**: identical keys within a
   batch collapse to one job, and a key another thread is already
   computing is awaited instead of recomputed;
4. remaining jobs fan out across a
   :class:`~repro.runtime.workers.HardenedPool` (watchdog timeouts,
   bounded retry, crash respawn, degradation to serial — PR 6's
   service-grade worker tier);
5. results are persisted to the store; failures come back as
   structured :class:`~repro.runtime.faults.Fault` values on the result,
   never as exceptions — a batch always returns one result per
   request.

:meth:`CompileServer.submit` is a batch of one, so a request behaves
identically alone and in a batch.

The server is thread-safe: concurrent :meth:`submit` calls from many
threads share in-flight work and serialize on the worker pool.
:meth:`stats` reports traffic, dedup counts, fault histograms, pool
events, and the sizes of the process-wide caches a long-lived server
must keep bounded (the engine decode cache, the network layer memo).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace as _replace

from ..compiler import CompiledKernel, Compiler, artifact_versions
from ..ir.printer import print_op
from ..kernels import networks
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import correlation_id, span
from ..runtime.faults import (
    CancelledFault,
    Fault,
    OverloadFault,
    TimeoutFault,
    classify_error,
)
from ..runtime.store import (
    ArtifactStore,
    StoreError,
    compile_key,
    content_key,
)
from ..runtime.workers import HardenedPool, PoolConfig
from ..snitch import engine
from ..tune.schedule import ScheduleConfig, resolve_kernel
from ..tune.search import evaluate_config
from .journal import RequestJournal

#: Request kinds the server understands.
REQUEST_KINDS = ("compile", "measure")


@dataclass(frozen=True)
class ServiceRequest:
    """One deterministic job for the compile server.

    ``kind="compile"`` compiles ``kernel`` at ``sizes`` through
    ``pipeline`` (a named pipeline or raw spec) and yields a
    :class:`~repro.compiler.CompiledKernel` artifact.

    ``kind="measure"`` scores schedule ``config`` by simulated cycles
    (the tuner's cycle oracle — multi-core configs row-partition
    across a cluster), validated against the numpy oracle when
    ``validate`` is set, and yields a ``{"cycles": N}`` artifact.
    """

    kind: str
    kernel: str
    sizes: tuple[int, ...]
    pipeline: str = "ours"
    config: ScheduleConfig = field(default_factory=ScheduleConfig)
    seed: int = 0
    validate: bool = True

    def __post_init__(self):
        if self.kind not in REQUEST_KINDS:
            raise StoreError(
                f"unknown request kind {self.kind!r} "
                f"(one of {', '.join(REQUEST_KINDS)})"
            )
        object.__setattr__(
            self, "sizes", tuple(int(s) for s in self.sizes)
        )

    def label(self) -> str:
        shape = "x".join(map(str, self.sizes))
        if self.kind == "compile":
            return f"compile {self.kernel} {shape} [{self.pipeline}]"
        return f"measure {self.kernel} {shape} [{self.config.key()}]"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "kernel": self.kernel,
            "sizes": list(self.sizes),
            "pipeline": self.pipeline,
            "config": self.config.to_json(),
            "seed": self.seed,
            "validate": self.validate,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ServiceRequest":
        try:
            return cls(
                kind=data["kind"],
                kernel=data["kernel"],
                sizes=tuple(data["sizes"]),
                pipeline=data.get("pipeline", "ours"),
                config=ScheduleConfig.from_json(
                    data.get("config") or {}
                ),
                seed=int(data.get("seed", 0)),
                validate=bool(data.get("validate", True)),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise StoreError(
                f"malformed service request: {error}"
            ) from None


@dataclass
class ServiceResult:
    """One request's outcome: an artifact payload or a structured
    fault, plus provenance (where it came from, how long it took)."""

    request: ServiceRequest
    #: Artifact kind/key in the store ("" when keying itself failed).
    artifact_kind: str
    key: str
    #: The artifact payload (kernel JSON / ``{"cycles": N}``); None on
    #: failure.
    payload: dict | None
    #: Structured failure (None on success).
    fault: Fault | None
    #: "store" (cache hit) | "computed" (fresh job) | "inflight"
    #: (another thread/batch slot computed it first) | "failed"
    #: (computation faulted) | "rejected" (refused at admission:
    #: overload or draining).
    source: str
    #: Submit-to-result wall-clock seconds.
    latency: float
    #: The correlation ID this request was served under ("" when the
    #: caller did not send one) — minted by :class:`ServiceClient`,
    #: carried on the wire message, echoed here and in the server's
    #: recent-request stats so one request can be joined across
    #: client, server, worker and simulator spans.
    correlation_id: str = ""

    @property
    def ok(self) -> bool:
        return self.payload is not None

    def kernel(self) -> CompiledKernel:
        """Rehydrate a compile result's kernel (no recompilation)."""
        if self.request.kind != "compile" or self.payload is None:
            raise StoreError(
                f"no compiled kernel on this result ({self.source}, "
                f"{self.request.label()})"
            )
        return CompiledKernel.from_json(self.payload)

    def to_json(self) -> dict:
        return {
            "request": self.request.to_json(),
            "artifact_kind": self.artifact_kind,
            "key": self.key,
            "payload": self.payload,
            "fault": self.fault.to_json() if self.fault else None,
            "source": self.source,
            "latency": self.latency,
            "correlation_id": self.correlation_id,
        }


def request_key(request: ServiceRequest) -> tuple[str, str]:
    """(artifact kind, content address) of one request.

    Compile requests share the keyspace of the ``api.compile_linalg``
    store fast path: sha256 of (canonical module text, canonical
    pipeline spec, engine and compiler version), so a server-filled
    store also
    serves direct API users and vice versa.
    """
    builder, sizes = resolve_kernel(request.kernel, request.sizes)
    module, _ = builder(*sizes)
    text = print_op(module)
    if request.kind == "compile":
        spec = Compiler(request.pipeline).pipeline_spec
        return "kernel", compile_key(text, spec)
    return "cycles", content_key(
        text,
        f"measure|{request.config.key()}|seed={request.seed}"
        f"|validate={request.validate}",
        *artifact_versions(),
    )


def _service_task(task) -> tuple[dict | None, dict | None]:
    """One job in a pool worker: (payload, fault_json), never raises.
    (The pool carries the ``worker.job`` span home from a forked
    worker; the artifact itself never holds spans.)"""
    (request, deadline), _injection = task
    stage: list[str] = ["prepare"]
    try:
        with span("worker.job", label=request.kernel):
            if request.kind == "compile":
                stage[:] = ["compile"]
                builder, sizes = resolve_kernel(
                    request.kernel, request.sizes
                )
                module, _ = builder(*sizes)
                compiled = Compiler(request.pipeline).compile(module)
                return compiled.to_json(), None
            cycles = evaluate_config(
                request.kernel,
                request.sizes,
                request.config,
                seed=request.seed,
                validate=request.validate,
                deadline_seconds=deadline,
                stage_out=stage,
            )
            return {"cycles": cycles}, None
    except Exception as error:  # classify, don't propagate
        fault = classify_error(
            error, stage=stage[0] if stage else None
        )
        return None, fault.to_json()


class _InFlight:
    """One key's in-flight computation, shared across waiters."""

    __slots__ = ("event", "result")

    def __init__(self):
        self.event = threading.Event()
        self.result: ServiceResult | None = None


class CompileServer:
    """Store-first, single-flight, pool-backed job server (see
    module docstring).  One server owns one
    :class:`~repro.runtime.workers.HardenedPool`; call :meth:`close`
    (or use as a context manager) when done."""

    def __init__(
        self,
        store: ArtifactStore,
        workers: int = 1,
        deadline: float | None = None,
        retries: int = 2,
        max_inflight: int | None = None,
        request_deadline: float | None = None,
        journal: RequestJournal | None = None,
    ):
        self.store = store
        self.deadline = deadline
        #: Admission high-water mark: requests in flight (admitted,
        #: not yet resolved) beyond this are refused with a retryable
        #: OverloadFault instead of queuing unboundedly.
        self.max_inflight = max_inflight
        #: Default per-request wall-clock budget, admission to result
        #: (a per-call ``deadline=`` overrides it).
        self.request_deadline = request_deadline
        self.journal = journal
        #: Accepted-but-unfinished work a *previous* server left in
        #: the journal (it died mid-batch); swept and reported here so
        #: clients know to resubmit — completed keys come back as
        #: cheap store hits.
        self.interrupted: list[dict] = (
            journal.sweep() if journal is not None else []
        )
        self.pool = HardenedPool(
            _service_task,
            PoolConfig(
                workers=max(1, workers),
                deadline=deadline,
                retries=retries,
            ),
        )
        # Fork workers before any connection exists (prestart says why).
        self.pool.prestart()
        self.started_at = time.monotonic()
        self._mutex = threading.Lock()
        #: Worker-pool access is serialized: HardenedPool.map is not
        #: reentrant.  Single-flight dedup keeps contention low —
        #: identical concurrent requests never both reach the pool.
        self._pool_mutex = threading.Lock()
        self._inflight: dict[tuple[str, str], _InFlight] = {}
        self._draining = False
        self._inflight_requests = 0
        #: Signalled whenever the in-flight request count drops —
        #: :meth:`drain` waits on it.
        self._idle = threading.Condition(self._mutex)
        #: Per-server metrics (private registry: one server per test
        #: must not see another's traffic).  The historical counter
        #: names are pre-registered so :meth:`stats` always reports
        #: the full set, zeros included.
        self.metrics = MetricsRegistry()
        for name in self._COUNTER_NAMES:
            self.metrics.counter(name)
        self._fault_kinds: dict[str, int] = {}
        #: Most recent requests (key, correlation id, source,
        #: latency) — the stats-side echo of the correlation IDs.
        self._recent: deque[dict] = deque(maxlen=32)

    _COUNTER_NAMES = (
        "requests",
        "store_hits",
        "computed",
        "deduped_in_batch",
        "joined_inflight",
        "faults",
        "rejected_overload",
        "rejected_draining",
        "deadline_expired",
    )

    # -- bookkeeping ----------------------------------------------------------

    def _count(self, name: str, by: int = 1) -> None:
        self.metrics.counter(name).inc(by)

    def _record_fault(self, fault: Fault) -> None:
        self.metrics.counter("faults").inc()
        with self._mutex:
            self._fault_kinds[fault.kind] = (
                self._fault_kinds.get(fault.kind, 0) + 1
            )

    def _finish(self, result: ServiceResult) -> ServiceResult:
        """Stamp the context's correlation ID on a resolved result and
        record it in the latency histogram + recent-request ring."""
        cid = correlation_id() or ""
        result.correlation_id = cid
        self.metrics.histogram(
            "request_latency_seconds", source=result.source
        ).observe(result.latency)
        with self._mutex:
            self._recent.append(
                {
                    "kind": result.request.kind,
                    "label": result.request.label(),
                    "key": result.key,
                    "correlation_id": cid,
                    "source": result.source,
                    "latency": result.latency,
                }
            )
        return result

    def _fail(
        self,
        request: ServiceRequest,
        error: Exception,
        stage: str,
        t0: float,
        artifact_kind: str = "",
        key: str = "",
    ) -> ServiceResult:
        fault = classify_error(
            error, stage=stage, candidate=request.label()
        )
        self._record_fault(fault)
        return self._result(
            request, artifact_kind, key, t0, "failed", fault=fault
        )

    @staticmethod
    def _result(
        request: ServiceRequest,
        artifact_kind: str,
        key: str,
        t0: float,
        source: str,
        payload: dict | None = None,
        fault: Fault | None = None,
    ) -> ServiceResult:
        """A result stamped with its submit-to-now latency."""
        return ServiceResult(
            request=request,
            artifact_kind=artifact_kind,
            key=key,
            payload=payload,
            fault=fault,
            source=source,
            latency=time.monotonic() - t0,
        )

    # -- admission, drain, deadlines ------------------------------------------

    def _admit(self, count: int) -> str | None:
        """Admit ``count`` requests, or the refusal reason."""
        with self._mutex:
            if self._draining:
                return "draining"
            if (
                self.max_inflight is not None
                and self._inflight_requests + count > self.max_inflight
            ):
                return "overload"
            self._inflight_requests += count
            return None

    def _release(self, count: int) -> None:
        with self._idle:
            self._inflight_requests -= count
            self._idle.notify_all()

    def _refuse(
        self, request: ServiceRequest, reason: str, t0: float
    ) -> ServiceResult:
        """A structured admission refusal (never an exception)."""
        if reason == "draining":
            self._count("rejected_draining")
            fault: Fault = CancelledFault(
                message=(
                    "server is draining; retry against a restarted "
                    "server"
                ),
                candidate=request.label(),
                stage="admission",
            )
        else:
            self._count("rejected_overload")
            fault = OverloadFault(
                message=(
                    f"server at max in-flight capacity "
                    f"({self.max_inflight}); retry with backoff"
                ),
                candidate=request.label(),
                stage="admission",
            )
        self._record_fault(fault)
        return self._result(request, "", "", t0, "rejected", fault=fault)

    def reject(
        self, request: ServiceRequest, reason: str = "overload"
    ) -> ServiceResult:
        """A structured admission refusal *without* admitting —
        the ``reject-admission`` chaos injection uses this to make an
        injected overload indistinguishable from a real one."""
        self._count("requests")
        return self._finish(self._refuse(request, reason, time.monotonic()))

    def _enforce_deadline(
        self, result: ServiceResult, budget: float | None
    ) -> ServiceResult:
        """Fault a result that finished past its wall-clock budget.

        The artifact (if any) stays in the store — a client retry is
        a cheap store hit — but the caller is told the truth: the
        deadline was missed.  Results that already carry a fault keep
        their original, more specific fault.
        """
        if (
            budget is None
            or result.fault is not None
            or result.latency <= budget
        ):
            return result
        fault = self._deadline_fault(
            result.request,
            f"request exceeded its {budget:g}s wall-clock deadline "
            f"(took {result.latency:.3f}s)",
        )
        return _replace(
            result, payload=None, fault=fault, source="failed"
        )

    def _deadline_fault(
        self, request: ServiceRequest, message: str
    ) -> TimeoutFault:
        """Record (and return) one request's missed-deadline fault."""
        fault = TimeoutFault(
            message=message, candidate=request.label(), stage="request"
        )
        self._record_fault(fault)
        self._count("deadline_expired")
        return fault

    def _job_deadline(self, deadline_at: float | None) -> float | None:
        """The evaluation deadline to ride into a worker: the pool's
        per-job deadline, tightened by the request's remaining
        wall-clock budget."""
        limits = [
            limit for limit in (self.deadline,) if limit is not None
        ]
        if deadline_at is not None:
            limits.append(max(0.0, deadline_at - time.monotonic()))
        return min(limits) if limits else None

    @property
    def draining(self) -> bool:
        with self._mutex:
            return self._draining

    def begin_drain(self) -> None:
        """Stop admitting new requests (idempotent)."""
        with self._mutex:
            self._draining = True

    def drain(self, timeout: float | None = None) -> bool:
        """Begin draining and wait for in-flight requests to resolve.

        Returns True when the server went idle within ``timeout``
        seconds (None = wait forever), False if in-flight work
        remained when the clock ran out — the caller then faults it
        by closing connections/pool.
        """
        self.begin_drain()
        with self._idle:
            return self._idle.wait_for(
                lambda: self._inflight_requests <= 0, timeout
            )

    # -- request resolution ---------------------------------------------------

    def submit(
        self,
        request: ServiceRequest,
        deadline: float | None = None,
    ) -> ServiceResult:
        """Resolve one request (admission -> store -> in-flight join
        -> compute) — a batch of one.

        Thread-safe and single-flight: if another thread is already
        computing the same content address, this call waits for that
        result instead of recomputing.  ``deadline`` overrides the
        server's default per-request wall-clock budget; a request
        that resolves past its budget is faulted (``timeout``) even
        when the underlying work succeeded (the artifact stays in the
        store, so the retry is cheap).  When the server is at its
        in-flight high-water mark or draining, the request is refused
        with a retryable structured fault, never queued unboundedly.
        """
        [result] = self._serve(
            [request], deadline, "server.submit", label=request.label()
        )
        return result

    def batch(
        self,
        requests: list[ServiceRequest],
        deadline: float | None = None,
    ) -> list[ServiceResult]:
        """Resolve a batch: store-first, deduplicated, fanned out.

        Identical requests in the batch collapse to one job
        (single-flight within the batch); keys another thread is
        already computing are awaited, not recomputed.  All remaining
        jobs go to the worker pool in one ``map`` so they run
        concurrently when the pool is parallel.  Returns one result
        per request, in order — faults are reported on the result,
        never raised.

        Admission control (the whole batch counts against the
        in-flight high-water mark) and the per-request wall-clock
        ``deadline`` apply exactly as in :meth:`submit`.
        """
        return self._serve(
            requests, deadline, "server.batch", size=len(requests)
        )

    def _serve(
        self,
        requests: list[ServiceRequest],
        deadline: float | None,
        span_name: str,
        **span_attrs,
    ) -> list[ServiceResult]:
        """The one request path: count -> admit or refuse -> resolve
        under a span -> release -> enforce the deadline -> finish."""
        t0 = time.monotonic()
        self._count("requests", len(requests))
        if not requests:
            return []
        budget = (
            self.request_deadline if deadline is None else deadline
        )
        reason = self._admit(len(requests))
        if reason is not None:
            return [
                self._finish(self._refuse(request, reason, t0))
                for request in requests
            ]
        try:
            with span(span_name, **span_attrs):
                results = self._resolve_batch(requests, t0, budget)
        finally:
            self._release(len(requests))
        return [
            self._finish(self._enforce_deadline(result, budget))
            for result in results
        ]

    def _claim(
        self, key: tuple[str, str]
    ) -> tuple[_InFlight, bool]:
        with self._mutex:
            record = self._inflight.get(key)
            if record is not None:
                return record, False
            record = _InFlight()
            self._inflight[key] = record
            return record, True

    def _resolve_batch(
        self,
        requests: list[ServiceRequest],
        t0: float,
        budget: float | None,
    ) -> list[ServiceResult]:
        deadline_at = t0 + budget if budget is not None else None
        results: list[ServiceResult | None] = [None] * len(requests)
        #: (kind, key) -> positions in the batch that want it; the
        #: first position's request stands for the key.
        wanted: dict[tuple[str, str], list[int]] = {}
        for pos, request in enumerate(requests):
            try:
                kk = request_key(request)
            except Exception as error:
                results[pos] = self._fail(
                    request, error, "prepare", t0
                )
                continue
            wanted.setdefault(kk, []).append(pos)
        duplicates = sum(map(len, wanted.values())) - len(wanted)
        if duplicates:
            self._count("deduped_in_batch", duplicates)

        # Store pass; misses are claimed, or — when another thread is
        # already computing the key — awaited below.
        owned: list[tuple[tuple[str, str], _InFlight, ServiceRequest]] = []
        awaited: list[tuple[tuple[str, str], _InFlight]] = []
        for kk, slots in wanted.items():
            payload = self.store.get(*kk)
            if payload is None:
                record, owner = self._claim(kk)
                if owner:
                    owned.append((kk, record, requests[slots[0]]))
                else:
                    awaited.append((kk, record))
                continue
            self._count("store_hits", len(slots))
            for pos in slots:
                results[pos] = self._result(
                    requests[pos], *kk, t0, "store", payload=payload
                )

        if owned:
            self._run_owned(owned, t0, deadline_at)

        # Fill the remaining slots: owned results (shared by duplicate
        # slots in this batch) and keys awaited from other threads.
        for kk, record, _ in owned:
            for pos in wanted[kk]:
                results[pos] = self._view(
                    record.result, requests[pos], kk, t0
                )
        for kk, record in awaited:
            slots = wanted[kk]
            wait_budget = (
                max(0.0, deadline_at - time.monotonic())
                if deadline_at is not None
                else None
            )
            if record.event.wait(wait_budget):
                self._count("joined_inflight", len(slots))
                for pos in slots:
                    results[pos] = self._view(
                        record.result, requests[pos], kk, t0, joined=True
                    )
                continue
            for pos in slots:
                fault = self._deadline_fault(
                    requests[pos],
                    "request deadline expired while waiting on "
                    "another caller's in-flight computation",
                )
                results[pos] = self._result(
                    requests[pos], *kk, t0, "failed", fault=fault
                )
        return results  # type: ignore[return-value]

    def _run_owned(
        self,
        jobs: list[tuple[tuple[str, str], _InFlight, ServiceRequest]],
        t0: float,
        deadline_at: float | None,
    ) -> None:
        """Fan the jobs this call owns out across the pool in one
        map, persist the artifacts and publish each key's result on
        its in-flight record.  Each job is journalled while in
        flight: a server killed here leaves per-key records the
        restarted server sweeps."""
        journal_ids: list[str] = []
        try:
            tasks = []
            job_deadline = self._job_deadline(deadline_at)
            for seq, (kk, _, request) in enumerate(jobs):
                if self.journal is not None:
                    journal_ids.append(
                        self.journal.begin(*kk, request.label())
                    )
                tasks.append(
                    (seq, request.label(), (request, job_deadline))
                )
            with self._pool_mutex:
                outcomes = self.pool.map(tasks)
            for (kk, record, request), (payload, fault_json) in zip(
                jobs, outcomes
            ):
                if fault_json is not None:
                    fault = Fault.from_json(fault_json)
                    self._record_fault(fault)
                    record.result = self._result(
                        request, *kk, t0, "failed", fault=fault
                    )
                else:
                    self.store.put(*kk, payload)
                    self._count("computed")
                    record.result = self._result(
                        request, *kk, t0, "computed", payload=payload
                    )
        finally:
            for entry_id in journal_ids:
                self.journal.finish(entry_id)
            with self._mutex:
                for kk, _, _ in jobs:
                    self._inflight.pop(kk, None)
            for _, record, _ in jobs:
                record.event.set()

    def _view(
        self,
        shared: ServiceResult | None,
        request: ServiceRequest,
        kk: tuple[str, str],
        t0: float,
        joined: bool = False,
    ) -> ServiceResult:
        """One slot's view of a computation it shares: this batch's
        own (the owning slot takes the result itself) or, ``joined``,
        another caller's."""
        if shared is None:  # owner died without publishing
            return self._fail(
                request,
                RuntimeError(
                    "in-flight computation vanished without a result"
                ),
                "prepare",
                t0,
                *kk,
            )
        if not joined and shared.request is request:
            return shared
        if joined and shared.fault is not None:
            self._record_fault(shared.fault)
        return _replace(
            shared,
            request=request,
            source="inflight" if shared.ok and joined else shared.source,
            latency=time.monotonic() - t0,
        )

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict:
        """Traffic, dedup, faults, pool health, cache sizes, store."""
        with self._mutex:
            fault_kinds = dict(self._fault_kinds)
            recent = list(self._recent)
            inflight = len(self._inflight)
            draining = self._draining
            inflight_requests = self._inflight_requests
        counters = {
            name: self.metrics.counter(name).value
            for name in self._COUNTER_NAMES
        }
        return {
            "uptime_seconds": time.monotonic() - self.started_at,
            "counters": counters,
            "fault_kinds": fault_kinds,
            "recent": recent,
            "metrics": self.metrics.to_json(),
            "inflight": inflight,
            "lifecycle": {
                "draining": draining,
                "inflight_requests": inflight_requests,
                "max_inflight": self.max_inflight,
                "request_deadline": self.request_deadline,
                "interrupted_on_restart": list(self.interrupted),
            },
            "pool": {
                "workers": self.pool.config.workers,
                "degraded": self.pool.degraded,
                "events": list(self.pool.events),
            },
            "caches": {
                "decode_programs": engine.decode_cache_size(),
                "layer_memo": networks.layer_cache_size(),
            },
            "store": self.store.stats(),
        }

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self.pool.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


__all__ = [
    "REQUEST_KINDS",
    "CompileServer",
    "ServiceRequest",
    "ServiceResult",
    "request_key",
]
