"""Hardened worker pool for service jobs.

:class:`HardenedPool` fans work out over forked processes with the
retry/timeout/degradation semantics of a real evaluation service:

* **watchdog timeouts** — every in-flight job has a wall-clock
  deadline; a worker that blows it is SIGKILLed and the job
  recorded as a :class:`~repro.runtime.faults.TimeoutFault` (or retried —
  timeouts are transient);
* **bounded retry with exponential backoff** — transient faults
  (worker crashes, timeouts) are re-dispatched up to ``retries`` extra
  attempts, each attempt waiting ``backoff * 2**(attempt-1)`` seconds;
* **automatic respawn** — a dead worker is replaced and the batch
  continues; only the in-flight job is affected, and no
  pool-infrastructure exception ever escapes to the caller;
* **graceful degradation to serial** — when fork is unavailable, or
  workers keep dying (more than ``respawn_limit`` respawns), the pool
  kills its workers and finishes the remaining jobs in-process,
  relying on the engine's cooperative deadline
  (:class:`~repro.snitch.machine.DeadlineExceeded`) for hang
  protection.

The pool is task-agnostic: ``task_fn(payload) -> (result, fault_json)``
must never raise (the service's job function classifies its own
exceptions into faults).  Workers are fork-started (they inherit the
loaded package; platforms without fork run serially) and communicate
over one pipe each, which is what makes per-worker kill-and-respawn
possible at all — a shared queue cannot attribute a death to a task.

The pool carries the **trace context** across the process boundary
it owns: a forked worker cannot read the caller's recorder or
correlation id from ``contextvars``, so a parallel
:meth:`HardenedPool.map` captures both at dispatch, the worker records
under them and ships its span events back beside the result, and the
parent absorbs them.  Task functions just open their own span; results
never carry spans in-band, so nothing a caller persists can contain
them.  (Serially the caller's context is already in scope.)
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait

from ..obs.tracing import (
    absorb,
    correlation,
    correlation_id,
    recording,
    tracing_enabled,
)
from .faults import Fault, TimeoutFault, WorkerCrash

#: Fork-start workers inherit the already-imported package (no
#: per-worker re-import) and need no picklable entry point.  Platforms
#: without fork evaluate serially.
_FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

#: Longest the scheduler sleeps in one ``wait`` call — bounds how late
#: a watchdog kill can fire after a deadline passes.
_MAX_POLL = 0.25


@dataclass(frozen=True)
class PoolConfig:
    """Fault-tolerance policy of one :class:`HardenedPool`."""

    #: Worker processes; <= 1 evaluates in-process.
    workers: int = 1
    #: Per-job wall-clock deadline in seconds (None = no limit).
    deadline: float | None = None
    #: Extra dispatch attempts for *retryable* faults.
    retries: int = 2
    #: Base backoff before attempt N+1: ``backoff * 2**(N-1)`` seconds.
    backoff: float = 0.05
    #: Worker deaths (crashes + watchdog kills) tolerated before the
    #: pool degrades to serial evaluation for the rest of the run.
    respawn_limit: int = 4


#: Connections that must not leak into worker processes.  A server
#: prestarts its pool before accepting (:meth:`HardenedPool.prestart`
#: says why), but a worker *respawned* after a crash still forks
#: mid-connection, so every worker closes the tracked connections
#: first thing.  A listener must NOT be tracked: ``Listener.close``
#: unlinks the socket file, which would yank it out from under the
#: parent.
_GUARDED_CONNECTIONS: set = set()


def guard_connection(connection) -> None:
    """Have workers forked from now on close ``connection``."""
    _GUARDED_CONNECTIONS.add(connection)


def unguard_connection(connection) -> None:
    """Stop tracking a connection its owner is about to close."""
    _GUARDED_CONNECTIONS.discard(connection)


def _worker_main(conn, task_fn) -> None:
    """Worker loop: recv task, evaluate, send result, repeat.

    ``task_fn`` classifies its own failures; anything that still
    escapes (a bug) is reported as a structured worker fault rather than poisoning the
    pipe protocol.  A ``None`` message or a closed pipe shuts the
    worker down.

    A message is ``(task, traced, corr_id)`` and the reply
    ``(result, span events or None)``: a traced task runs under a
    local recorder and the dispatcher's correlation id, and its spans
    travel back beside the result — a faulted task's included.
    """
    for connection in _GUARDED_CONNECTIONS:
        try:
            connection.close()
        except OSError:
            pass
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        task, traced, corr_id = message
        recorder = None
        try:
            if traced:
                with recording() as recorder, correlation(corr_id):
                    result = task_fn(task)
            else:
                result = task_fn(task)
        except KeyboardInterrupt:
            return
        except BaseException as error:  # belt: never break the protocol
            result = (
                None,
                WorkerCrash(
                    message=(
                        "worker evaluation escaped fault classification: "
                        f"{type(error).__name__}: {error}"
                    ),
                    stage="worker",
                ).to_json(),
            )
        events = recorder.events_json() if recorder is not None else None
        try:
            conn.send((result, events))
        except (BrokenPipeError, OSError):
            return


@dataclass
class _Item:
    """One job's work, across attempts."""

    pos: int  #: index into the caller's task list (result slot)
    label: str  #: job provenance
    payload: object
    attempts: int = 0  #: dispatch attempts started so far
    not_before: float = 0.0  #: backoff gate for the next dispatch


class _Worker:
    """One fork-started worker process and its pipe."""

    __slots__ = ("process", "conn", "item", "deadline_at")

    def __init__(self, ctx, task_fn):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn, task_fn), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.item: _Item | None = None
        self.deadline_at: float | None = None

    def kill(self) -> None:
        try:
            self.process.kill()
        except (OSError, ValueError):
            pass
        self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass


class HardenedPool:
    """Fault-tolerant fan-out over worker processes (see module doc).

    One pool serves a whole server (batches reuse warm workers); call
    :meth:`close` when done.  :attr:`events` accumulates a human-
    readable log of every respawn, retry, watchdog kill, and
    degradation — the server's stats surface it.
    """

    def __init__(self, task_fn, config: PoolConfig):
        self.task_fn = task_fn
        self.config = config
        self.events: list[str] = []
        self.degraded = config.workers > 1 and not _FORK_AVAILABLE
        if self.degraded:
            self.events.append(
                "fork unavailable on this platform: evaluating serially"
            )
        self._ctx = (
            multiprocessing.get_context("fork") if _FORK_AVAILABLE else None
        )
        self._workers: list[_Worker] = []
        self._respawns = 0

    @property
    def parallel(self) -> bool:
        return (
            self.config.workers > 1
            and self._ctx is not None
            and not self.degraded
        )

    def prestart(self) -> None:
        """Fork the full worker complement now (idempotent).

        Workers normally fork lazily on the first parallel
        :meth:`map`.  A long-lived server must fork them *before* it
        accepts connections: a child forked mid-connection inherits
        every open connection fd, and a same-process peer then never
        sees EOF on a connection it has closed.  No-op when the pool
        would run serially anyway.
        """
        if not self.parallel:
            return
        while len(self._workers) < self.config.workers:
            self._spawn()

    # -- serial path ---------------------------------------------------------

    def _run_serial(self, item: _Item):
        """Evaluate one item in-process, honouring retry policy."""
        while True:
            item.attempts += 1
            result, fault = self.task_fn(item.payload)
            if fault is None:
                return result, None
            fault["attempts"] = item.attempts
            if fault.get("retryable") and item.attempts <= self.config.retries:
                self.events.append(
                    f"retry {item.label} (attempt {item.attempts + 1}): "
                    f"{fault.get('kind')}"
                )
                time.sleep(
                    self.config.backoff * (2 ** (item.attempts - 1))
                )
                continue
            return None, fault

    # -- parallel plumbing ---------------------------------------------------

    def _spawn(self) -> _Worker | None:
        worker = _Worker(self._ctx, self.task_fn)
        self._workers.append(worker)
        return worker

    def _discard(self, worker: _Worker) -> None:
        worker.kill()
        if worker in self._workers:
            self._workers.remove(worker)

    def _note_death(self, reason: str) -> None:
        self._respawns += 1
        if self._respawns > self.config.respawn_limit:
            self.degraded = True
            self.events.append(
                f"pool died repeatedly ({self._respawns} respawns, "
                f"limit {self.config.respawn_limit}); degrading to "
                f"serial evaluation [{reason}]"
            )
        else:
            self.events.append(f"worker respawn ({reason})")

    def _finish_or_retry(
        self,
        item: _Item,
        fault: Fault,
        results: dict,
        retry_queue: deque,
        now: float,
    ) -> None:
        """Apply retry policy to a parent-detected fault."""
        record = fault.with_attempts(item.attempts).to_json()
        if fault.retryable and item.attempts <= self.config.retries:
            item.not_before = now + self.config.backoff * (
                2 ** (item.attempts - 1)
            )
            retry_queue.append(item)
            self.events.append(
                f"retry {item.label} (attempt {item.attempts + 1}): "
                f"{fault.kind}"
            )
        else:
            results[item.pos] = (None, record)

    def map(self, tasks) -> list:
        """Evaluate ``tasks`` (``(label, payload)`` pairs); returns one
        ``(result, fault_json)`` per task, in order.

        Never raises on worker failure — every task gets a result or a
        structured fault.  ``KeyboardInterrupt`` propagates after the
        workers are torn down.
        """
        items = [
            _Item(pos=pos, label=label, payload=payload)
            for pos, (label, payload) in enumerate(tasks)
        ]
        results: dict[int, tuple] = {}
        if self.parallel and len(items) > 1:
            try:
                self._map_parallel(items, results)
            except KeyboardInterrupt:
                self.close()
                raise
        # Serial path, and the tail of a degraded parallel run.
        for item in items:
            if item.pos not in results:
                results[item.pos] = self._run_serial(item)
        return [results[pos] for pos in range(len(items))]

    def _map_parallel(self, items, results) -> None:
        config = self.config
        # The caller's trace context, captured once per map: workers
        # are other processes and cannot read it from contextvars.
        traced = tracing_enabled()
        corr_id = correlation_id()
        pending = deque(items)
        retry_queue: deque = deque()
        while len(results) < len(items):
            if self.degraded:
                self._teardown_workers()
                return  # map() drains the rest serially
            now = time.monotonic()
            while retry_queue and retry_queue[0].not_before <= now:
                pending.append(retry_queue.popleft())
            in_flight = sum(1 for w in self._workers if w.item is not None)
            want = min(
                config.workers,
                in_flight + len(pending) + len(retry_queue),
            )
            while len(self._workers) < want:
                self._spawn()
            # Dispatch to idle workers.
            for worker in list(self._workers):
                if worker.item is not None or not pending:
                    continue
                item = pending.popleft()
                item.attempts += 1
                try:
                    worker.conn.send((item.payload, traced, corr_id))
                except (BrokenPipeError, OSError):
                    # Died while idle: respawn, re-dispatch next round.
                    item.attempts -= 1
                    pending.appendleft(item)
                    self._discard(worker)
                    self._note_death("worker died while idle")
                    continue
                worker.item = item
                worker.deadline_at = (
                    now + config.deadline
                    if config.deadline is not None
                    else None
                )
            busy = [w for w in self._workers if w.item is not None]
            if not busy:
                if pending or retry_queue:
                    # Waiting out a backoff window (or all dispatches
                    # failed this round).
                    time.sleep(
                        min(
                            _MAX_POLL,
                            max(
                                0.0,
                                min(
                                    (
                                        i.not_before
                                        for i in retry_queue
                                    ),
                                    default=now,
                                )
                                - now,
                            ),
                        )
                        or 0.01
                    )
                    continue
                return
            timeout = _MAX_POLL
            for worker in busy:
                if worker.deadline_at is not None:
                    timeout = min(timeout, worker.deadline_at - now)
            ready = _connection_wait(
                [w.conn for w in busy], timeout=max(0.0, timeout)
            )
            by_conn = {w.conn: w for w in busy}
            now = time.monotonic()
            for conn in ready:
                worker = by_conn.get(conn)
                if worker is None or worker.item is None:
                    continue
                item = worker.item
                try:
                    (result, fault), events = conn.recv()
                except (EOFError, OSError):
                    # The worker died mid-measure (SIGKILL, OOM...).
                    worker.item = None
                    self._discard(worker)
                    self._note_death(
                        f"worker crashed measuring {item.label}"
                    )
                    self._finish_or_retry(
                        item,
                        WorkerCrash(
                            message=(
                                "worker process died before reporting "
                                "a result"
                            ),
                            candidate=item.label,
                            stage="worker",
                        ),
                        results,
                        retry_queue,
                        now,
                    )
                    continue
                worker.item = None
                absorb(events)
                if fault is not None:
                    fault = Fault.from_json(fault)
                    self._finish_or_retry(
                        item, fault, results, retry_queue, now
                    )
                else:
                    results[item.pos] = (result, None)
            # Watchdog: kill workers that blew their deadline.
            for worker in list(self._workers):
                item = worker.item
                if (
                    item is None
                    or worker.deadline_at is None
                    or now <= worker.deadline_at
                ):
                    continue
                worker.item = None
                self._discard(worker)
                self._note_death(
                    f"watchdog killed worker: {item.label} exceeded "
                    f"{config.deadline:g}s deadline"
                )
                self._finish_or_retry(
                    item,
                    TimeoutFault(
                        message=(
                            f"exceeded {config.deadline:g}s wall-clock "
                            "deadline; worker killed by watchdog"
                        ),
                        candidate=item.label,
                        stage="simulate",
                    ),
                    results,
                    retry_queue,
                    now,
                )

    def _teardown_workers(self) -> None:
        for worker in self._workers:
            worker.kill()
        self._workers = []

    def close(self) -> None:
        """Shut down worker processes (idempotent)."""
        self._teardown_workers()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


__all__ = [
    "HardenedPool",
    "PoolConfig",
    "guard_connection",
    "unguard_connection",
    "_FORK_AVAILABLE",
]
