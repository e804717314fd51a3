"""Hardened worker pool for service jobs.

:class:`HardenedPool` fans work out over forked processes with the
timeout/isolation semantics of a real evaluation service:

* **watchdog timeouts** — every in-flight job has a wall-clock
  deadline; a worker that blows it is SIGKILLed and the job
  recorded as a :class:`~repro.runtime.faults.TimeoutFault`;
* **crash isolation** — a job whose worker died comes back as a
  :class:`~repro.runtime.faults.WorkerCrash`.  Neither fault is
  re-dispatched: the pool runs each job once, and retrying is the
  caller's decision (the service's is
  :class:`~repro.service.client.ServiceClient`'s one bounded loop);
* **one death, one job** — every worker death is charged to exactly
  one job: the one it was running, or, for a worker that died while
  idle, the one being handed to it.  A dead worker is replaced
  lazily and the batch continues; no pool-infrastructure exception
  ever escapes to the caller.

A parallel pool runs every job in a worker, always.  Whether it is
parallel is decided once, at construction: ``workers <= 1``, or a
platform without fork, evaluates in-process, relying on the engine's
cooperative deadline (:class:`~repro.snitch.machine.DeadlineExceeded`)
for hang protection.

The pool is task-agnostic: ``task_fn(payload) -> (result, fault_json)``
must never raise (the service's job function classifies its own
exceptions into faults).  Workers are fork-started on the first
parallel :meth:`HardenedPool.map` (they inherit the loaded package)
and communicate over one pipe each, which is what makes per-worker
kill-and-respawn possible at all — a shared queue cannot attribute a
death to a task.  A forked worker holds only its own pipe end: it
closes every guarded connection, siblings' parent-side pipe ends and
its own included, so it sees EOF — and exits — as soon as the
process that forked it dies.

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
from .faults import TimeoutFault, WorkerCrash

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


#: Connections that must not leak into worker processes: every worker
#: closes them first thing.  They are the server's and client's socket
#: connections (a peer in the same process would otherwise never see
#: EOF on a connection it closed) and each worker's parent-side pipe
#: end (a worker holding one would never see EOF when the parent
#: dies).  A listener must NOT be tracked: ``Listener.close`` unlinks
#: the socket file, which would yank it out from under the parent.  A
#: worker forked after the listener inherits it, and that is harmless:
#: the worker exits on its pipe's EOF, so it cannot outlive the server
#: and keep the socket path looking live.
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
    """One job's work."""

    pos: int  #: index into the caller's task list (result slot)
    label: str  #: job provenance
    payload: object


def _crash(item: _Item) -> tuple:
    """The (result, fault_json) of a job whose worker died."""
    return None, WorkerCrash(
        message="worker process died before reporting a result",
        candidate=item.label,
        stage="worker",
    ).to_json()


class _Worker:
    """One fork-started worker process and its pipe."""

    __slots__ = ("process", "conn", "item", "deadline_at")

    def __init__(self, ctx, task_fn):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn, task_fn), daemon=True
        )
        self.conn = parent_conn
        # This worker and every sibling forked after it close this end.
        guard_connection(parent_conn)
        self.process.start()
        child_conn.close()
        self.item: _Item | None = None
        self.deadline_at: float | None = None

    def kill(self) -> None:
        unguard_connection(self.conn)
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
    readable log of every respawn and watchdog kill — the server's
    stats surface it.
    """

    def __init__(self, task_fn, config: PoolConfig):
        self.task_fn = task_fn
        self.config = config
        self.events: list[str] = []
        self.parallel = config.workers > 1 and _FORK_AVAILABLE
        if config.workers > 1 and not _FORK_AVAILABLE:
            self.events.append(
                "fork unavailable on this platform: evaluating serially"
            )
        self._ctx = (
            multiprocessing.get_context("fork") if self.parallel else None
        )
        self._workers: list[_Worker] = []

    # -- parallel plumbing ---------------------------------------------------

    def _bury(self, worker: _Worker, reason: str) -> None:
        """Kill and drop a dead or overdue worker; the next dispatch
        round forks its replacement."""
        worker.kill()
        self._workers.remove(worker)
        self.events.append(f"worker respawn ({reason})")

    def map(self, tasks) -> list:
        """Evaluate ``tasks`` (``(label, payload)`` pairs); returns one
        ``(result, fault_json)`` per task, in order.

        Never raises on worker failure — every task gets a result or a
        structured fault.  ``KeyboardInterrupt`` propagates after the
        workers are torn down.
        """
        if not self.parallel:
            return [self.task_fn(payload) for _, payload in tasks]
        items = [
            _Item(pos=pos, label=label, payload=payload)
            for pos, (label, payload) in enumerate(tasks)
        ]
        results: dict[int, tuple] = {}
        try:
            self._map_parallel(items, results)
        except KeyboardInterrupt:
            self.close()
            raise
        return [results[pos] for pos in range(len(items))]

    def _map_parallel(self, items, results) -> None:
        config = self.config
        # The caller's trace context, captured once per map: workers
        # are other processes and cannot read it from contextvars.
        traced = tracing_enabled()
        corr_id = correlation_id()
        pending = deque(items)
        while len(results) < len(items):
            in_flight = sum(1 for w in self._workers if w.item is not None)
            want = min(config.workers, in_flight + len(pending))
            while len(self._workers) < want:
                self._workers.append(_Worker(self._ctx, self.task_fn))
            # Dispatch to idle workers.
            now = time.monotonic()
            for worker in list(self._workers):
                if worker.item is not None or not pending:
                    continue
                item = pending.popleft()
                try:
                    worker.conn.send((item.payload, traced, corr_id))
                except (BrokenPipeError, OSError):
                    # Died while idle: the job handed to it is charged.
                    self._bury(worker, f"worker died while idle: {item.label}")
                    results[item.pos] = _crash(item)
                    continue
                worker.item = item
                worker.deadline_at = (
                    now + config.deadline
                    if config.deadline is not None
                    else None
                )
            busy = [w for w in self._workers if w.item is not None]
            if not busy:
                continue  # every dispatch failed this round
            timeout = _MAX_POLL
            for worker in busy:
                if worker.deadline_at is not None:
                    timeout = min(timeout, worker.deadline_at - now)
            ready = _connection_wait(
                [w.conn for w in busy], timeout=max(0.0, timeout)
            )
            by_conn = {w.conn: w for w in busy}
            for conn in ready:
                worker = by_conn[conn]
                item, worker.item = worker.item, None
                try:
                    outcome, events = conn.recv()
                except (EOFError, OSError):
                    # The worker died mid-job (SIGKILL, OOM, _exit...).
                    self._bury(worker, f"worker crashed running {item.label}")
                    outcome = _crash(item)
                else:
                    absorb(events)
                results[item.pos] = outcome
            # Watchdog: kill workers that blew their deadline.
            now = time.monotonic()
            for worker in list(self._workers):
                item = worker.item
                if (
                    item is None
                    or worker.deadline_at is None
                    or now <= worker.deadline_at
                ):
                    continue
                worker.item = None
                self._bury(
                    worker,
                    f"watchdog killed worker: {item.label} exceeded "
                    f"{config.deadline:g}s deadline",
                )
                results[item.pos] = None, TimeoutFault(
                    message=(
                        f"exceeded {config.deadline:g}s wall-clock "
                        "deadline; worker killed by watchdog"
                    ),
                    candidate=item.label,
                    stage="simulate",
                ).to_json()

    def close(self) -> None:
        """Shut down worker processes (idempotent)."""
        for worker in self._workers:
            worker.kill()
        self._workers = []

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
