"""Span tracing: contextvars propagation, Chrome trace-event export.

Answering "where did this request's time go?" end to end needs spans
that cross layers (client -> server -> pool worker -> simulator) and
processes.  The design:

* A :class:`TraceRecorder` collects completed spans as Chrome
  trace-event dicts (``ph="X"`` complete events with microsecond
  epoch timestamps), loadable directly in Perfetto / ``chrome://tracing``.
* The *active* recorder lives in a :mod:`contextvars` ``ContextVar``:
  :func:`recording` installs one for the current context; every
  instrumentation site (:func:`span`) reads it with one
  ``ContextVar.get`` and is a no-op when none is installed — the
  zero-cost-when-disabled guarantee that protects the PR-2/PR-4
  perf wins.  Context-local scoping also keeps concurrent server
  connections (thread-per-connection) from contaminating each other's
  traces.
* Parent/child: :func:`span` pushes its name onto a context-local
  stack; a child span records its parent's name in ``args.parent``.
  Visual nesting in Perfetto follows from timestamps within one
  pid/tid row, so cross-thread and cross-process spans still line up.
* Correlation IDs: :func:`new_correlation_id` mints an ID
  (``ServiceClient`` does this per call), :func:`correlation` scopes
  it, and every span completed in that scope carries it in
  ``args.correlation_id`` — the join key across processes.
* Cross-process: workers and servers record into their own local
  recorder and ship ``recorder.events_json()`` back over the existing
  result/reply channel; the caller :func:`absorb`\\ s the events into
  its recorder.  Timestamps are epoch-based so the merged timeline is
  coherent.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
import uuid
from contextlib import contextmanager
from pathlib import Path

#: The active recorder for this context (None = tracing disabled).
_RECORDER: contextvars.ContextVar["TraceRecorder | None"] = (
    contextvars.ContextVar("repro_obs_recorder", default=None)
)
#: Name of the innermost open span in this context (parent linkage).
_PARENT: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_obs_parent", default=None
)
#: The correlation ID scoping this context's spans.
_CORRELATION: contextvars.ContextVar[str | None] = (
    contextvars.ContextVar("repro_obs_correlation", default=None)
)


class TraceRecorder:
    """Thread-safe sink of completed Chrome trace events."""

    def __init__(self, process_name: str | None = None):
        self._lock = threading.Lock()
        self._events: list[dict] = []
        self.process_name = process_name

    def add(self, event: dict) -> None:
        with self._lock:
            self._events.append(event)

    def absorb(self, events) -> None:
        """Merge span events recorded elsewhere (worker, server)."""
        if not events:
            return
        with self._lock:
            self._events.extend(
                event for event in events if isinstance(event, dict)
            )

    def events_json(self) -> list[dict]:
        """The raw events — the cross-process shipping format."""
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def chrome_trace(self) -> dict:
        """A Perfetto-loadable trace-event JSON object.

        Adds ``process_name`` metadata rows so each pid in the merged
        timeline is labeled (client / server / worker-<pid>).
        """
        events = self.events_json()
        pids = {}
        for event in events:
            pid = event.get("pid")
            if pid is not None and pid not in pids:
                pids[pid] = event.get("args", {}).get(
                    "process", f"pid-{pid}"
                )
        metadata = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
            for pid, name in sorted(pids.items())
        ]
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
        }

    def save(self, path: str | Path) -> Path:
        """Write the Chrome trace JSON to ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace(), indent=2))
        return path


def tracing_enabled() -> bool:
    """Whether a recorder is installed in this context."""
    return _RECORDER.get() is not None


@contextmanager
def recording(recorder: TraceRecorder | None = None):
    """Install (and yield) a recorder for the current context."""
    recorder = recorder if recorder is not None else TraceRecorder()
    token = _RECORDER.set(recorder)
    try:
        yield recorder
    finally:
        _RECORDER.reset(token)


def new_correlation_id() -> str:
    """A fresh request-scoped join key (16 hex chars)."""
    return uuid.uuid4().hex[:16]


def correlation_id() -> str | None:
    """The correlation ID scoping this context, if any."""
    return _CORRELATION.get()


@contextmanager
def correlation(cid: str | None):
    """Scope ``cid`` over the body; spans inside carry it."""
    token = _CORRELATION.set(cid)
    try:
        yield cid
    finally:
        _CORRELATION.reset(token)


def absorb(events) -> None:
    """Merge shipped span events into the active recorder (no-op
    when tracing is disabled)."""
    recorder = _RECORDER.get()
    if recorder is not None:
        recorder.absorb(events)


@contextmanager
def span(name: str, **attrs):
    """Record one timed span around the body.

    Cheap no-op when no recorder is installed (a single
    ``ContextVar.get`` and an immediate yield).  When recording, the
    span becomes a Chrome ``ph="X"`` complete event carrying the
    parent span's name, this context's correlation ID, and ``attrs``.
    """
    recorder = _RECORDER.get()
    if recorder is None:
        yield None
        return
    parent = _PARENT.get()
    token = _PARENT.set(name)
    start_us = time.time_ns() // 1_000
    try:
        yield recorder
    finally:
        _PARENT.reset(token)
        end_us = time.time_ns() // 1_000
        args = dict(attrs)
        if parent is not None:
            args["parent"] = parent
        cid = _CORRELATION.get()
        if cid:
            args["correlation_id"] = cid
        recorder.add(
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": start_us,
                "dur": max(0, end_us - start_us),
                "pid": os.getpid(),
                "tid": threading.get_ident() % 1_000_000,
                "args": args,
            }
        )


__all__ = [
    "TraceRecorder",
    "absorb",
    "correlation",
    "correlation_id",
    "new_correlation_id",
    "recording",
    "span",
    "tracing_enabled",
]
