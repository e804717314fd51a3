"""The compile service's server loop: the Unix-socket front end of
:class:`~repro.service.server.CompileServer`.

:func:`serve_forever` documents the lifecycle (thread per connection,
graceful drain on SIGTERM/SIGINT/``shutdown``, exit codes);
:mod:`repro.service.client`, which speaks the other end, documents the
message and reply dicts.  Setting ``REPRO_SERVICE_LOG=1`` in the
server's environment logs one line per served request (label, source,
latency, correlation id) to stderr.

**Chaos**: ``serve_forever(injector=...)`` (or the ``REPRO_FAULTS``
env var) applies injections keyed by request sequence number: ``drop-connection``,
``delay-response``, ``crash-server``, ``reject-admission``.  See
``docs/SERVICE.md``.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import threading
import time
from contextlib import nullcontext
from multiprocessing.connection import Listener
from pathlib import Path

from ..obs.tracing import correlation, recording
from ..runtime.faults import FaultInjector
from ..runtime.store import ArtifactStore
from ..runtime.workers import guard_connection, unguard_connection
from .client import ServiceError
from .journal import RequestJournal
from .server import CompileServer, ServiceRequest

#: Exit codes :func:`serve_forever` returns (and the CLI propagates).
EXIT_OK = 0  #: clean ``shutdown`` op, drained
EXIT_CRASH = 70  #: injected ``crash-server`` (chaos harness; EX_SOFTWARE)
EXIT_SIGINT = 130  #: SIGINT received, drained
EXIT_SIGTERM = 143  #: SIGTERM received, drained

_EXIT_BY_REASON = {
    "shutdown": EXIT_OK,
    "crash": EXIT_CRASH,
    "sigint": EXIT_SIGINT,
    "sigterm": EXIT_SIGTERM,
}

#: Default seconds a draining server gives in-flight work.
DRAIN_TIMEOUT_DEFAULT = 10.0


class _ServeState:
    """Shared lifecycle state of one :func:`serve_forever` run."""

    def __init__(self, listener: Listener):
        self.listener = listener
        self.mutex = threading.Lock()
        #: Open connection -> the thread serving it.  An entry leaves
        #: as its thread exits, so a long-lived server holds one per
        #: *open* connection, not one per connection ever served.
        self.connections: dict = {}
        #: First stop wins: "shutdown" | "sigterm" | "sigint" | "crash".
        self.stop_reason: str | None = None
        self._seq = 0

    def next_seq(self) -> int:
        """Admission sequence number of the next job-bearing message
        (the chaos injection key)."""
        with self.mutex:
            seq = self._seq
            self._seq += 1
            return seq

    def initiate_stop(self, reason: str) -> None:
        """Record the stop reason (first wins) and close the listener
        so the accept loop wakes up.  Safe from any thread and from a
        signal handler."""
        with self.mutex:
            if self.stop_reason is not None:
                return
            self.stop_reason = reason
        # shutdown() before close(): closing a listening socket from
        # another thread does NOT wake a blocked accept() on Linux,
        # shutting it down does.
        try:
            self.listener._listener._socket.shutdown(  # noqa: SLF001
                socket.SHUT_RDWR
            )
        except (OSError, AttributeError):
            pass
        try:
            self.listener.close()
        except OSError:
            pass

    def close_connections(self) -> None:
        with self.mutex:
            connections = list(self.connections)
        for connection in connections:
            unguard_connection(connection)
            try:
                connection.close()
            except OSError:
                pass


def _clear_stale_socket(socket_path: Path) -> None:
    """Unlink a socket file a crashed server left behind.

    A kill -9'd server never removes its socket, and binding over an
    existing file fails — so a restart would be impossible without
    this.  The file is probed first: if something answers, a live
    server owns it and we refuse to serve (two servers on one socket
    silently splits traffic).
    """
    if not socket_path.exists():
        return
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.settimeout(0.25)
        try:
            probe.connect(str(socket_path))
        except OSError:
            # Nothing listening: stale leftover from an unclean exit.
            try:
                socket_path.unlink()
            except (FileNotFoundError, OSError):
                pass
            return
        raise ServiceError(
            f"{socket_path} already has a live server"
        )
    finally:
        probe.close()


#: Env var that, when set (to anything non-empty), makes the serve
#: loop log one stderr line per served request — label, artifact
#: source, latency and the request's correlation id, so served
#: traffic can be grepped by corr id straight out of the logs.
SERVICE_LOG_ENV = "REPRO_SERVICE_LOG"


def _log_served(op: str, results) -> None:
    if not os.environ.get(SERVICE_LOG_ENV):
        return
    for result in results:
        fault = result.fault.kind if result.fault is not None else "-"
        print(
            f"[kernel-service] op={op} label={result.request.label()} "
            f"source={result.source} fault={fault} "
            f"latency={result.latency:.3f}s "
            f"corr_id={result.correlation_id or '-'}",
            file=sys.stderr,
        )


def _dispatch(
    server: CompileServer,
    message,
    state: _ServeState,
    injector: FaultInjector | None,
) -> tuple[dict | None, str | None]:
    """(reply, action) for one protocol message.

    ``action`` is None (send the reply and keep serving), ``"drop"``
    (close the connection without replying), ``"crash"`` (tear the
    whole server down abruptly), or ``"stop"`` (send the reply, then
    drain and exit).
    """
    if not isinstance(message, dict) or "op" not in message:
        return {"ok": False, "error": "malformed message"}, None
    op = message["op"]
    try:
        if op == "ping":
            return {"ok": True, "pong": True}, None
        if op in ("submit", "batch"):
            seq = state.next_seq()
            injection = (
                injector.for_request(seq) if injector else None
            )
            if injection is not None:
                if injection.action == "crash-server":
                    return None, "crash"
                if injection.action == "drop-connection":
                    return None, "drop"
            deadline = message.get("deadline")
            if deadline is not None:
                deadline = float(deadline)
            corr_id = message.get("corr_id") or None
            tracer = recording() if message.get("trace") else nullcontext()
            with correlation(corr_id), tracer as recorder:
                if op == "submit":
                    requests = [
                        ServiceRequest.from_json(message["request"])
                    ]
                else:
                    requests = [
                        ServiceRequest.from_json(entry)
                        for entry in message.get("requests", [])
                    ]
                if (
                    injection is not None
                    and injection.action == "reject-admission"
                ):
                    results = [
                        server.reject(request) for request in requests
                    ]
                elif op == "submit":
                    results = [
                        server.submit(requests[0], deadline=deadline)
                    ]
                else:
                    results = server.batch(requests, deadline=deadline)
                _log_served(op, results)
                encoded = [result.to_json() for result in results]
                reply = {"ok": True}
                if op == "submit":
                    reply["result"] = encoded[0]
                else:
                    reply["results"] = encoded
            if recorder is not None:
                reply["spans"] = recorder.events_json()
            if (
                injection is not None
                and injection.action == "delay-response"
            ):
                time.sleep(injection.value)
            return reply, None
        if op == "stats":
            return {"ok": True, "stats": server.stats()}, None
        if op == "gc":
            report = server.store.gc(message.get("max_bytes"))
            return {"ok": True, "gc": report}, None
        if op == "shutdown":
            return {"ok": True, "shutdown": True}, "stop"
        return {"ok": False, "error": f"unknown op {op!r}"}, None
    except Exception as error:
        return {"ok": False, "error": str(error)}, None


def _serve_connection(
    server: CompileServer,
    connection,
    state: _ServeState,
    injector: FaultInjector | None,
) -> None:
    """One connection's request loop (runs on its own thread)."""
    try:
        while True:
            try:
                message = connection.recv()
            except (EOFError, OSError):
                break
            reply, action = _dispatch(server, message, state, injector)
            if action == "crash":
                state.initiate_stop("crash")
                break
            if action == "drop":
                break
            try:
                connection.send(reply)
            except (BrokenPipeError, OSError):
                break
            if action == "stop":
                state.initiate_stop("shutdown")
                break
    finally:
        unguard_connection(connection)
        with state.mutex:
            state.connections.pop(connection, None)
        try:
            connection.close()
        except OSError:
            pass


def serve_forever(
    store_dir: str | Path,
    socket_path: str | Path,
    workers: int = 1,
    deadline: float | None = None,
    retries: int = 2,
    max_bytes: int | None = None,
    ready=None,
    max_inflight: int | None = None,
    request_deadline: float | None = None,
    drain_timeout: float = DRAIN_TIMEOUT_DEFAULT,
    injector: FaultInjector | None = None,
) -> int:
    """Run a compile server on a Unix socket until shutdown or signal.

    Each accepted connection is served on its own thread, so many
    clients can race one server; its admission control
    (``max_inflight``) is the backpressure valve.  SIGTERM/SIGINT (and
    the ``shutdown`` op) trigger a *graceful drain*: the listener
    closes, new requests are refused with a retryable ``cancelled``
    fault, in-flight work gets ``drain_timeout`` seconds to finish
    (stragglers are faulted at the wire by closing their connections)
    and the store sweeps its temporaries.

    ``ready``, if given, is called with the listener address once the
    socket is accepting connections (used by tests and the CLI to
    avoid connect races).  Removes the socket file on exit and
    returns a documented exit code: :data:`EXIT_OK` after a clean
    ``shutdown`` op, :data:`EXIT_SIGTERM` / :data:`EXIT_SIGINT` after
    a signal-triggered drain, :data:`EXIT_CRASH` after an injected
    ``crash-server``.

    Signal handlers are only installed when running on the main
    thread (tests host the loop on a worker thread and stop it via
    the ``shutdown`` op instead).  ``injector`` (or the
    ``REPRO_FAULTS`` env var) arms the service chaos harness.
    """
    socket_path = Path(socket_path)
    if injector is None:
        injector = FaultInjector.from_env()
    store = ArtifactStore(store_dir, max_bytes=max_bytes)
    journal = RequestJournal(store.root / "journal.json")
    server = CompileServer(
        store,
        workers=workers,
        deadline=deadline,
        retries=retries,
        max_inflight=max_inflight,
        request_deadline=request_deadline,
        journal=journal,
    )
    if server.interrupted:
        labels = ", ".join(
            record.get("label") or record.get("key", "?")
            for record in server.interrupted
        )
        print(
            f"recovered from an unclean shutdown: "
            f"{len(server.interrupted)} interrupted request(s) "
            f"[{labels}] — clients should resubmit (completed keys "
            f"are warm store hits)",
            file=sys.stderr,
        )
    _clear_stale_socket(socket_path)
    listener = Listener(str(socket_path), family="AF_UNIX")
    state = _ServeState(listener)

    previous_handlers: dict[int, object] = {}
    on_main_thread = (
        threading.current_thread() is threading.main_thread()
    )
    if on_main_thread:
        for signum, reason in (
            (signal.SIGTERM, "sigterm"),
            (signal.SIGINT, "sigint"),
        ):
            previous_handlers[signum] = signal.signal(
                signum,
                lambda _signum, _frame, reason=reason: (
                    state.initiate_stop(reason)
                ),
            )
    try:
        if ready is not None:
            ready(str(socket_path))
        while True:
            try:
                connection = listener.accept()
            except OSError:
                break
            if state.stop_reason is not None:
                try:
                    connection.close()
                except OSError:
                    pass
                break
            guard_connection(connection)
            thread = threading.Thread(
                target=_serve_connection,
                args=(server, connection, state, injector),
                daemon=True,
            )
            with state.mutex:
                state.connections[connection] = thread
            thread.start()
    except KeyboardInterrupt:
        state.initiate_stop("sigint")
    finally:
        reason = state.stop_reason or "shutdown"
        if reason == "crash":
            # Abrupt teardown — the whole point of the injection: no
            # drain, no replies, connections dropped mid-flight.
            state.close_connections()
            server.close()
        else:
            # Graceful drain: refuse new work, let in-flight requests
            # finish (or time out), flush replies, then fault any
            # stragglers at the wire by closing their connections.
            drained = server.drain(drain_timeout)
            with state.mutex:
                threads = list(state.connections.values())
            grace = time.monotonic() + min(1.0, drain_timeout)
            for thread in threads:
                thread.join(max(0.0, grace - time.monotonic()))
            state.close_connections()
            stop_at = time.monotonic() + 5.0
            for thread in threads:
                thread.join(max(0.0, stop_at - time.monotonic()))
            server.close()
            store.gc()  # flush: sweep stale temporaries on the way out
            if not drained:
                print(
                    f"drain timed out after {drain_timeout:g}s; "
                    f"in-flight work was faulted at the wire",
                    file=sys.stderr,
                )
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
        try:
            listener.close()
        except OSError:
            pass
        try:
            os.unlink(socket_path)
        except (FileNotFoundError, OSError):
            pass
    return _EXIT_BY_REASON[reason]


__all__ = [
    "DRAIN_TIMEOUT_DEFAULT",
    "SERVICE_LOG_ENV",
    "EXIT_CRASH",
    "EXIT_OK",
    "EXIT_SIGINT",
    "EXIT_SIGTERM",
    "serve_forever",
]
