"""The compile service wire protocol, client side.

The transport is :mod:`multiprocessing.connection` over ``AF_UNIX`` —
stdlib, authenticated by filesystem permissions on the socket path,
and message-framed, so the protocol is plain dicts:

    request:  {"op": "submit", "request": <ServiceRequest JSON>,
               "deadline": <seconds|absent>,
               "corr_id": <hex|absent>, "trace": <bool|absent>}
              {"op": "batch", "requests": [<ServiceRequest JSON>, ...],
               "deadline": <seconds|absent>,
               "corr_id": <hex|absent>, "trace": <bool|absent>}
              {"op": "stats"} | {"op": "gc", "max_bytes": N|null}
              {"op": "ping"} | {"op": "shutdown"}
    reply:    {"ok": true, ...}   on success
              {"ok": false, "error": "..."} on a protocol-level error

Observability rides the same dicts: the client mints a correlation id
per call (``corr_id``), the server resolves the request under it —
every span and log line on the way down to the simulator carries that
id, and each result echoes it back (``correlation_id``).  When the
client has tracing active (:mod:`repro.obs.tracing`), ``trace: true``
asks the server to record its spans (including pool-worker spans) and
return them on the reply (``spans``), which the client absorbs into
its own recorder — one Perfetto-loadable timeline across client,
server, worker and simulator.

Job-level failures are never protocol errors: a submit/batch reply is
``ok`` with each result carrying its own structured ``fault`` (the
:mod:`repro.runtime.faults` taxonomy), so one bad kernel cannot take a
batch down.

The server's end of the protocol — the accept loop, drain, exit
codes, chaos injection — is :mod:`repro.service.wire`.
:class:`ServiceClient` documents this end's resilience: every failure
it surfaces is either a structured fault *on a result* or a
:class:`ServiceError` carrying a taxonomy fault — never a raw
``EOFError`` or a hang.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from multiprocessing.connection import Connection
from pathlib import Path
from typing import TYPE_CHECKING

from ..obs.tracing import (
    absorb,
    correlation,
    correlation_id,
    new_correlation_id,
    span,
    tracing_enabled,
)
from ..runtime.faults import Fault, TimeoutFault, TransportFault
from ..runtime.workers import guard_connection, unguard_connection

if TYPE_CHECKING:
    from .server import ServiceRequest


class ServiceError(RuntimeError):
    """A protocol-level failure reported by the server."""


class ServiceUnavailable(ServiceError):
    """The server could not be reached (or never answered) after the
    client's bounded retries.  Carries the structured taxonomy
    :attr:`fault` (``transport`` or ``timeout``) so callers — and the
    chaos property — always see a classified failure, never a raw
    ``EOFError``."""

    def __init__(self, message: str, fault: Fault):
        super().__init__(message)
        self.fault = fault


class CircuitOpenError(ServiceUnavailable):
    """The client's circuit breaker is open: consecutive transport
    failures crossed the threshold, so calls fail fast without
    touching the socket until a half-open probe ``ping`` succeeds."""


class ServiceClient:
    """Talk to a :func:`~repro.service.wire.serve_forever` server from
    another process.

    One connection per call — stateless from the client's view, so it
    reconnects transparently across server restarts::

        client = ServiceClient("/tmp/repro.sock")
        result = client.submit(
            ServiceRequest("compile", "matmul", (4, 8, 8))
        )
        assert result["source"] in ("store", "computed")

    Resilience knobs (all per-client):

    * ``connect_timeout`` / ``call_timeout`` — seconds to establish a
      connection / to wait for a reply (None = wait forever).  A
      wedged server surfaces a structured ``timeout`` fault instead
      of blocking the caller.
    * ``retries`` / ``backoff`` / ``max_backoff`` / ``jitter`` —
      bounded retry for *retryable* failures only (transport errors,
      timeouts, server-side ``overload``/``cancelled``/``timeout``
      faults); deterministic faults (compile, verify, sim) are
      returned immediately.  Attempt N waits
      ``min(max_backoff, backoff * 2**(N-1)) * (1 + jitter * U[0,1))``
      seconds — the jitter de-synchronizes herds of retrying clients.
    * ``breaker_threshold`` / ``breaker_cooldown`` — after
      ``breaker_threshold`` *consecutive* transport-level failures
      the circuit opens: calls raise :class:`CircuitOpenError`
      immediately (no socket traffic) until ``breaker_cooldown``
      seconds pass, then one probe ``ping`` half-opens it.

    Transport failures that outlive the retry budget raise
    :class:`ServiceUnavailable` carrying the taxonomy fault; job
    failures always come back *on the result*, never as exceptions.
    """

    def __init__(
        self,
        socket_path: str | Path,
        connect_timeout: float | None = 5.0,
        call_timeout: float | None = 60.0,
        retries: int = 3,
        backoff: float = 0.05,
        max_backoff: float = 2.0,
        jitter: float = 0.25,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 1.0,
    ):
        self.address = str(socket_path)
        self.connect_timeout = connect_timeout
        self.call_timeout = call_timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.jitter = jitter
        self.breaker_threshold = max(1, int(breaker_threshold))
        self.breaker_cooldown = breaker_cooldown
        self._lock = threading.Lock()
        self._consecutive_failures = 0
        self._open_until: float | None = None

    # -- transport ------------------------------------------------------------

    def _connect(self) -> Connection:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(self.connect_timeout)
            sock.connect(self.address)
            sock.setblocking(True)
        except BaseException:
            sock.close()
            raise
        return Connection(sock.detach())

    def _call_once(self, message: dict) -> tuple[object, Fault | None]:
        """One connect-send-recv round: (reply, None) or (None, fault).

        Never raises on transport trouble — every failure mode maps
        onto the taxonomy (``transport`` or ``timeout``).
        """
        try:
            connection = self._connect()
        except (socket.timeout, TimeoutError):
            return None, TimeoutFault(
                message=(
                    f"connect to {self.address} timed out after "
                    f"{self.connect_timeout:g}s"
                ),
                stage="connect",
            )
        except (ConnectionError, FileNotFoundError, OSError) as error:
            return None, TransportFault(
                message=(
                    f"connect to {self.address} failed: "
                    f"{type(error).__name__}: {error}"
                ),
                stage="connect",
            )
        guard_connection(connection)
        try:
            connection.send(message)
            if self.call_timeout is not None and not connection.poll(
                self.call_timeout
            ):
                return None, TimeoutFault(
                    message=(
                        f"no reply within {self.call_timeout:g}s "
                        f"(server wedged or overloaded)"
                    ),
                    stage="call",
                )
            return connection.recv(), None
        except (EOFError, BrokenPipeError, ConnectionError) as error:
            return None, TransportFault(
                message=(
                    f"connection lost mid-call: "
                    f"{type(error).__name__}: {error}"
                ),
                stage="call",
            )
        except OSError as error:
            return None, TransportFault(
                message=f"transport error mid-call: {error}",
                stage="call",
            )
        finally:
            unguard_connection(connection)
            try:
                connection.close()
            except OSError:
                pass

    # -- circuit breaker ------------------------------------------------------

    def _breaker_gate(self) -> None:
        """Fail fast while the circuit is open; half-open probe after
        the cooldown."""
        with self._lock:
            if self._open_until is None:
                return
            remaining = self._open_until - time.monotonic()
            if remaining > 0:
                raise CircuitOpenError(
                    f"circuit open ({self._consecutive_failures} "
                    f"consecutive transport failures); failing fast "
                    f"for another {remaining:.2f}s",
                    fault=TransportFault(
                        message="circuit breaker open; failing fast",
                        stage="circuit",
                    ),
                )
        # Half-open: one probe ping decides.
        fault = self._probe()
        with self._lock:
            if fault is None:
                self._consecutive_failures = 0
                self._open_until = None
                return
            self._open_until = (
                time.monotonic() + self.breaker_cooldown
            )
        raise CircuitOpenError(
            "half-open probe ping failed; circuit re-opened",
            fault=fault,
        )

    def _probe(self) -> Fault | None:
        """One ``ping`` round trip: None when the server answered it,
        else the fault that says why not."""
        reply, fault = self._call_once({"op": "ping"})
        if fault is None and not (
            isinstance(reply, dict) and reply.get("pong")
        ):
            fault = TransportFault(
                message="probe ping got a malformed reply",
                stage="circuit",
            )
        return fault

    def _record_outcome(self, ok: bool) -> None:
        with self._lock:
            if ok:
                self._consecutive_failures = 0
                self._open_until = None
                return
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.breaker_threshold:
                self._open_until = (
                    time.monotonic() + self.breaker_cooldown
                )

    def _sleep_backoff(self, attempt: int) -> None:
        delay = min(
            self.max_backoff, self.backoff * (2 ** (attempt - 1))
        )
        time.sleep(delay * (1.0 + self.jitter * random.random()))

    # -- calls ----------------------------------------------------------------

    def _call(self, message: dict, retries: int | None = None) -> dict:
        """One protocol call with transport retry + circuit breaker.

        Raises :class:`CircuitOpenError` while the breaker is open,
        :class:`ServiceUnavailable` (with the taxonomy fault) once the
        retry budget is exhausted, and plain :class:`ServiceError` for
        protocol-level failures reported by the server.
        """
        budget = self.retries if retries is None else retries
        self._breaker_gate()
        attempt = 0
        while True:
            attempt += 1
            reply, fault = self._call_once(message)
            if fault is None:
                self._record_outcome(True)
                if not isinstance(reply, dict):
                    raise ServiceError(f"malformed reply: {reply!r}")
                if not reply.get("ok"):
                    raise ServiceError(
                        reply.get("error", "unknown server error")
                    )
                return reply
            self._record_outcome(False)
            if fault.retryable and attempt <= budget:
                self._sleep_backoff(attempt)
                continue
            raise ServiceUnavailable(
                fault.describe(),
                fault=fault.with_attempts(attempt),
            )

    def ping(self) -> bool:
        """One probe round-trip; False (never an exception) when the
        server is unreachable or answers garbage."""
        ok = self._probe() is None
        self._record_outcome(ok)
        return ok

    @staticmethod
    def _retryable(result: dict) -> bool:
        fault = result.get("fault")
        return bool(fault) and bool(fault.get("retryable"))

    def submit(
        self,
        request: ServiceRequest,
        deadline: float | None = None,
        corr_id: str | None = None,
    ) -> dict:
        """Resolve one request; returns the ServiceResult as JSON.

        Retryable *server-side* faults (overload, drain, request
        deadline) are retried with backoff just like transport
        failures — the store makes the retry cheap.  Deterministic
        faults come back immediately on the result.

        A correlation id is minted per call (inherited from an
        enclosing :func:`repro.obs.tracing.correlation` scope, or
        passed explicitly as ``corr_id``); it rides the wire, tags
        every server/worker/simulator span, and comes back on the
        result as ``correlation_id``.
        """
        [result] = self._resolve(
            "submit", [request], deadline, corr_id, label=request.label()
        )
        return result

    def batch(
        self,
        requests: list[ServiceRequest],
        deadline: float | None = None,
        corr_id: str | None = None,
    ) -> list[dict]:
        """Resolve a batch; one result JSON per request, in order.

        Slots that come back with *retryable* faults (overload,
        drain, deadline) are resubmitted as a smaller batch, up to
        the retry budget; everything else keeps its first result.
        The whole batch (retries included) shares one correlation id.
        """
        return self._resolve(
            "batch", requests, deadline, corr_id, size=len(requests)
        )

    def _resolve(
        self,
        op: str,
        requests: list[ServiceRequest],
        deadline: float | None,
        corr_id: str | None,
        **span_attrs,
    ) -> list[dict]:
        """Send ``requests`` as one ``op`` message and resubmit the
        slots that come back retryable, up to the retry budget."""
        cid = corr_id or correlation_id() or new_correlation_id()
        results: list = [None] * len(requests)
        positions = list(range(len(requests)))
        attempt = 0
        with correlation(cid), span(f"client.{op}", **span_attrs):
            while True:
                attempt += 1
                wanted = [requests[pos].to_json() for pos in positions]
                message: dict = {"op": op, "corr_id": cid}
                if op == "submit":
                    message["request"] = wanted[0]
                else:
                    message["requests"] = wanted
                if deadline is not None:
                    message["deadline"] = deadline
                if tracing_enabled():
                    message["trace"] = True
                reply = self._call(message)
                absorb(reply.get("spans"))
                fresh = (
                    [reply["result"]]
                    if op == "submit"
                    else reply["results"]
                )
                for pos, result in zip(positions, fresh):
                    results[pos] = result
                positions = [
                    pos
                    for pos in positions
                    if self._retryable(results[pos])
                ]
                if not positions or attempt > self.retries:
                    return results
                self._sleep_backoff(attempt)

    def stats(self) -> dict:
        return self._call({"op": "stats"})["stats"]

    def gc(self, max_bytes: int | None = None) -> dict:
        return self._call({"op": "gc", "max_bytes": max_bytes})["gc"]

    def shutdown(self) -> None:
        """Ask the server to drain and exit (no transport retries —
        a second shutdown against a drained server would just fail)."""
        self._call({"op": "shutdown"}, retries=0)


__all__ = [
    "CircuitOpenError",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
]
