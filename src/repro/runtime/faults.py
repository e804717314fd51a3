"""Structured fault taxonomy and deterministic fault injection.

A job — a compile, a simulation, a numpy check — can fail in its own
right, and a service job runs in a worker process that can be killed
or hang on top of that.  Each failure becomes a :class:`Fault` value
with

* a **kind** (``compile``, ``verify``, ``sim``, ``timeout``,
  ``worker-crash``, ``unknown`` — plus the service-lifecycle kinds
  ``overload``, ``transport``, ``cancelled`` used by
  :mod:`repro.service`) that names which layer failed;
* a **retryability** class: deterministic faults (a config that does
  not compile will never compile) are final, transient faults (a
  killed worker, a wall-clock timeout on a loaded machine) earn a
  bounded retry with exponential backoff in
  :class:`~repro.runtime.workers.HardenedPool`;
* **provenance**: the candidate's config key, the evaluation stage,
  and how many dispatch attempts were consumed.

Faults round-trip through JSON so they thread unchanged through
:class:`~repro.tune.search.CandidateOutcome`, the schema-2
:class:`~repro.tune.cache.TuneCache` (failures are cached as faults,
never as ``null``), the pool's pipes and the service's wire replies.

The second half is the **deterministic fault-injection harness** the
service chaos suite drives: a :class:`FaultInjector` holds a plan of
:class:`Injection` actions keyed by request sequence number — drop a
connection, stall a reply, crash the server, refuse admission —
installable per server (``serve_forever(injector=...)``) or via the
``REPRO_FAULTS`` environment variable (the CLI/CI hook), plus
:meth:`FaultInjector.corrupt_file` for stored bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path

#: Environment variable the service CLI consults for an injection plan.
FAULTS_ENV = "REPRO_FAULTS"


@dataclass(frozen=True)
class Fault:
    """One structured evaluation failure, with provenance.

    Subclasses fix :attr:`KIND` and :attr:`RETRYABLE`; instances add
    the human-readable message, the candidate (config key) that
    failed, the evaluation stage, and the number of dispatch attempts
    consumed before the fault became final.
    """

    KIND = "unknown"
    RETRYABLE = False

    message: str
    #: ``ScheduleConfig.key()`` of the candidate, when known.
    candidate: str | None = None
    #: Evaluation stage: ``compile`` | ``simulate`` | ``verify`` |
    #: ``worker``.
    stage: str | None = None
    #: Dispatch attempts consumed (1 = failed on the first try).
    attempts: int = 1

    @property
    def kind(self) -> str:
        return type(self).KIND

    @property
    def retryable(self) -> bool:
        return type(self).RETRYABLE

    def describe(self) -> str:
        """One-line form used in reports and error messages."""
        parts = [f"{self.kind}: {self.message}"]
        if self.stage:
            parts.append(f"stage={self.stage}")
        if self.attempts != 1:
            parts.append(f"attempts={self.attempts}")
        return " ".join(parts)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "message": self.message,
            "retryable": self.retryable,
            "candidate": self.candidate,
            "stage": self.stage,
            "attempts": self.attempts,
        }

    @staticmethod
    def from_json(data: dict) -> "Fault":
        """Rebuild a fault from its JSON form (unknown kinds degrade
        to :class:`UnknownFault` instead of erroring)."""
        if not isinstance(data, dict):
            raise ValueError(f"malformed fault record: {data!r}")
        cls = FAULT_KINDS.get(data.get("kind"), UnknownFault)
        message = data.get("message")
        if not isinstance(message, str):
            raise ValueError(f"malformed fault record: {data!r}")
        attempts = data.get("attempts", 1)
        return cls(
            message=message,
            candidate=data.get("candidate"),
            stage=data.get("stage"),
            attempts=attempts if isinstance(attempts, int) else 1,
        )

    def with_attempts(self, attempts: int) -> "Fault":
        """The same fault with its attempt count updated."""
        return replace(self, attempts=attempts)


class CompileFault(Fault):
    """The candidate's pipeline failed to build or run a pass.

    Deterministic — the same spec fails the same way — so never
    retried, and safe to persist in the cache.
    """

    KIND = "compile"
    RETRYABLE = False


class VerifyFault(Fault):
    """The candidate compiled and ran but mismatched the numpy oracle.

    Deterministic (the simulator is bit-exact and the inputs are
    seeded), so never retried, and cached.
    """

    KIND = "verify"
    RETRYABLE = False


class SimFault(Fault):
    """The simulation itself raised: illegal program, runaway
    instruction budget, out-of-bounds access.  Deterministic, cached."""

    KIND = "sim"
    RETRYABLE = False


class TimeoutFault(Fault):
    """The candidate exceeded its wall-clock deadline.

    The pool watchdog SIGKILLs the worker (or the engine's cooperative
    deadline fires in-process).  Wall-clock time is load-dependent, so
    timeouts are *transient*: retried (bounded) and never persisted to
    the cache.
    """

    KIND = "timeout"
    RETRYABLE = True


class WorkerCrash(Fault):
    """The worker process died (SIGKILL, OOM kill, hard crash) before
    reporting a result.  Transient: retried and never cached."""

    KIND = "worker-crash"
    RETRYABLE = True


class UnknownFault(Fault):
    """A failure with no recorded provenance: an exception no stage
    claims, or a persisted fault of a kind this build does not know."""

    KIND = "unknown"
    RETRYABLE = False


class OverloadFault(Fault):
    """The server refused admission: its in-flight queue is at the
    high-water mark (``max_inflight``).  Transient by definition —
    load drains — so retryable (with backoff) and never cached."""

    KIND = "overload"
    RETRYABLE = True


class TransportFault(Fault):
    """The connection to the server failed: refused, dropped
    mid-call, reset, or never answered.  Says nothing about the job
    itself, so retryable (the server may be restarting) and never
    cached."""

    KIND = "transport"
    RETRYABLE = True


class CancelledFault(Fault):
    """The server is draining (SIGTERM/SIGINT/shutdown) and faulted
    the request instead of finishing it.  Retryable against a
    restarted server; never cached."""

    KIND = "cancelled"
    RETRYABLE = True


FAULT_KINDS: dict[str, type[Fault]] = {
    cls.KIND: cls
    for cls in (
        CompileFault,
        VerifyFault,
        SimFault,
        TimeoutFault,
        WorkerCrash,
        UnknownFault,
        OverloadFault,
        TransportFault,
        CancelledFault,
    )
}


def classify_error(
    error: BaseException,
    stage: str | None = None,
    candidate: str | None = None,
    attempts: int = 1,
) -> Fault:
    """Map a raw evaluation exception onto the taxonomy.

    The exception *type* decides first (a deadline is a timeout
    wherever it fires); otherwise the evaluation ``stage`` picks the
    bucket.  Anything unrecognized becomes :class:`UnknownFault` —
    never a bare string, never ``null``.
    """
    # Imported lazily: machine -> engine -> ... must not import runtime.
    from ..snitch.machine import DeadlineExceeded, SimulationError

    message = f"{type(error).__name__}: {error}"
    kwargs = dict(candidate=candidate, stage=stage, attempts=attempts)
    if isinstance(error, DeadlineExceeded):
        return TimeoutFault(message=message, **kwargs)
    if isinstance(error, SimulationError):
        return SimFault(message=message, **kwargs)
    if stage == "verify":
        return VerifyFault(message=message, **kwargs)
    if stage == "compile":
        return CompileFault(message=message, **kwargs)
    if stage == "simulate":
        return SimFault(message=message, **kwargs)
    return UnknownFault(message=message, **kwargs)


# -- deterministic fault injection ----------------------------------------------

#: Injection actions the service harness understands (applied at the
#: wire/admission layer, keyed by request sequence number — see
#: :meth:`FaultInjector.for_request` and ``repro.service.wire``):
#:
#: * ``drop-connection`` — close the client's connection before
#:   replying (the client observes EOF mid-call);
#: * ``delay-response`` — stall the reply ``value`` seconds (drives
#:   client call timeouts);
#: * ``crash-server`` — tear the whole server down abruptly: no
#:   drain, no reply, listener and connections closed (exit code
#:   ``EXIT_CRASH``);
#: * ``reject-admission`` — refuse the request with a retryable
#:   :class:`OverloadFault`, as if the in-flight queue were full.
SERVICE_ACTIONS = (
    "drop-connection",
    "delay-response",
    "crash-server",
    "reject-admission",
)

@dataclass(frozen=True)
class Injection:
    """One planned fault: fire ``action`` (one of
    :data:`SERVICE_ACTIONS`) on admitted request ``index``."""

    index: int
    action: str
    value: float = 0.0

    def __post_init__(self):
        if self.action not in SERVICE_ACTIONS:
            raise ValueError(
                f"unknown injection action {self.action!r} "
                f"(one of {', '.join(SERVICE_ACTIONS)})"
            )


class FaultInjector:
    """A deterministic plan of injections, consulted per request.

    The server's wire layer asks :meth:`for_request` for every
    admitted request; the same plan therefore produces the same faults
    run after run — the chaos suite's foundation.
    """

    def __init__(self, plan: tuple[Injection, ...] | list = ()):
        self.plan = tuple(plan)

    def __bool__(self) -> bool:
        return bool(self.plan)

    def for_request(self, index: int) -> Injection | None:
        """The injection to apply to admitted request ``index``
        (0-based, counted over job-bearing messages in admission
        order), or None.  A client retry arrives as a fresh request
        index."""
        for injection in self.plan:
            if injection.index == index:
                return injection
        return None

    @classmethod
    def from_env(cls) -> "FaultInjector | None":
        """Build an injector from ``REPRO_FAULTS``, or None.

        Grammar (``;`` or ``,`` separated)::

            ACTION@INDEX[=VALUE]

        e.g. ``reject-admission@0;delay-response@1=0.05``.
        """
        text = os.environ.get(FAULTS_ENV, "").strip()
        if not text:
            return None
        plan = []
        for part in text.replace(",", ";").split(";"):
            part = part.strip()
            if not part:
                continue
            try:
                action, _, rest = part.partition("@")
                index_text, _, value_text = rest.partition("=")
                plan.append(
                    Injection(
                        index=int(index_text),
                        action=action.strip(),
                        value=float(value_text) if value_text else 0.0,
                    )
                )
            except ValueError as error:
                raise ValueError(
                    f"bad {FAULTS_ENV} entry {part!r}: {error}"
                ) from None
        return cls(plan)

    @staticmethod
    def corrupt_file(path, offset: int | None = None, flips: int = 8) -> None:
        """Deterministically corrupt a stored artifact's bytes.

        XOR-flips ``flips`` bytes starting mid-file (or at ``offset``)
        — the chaos suite's model of torn writes and bit rot in the
        shared cache store.
        """
        path = Path(path)
        data = bytearray(path.read_bytes())
        if not data:
            data = bytearray(b"\xff")
        start = len(data) // 2 if offset is None else offset
        for i in range(start, min(start + flips, len(data))):
            data[i] ^= 0xFF
        path.write_bytes(bytes(data))


__all__ = [
    "FAULT_KINDS",
    "FAULTS_ENV",
    "SERVICE_ACTIONS",
    "CancelledFault",
    "CompileFault",
    "Fault",
    "FaultInjector",
    "Injection",
    "OverloadFault",
    "SimFault",
    "TimeoutFault",
    "TransportFault",
    "UnknownFault",
    "VerifyFault",
    "WorkerCrash",
    "classify_error",
]
