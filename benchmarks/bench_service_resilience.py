"""Service resilience benchmark: availability and latency under
injected faults.

Drives a real compile server (``repro.service.serve_forever`` over a
Unix socket) through four scenarios and measures what a *retrying*
client actually observes — availability (fraction of calls that end
with a usable result) and client-side p50/p99 latency:

* **baseline** — a clean server; the control group.
* **delay** — ``delay-response`` injections stall replies past the
  client's call timeout; bounded retries must absorb them.
* **overload** — ``reject-admission`` injections refuse requests with
  retryable overload faults; backoff + retry must absorb them.
* **crash_restart** — a ``crash-server`` injection kills the server
  mid-run (abrupt, no drain); the benchmark restarts it on the same
  socket + store, finishes the run, then proves the degraded path is
  *safe*: zero corrupt store entries and 100% warm hits on a full
  resubmission pass.

The headline assertions: baseline availability is 1.0, every injected
scenario still reaches availability 1.0 *through retries* (the whole
point of the client's resilience layer), and the crash leaves no
corruption behind.

Run as a script to (re)generate
``results/BENCH_service_resilience.json``::

    PYTHONPATH=src python benchmarks/bench_service_resilience.py

With ``BENCH_RESILIENCE_SMOKE=1`` a smaller request mix runs (CI uses
this; assertions and schema are identical).

JSON schema (``schema`` = 1)::

    {
      "schema": 1, "smoke": false, "seed": 0, "engine_version": 1,
      "scenarios": {
        "<name>": {
          "calls": .., "ok": .., "faulted": .., "unavailable": ..,
          "availability": ..,
          "latency_ms": {"p50": .., "p99": ..},
          "fault_kinds": {"<kind>": ..},
          "retries": ..,          # client retry budget used
          # crash_restart only:
          "restarts": 1, "resubmit_hit_rate": 1.0,
          "store_corrupt": 0
        }
      }
    }
"""

import json
import os
import sys
import tempfile
import threading
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), "..", "src")
)

from repro.service import (  # noqa: E402
    ArtifactStore,
    ServiceClient,
    ServiceRequest,
    ServiceUnavailable,
    serve_forever,
)
from repro.snitch.engine import ENGINE_VERSION  # noqa: E402
from repro.tune import FaultInjector, Injection  # noqa: E402

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__),
    "..",
    "results",
    "BENCH_service_resilience.json",
)

SEED = 0

FULL_KERNELS = (
    ("fill", (4, 8)),
    ("sum", (4, 8)),
    ("relu", (4, 8)),
    ("conv3x3", (6, 6)),
    ("matmul", (4, 4, 4)),
    ("matvec", (4, 8)),
)

SMOKE_KERNELS = (
    ("sum", (2, 4)),
    ("relu", (2, 4)),
    ("matmul", (2, 3, 4)),
)


def build_requests(smoke: bool, rounds: int) -> list[ServiceRequest]:
    kernels = SMOKE_KERNELS if smoke else FULL_KERNELS
    requests = []
    for _ in range(rounds):
        requests.extend(
            ServiceRequest("compile", kernel, sizes)
            for kernel, sizes in kernels
        )
    return requests


def percentile(samples: list[float], p: float) -> float:
    ordered = sorted(samples)
    index = max(
        0, min(len(ordered) - 1, round(p / 100 * len(ordered)) - 1)
    )
    return ordered[index]


class _Server:
    """One serve_forever thread over a given socket + store."""

    def __init__(self, store_dir, socket_path, injector=None):
        self.socket_path = socket_path
        ready = threading.Event()
        self.exit_code = []
        self.thread = threading.Thread(
            target=lambda: self.exit_code.append(
                serve_forever(
                    store_dir,
                    socket_path,
                    ready=lambda addr: ready.set(),
                    injector=injector,
                    drain_timeout=5.0,
                )
            ),
            daemon=True,
        )
        self.thread.start()
        if not ready.wait(30):
            raise RuntimeError("server did not come up")

    def stop(self, client):
        try:
            client.shutdown()
        except Exception:
            pass
        self.thread.join(60)
        if self.thread.is_alive():
            raise RuntimeError("server loop hung on shutdown")


def drive(client, requests, on_unavailable=None) -> dict:
    """Submit every request; classify each call's terminal outcome."""
    latencies = []
    ok = faulted = unavailable = 0
    fault_kinds: dict[str, int] = {}
    for request in requests:
        t0 = time.perf_counter()
        try:
            result = client.submit(request)
        except ServiceUnavailable as error:
            latencies.append((time.perf_counter() - t0) * 1000)
            unavailable += 1
            kind = error.fault.kind
            fault_kinds[kind] = fault_kinds.get(kind, 0) + 1
            if on_unavailable is not None:
                on_unavailable()
            continue
        latencies.append((time.perf_counter() - t0) * 1000)
        if result["fault"] is None:
            ok += 1
        else:
            faulted += 1
            kind = result["fault"]["kind"]
            fault_kinds[kind] = fault_kinds.get(kind, 0) + 1
    return {
        "calls": len(requests),
        "ok": ok,
        "faulted": faulted,
        "unavailable": unavailable,
        "availability": ok / len(requests),
        "latency_ms": {
            "p50": round(percentile(latencies, 50), 3),
            "p99": round(percentile(latencies, 99), 3),
        },
        "fault_kinds": dict(sorted(fault_kinds.items())),
    }


def _client(socket_path, retries) -> ServiceClient:
    return ServiceClient(
        socket_path,
        connect_timeout=5.0,
        call_timeout=30.0,
        retries=retries,
        backoff=0.02,
        breaker_threshold=10,
        breaker_cooldown=0.1,
    )


def run_scenario(name, requests, injector=None, retries=4, **knobs):
    """One scenario in a fresh store + server; returns its metrics."""
    with tempfile.TemporaryDirectory() as tmp:
        store_dir = os.path.join(tmp, "store")
        socket_path = os.path.join(tmp, "service.sock")
        server = _Server(store_dir, socket_path, injector=injector)
        client = _client(socket_path, retries)
        if name == "delay":
            client.call_timeout = knobs["call_timeout"]
        metrics = drive(client, requests)
        metrics["retries"] = retries
        server.stop(client)
        return metrics


def run_crash_restart(requests, retries=4) -> dict:
    """Kill the server mid-run, restart on the same socket + store,
    finish, and audit the aftermath."""
    crash_at = max(1, len(requests) // 2)
    injector = FaultInjector([Injection(crash_at, "crash-server")])
    with tempfile.TemporaryDirectory() as tmp:
        store_dir = os.path.join(tmp, "store")
        socket_path = os.path.join(tmp, "service.sock")
        server_box = [
            _Server(store_dir, socket_path, injector=injector)
        ]
        restarts = [0]

        def restart():
            # The crashed loop unlinks its socket on the way out;
            # wait for it, then bring a clean server back up.
            server_box[0].thread.join(60)
            server_box[0] = _Server(store_dir, socket_path)
            restarts[0] += 1

        client = _client(socket_path, retries)
        metrics = drive(client, requests, on_unavailable=restart)
        metrics["retries"] = retries
        metrics["restarts"] = restarts[0]
        # The degraded path must be safe: resubmitting everything is
        # all warm hits (completed work survived the crash) and the
        # store audits clean.
        results = [client.submit(r) for r in requests]
        assert all(r["fault"] is None for r in results)
        hits = sum(1 for r in results if r["source"] == "store")
        metrics["resubmit_hit_rate"] = hits / len(results)
        report = ArtifactStore(store_dir).verify_all()
        metrics["store_corrupt"] = report["corrupt"]
        server_box[0].stop(client)
        return metrics


def main() -> dict:
    smoke = bool(os.environ.get("BENCH_RESILIENCE_SMOKE"))
    rounds = 2 if smoke else 4
    requests = build_requests(smoke, rounds)
    distinct = len(SMOKE_KERNELS if smoke else FULL_KERNELS)

    scenarios = {}
    scenarios["baseline"] = run_scenario("baseline", requests)
    print(
        f"baseline: availability "
        f"{scenarios['baseline']['availability']:.0%}, "
        f"p50 {scenarios['baseline']['latency_ms']['p50']} ms, "
        f"p99 {scenarios['baseline']['latency_ms']['p99']} ms"
    )
    assert scenarios["baseline"]["availability"] == 1.0, (
        "a clean server must resolve every request"
    )

    delay_plan = FaultInjector(
        [
            Injection(i, "delay-response", value=0.5)
            for i in range(0, len(requests), distinct)
        ]
    )
    scenarios["delay"] = run_scenario(
        "delay", requests, injector=delay_plan, call_timeout=0.15
    )
    print(
        f"delay: availability "
        f"{scenarios['delay']['availability']:.0%}, "
        f"p99 {scenarios['delay']['latency_ms']['p99']} ms"
    )

    overload_plan = FaultInjector(
        [
            Injection(i, "reject-admission")
            for i in range(0, len(requests), distinct)
        ]
    )
    scenarios["overload"] = run_scenario(
        "overload", requests, injector=overload_plan
    )
    print(
        f"overload: availability "
        f"{scenarios['overload']['availability']:.0%}, "
        f"p99 {scenarios['overload']['latency_ms']['p99']} ms"
    )

    scenarios["crash_restart"] = run_crash_restart(requests)
    print(
        f"crash_restart: availability "
        f"{scenarios['crash_restart']['availability']:.0%}, "
        f"{scenarios['crash_restart']['restarts']} restart(s), "
        f"resubmit hit rate "
        f"{scenarios['crash_restart']['resubmit_hit_rate']:.0%}, "
        f"{scenarios['crash_restart']['store_corrupt']} corrupt "
        f"entries"
    )

    for name in ("delay", "overload"):
        assert scenarios[name]["availability"] == 1.0, (
            f"{name}: bounded retries must absorb every injected "
            f"fault, got {scenarios[name]['availability']:.0%}"
        )
    assert scenarios["crash_restart"]["store_corrupt"] == 0, (
        "a kill mid-run must never corrupt the store"
    )
    assert scenarios["crash_restart"]["resubmit_hit_rate"] == 1.0, (
        "after a crash + restart, resubmitting completed work must "
        "be all warm store hits"
    )

    results = {
        "schema": 1,
        "smoke": smoke,
        "seed": SEED,
        "engine_version": ENGINE_VERSION,
        "scenarios": scenarios,
    }
    path = os.path.abspath(RESULTS_PATH)
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")
    return results


if __name__ == "__main__":
    main()
