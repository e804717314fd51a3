"""Resilient service lifecycle tests: request deadlines, admission
backpressure, the client's one retry loop, graceful drain, the
crash-safe request journal, and service-level chaos (the
``REPRO_FAULTS`` injection layer).

The drills at the bottom are the headline guarantees: a kill -9'd
server restarts cleanly (stale socket cleared, journal swept, zero
corrupt store entries, no forked worker left alive) and every client
call under any injection plan terminates with a valid result or a
taxonomy fault — never a hang, never a raw ``EOFError``.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    EXIT_CRASH,
    EXIT_OK,
    ArtifactStore,
    CompileServer,
    RequestJournal,
    ServiceClient,
    ServiceError,
    ServiceRequest,
    ServiceUnavailable,
    serve_forever,
)
from repro.runtime.faults import (
    FAULT_KINDS,
    FAULTS_ENV,
    SERVICE_ACTIONS,
    FaultInjector,
    Injection,
    TransportFault,
)
from repro.service import server as server_module
from repro.service.server import request_key
from repro.service import wire
from repro.service.wire import _clear_stale_socket

#: A tiny request that compiles in milliseconds.
TINY = ServiceRequest("compile", "sum", (2, 4))
TINY2 = ServiceRequest("compile", "fill", (2, 4))
TINY3 = ServiceRequest("compile", "relu", (2, 4))


def _spawn_server(tmp_path, injector=None, **kwargs):
    """serve_forever on a thread; returns (socket_path, thread,
    exit_code_box)."""
    socket_path = tmp_path / "service.sock"
    ready = threading.Event()
    code_box = []

    def run():
        code_box.append(
            serve_forever(
                tmp_path / "store",
                socket_path,
                ready=lambda addr: ready.set(),
                injector=injector,
                **kwargs,
            )
        )

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(30)
    return socket_path, thread, code_box


def _stop(client, thread):
    try:
        client.shutdown()
    except ServiceError:
        pass
    thread.join(timeout=30)
    assert not thread.is_alive()


# -- client timeouts and transport faults ---------------------------------------


class TestClientTimeouts:
    def test_wedged_server_surfaces_timeout_fault(self, tmp_path):
        # A listener that accepts into its backlog but never replies.
        wedge_path = tmp_path / "wedged.sock"
        wedge = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        wedge.bind(str(wedge_path))
        wedge.listen(1)
        try:
            client = ServiceClient(
                wedge_path, call_timeout=0.2, retries=0
            )
            with pytest.raises(ServiceUnavailable) as excinfo:
                client.submit(TINY)
            assert excinfo.value.fault.kind == "timeout"
            assert excinfo.value.fault.retryable
        finally:
            wedge.close()

    def test_connect_failure_is_transport_fault(self, tmp_path):
        client = ServiceClient(
            tmp_path / "nobody-home.sock", retries=0
        )
        with pytest.raises(ServiceUnavailable) as excinfo:
            client.submit(TINY)
        assert excinfo.value.fault.kind == "transport"
        assert not client.ping()

    def test_transport_retries_are_bounded_and_counted(self, tmp_path):
        client = ServiceClient(
            tmp_path / "gone.sock", retries=2, backoff=0.001
        )
        with pytest.raises(ServiceUnavailable) as excinfo:
            client.stats()
        assert excinfo.value.fault.attempts == 3  # 1 + 2 retries


# -- the one retry loop ---------------------------------------------------------


def _count_round_trips(client):
    """Record every message ``client`` sends; returns the record."""
    sent = []
    send = client._call_once

    def counted(message):
        sent.append(message)
        return send(message)

    client._call_once = counted
    return sent


#: A server whose every ``measure`` job kills the process running it.
_POISON_SERVER = """
import os, sys
from repro.service import server, wire

def poison(*args, **kwargs):
    os._exit(9)

server.evaluate_config = poison
sys.exit(wire.serve_forever(sys.argv[1], sys.argv[2], workers=2))
"""


def _start_poison_server(tmp_path, **client_kwargs):
    """``_POISON_SERVER`` as a subprocess; returns (process, client)
    once it answers ``ping``."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-c",
            _POISON_SERVER,
            str(tmp_path / "store"),
            str(tmp_path / "poison.sock"),
        ],
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=Path(__file__).resolve().parent.parent,
    )
    client = ServiceClient(
        tmp_path / "poison.sock", backoff=0.01, **client_kwargs
    )
    deadline = time.monotonic() + 60
    while not client.ping():
        if process.poll() is not None or time.monotonic() > deadline:
            process.kill()
            process.wait(timeout=30)
            pytest.fail("the poison server did not come up")
        time.sleep(0.05)
    return process, client


class TestOneRetryLoop:
    def test_submit_makes_at_most_one_plus_retries_round_trips(
        self, tmp_path
    ):
        """Regression: the resubmit loop wrapped a transport retry
        loop, so ``retries=3`` made 16 round trips against this plan
        (three dropped connections, then a refused admission, over
        and over) and the returned fault said ``attempts`` 1."""
        plan = [
            Injection(
                index,
                "reject-admission" if index % 4 == 3 else "drop-connection",
            )
            for index in range(16)
        ]
        socket_path, thread, _ = _spawn_server(
            tmp_path, injector=FaultInjector(plan)
        )
        client = ServiceClient(socket_path, retries=3, backoff=0.001)
        sent = _count_round_trips(client)
        result = client.submit(TINY)
        assert len(sent) == 4
        assert result["fault"]["kind"] == "overload"
        assert result["fault"]["attempts"] == 4
        _stop(client, thread)

    def test_transport_fault_resends_all_a_reply_the_retryable(self):
        """The loop's two rules on scripted round trips: a lost
        connection resends every pending request, a reply only the
        slots whose fault is retryable; each fault says the round
        trip it came back on."""

        def result(request, fault=None):
            return {"request": request, "fault": fault, "payload": None}

        def overload():
            return {"kind": "overload", "retryable": True, "attempts": 1}

        sent = []

        def scripted(message):
            requests = message["requests"]
            sent.append([request["kernel"] for request in requests])
            if len(sent) == 1:
                return None, TransportFault(message="dropped")
            if len(sent) == 2:
                compile_fault = {"kind": "compile", "retryable": False}
                results = [
                    result(requests[0]),
                    result(requests[1], compile_fault),
                    result(requests[2], overload()),
                ]
            else:
                results = [result(requests[0], overload())]
            return {"ok": True, "results": results}, None

        client = ServiceClient("unused.sock", retries=3, backoff=0.0)
        client._call_once = scripted
        results = client.batch([TINY, TINY2, TINY3])
        everything = ["sum", "fill", "relu"]
        assert sent == [everything, everything, ["relu"], ["relu"]]
        assert results[0]["fault"] is None
        assert results[1]["fault"] == {
            "kind": "compile", "retryable": False, "attempts": 2
        }
        assert results[2]["fault"]["kind"] == "overload"
        assert results[2]["fault"]["attempts"] == 4

    @pytest.mark.parametrize("retries", [2, 5])
    def test_poison_job_on_a_parallel_server_is_a_worker_crash(
        self, tmp_path, retries
    ):
        """Regression: a ``workers=2`` server ran a batch of one in its
        own process, and later, after ``respawn_limit`` worker deaths,
        every job — so a poison job killed the server either way.
        Every job now runs in a forked worker and each death is
        charged to one attempt: the crash comes back on the result
        after ``1 + retries`` deaths, and the server keeps
        answering."""
        process, client = _start_poison_server(tmp_path, retries=retries)
        try:
            result = client.submit(ServiceRequest("measure", "sum", (2, 4)))
            assert result["fault"]["kind"] == "worker-crash"
            assert result["fault"]["attempts"] == 1 + retries
            assert client.ping()
            events = client.stats()["pool"]["events"]
            assert len(events) == 1 + retries  # one respawn per death
            assert all("respawn" in event for event in events)
            client.shutdown()
            assert process.wait(timeout=30) == EXIT_OK
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)


# -- admission control (backpressure) -------------------------------------------


class TestAdmissionControl:
    def test_overload_refusal_is_structured(self, tmp_path):
        with CompileServer(
            ArtifactStore(tmp_path), max_inflight=0
        ) as server:
            result = server.submit(TINY)
            assert result.source == "rejected"
            assert result.fault.kind == "overload"
            assert result.fault.retryable
            assert result.fault.stage == "admission"
            stats = server.stats()
            assert stats["counters"]["rejected_overload"] == 1
            assert stats["lifecycle"]["max_inflight"] == 0

    def test_batch_refused_as_a_unit(self, tmp_path):
        with CompileServer(
            ArtifactStore(tmp_path), max_inflight=1
        ) as server:
            results = server.batch([TINY, TINY2])
            assert [r.source for r in results] == ["rejected"] * 2
            assert all(r.fault.kind == "overload" for r in results)

    def test_draining_refusal_is_cancelled(self, tmp_path):
        with CompileServer(ArtifactStore(tmp_path)) as server:
            server.begin_drain()
            result = server.submit(TINY)
            assert result.source == "rejected"
            assert result.fault.kind == "cancelled"
            assert result.fault.retryable
            assert server.stats()["counters"]["rejected_draining"] == 1

    def test_two_clients_race_one_bounded_server(self, tmp_path):
        """Satellite drill: two clients hammer a max_inflight=1
        server; retries absorb the overload refusals and every
        request eventually resolves."""
        socket_path, thread, _ = _spawn_server(
            tmp_path, max_inflight=1
        )
        requests = [TINY, TINY2, TINY3]
        outcomes: dict[str, list] = {}

        def hammer(name):
            client = ServiceClient(
                socket_path, retries=8, backoff=0.01, jitter=0.5
            )
            outcomes[name] = [
                client.submit(request) for request in requests
            ]

        threads = [
            threading.Thread(target=hammer, args=(name,))
            for name in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        for name in ("a", "b"):
            assert all(r["fault"] is None for r in outcomes[name])
        client = ServiceClient(socket_path)
        stats = client.stats()
        assert stats["lifecycle"]["max_inflight"] == 1
        # Every request was either admitted or refused — admissions
        # never exceeded the high-water mark (no counter for that,
        # but zero unclassified failures above proves no queueing
        # pathology), and refusals were structured overloads.
        assert stats["counters"]["requests"] >= 6
        _stop(client, thread)


# -- request deadlines ----------------------------------------------------------


class TestRequestDeadlines:
    def test_expired_deadline_faults_but_artifact_persists(
        self, tmp_path
    ):
        with CompileServer(ArtifactStore(tmp_path)) as server:
            result = server.submit(TINY, deadline=0.0)
            assert result.source == "failed"
            assert result.fault.kind == "timeout"
            assert result.fault.stage == "request"
            assert (
                server.stats()["counters"]["deadline_expired"] == 1
            )
            # The work itself finished and was persisted — the retry
            # is a cheap store hit.
            retry = server.submit(TINY)
            assert retry.source == "store"
            assert retry.fault is None

    def test_server_default_deadline_applies(self, tmp_path):
        with CompileServer(
            ArtifactStore(tmp_path), request_deadline=0.0
        ) as server:
            assert server.submit(TINY).fault.kind == "timeout"
            assert (
                server.stats()["lifecycle"]["request_deadline"] == 0.0
            )

    def test_timed_out_job_is_not_rerun(self, tmp_path, monkeypatch):
        """Regression: the pool re-ran a timed-out job with a fresh
        copy of its budget (three runs, 4x the budget, on one
        request); the timeout now comes back at once, and a retry is
        the client's, with a fresh request budget."""
        calls = []
        evaluate = server_module.evaluate_config

        def spy(*args, **kwargs):
            calls.append(kwargs["deadline_seconds"])
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(server_module, "evaluate_config", spy)
        budget = 0.15
        request = ServiceRequest("measure", "matmul", (32, 64, 64))
        with CompileServer(
            ArtifactStore(tmp_path), request_deadline=budget
        ) as server:
            result = server.submit(request)
        assert result.fault is not None and result.fault.kind == "timeout"
        assert result.fault.attempts == 1
        assert len(calls) == 1 and 0 < calls[0] <= budget
        assert result.latency < 2 * budget

    def test_deadline_rides_the_wire(self, tmp_path):
        socket_path, thread, _ = _spawn_server(tmp_path)
        client = ServiceClient(socket_path, retries=0)
        result = client.submit(TINY, deadline=60.0)
        assert result["fault"] is None
        batch = client.batch([TINY, TINY2], deadline=60.0)
        assert all(r["fault"] is None for r in batch)
        _stop(client, thread)


# -- graceful drain and exit codes ----------------------------------------------


class TestDrain:
    def test_shutdown_op_drains_and_exits_zero(self, tmp_path):
        socket_path, thread, code_box = _spawn_server(tmp_path)
        client = ServiceClient(socket_path)
        assert client.submit(TINY)["fault"] is None
        client.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert code_box == [EXIT_OK]
        assert not socket_path.exists()

    def test_connection_tracking_is_bounded(self, tmp_path, monkeypatch):
        """Regression: the serve loop kept one ``Thread`` object per
        connection *ever served* (a client opens one per call), so a
        long-lived server's bookkeeping grew without bound.  Only
        open connections are tracked now."""
        states = []

        class SpyState(wire._ServeState):
            def __init__(self, listener):
                super().__init__(listener)
                states.append(self)

        monkeypatch.setattr(wire, "_ServeState", SpyState)
        socket_path, thread, _ = _spawn_server(tmp_path)
        client = ServiceClient(socket_path)
        for _ in range(40):
            assert client.ping()
        (state,) = states
        deadline = time.monotonic() + 10
        while state.connections and time.monotonic() < deadline:
            time.sleep(0.01)  # the last call's thread is still exiting
        assert state.connections == {}
        assert not hasattr(state, "threads")  # nothing else to grow
        held = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            held.connect(str(socket_path))
            assert client.ping()  # accepted after ``held``
            while len(state.connections) != 1 and (
                time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert len(state.connections) == 1  # the one still open
        finally:
            held.close()
        _stop(client, thread)

    def test_sigterm_drains_and_exits_143(self, tmp_path):
        """Satellite drill: a real CLI server process, SIGTERM'd,
        drains and exits with the documented code."""
        socket_path = tmp_path / "cli.sock"
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.tools.kernel_service",
                "serve",
                "--store",
                str(tmp_path / "store"),
                "--socket",
                str(socket_path),
                "--drain-timeout",
                "5",
            ],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=Path(__file__).resolve().parent.parent,
        )
        try:
            client = ServiceClient(
                socket_path, retries=20, backoff=0.1
            )
            assert client.stats()["counters"]["requests"] == 0
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 143
            assert not socket_path.exists()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)

    def test_stale_socket_cleared_live_socket_refused(self, tmp_path):
        stale = tmp_path / "stale.sock"
        stale.touch()  # plain file: connect fails -> treated stale
        _clear_stale_socket(stale)
        assert not stale.exists()
        socket_path, thread, _ = _spawn_server(tmp_path)
        with pytest.raises(ServiceError, match="live server"):
            _clear_stale_socket(socket_path)
        _stop(ServiceClient(socket_path), thread)


# -- the request journal --------------------------------------------------------


class TestRequestJournal:
    def test_begin_finish_lifecycle(self, tmp_path):
        journal = RequestJournal(tmp_path / "journal.json")
        entry_id = journal.begin("kernel", "k" * 64, "compile sum")
        pending = journal.pending()
        assert len(pending) == 1
        assert pending[0]["label"] == "compile sum"
        assert pending[0]["pid"] == os.getpid()
        journal.finish(entry_id)
        assert journal.pending() == []

    def test_sweep_returns_only_dead_writers(self, tmp_path):
        journal = RequestJournal(tmp_path / "journal.json")
        journal.begin("kernel", "a" * 64, "live entry")
        # Forge a second entry whose writer pid is dead.
        data = json.loads(journal.path.read_text())
        dead = subprocess.Popen(["true"])
        dead.wait()
        data["entries"]["kernel/" + "b" * 64] = {
            "kind": "kernel",
            "key": "b" * 64,
            "label": "interrupted entry",
            "pid": dead.pid,
            "started": 0.0,
        }
        journal.path.write_text(json.dumps(data))
        swept = journal.sweep()
        assert [r["label"] for r in swept] == ["interrupted entry"]
        # The live entry survives the sweep.
        assert [r["label"] for r in journal.pending()] == [
            "live entry"
        ]

    def test_corrupt_journal_degrades_to_empty(self, tmp_path):
        journal = RequestJournal(tmp_path / "journal.json")
        journal.path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert journal.pending() == []
        assert journal.sweep() == []

    def test_server_reports_interrupted_on_restart(self, tmp_path):
        journal = RequestJournal(tmp_path / "journal.json")
        dead = subprocess.Popen(["true"])
        dead.wait()
        journal.path.write_text(
            json.dumps(
                {
                    "schema": RequestJournal.SCHEMA,
                    "entries": {
                        "kernel/" + "c" * 64: {
                            "kind": "kernel",
                            "key": "c" * 64,
                            "label": "lost work",
                            "pid": dead.pid,
                            "started": 0.0,
                        }
                    },
                }
            )
        )
        with CompileServer(
            ArtifactStore(tmp_path / "store"), journal=journal
        ) as server:
            assert [r["label"] for r in server.interrupted] == [
                "lost work"
            ]
            lifecycle = server.stats()["lifecycle"]
            assert (
                lifecycle["interrupted_on_restart"][0]["label"]
                == "lost work"
            )
        assert journal.pending() == []  # swept clean

    def test_journalled_compute_leaves_no_residue(self, tmp_path):
        journal = RequestJournal(tmp_path / "journal.json")
        with CompileServer(
            ArtifactStore(tmp_path / "store"), journal=journal
        ) as server:
            assert server.submit(TINY).fault is None
            assert server.batch([TINY2, TINY3]) is not None
        assert journal.pending() == []


# -- service-scoped fault injection ---------------------------------------------


class TestServiceInjection:
    def test_env_grammar_parses_service_actions(self, monkeypatch):
        monkeypatch.setenv(
            FAULTS_ENV,
            "reject-admission@0;delay-response@1=0.05;"
            "drop-connection@2;crash-server@3",
        )
        injector = FaultInjector.from_env()
        assert injector.for_request(0).action == "reject-admission"
        assert injector.for_request(1).value == 0.05
        assert injector.for_request(3).action == "crash-server"

    def test_reject_admission_then_client_retry_succeeds(
        self, tmp_path
    ):
        injector = FaultInjector([Injection(0, "reject-admission")])
        socket_path, thread, _ = _spawn_server(
            tmp_path, injector=injector
        )
        client = ServiceClient(socket_path, retries=2, backoff=0.01)
        result = client.submit(TINY)  # retried past the injection
        assert result["fault"] is None
        stats = client.stats()
        assert stats["counters"]["rejected_overload"] == 1
        assert stats["fault_kinds"].get("overload") == 1
        _stop(client, thread)

    def test_drop_connection_then_client_retry_succeeds(
        self, tmp_path
    ):
        injector = FaultInjector([Injection(0, "drop-connection")])
        socket_path, thread, _ = _spawn_server(
            tmp_path, injector=injector
        )
        client = ServiceClient(socket_path, retries=2, backoff=0.01)
        assert client.submit(TINY)["fault"] is None
        _stop(client, thread)

    def test_delay_response_drives_call_timeout(self, tmp_path):
        injector = FaultInjector(
            [Injection(0, "delay-response", value=1.0)]
        )
        socket_path, thread, _ = _spawn_server(
            tmp_path, injector=injector
        )
        client = ServiceClient(
            socket_path, call_timeout=0.2, retries=2, backoff=0.01
        )
        assert client.submit(TINY)["fault"] is None  # retry won
        _stop(client, thread)

    def test_crash_server_exits_70_and_client_classifies(
        self, tmp_path
    ):
        injector = FaultInjector([Injection(0, "crash-server")])
        socket_path, thread, code_box = _spawn_server(
            tmp_path, injector=injector
        )
        client = ServiceClient(socket_path, retries=1, backoff=0.01)
        with pytest.raises(ServiceUnavailable) as excinfo:
            client.submit(TINY)
        assert excinfo.value.fault.kind in ("transport", "timeout")
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert code_box == [EXIT_CRASH]


# -- the kill -9 drill ----------------------------------------------------------


class TestKillDrill:
    def test_kill9_restart_reconnect_and_warm_hits(self, tmp_path):
        """The headline robustness drill: SIGKILL a real server
        mid-batch, restart it on the same socket + store, and prove
        (a) the client reconnects and resubmits, (b) completed keys
        are 100% warm store hits, (c) the store has zero corrupt
        entries, (d) the restarted server reports the interrupted
        work its predecessor journalled."""
        socket_path = tmp_path / "drill.sock"
        store_dir = tmp_path / "store"
        env = {**os.environ, "PYTHONPATH": "src"}
        cwd = Path(__file__).resolve().parent.parent
        argv = [
            sys.executable,
            "-m",
            "repro.tools.kernel_service",
            "serve",
            "--store",
            str(store_dir),
            "--socket",
            str(socket_path),
        ]
        process = subprocess.Popen(argv, env=env, cwd=cwd)
        restarted = None
        try:
            client = ServiceClient(
                socket_path, retries=20, backoff=0.1
            )
            # Phase 1: complete one request so its artifact is on
            # disk, then start a batch on a background thread and
            # SIGKILL the server the moment the journal shows
            # accepted-but-unfinished work.
            assert client.submit(TINY)["fault"] is None
            journal = RequestJournal(store_dir / "journal.json")
            batch_error = []

            def doomed_batch():
                doomed = ServiceClient(
                    socket_path, retries=1, backoff=0.01
                )
                try:
                    doomed.batch([TINY, TINY2, TINY3])
                except ServiceUnavailable as error:
                    batch_error.append(error)

            batcher = threading.Thread(target=doomed_batch)
            batcher.start()
            deadline = time.monotonic() + 30
            while (
                not journal.pending()
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            assert journal.pending(), "batch never reached the pool"
            process.kill()  # SIGKILL: no drain, no journal cleanup
            process.wait(timeout=30)
            batcher.join(timeout=60)
            assert not batcher.is_alive()
            # The doomed client saw a classified transport failure,
            # not a raw EOFError/BrokenPipeError.
            assert len(batch_error) == 1
            assert batch_error[0].fault.kind in (
                "transport",
                "timeout",
            )
            # Phase 2: restart on the same socket + store.  The
            # stale socket file is cleared, the journal is swept.
            restarted = subprocess.Popen(argv, env=env, cwd=cwd)
            client = ServiceClient(
                socket_path, retries=20, backoff=0.1
            )
            stats = client.stats()
            interrupted = stats["lifecycle"][
                "interrupted_on_restart"
            ]
            assert interrupted, "journal sweep reported nothing"
            # Phase 3: resubmit everything.  Completed keys are warm
            # hits; nothing is corrupt.
            results = client.batch([TINY, TINY2, TINY3])
            assert all(r["fault"] is None for r in results)
            by_key = {r["key"]: r for r in results}
            _, tiny_key = request_key(TINY)
            assert by_key[tiny_key]["source"] == "store"
            report = ArtifactStore(store_dir).verify_all()
            assert report["corrupt"] == 0
            assert report["ok"] >= 3
            client.shutdown()
            assert restarted.wait(timeout=30) == 0
        finally:
            for p in (process, restarted):
                if p is not None and p.poll() is None:
                    p.kill()
                    p.wait(timeout=30)


    def test_kill9_of_a_parallel_server_takes_its_workers_down(
        self, tmp_path
    ):
        """Regression: every forked worker kept the parent's end of its
        own pipe, so SIGKILLing a ``workers=2`` server left its workers
        running as orphans, and a respawned one (forked after the
        listener) kept the socket path answering connects: ``ping``
        hung for its whole ``call_timeout`` and a new ``serve`` on the
        path refused to start.  A worker now holds only its own pipe
        end and exits on its EOF."""
        process, client = _start_poison_server(
            tmp_path, retries=0, call_timeout=5.0
        )
        workers: list[int] = []
        restarted = None
        try:
            crashed = client.submit(ServiceRequest("measure", "sum", (2, 4)))
            assert crashed["fault"]["kind"] == "worker-crash"
            results = client.batch([TINY, TINY2])
            assert [r["source"] for r in results] == ["computed"] * 2
            workers = _children(process.pid)
            assert len(workers) == 2  # both forked after the listener
            process.kill()
            process.wait(timeout=30)
            deadline = time.monotonic() + 10
            while any(map(_alive, workers)):
                assert time.monotonic() < deadline, "workers outlived it"
                time.sleep(0.05)
            start = time.monotonic()
            assert not client.ping()
            assert time.monotonic() - start < client.call_timeout / 2
            restarted = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.tools.kernel_service",
                    "serve",
                    "--store",
                    str(tmp_path / "store"),
                    "--socket",
                    str(tmp_path / "poison.sock"),
                ],
                env={**os.environ, "PYTHONPATH": "src"},
                cwd=Path(__file__).resolve().parent.parent,
            )
            deadline = time.monotonic() + 60
            while not client.ping():
                assert restarted.poll() is None, "serve refused the path"
                assert time.monotonic() < deadline, "no server came up"
                time.sleep(0.05)
            client.shutdown()
            assert restarted.wait(timeout=30) == EXIT_OK
        finally:
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
            for p in (process, restarted):
                if p is not None and p.poll() is None:
                    p.kill()
                    p.wait(timeout=30)


def _children(pid: int) -> list[int]:
    """The live child processes of ``pid`` (read from ``/proc``)."""
    children = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit() and _alive(int(entry.name)):
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            if int(stat.rpartition(")")[2].split()[1]) == pid:
                children.append(int(entry.name))
    return children


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie awaiting its reaper does not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


# -- the chaos property ---------------------------------------------------------


@st.composite
def injection_plans(draw):
    """A small deterministic plan over the service-scoped actions."""
    size = draw(st.integers(min_value=0, max_value=3))
    plan = []
    for slot in range(size):
        action = draw(st.sampled_from(SERVICE_ACTIONS))
        value = (
            draw(
                st.floats(
                    min_value=0.01,
                    max_value=0.05,
                    allow_nan=False,
                )
            )
            if action == "delay-response"
            else 0.0
        )
        plan.append(Injection(index=slot, action=action, value=value))
    return FaultInjector(plan)


@pytest.mark.chaos
class TestServiceChaosProperty:
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(injector=injection_plans())
    def test_every_call_terminates_classified(self, injector):
        """Under ANY plan of service injections, every client call
        terminates (bounded time) with a valid result dict or a
        taxonomy fault — never a hang, never an unclassified
        exception."""
        with tempfile.TemporaryDirectory() as tmp:
            tmp_path = Path(tmp)
            socket_path, thread, code_box = _spawn_server(
                tmp_path, injector=injector, drain_timeout=5.0
            )
            client = ServiceClient(
                socket_path,
                connect_timeout=2.0,
                call_timeout=30.0,
                retries=1,
                backoff=0.01,
            )
            calls = [
                lambda: client.submit(TINY),
                lambda: client.batch([TINY, TINY2]),
                lambda: client.submit(TINY3),
            ]
            for call in calls:
                try:
                    outcome = call()
                except ServiceUnavailable as error:
                    assert error.fault.kind in FAULT_KINDS
                    continue
                results = (
                    outcome
                    if isinstance(outcome, list)
                    else [outcome]
                )
                for result in results:
                    assert isinstance(result, dict)
                    if result["fault"] is None:
                        assert result["payload"] is not None
                    else:
                        assert (
                            result["fault"]["kind"] in FAULT_KINDS
                        )
            try:
                client.shutdown()
            except ServiceError:
                pass
            thread.join(timeout=60)
            assert not thread.is_alive(), "server loop hung"
            assert code_box and code_box[0] in (
                EXIT_OK,
                EXIT_CRASH,
            )
