"""End-to-end observability across the service boundary.

One ``kernel_service`` request must produce a Perfetto-loadable trace
spanning client -> server -> pool worker -> simulator, all joined by a
single correlation ID (PR-10 acceptance criterion) — plus the id
echoed on the result, in server ``stats`` recent-request records, and
in the opt-in request log.
"""

import json
import os
import threading
from contextlib import contextmanager

import pytest

from repro.obs.tracing import (
    correlation,
    new_correlation_id,
    recording,
)
from repro.service.client import ServiceClient
from repro.service.server import CompileServer, ServiceRequest
from repro.runtime.store import ArtifactStore
from repro.service.wire import serve_forever
from repro.tools import kernel_service


#: Serial pool (jobs run in the server process) and forked pool
#: (a batch of distinct misses fans out to worker processes).
WORKERS = pytest.mark.parametrize("workers", [1, 2])


@contextmanager
def _serving(tmp_path, workers):
    sock = tmp_path / "svc.sock"
    ready = threading.Event()
    thread = threading.Thread(
        target=serve_forever,
        args=(tmp_path / "store", sock),
        kwargs={"workers": workers, "ready": lambda _addr: ready.set()},
        daemon=True,
    )
    thread.start()
    assert ready.wait(10)
    client = ServiceClient(sock)
    try:
        yield client
    finally:
        client.shutdown()
        thread.join(10)


@pytest.fixture()
def live_server(tmp_path):
    with _serving(tmp_path, workers=1) as client:
        yield client


class TestServiceCorrelation:
    def test_result_echoes_a_correlation_id(self, live_server):
        result = live_server.submit(
            ServiceRequest("compile", "relu", (4, 8))
        )
        assert result["correlation_id"]

    def test_explicit_correlation_scope_wins(self, live_server):
        cid = new_correlation_id()
        with correlation(cid):
            result = live_server.submit(
                ServiceRequest("compile", "sum", (4, 8))
            )
        assert result["correlation_id"] == cid

    def test_stats_recent_carries_the_id(self, live_server):
        cid = new_correlation_id()
        with correlation(cid):
            live_server.submit(
                ServiceRequest("compile", "fill", (4, 8))
            )
        recent = live_server.stats()["recent"]
        assert any(
            record["correlation_id"] == cid for record in recent
        )

    def test_single_trace_client_to_simulator(self, live_server):
        """The acceptance criterion: one measure request, one corr
        id, spans from the client down to the simulator."""
        with recording() as recorder:
            result = live_server.submit(
                ServiceRequest("measure", "matmul", (2, 4, 4))
            )
        events = recorder.events_json()
        names = {event["name"] for event in events}
        assert {
            "client.submit",
            "server.submit",
            "worker.job",
            "sim.run",
        } <= names
        cids = {
            event["args"].get("correlation_id") for event in events
        }
        assert cids == {result["correlation_id"]}
        # Perfetto-loadable: a JSON object with complete events.
        doc = recorder.chrome_trace()
        parsed = json.loads(json.dumps(doc))
        assert parsed["traceEvents"]
        assert all(
            event["ph"] in ("M", "X")
            for event in parsed["traceEvents"]
        )

    @WORKERS
    def test_batch_trace_reaches_every_worker_job(
        self, tmp_path, workers
    ):
        """One traced batch: a ``worker.job`` span per computed job
        under the call's correlation id — from forked workers too,
        and for the job that faults."""
        with _serving(tmp_path, workers) as client, recording() as recorder:
            results = client.batch(
                [
                    ServiceRequest("measure", "relu", (4, 8)),
                    ServiceRequest("measure", "sum", (4, 8)),
                    # Parses, but lowers to nothing: faults in the
                    # worker, at compile time.
                    ServiceRequest(
                        "compile", "fill", (4, 8), pipeline="canonicalize"
                    ),
                ]
            )
        assert [r["source"] for r in results] == [
            "computed",
            "computed",
            "failed",
        ]
        events = recorder.events_json()
        jobs = [e for e in events if e["name"] == "worker.job"]
        assert sorted(e["args"]["label"] for e in jobs) == [
            "fill",
            "relu",
            "sum",
        ]
        cid = results[0]["correlation_id"]
        assert {e["args"]["correlation_id"] for e in events} == {cid}
        assert {"client.batch", "server.batch", "sim.run"} <= {
            e["name"] for e in events
        }
        in_process = {e["pid"] for e in jobs} == {os.getpid()}
        assert in_process == (workers == 1)

    def test_batch_shares_one_correlation_id(self, live_server):
        results = live_server.batch(
            [
                ServiceRequest("compile", "relu", (4, 8)),
                ServiceRequest("compile", "sum", (4, 8)),
            ]
        )
        cids = {result["correlation_id"] for result in results}
        assert len(cids) == 1 and cids != {""}

    def test_untraced_submit_ships_no_spans(self, live_server):
        result = live_server.submit(
            ServiceRequest("measure", "relu", (4, 8))
        )
        assert set(result["payload"]) == {"cycles"}

    def test_request_log_greps_by_corr_id(
        self, live_server, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_SERVICE_LOG", "1")
        cid = new_correlation_id()
        with correlation(cid):
            live_server.submit(
                ServiceRequest("compile", "matvec", (4, 8))
            )
        captured = capsys.readouterr()
        assert f"corr_id={cid}" in captured.err


class TestStoreHygiene:
    def test_spans_never_persist_in_the_store(self, tmp_path):
        """Traced artifacts must hit the content-addressed store
        clean — a later untraced hit must not resurrect spans."""
        store = ArtifactStore(tmp_path / "store")
        with CompileServer(store, workers=1) as server:
            with recording():
                first = server.submit(
                    ServiceRequest("measure", "sum", (4, 8))
                )
            second = server.submit(
                ServiceRequest("measure", "sum", (4, 8))
            )
        assert first.source == "computed"
        assert second.source == "store"
        assert set(first.payload) == set(second.payload) == {"cycles"}

    @WORKERS
    def test_traced_and_untraced_stores_are_byte_identical(
        self, tmp_path, workers
    ):
        """Spans travel beside the result, never inside it: what a
        traced run persists equals what an untraced run persists."""
        requests = [
            ServiceRequest("measure", "sum", (4, 8)),
            ServiceRequest("measure", "relu", (4, 8)),
        ]
        stored = {}
        for name in ("traced", "untraced"):
            store = ArtifactStore(tmp_path / name)
            with CompileServer(store, workers=workers) as server:
                if name == "traced":
                    with recording() as recorder:
                        results = server.batch(requests)
                    assert "worker.job" in {
                        e["name"] for e in recorder.events_json()
                    }
                else:
                    results = server.batch(requests)
                again = server.batch(requests)
            assert [r.source for r in results] == ["computed"] * 2
            assert [r.source for r in again] == ["store"] * 2
            assert [r.payload for r in again] == [
                r.payload for r in results
            ]
            stored[name] = {
                str(path.relative_to(store.root)): path.read_bytes()
                for path in store.objects_dir.rglob("*.json")
            }
        assert len(stored["traced"]) == 2
        assert stored["traced"] == stored["untraced"]

    def test_request_key_ignores_correlation(self, tmp_path):
        """Correlation ids must not break content addressing."""
        store = ArtifactStore(tmp_path / "store")
        with CompileServer(store, workers=1) as server:
            with correlation(new_correlation_id()):
                first = server.submit(
                    ServiceRequest("compile", "relu", (4, 8))
                )
            with correlation(new_correlation_id()):
                second = server.submit(
                    ServiceRequest("compile", "relu", (4, 8))
                )
        assert first.key == second.key
        assert second.source == "store"


class TestInProcessBackend:
    def test_cli_corr_id_round_trip(self, tmp_path, capsys):
        code = kernel_service.main(
            [
                "submit",
                "measure",
                "relu",
                "4",
                "8",
                "--store",
                str(tmp_path / "store"),
                "--corr-id",
                "cafe0123cafe0123",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "corr=cafe0123cafe0123" in out
