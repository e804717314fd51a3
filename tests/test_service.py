"""Tests for the compile-and-tune service: content-addressed store,
batch server, wire protocol, CLI, and the long-lived-process cache
knobs (engine decode cache, network layer memo, tune-cache hygiene).
"""

import json
import multiprocessing
import os
import subprocess
import threading
import time
from pathlib import Path

import pytest

from repro import api, kernels
from repro import compiler as compiler_module
from repro.compiler import CompiledKernel, Compiler
from repro.kernels import lowlevel, networks
from repro.kernels.builders import KERNEL_BUILDERS
from repro.obs import METRICS
from repro.obs.tracing import correlation, recording
from repro.service import (
    ArtifactStore,
    CompileServer,
    RequestJournal,
    ServiceClient,
    ServiceRequest,
    StoreError,
    serve_forever,
)
from repro.service.server import request_key
from repro.runtime.store import compile_key, content_key
from repro.snitch import engine
from repro.tools import kernel_service
from repro.tune import TuneCache, evaluate_config, tune_kernel
from repro.tune.schedule import ScheduleConfig
from repro.runtime.workers import HardenedPool, PoolConfig

#: Table 1 kernels at small, fast shapes.
TABLE1 = (
    ("fill", (2, 4)),
    ("sum", (2, 4)),
    ("relu", (2, 4)),
    ("conv3x3", (4, 4)),
    ("max_pool3x3", (4, 4)),
    ("sum_pool3x3", (4, 4)),
    ("matmul", (2, 3, 4)),
    ("matmul_t", (2, 3, 4)),
    ("matvec", (2, 4)),
)


def _dead_pid() -> int:
    """A pid guaranteed to be dead (a just-reaped child)."""
    child = subprocess.Popen(["true"])
    child.wait()
    return child.pid


# -- content keys ---------------------------------------------------------------


class TestContentKey:
    def test_deterministic(self):
        assert content_key("a", "b", 1) == content_key("a", "b", 1)

    def test_length_prefixing_prevents_concat_collisions(self):
        assert content_key("ab", "c") != content_key("a", "bc")

    def test_non_string_parts_canonicalized(self):
        assert content_key({"b": 1, "a": 2}) == content_key(
            {"a": 2, "b": 1}
        )

    def test_compile_key_includes_engine_version(self, monkeypatch):
        before = compile_key("m", "p")
        monkeypatch.setattr(engine, "ENGINE_VERSION", 999)
        assert compile_key("m", "p") != before


# -- the artifact store ---------------------------------------------------------


class TestArtifactStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = content_key("hello")
        payload = {"cycles": 42, "nested": {"a": [1, 2]}}
        path = store.put("cycles", key, payload)
        assert path.is_file()
        assert store.get("cycles", key) == payload
        assert store.contains("cycles", key)
        stats = store.stats()
        assert stats["hits"] == 1 and stats["puts"] == 1
        assert stats["entries"] == 1

    def test_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get("cycles", content_key("nope")) is None
        assert store.stats()["misses"] == 1

    def test_bad_kind_and_key_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(StoreError):
            store.put("../evil", content_key("x"), {})
        with pytest.raises(StoreError):
            store.put("kernel", "short", {})
        with pytest.raises(StoreError):
            store.put("kernel", content_key("x"), "not a dict")

    def test_corrupt_entry_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = content_key("x")
        path = store.put("kernel", key, {"asm": "nop"})
        text = path.read_text().replace("nop", "pwn")
        path.write_text(text)
        with pytest.warns(RuntimeWarning, match="integrity"):
            assert store.get("kernel", key) is None
        assert not path.exists()
        assert path.with_suffix(".json.corrupt").exists()
        assert store.stats()["quarantined"] == 1

    def test_undecodable_entry_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = content_key("x")
        path = store.put("kernel", key, {"asm": "nop"})
        path.write_text("{truncated")
        with pytest.warns(RuntimeWarning, match="undecodable"):
            assert store.get("kernel", key) is None

    def test_lru_eviction_under_cap(self, tmp_path):
        store = ArtifactStore(tmp_path)
        keys = [content_key(str(i)) for i in range(4)]
        for i, key in enumerate(keys):
            store.put("cycles", key, {"i": i})
            time.sleep(0.01)  # distinct mtimes
        store.get("cycles", keys[0])  # refresh the oldest
        entry_bytes = store.stats()["bytes"] // 4
        report = store.gc(max_bytes=entry_bytes * 2)
        assert report["evicted"] == 2
        # The touched entry survived; the stale middle ones went.
        assert store.contains("cycles", keys[0])
        assert store.contains("cycles", keys[3])
        assert not store.contains("cycles", keys[1])
        assert store.stats()["evictions"] == 2

    def test_put_cap_evicts_automatically(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes=1)
        store.put("cycles", content_key("a"), {"v": 1})
        time.sleep(0.01)
        store.put("cycles", content_key("b"), {"v": 2})
        assert store.stats()["entries"] <= 1

    def test_gc_sweeps_dead_writer_tmp(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = content_key("x")
        path = store.put("cycles", key, {"v": 1})
        stale = path.parent / f"{key}.json.{_dead_pid()}.tmp"
        stale.write_text("{half a write")
        live = path.parent / f"{key}.json.{os.getpid()}.tmp"
        live.write_text("mine")
        store.gc()
        assert not stale.exists()
        assert live.exists()  # live writers are left alone
        live.unlink()

    def test_verify_all_counts_corruption(self, tmp_path):
        store = ArtifactStore(tmp_path)
        good = content_key("good")
        bad = content_key("bad")
        store.put("cycles", good, {"v": 1})
        path = store.put("cycles", bad, {"v": 2})
        path.write_text(path.read_text().replace('"v": 2', '"v": 3'))
        assert store.verify_all() == {"ok": 1, "corrupt": 1}


# -- CompiledKernel round trip --------------------------------------------------


class TestCompiledKernelRoundTrip:
    @pytest.mark.parametrize("kernel,sizes", TABLE1)
    def test_byte_identical_asm_and_cycles(self, kernel, sizes):
        builder, _arity = KERNEL_BUILDERS[kernel]
        module, spec = builder(*sizes)
        fresh = api.compile_linalg(module)
        back = CompiledKernel.from_json(
            json.loads(json.dumps(fresh.to_json()))
        )
        assert back.rehydrated
        assert back.asm == fresh.asm
        assert back.entry == fresh.entry
        assert back.pass_timings == fresh.pass_timings
        assert back.pass_stats == fresh.pass_stats
        args = spec.random_arguments(seed=0)
        cycles_fresh = api.run_kernel(fresh, args).trace.cycles
        cycles_back = api.run_kernel(
            back, spec.random_arguments(seed=0)
        ).trace.cycles
        assert cycles_fresh == cycles_back

    def test_register_usage_unavailable_when_rehydrated(self):
        module, _ = kernels.sum_kernel(2, 4)
        fresh = api.compile_linalg(module)
        back = CompiledKernel.from_json(fresh.to_json())
        with pytest.raises(ValueError, match="rehydrated"):
            back.register_usage()

    def test_malformed_artifact_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            CompiledKernel.from_json({"entry": "f"})


# -- the api store fast path ----------------------------------------------------


class TestApiStoreFastPath:
    def test_linalg_miss_then_hit(self, tmp_path):
        store = ArtifactStore(tmp_path)
        module, spec = kernels.matmul(2, 3, 4)
        first = api.compile_linalg(module, store=store)
        assert not first.rehydrated
        module2, _ = kernels.matmul(2, 3, 4)
        second = api.compile_linalg(module2, store=store)
        assert second.rehydrated
        assert second.asm == first.asm
        args = spec.random_arguments(seed=3)
        run = api.run_kernel(second, args)
        expected = spec.reference(*args)
        import numpy as np

        for got, want in zip(run.arrays, expected):
            if want is not None:
                assert np.allclose(got, want, atol=1e-8)

    def test_distinct_pipelines_get_distinct_keys(self, tmp_path):
        store = ArtifactStore(tmp_path)
        module, _ = kernels.matmul(2, 3, 4)
        api.compile_linalg(module, store=store)
        module2, _ = kernels.matmul(2, 3, 4)
        other = api.compile_linalg(
            module2, pipeline="table3-frep", store=store
        )
        assert not other.rehydrated  # different spec, different key
        assert store.stats()["entries"] == 2

    def test_snapshots_bypass_store(self, tmp_path):
        store = ArtifactStore(tmp_path)
        module, _ = kernels.sum_kernel(2, 4)
        api.compile_linalg(module, store=store)
        module2, _ = kernels.sum_kernel(2, 4)
        snapped = api.compile_linalg(
            module2, store=store, snapshots=True
        )
        assert not snapped.rehydrated
        assert snapped.snapshots

    def test_lowlevel_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        module, spec = lowlevel.lowlevel_sum_f32(2, 4)
        first = api.compile_lowlevel(module, spec.name, store=store)
        module2, _ = lowlevel.lowlevel_sum_f32(2, 4)
        second = api.compile_lowlevel(module2, spec.name, store=store)
        assert second.rehydrated
        assert second.asm == first.asm
        assert second.entry == spec.name


# -- the batch server -----------------------------------------------------------


class TestCompileServer:
    def test_submit_compile_then_store_hit(self, tmp_path):
        with CompileServer(ArtifactStore(tmp_path)) as server:
            request = ServiceRequest("compile", "sum", (2, 4))
            first = server.submit(request)
            assert first.ok and first.source == "computed"
            assert "frep.o" in first.kernel().asm
            second = server.submit(request)
            assert second.source == "store"
            assert second.payload == first.payload

    def test_measure_matches_direct_oracle(self, tmp_path):
        config = ScheduleConfig(unroll_factor=2)
        with CompileServer(ArtifactStore(tmp_path)) as server:
            result = server.submit(
                ServiceRequest(
                    "measure", "matmul", (2, 3, 4), config=config
                )
            )
            assert result.ok
        direct = evaluate_config("matmul", (2, 3, 4), config, seed=0)
        assert result.payload["cycles"] == direct

    def test_batch_dedups_and_reports_faults(self, tmp_path):
        with CompileServer(ArtifactStore(tmp_path)) as server:
            requests = [
                ServiceRequest("compile", "relu", (2, 4)),
                ServiceRequest("compile", "relu", (2, 4)),
                ServiceRequest("compile", "fft", (8,)),
                ServiceRequest("measure", "relu", (2, 4)),
            ]
            results = server.batch(requests)
            assert len(results) == 4
            assert results[0].ok and results[1].ok
            assert results[0].key == results[1].key
            assert results[0].payload == results[1].payload
            assert not results[2].ok
            assert results[2].fault is not None
            assert results[2].source == "failed"
            assert results[3].ok
            counters = server.stats()["counters"]
            assert counters["deduped_in_batch"] == 1
            assert counters["computed"] == 2  # relu compile + measure
            assert counters["faults"] == 1

    def test_compile_key_shared_with_api_fast_path(self, tmp_path):
        store = ArtifactStore(tmp_path)
        module, _ = kernels.matmul(2, 3, 4)
        api.compile_linalg(module, store=store)
        with CompileServer(store) as server:
            result = server.submit(
                ServiceRequest("compile", "matmul", (2, 3, 4))
            )
            assert result.source == "store"
            # ...and the other way round: what the server compiled is
            # a rehydrating hit for a direct API user.
            assert server.submit(
                ServiceRequest("compile", "relu", (2, 4))
            ).source == "computed"
        module, _ = kernels.relu(2, 4)
        assert api.compile_linalg(module, store=store).rehydrated

    def test_request_json_round_trip(self):
        request = ServiceRequest(
            "measure",
            "matmul",
            (2, 3, 4),
            config=ScheduleConfig(unroll_factor=2, num_cores=2),
            seed=7,
            validate=False,
        )
        assert ServiceRequest.from_json(request.to_json()) == request
        with pytest.raises(StoreError):
            ServiceRequest.from_json({"kind": "compile"})
        with pytest.raises(StoreError):
            ServiceRequest("decompile", "sum", (2, 4))

    @pytest.mark.parametrize(
        "config",
        [
            # Spliced verbatim into the spec, this would add passes.
            {"unroll_factor": "2},dce,unroll-and-jam{factor=4"},
            {"unroll_factor": True},
            {"num_cores": 0},
            # A config from before the interchange axis was removed:
            # measuring it as the default would answer another question.
            {"permutation": [1, 0, 2], "unroll_factor": 2},
        ],
        ids=["splice", "bool-factor", "zero-cores", "permuted"],
    )
    def test_untrusted_config_is_refused(self, config):
        with pytest.raises(StoreError, match="malformed service request"):
            ServiceRequest.from_json(
                {"kind": "measure", "kernel": "matmul",
                 "sizes": [4, 8, 8], "config": config}
            )

    def test_result_json_reports_fault(self, tmp_path):
        with CompileServer(ArtifactStore(tmp_path)) as server:
            [result] = server.batch(
                [ServiceRequest("compile", "fft", (8,))]
            )
        data = result.to_json()
        assert data["fault"]["kind"]
        assert data["payload"] is None
        with pytest.raises(StoreError):
            result.kernel()

    def test_single_flight_threads_share_one_compute(self, tmp_path):
        with CompileServer(ArtifactStore(tmp_path)) as server:
            request = ServiceRequest("compile", "conv3x3", (4, 4))
            barrier = threading.Barrier(4)
            results = []

            def hammer():
                barrier.wait()
                results.append(server.submit(request))

            threads = [
                threading.Thread(target=hammer) for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert all(r.ok for r in results)
            payloads = {json.dumps(r.payload) for r in results}
            assert len(payloads) == 1
            counters = server.stats()["counters"]
            assert counters["computed"] == 1
            assert (
                counters["joined_inflight"] + counters["store_hits"]
                == 3
            )

    def test_stats_exposes_cache_sizes(self, tmp_path):
        with CompileServer(ArtifactStore(tmp_path)) as server:
            stats = server.stats()
        assert "decode_programs" in stats["caches"]
        assert "layer_memo" in stats["caches"]
        assert stats["pool"]["workers"] == 1
        assert "store" in stats


class _SpyJournal(RequestJournal):
    """A journal that also logs its traffic."""

    def __init__(self, path):
        super().__init__(path)
        self.traffic = []

    def begin(self, kind, key, label=""):
        self.traffic.append(("begin", kind, key, label))
        return super().begin(kind, key, label)

    def finish(self, entry_id):
        self.traffic.append(("finish", entry_id))
        super().finish(entry_id)


class TestSubmitIsBatchOfOne:
    """``submit(r)`` and ``batch([r])[0]`` are one code path: same
    result (all fields but latency), same counters, same journal
    traffic — only the span name tells them apart."""

    #: A measure job: its payload (cycles) is deterministic, where a
    #: compile payload embeds wall-clock pass timings.
    GOOD = ServiceRequest("measure", "relu", (2, 4))
    BAD = ServiceRequest("compile", "relu", (2, 4), pipeline="no-such-pass")

    @staticmethod
    def _observe(tmp_path, entry, request, prepare=None, **server_args):
        """Everything one call leaves behind, on a fresh server."""
        root = tmp_path / entry
        journal = _SpyJournal(root / "journal.json")
        with CompileServer(
            ArtifactStore(root), journal=journal, **server_args
        ) as server:
            if prepare is not None:
                prepare(server)
            journal.traffic.clear()
            before = server.stats()["counters"]
            with recording() as recorder, correlation("0123456789abcdef"):
                if entry == "submit":
                    result = server.submit(request)
                else:
                    [result] = server.batch([request])
            after = server.stats()["counters"]
        fields = result.to_json()
        assert fields.pop("latency") >= 0
        return {
            "result": fields,
            "counters": {
                name: after[name] - before[name] for name in after
            },
            "journal": journal.traffic,
            "spans": sorted(
                event["name"]
                for event in recorder.events_json()
                if event["name"].startswith("server.")
            ),
        }

    def _both(self, tmp_path, request, admitted=True, **kwargs):
        one = self._observe(tmp_path, "submit", request, **kwargs)
        many = self._observe(tmp_path, "batch", request, **kwargs)
        # A refusal happens before any span opens.
        assert one.pop("spans") == ["server.submit"] * admitted
        assert many.pop("spans") == ["server.batch"] * admitted
        assert one == many
        return one

    def test_computed(self, tmp_path):
        seen = self._both(tmp_path, self.GOOD)
        assert seen["result"]["source"] == "computed"
        assert seen["result"]["correlation_id"] == "0123456789abcdef"
        assert seen["counters"]["computed"] == 1
        assert [step[0] for step in seen["journal"]] == ["begin", "finish"]

    def test_store_hit(self, tmp_path):
        seen = self._both(
            tmp_path,
            self.GOOD,
            prepare=lambda server: server.submit(self.GOOD),
        )
        assert seen["result"]["source"] == "store"
        assert seen["counters"]["store_hits"] == 1
        assert seen["journal"] == []

    def test_faulted(self, tmp_path):
        seen = self._both(tmp_path, self.BAD)
        assert seen["result"]["source"] == "failed"
        assert seen["result"]["fault"]["kind"] in ("compile", "unknown")
        assert seen["counters"]["faults"] == 1

    def test_refused_overload(self, tmp_path):
        seen = self._both(
            tmp_path, self.GOOD, admitted=False, max_inflight=0
        )
        assert seen["result"]["source"] == "rejected"
        assert seen["result"]["fault"]["kind"] == "overload"
        assert seen["counters"]["rejected_overload"] == 1

    def test_refused_draining(self, tmp_path):
        seen = self._both(
            tmp_path,
            self.GOOD,
            admitted=False,
            prepare=lambda server: server.begin_drain(),
        )
        assert seen["result"]["fault"]["kind"] == "cancelled"
        assert seen["counters"]["rejected_draining"] == 1

    def test_joined_inflight(self, tmp_path):
        """While another caller computes the key, both entry points
        wait for that result instead of recomputing."""
        holder = []

        def hold_the_key(server):
            started, release = threading.Event(), threading.Event()
            real_map, real_claim = server.pool.map, server._claim

            def slow_map(tasks):
                started.set()
                assert release.wait(10)
                return real_map(tasks)

            def claim(key):
                record, owner = real_claim(key)
                if not owner:
                    release.set()  # the joiner is committed to waiting
                return record, owner

            server.pool.map, server._claim = slow_map, claim
            owner = threading.Thread(
                target=server.submit, args=(self.GOOD,)
            )
            owner.start()
            assert started.wait(10)
            holder.append(owner)

        seen = self._both(tmp_path, self.GOOD, prepare=hold_the_key)
        for owner in holder:
            owner.join(10)
            assert not owner.is_alive()
        assert seen["result"]["source"] == "inflight"
        assert seen["result"]["payload"]["cycles"] > 0
        assert seen["counters"]["joined_inflight"] == 1
        assert seen["counters"]["computed"] <= 1  # the owner's, if any


def _race_batch_worker(store_dir, shapes, queue):
    store = ArtifactStore(store_dir)
    server = CompileServer(store)
    try:
        requests = []
        for kernel, sizes in shapes:
            requests.append(ServiceRequest("compile", kernel, sizes))
            requests.append(ServiceRequest("measure", kernel, sizes))
        results = server.batch(requests)
        queue.put([result.ok for result in results])
    finally:
        server.close()


class TestConcurrentStoreAccess:
    def test_two_processes_racing_batches(self, tmp_path):
        """Satellite drill: two processes batch overlapping requests
        over one store directory -> consistent store, zero corrupt
        entries, unioned artifacts."""
        context = multiprocessing.get_context("fork")
        shared = list(TABLE1[:4])
        left = shared + [("matmul", (2, 3, 4))]
        right = shared + [("matvec", (2, 4))]
        queue = context.Queue()
        workers = [
            context.Process(
                target=_race_batch_worker,
                args=(str(tmp_path), shapes, queue),
            )
            for shapes in (left, right)
        ]
        for worker in workers:
            worker.start()
        outcomes = [queue.get(timeout=120) for _ in workers]
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        assert all(all(flags) for flags in outcomes)
        store = ArtifactStore(tmp_path)
        report = store.verify_all()
        assert report["corrupt"] == 0
        # Union: every distinct request from both processes present.
        for kernel, sizes in left + right:
            for request in (
                ServiceRequest("compile", kernel, sizes),
                ServiceRequest("measure", kernel, sizes),
            ):
                kind, key = request_key(request)
                assert store.contains(kind, key), request.label()


# -- wire protocol --------------------------------------------------------------


@pytest.fixture
def live_server(tmp_path):
    socket_path = tmp_path / "service.sock"
    ready = threading.Event()
    thread = threading.Thread(
        target=serve_forever,
        args=(tmp_path / "store", socket_path),
        kwargs={"ready": lambda addr: ready.set()},
        daemon=True,
    )
    thread.start()
    assert ready.wait(30)
    client = ServiceClient(socket_path)
    yield client, socket_path
    try:
        client.shutdown()
    except Exception:
        pass
    thread.join(timeout=30)


class TestWireProtocol:
    def test_full_session(self, live_server):
        client, socket_path = live_server
        assert client.ping()
        result = client.submit(ServiceRequest("compile", "sum", (2, 4)))
        assert result["source"] == "computed"
        results = client.batch(
            [
                ServiceRequest("compile", "sum", (2, 4)),
                ServiceRequest("measure", "sum", (2, 4)),
            ]
        )
        assert results[0]["source"] == "store"
        assert results[1]["payload"]["cycles"] > 0
        # A repeated identical batch is 100% store hits, measures too.
        assert [
            r["source"]
            for r in client.batch(
                [
                    ServiceRequest("compile", "sum", (2, 4)),
                    ServiceRequest("measure", "sum", (2, 4)),
                ]
            )
        ] == ["store", "store"]
        stats = client.stats()
        assert stats["counters"]["requests"] == 5
        assert client.gc()["evicted"] == 0

    def test_faults_travel_as_results_not_errors(self, live_server):
        client, _ = live_server
        result = client.submit(ServiceRequest("compile", "fft", (8,)))
        assert result["fault"] is not None
        assert result["payload"] is None

    def test_shutdown_removes_socket(self, live_server):
        client, socket_path = live_server
        client.shutdown()
        deadline = time.monotonic() + 10
        while socket_path.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not socket_path.exists()


# -- fork safety ----------------------------------------------------------------


def _echo_task(task):
    payload, _injection = task
    return payload, None


class TestForkSafety:
    def test_pool_prestart_forks_full_complement(self):
        pool = HardenedPool(_echo_task, PoolConfig(workers=2))
        if not pool.parallel:
            pytest.skip("fork start method unavailable")
        try:
            pool.prestart()
            assert len(pool._workers) == 2
            pool.prestart()  # idempotent
            assert len(pool._workers) == 2
            results = pool.map([(0, "a", 1), (1, "b", 2)])
            assert [result for result, _ in results] == [1, 2]
            assert all(fault is None for _, fault in results)
        finally:
            pool.close()

    def test_server_prestarts_workers(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with CompileServer(store, workers=2) as server:
            if server.pool.parallel:
                assert len(server.pool._workers) == 2

    def test_parallel_batch_does_not_wedge_server(self, tmp_path):
        # Regression: workers used to fork lazily during the first
        # parallel batch, inheriting the accepted connection fd; when
        # client and server share a process (server thread), the
        # client closing that connection never produced EOF and the
        # server hung in recv() instead of accepting new connections.
        socket_path = tmp_path / "service.sock"
        ready = threading.Event()
        thread = threading.Thread(
            target=serve_forever,
            args=(tmp_path / "store", socket_path),
            kwargs={"workers": 2, "ready": lambda addr: ready.set()},
            daemon=True,
        )
        thread.start()
        assert ready.wait(30)
        client = ServiceClient(socket_path)
        results = client.batch(
            [
                ServiceRequest("compile", "sum", (2, 4)),
                ServiceRequest("measure", "sum", (2, 4)),
            ]
        )
        assert [r["source"] for r in results] == ["computed", "computed"]
        answered = threading.Event()
        stats: dict = {}

        def poke():
            stats.update(client.stats())
            answered.set()

        threading.Thread(target=poke, daemon=True).start()
        assert answered.wait(30), (
            "server wedged after a parallel batch "
            "(a forked worker inherited the connection fd)"
        )
        assert stats["counters"]["computed"] == 2
        client.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()


# -- decode cache (satellites 1 + 2) --------------------------------------------


class TestDecodeCache:
    def setup_method(self):
        engine.clear_decode_cache()

    teardown_method = setup_method

    def test_threaded_hammer_decodes_once(self):
        module, _ = kernels.conv3x3(4, 4)
        program = api.compile_linalg(module).program
        before = METRICS.counter("engine_programs_decoded").value
        barrier = threading.Barrier(8)
        decoded = []

        def hammer():
            barrier.wait()
            decoded.append(engine.decode(program))

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(decoded) == 8
        assert all(d is decoded[0] for d in decoded)
        assert METRICS.counter("engine_programs_decoded").value == before + 1

    def test_clear_drops_memoized_decodes(self):
        module, _ = kernels.sum_kernel(2, 4)
        program = api.compile_linalg(module).program
        engine.decode(program)
        assert engine.decode_cache_size() >= 1
        engine.clear_decode_cache()
        assert engine.decode_cache_size() == 0
        assert not hasattr(program, "_decoded")
        before = METRICS.counter("engine_programs_decoded").value
        engine.decode(program)  # transparently re-decodes
        assert METRICS.counter("engine_programs_decoded").value == before + 1

    def test_dead_programs_pruned(self):
        module, _ = kernels.sum_kernel(2, 4)
        program = api.compile_linalg(module).program
        engine.decode(program)
        assert engine.decode_cache_size() >= 1
        del program
        import gc

        gc.collect()  # Program <-> DecodedProgram is a cycle
        assert engine.decode_cache_size() == 0


class TestLayerMemo:
    def setup_method(self):
        networks.clear_layer_cache()

    teardown_method = setup_method

    def test_cross_call_reuse(self):
        layers = networks.nsnet2_layers(width=4)
        first = networks.compile_layers(layers)
        assert networks.layer_cache_size() > 0
        second = networks.compile_layers(layers)
        for (c1, _), (c2, _) in zip(first, second):
            assert c1 is c2  # same compiled kernel object, no rebuild

    def test_pipeline_is_part_of_the_key(self):
        layers = [networks.nsnet2_layers(width=4)[1]]  # one relu
        (ours, _), = networks.compile_layers(layers, pipeline="ours")
        (frep, _), = networks.compile_layers(
            layers, pipeline="table3-frep"
        )
        assert ours is not frep

    def test_evicts_least_recent_at_the_limit_and_clears(self):
        limit = networks.LAYER_MEMO_LIMIT
        layers = [
            networks.LayerConfig(f"relu{n}", kernels.relu, (1, n))
            for n in range(1, limit + 2)
        ]
        pairs = networks.compile_layers(layers)
        assert networks.layer_cache_size() == limit
        # The first layer was evicted (it recompiles); the last was not.
        (again, _), = networks.compile_layers(layers[:1])
        assert again is not pairs[0][0]
        (kept, _), = networks.compile_layers(layers[-1:])
        assert kept is pairs[-1][0]
        networks.clear_layer_cache()
        assert networks.layer_cache_size() == 0

    def test_run_network_still_validates(self):
        layers = networks.nsnet2_layers(width=4)
        first = networks.run_network("nsnet2", layers, validate=True)
        second = networks.run_network("nsnet2", layers, validate=True)
        assert first.total_cycles == second.total_cycles


# -- tune cache hygiene (satellite 3) -------------------------------------------


class TestTuneCacheCleanup:
    def test_stale_lock_and_tmp_do_not_block_next_run(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = TuneCache(path)
        cache.put(TuneCache.key("sum", (2, 4), ScheduleConfig()), 10)
        cache.save()
        # Simulate a SIGKILLed writer: leftover lock file + pid-tagged
        # temp from a process that no longer exists.
        lock = tmp_path / "cache.json.lock"
        lock.write_text("")
        stale = tmp_path / f"cache.json.{_dead_pid()}.tmp"
        stale.write_text('{"half": ')
        fresh = TuneCache(path)  # must not block or raise
        hit, cycles, fault = fresh.lookup(
            TuneCache.key("sum", (2, 4), ScheduleConfig())
        )
        assert hit and cycles == 10 and fault is None
        assert not stale.exists()  # swept on load
        fresh.put(TuneCache.key("sum", (2, 5), ScheduleConfig()), 11)
        fresh.save()  # must not block on the leftover lock file
        assert json.loads(path.read_text())["schema"] == 2

    def test_live_writer_tmp_left_alone(self, tmp_path):
        path = tmp_path / "cache.json"
        mine = tmp_path / f"cache.json.{os.getpid()}.tmp"
        mine.write_text("in progress")
        TuneCache(path)
        assert mine.exists()


# -- tuner store integration ----------------------------------------------------


class TestTunerStore:
    def test_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        first = tune_kernel(
            "matmul",
            (2, 3, 4),
            strategy="random",
            budget=3,
            cache=TuneCache(None),
            store=store,
        )
        assert not first.from_store
        second = tune_kernel(
            "matmul",
            (2, 3, 4),
            strategy="random",
            budget=3,
            cache=TuneCache(None),
            store=store,
        )
        assert second.from_store
        assert second.candidates == []
        assert second.best.cycles == first.best.cycles
        assert second.best.config == first.best.config

    def test_different_budget_is_a_different_search(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        tune_kernel(
            "relu",
            (2, 4),
            strategy="random",
            budget=2,
            cache=TuneCache(None),
            store=store,
        )
        other = tune_kernel(
            "relu",
            (2, 4),
            strategy="random",
            budget=3,
            cache=TuneCache(None),
            store=store,
        )
        assert not other.from_store


# -- the CLI --------------------------------------------------------------------


class TestServiceCli:
    def test_submit_in_process(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        code = kernel_service.main(
            ["submit", "compile", "sum", "2", "4", "--store", store]
        )
        assert code == 0
        assert "computed" in capsys.readouterr().out
        code = kernel_service.main(
            ["submit", "compile", "sum", "2", "4", "--store", store]
        )
        assert code == 0
        assert "store" in capsys.readouterr().out

    def test_submit_asm_output(self, tmp_path, capsys):
        code = kernel_service.main(
            [
                "submit", "compile", "sum", "2", "4",
                "--store", str(tmp_path / "store"), "--asm",
            ]
        )
        assert code == 0
        assert ".globl sum" in capsys.readouterr().out

    def test_measure_with_schedule_knobs(self, tmp_path, capsys):
        code = kernel_service.main(
            [
                "submit", "measure", "matmul", "2", "3", "4",
                "--unroll", "2", "--cores", "2",
                "--store", str(tmp_path / "store"),
            ]
        )
        assert code == 0
        assert "cycles" in capsys.readouterr().out

    def test_bad_schedule_knobs_are_usage_errors(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            kernel_service.main(
                [
                    "submit", "measure", "matmul", "2", "3", "4",
                    "--cores", "0", "--store", str(tmp_path / "store"),
                ]
            )
        assert info.value.code == 2

    def test_batch_file_config_is_validated(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(
            json.dumps(
                [{"kind": "measure", "kernel": "matmul",
                  "sizes": [4, 8, 8],
                  "config": {"unroll_factor": "2},dce,unroll-and-jam"
                                              "{factor=4"}}]
            )
        )
        with pytest.raises(SystemExit) as info:
            kernel_service.main(
                ["batch", str(jobs), "--store", str(tmp_path / "store")]
            )
        assert info.value.code == 2
        assert "unroll_factor" in capsys.readouterr().err

    def test_batch_file_and_exit_codes(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(
            json.dumps(
                [
                    {"kind": "compile", "kernel": "sum",
                     "sizes": [2, 4]},
                    {"kind": "measure", "kernel": "sum",
                     "sizes": [2, 4]},
                ]
            )
        )
        store = str(tmp_path / "store")
        assert kernel_service.main(
            ["batch", str(jobs), "--store", store]
        ) == 0
        out = capsys.readouterr().out
        assert "2 jobs" in out
        # A faulting job flips the exit code but not the batch.
        jobs.write_text(
            json.dumps(
                [{"kind": "compile", "kernel": "sum", "sizes": [2]}]
            )
        )
        assert kernel_service.main(
            ["batch", str(jobs), "--store", store]
        ) == 1
        assert "FAULT" in capsys.readouterr().out

    def test_stats_and_gc_json(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        kernel_service.main(
            ["submit", "compile", "sum", "2", "4", "--store", store]
        )
        capsys.readouterr()
        assert kernel_service.main(["stats", "--store", store]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["store"]["entries"] == 1
        assert kernel_service.main(["gc", "--store", store]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["after"]["entries"] == 1

    def test_socket_backend(self, live_server, capsys):
        _, socket_path = live_server
        code = kernel_service.main(
            [
                "submit", "compile", "relu", "2", "4",
                "--socket", str(socket_path),
            ]
        )
        assert code == 0
        assert "computed" in capsys.readouterr().out

    def test_backend_required(self, tmp_path):
        with pytest.raises(SystemExit):
            kernel_service.main(["submit", "compile", "sum", "2", "4"])

    def test_unreachable_socket_is_exit_4(self, tmp_path, capsys):
        code = kernel_service.main(
            [
                "submit", "compile", "sum", "2", "4",
                "--socket", str(tmp_path / "absent.sock"),
            ]
        )
        assert code == 4
        assert "service error" in capsys.readouterr().err


# -- pipeline spec canonicalization guard ---------------------------------------


class TestKeying:
    def test_request_key_matches_canonical_spec(self):
        request = ServiceRequest("compile", "matmul", (2, 3, 4))
        kind, key = request_key(request)
        assert kind == "kernel"
        module, _ = kernels.matmul(2, 3, 4)
        from repro.ir.printer import print_op

        text = print_op(module)
        spec = Compiler("ours").pipeline_spec
        assert key == compile_key(text, spec)

    @pytest.mark.parametrize(
        "module, constant",
        [(compiler_module, "COMPILER_VERSION"), (engine, "ENGINE_VERSION")],
        ids=["compiler", "engine"],
    )
    def test_version_bump_misses_every_persisted_key(
        self, module, constant, monkeypatch, tmp_path
    ):
        """Finding 3: a change to emitted asm (or to the timing model)
        for an unchanged (module, spec) must not be served from a
        store or cycle cache written before it."""
        compile_request = ServiceRequest("compile", "sum", (2, 4))
        measure_request = ServiceRequest("measure", "sum", (2, 4))

        def keys():
            return (
                compile_key("m", "p"),
                request_key(compile_request),
                request_key(measure_request),
                TuneCache.key("sum", (2, 4), ScheduleConfig()),
            )

        store = ArtifactStore(tmp_path / "store")
        cache = tmp_path / "cache.json"
        first = tune_kernel("sum", (2, 4), cache=cache, store=store)
        warm = tune_kernel("sum", (2, 4), cache=cache, store=store)
        assert warm.from_store and warm.best.is_current()
        before = keys()
        stored = set(store.root.glob("objects/schedule/*/*.json"))

        monkeypatch.setattr(module, constant, 999)
        assert all(new != old for new, old in zip(keys(), before))
        assert not warm.best.is_current()
        bumped = tune_kernel("sum", (2, 4), cache=cache, store=store)
        assert not bumped.from_store  # the stored schedule's key is gone
        assert bumped.cache_hits == 0  # ...and so are the cached cycles
        assert bumped.cache_misses == first.cache_misses
        assert bumped.best.is_current()
        # A stale record planted under the *current* key is recomputed,
        # not trusted: the record's own versions are checked too.
        (entry,) = (
            set(store.root.glob("objects/schedule/*/*.json")) - stored
        )
        store.put("schedule", entry.stem, first.best.to_json())
        replanted = tune_kernel("sum", (2, 4), cache=cache, store=store)
        assert not replanted.from_store

    def test_measure_keys_differ_by_config_and_seed(self):
        base = ServiceRequest("measure", "sum", (2, 4))
        by_config = ServiceRequest(
            "measure", "sum", (2, 4),
            config=ScheduleConfig(unroll_factor=2),
        )
        by_seed = ServiceRequest("measure", "sum", (2, 4), seed=1)
        keys = {request_key(r)[1] for r in (base, by_config, by_seed)}
        assert len(keys) == 3
