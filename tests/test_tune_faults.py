"""Degraded-path tests: fault taxonomy, hardened pool, crash-safe
cache, deadline watchdogs, and the chaos property.

Everything here exercises the tuner *when things go wrong*: workers
SIGKILLed mid-batch, candidates stalled past their deadline, corrupt
cache bytes, Ctrl-C mid-search.  Faults are injected deterministically
through :class:`repro.tune.FaultInjector`, so every failure scenario
replays bit-for-bit.

Environment knobs (the CI chaos job turns them):

* ``REPRO_TUNE_TEST_WORKERS`` — pool width for the chaos property
  (default 2);
* ``REPRO_TUNE_TEST_DEADLINE`` — per-candidate deadline in seconds
  (default 0.75; keep it low so delay injections resolve quickly).
"""

import json
import multiprocessing
import os
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api, kernels
from repro.snitch.machine import DeadlineExceeded, SnitchMachine
from repro.snitch.memory import TCDM
from repro.tools import kernel_tuner
from repro.tune import (
    FAULT_KINDS,
    CompileFault,
    Fault,
    FaultInjector,
    HardenedPool,
    Injection,
    PoolConfig,
    SearchInterrupted,
    SimFault,
    TimeoutFault,
    TuneCache,
    UnknownFault,
    WorkerCrash,
    classify_error,
    evaluate_config,
    tune_kernel,
)
from repro.tune.schedule import ScheduleConfig, ScheduleError

CHAOS_WORKERS = int(os.environ.get("REPRO_TUNE_TEST_WORKERS", "2"))
CHAOS_DEADLINE = float(os.environ.get("REPRO_TUNE_TEST_DEADLINE", "0.75"))


# -- taxonomy -------------------------------------------------------------------


class TestFaultTaxonomy:
    def test_json_round_trip(self):
        fault = TimeoutFault(
            message="blew the deadline",
            candidate="factor=1|cores=1",
            stage="simulate",
            attempts=3,
        )
        back = Fault.from_json(fault.to_json())
        assert type(back) is TimeoutFault
        assert back == fault
        assert back.retryable and back.kind == "timeout"

    def test_unknown_kind_degrades_not_errors(self):
        data = {"kind": "not-a-kind", "message": "mystery"}
        back = Fault.from_json(data)
        assert type(back) is UnknownFault

    def test_malformed_record_raises(self):
        with pytest.raises(ValueError):
            Fault.from_json({"kind": "compile"})  # no message

    def test_retryability_classes(self):
        assert not CompileFault(message="x").retryable
        assert not SimFault(message="x").retryable
        assert TimeoutFault(message="x").retryable
        assert WorkerCrash(message="x").retryable

    def test_classify_deadline_is_timeout_anywhere(self):
        fault = classify_error(
            DeadlineExceeded("too slow"), stage="verify"
        )
        assert fault.kind == "timeout" and fault.retryable

    def test_classify_by_stage(self):
        assert (
            classify_error(ValueError("bad ir"), stage="compile").kind
            == "compile"
        )
        assert (
            classify_error(ScheduleError("mismatch"), stage="verify").kind
            == "verify"
        )
        assert (
            classify_error(RuntimeError("boom"), stage=None).kind
            == "unknown"
        )

    def test_describe_carries_provenance(self):
        text = CompileFault(
            message="no such pass", stage="compile", attempts=2
        ).describe()
        assert "compile" in text and "attempts=2" in text


class TestInjectionPlans:
    def test_from_env_grammar(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", "crash@2; delay@1=0.5, raise@3:sticky"
        )
        injector = FaultInjector.from_env()
        assert injector.plan == (
            Injection(index=2, action="crash"),
            Injection(index=1, action="delay", value=0.5),
            Injection(index=3, action="raise", sticky=True),
        )

    def test_from_env_absent(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert FaultInjector.from_env() is None

    def test_from_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "explode@1")
        with pytest.raises(ValueError, match="explode"):
            FaultInjector.from_env()

    def test_one_shot_fires_on_first_attempt_only(self):
        injector = FaultInjector([Injection(index=1, action="raise")])
        assert injector.for_attempt(1, 1) is not None
        assert injector.for_attempt(1, 2) is None
        assert injector.for_attempt(0, 1) is None

    def test_sticky_fires_every_attempt(self):
        injector = FaultInjector(
            [Injection(index=1, action="delay", sticky=True)]
        )
        assert injector.for_attempt(1, 5) is not None

    def test_crash_is_inert_serially(self):
        injector = FaultInjector([Injection(index=0, action="crash")])
        assert injector.for_attempt(0, 1, serial=True) is None
        assert injector.for_attempt(0, 1, serial=False) is not None


# -- engine deadline ------------------------------------------------------------


def _compiled_matmul():
    module, spec = kernels.matmul(8, 8, 8)
    return api.compile_linalg(module), spec


class TestEngineDeadline:
    def test_fast_path_deadline_fires(self):
        compiled, spec = _compiled_matmul()
        with pytest.raises(DeadlineExceeded):
            api.run_kernel(
                compiled,
                spec.random_arguments(seed=0),
                deadline_seconds=1e-9,
            )

    def test_reference_path_deadline_fires(self):
        compiled, spec = _compiled_matmul()
        memory = TCDM()
        int_args = {}
        for index, array in enumerate(spec.random_arguments(seed=0)):
            base = memory.allocate(array.nbytes)
            memory.write_array(base, array)
            int_args[f"a{index}"] = base
        machine = SnitchMachine(
            compiled.program, memory, deadline_seconds=1e-9
        )
        with pytest.raises(DeadlineExceeded):
            machine.run_reference(compiled.entry, int_args=int_args)

    def test_generous_deadline_changes_nothing(self):
        compiled, spec = _compiled_matmul()
        args = spec.random_arguments(seed=0)
        free = api.run_kernel(compiled, args)
        timed = api.run_kernel(compiled, args, deadline_seconds=600.0)
        assert timed.trace.cycles == free.trace.cycles

    def test_evaluate_config_threads_deadline(self):
        with pytest.raises(DeadlineExceeded):
            evaluate_config(
                "matmul",
                (8, 8, 8),
                ScheduleConfig(),
                deadline_seconds=1e-9,
            )


# -- hardened pool --------------------------------------------------------------

# Pool task functions live at module scope so forked workers resolve
# them cleanly.  Contract: task -> (cycles, fault_json), never raise.


def _ok_task(task):
    payload, _meta = task if isinstance(task, tuple) else (task, None)
    return payload * 10, None


def _crash_once_task(task):
    # First visitor leaves a marker and dies; the retry succeeds.
    marker, _ = task
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("died here")
        os.kill(os.getpid(), signal.SIGKILL)
    return 99, None


def _crash_in_worker_task(task):
    # Dies in a worker process, succeeds in the parent: the pool can
    # only finish this batch by degrading to serial.
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return 7, None


def _sleep_task(task):
    seconds, _ = task
    time.sleep(seconds)
    return 1, None


def _triples(payloads):
    return [
        (seq, f"task-{seq}", payload)
        for seq, payload in enumerate(payloads)
    ]


class TestHardenedPool:
    def test_serial_map_preserves_order(self):
        with HardenedPool(_ok_task, PoolConfig(workers=1)) as pool:
            results = pool.map(_triples([3, 1, 2]))
        assert results == [(30, None), (10, None), (20, None)]

    def test_parallel_map_matches_serial(self):
        with HardenedPool(_ok_task, PoolConfig(workers=4)) as pool:
            results = pool.map(_triples(list(range(8))))
        assert results == [(i * 10, None) for i in range(8)]

    def test_worker_crash_is_retried_and_pool_respawns(self, tmp_path):
        marker = str(tmp_path / "crashed")
        config = PoolConfig(workers=2, retries=2, backoff=0.01)
        with HardenedPool(_crash_once_task, config) as pool:
            results = pool.map(
                [(0, "victim", marker), (1, "bystander", marker)]
            )
        assert all(cycles == 99 for cycles, _ in results)
        assert all(fault is None for _, fault in results)
        assert any("respawn" in event for event in pool.events)
        assert any("retry" in event for event in pool.events)

    def test_deadline_watchdog_kills_and_records_timeout(self):
        config = PoolConfig(workers=2, deadline=0.3, retries=0)
        start = time.monotonic()
        with HardenedPool(_sleep_task, config) as pool:
            results = pool.map(
                [(0, "quick", 0.0), (1, "hung", 30.0)]
            )
        elapsed = time.monotonic() - start
        assert elapsed < 10.0  # nowhere near the 30s hang
        assert results[0] == (1, None)
        cycles, fault = results[1]
        assert cycles is None
        assert Fault.from_json(fault).kind == "timeout"
        assert any("watchdog" in event for event in pool.events)

    def test_repeated_pool_death_degrades_to_serial(self):
        config = PoolConfig(
            workers=2, retries=3, backoff=0.01, respawn_limit=1
        )
        with HardenedPool(_crash_in_worker_task, config) as pool:
            results = pool.map(_triples([None] * 4))
        assert results == [(7, None)] * 4
        assert pool.degraded
        assert any("degrading to serial" in e for e in pool.events)

    def test_no_fork_means_serial_from_the_start(self, monkeypatch):
        from repro.runtime import workers as workers_mod

        monkeypatch.setattr(workers_mod, "_FORK_AVAILABLE", False)
        with HardenedPool(_ok_task, PoolConfig(workers=4)) as pool:
            assert pool.degraded and not pool.parallel
            results = pool.map(_triples([1, 2]))
        assert results == [(10, None), (20, None)]


# -- crash-safe cache -----------------------------------------------------------


class TestCrashSafeCache:
    def test_schema_1_is_quarantined(self, tmp_path):
        """No migration path is kept for its own sake: a file of any
        schema but the current one is a corrupt cache — set aside,
        re-measured."""
        path = tmp_path / "cache.json"
        text = json.dumps(
            {"schema": 1, "entries": {"good": 42, "bad": None}}
        )
        path.write_text(text)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            cache = TuneCache(path)
        assert cache.lookup("good") == (False, None, None)
        assert path.with_suffix(".json.corrupt").read_text() == text
        cache.put("new", 7)
        cache.save()
        stored = json.loads(path.read_text())
        assert stored == {"schema": TuneCache.SCHEMA, "entries": {"new": 7}}

    def test_corrupted_bytes_quarantine(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = TuneCache(path)
        cache.put("k", 5)
        cache.save()
        FaultInjector.corrupt_file(path)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            reopened = TuneCache(path)
        assert len(reopened) == 0
        assert path.with_suffix(".json.corrupt").exists()
        assert not path.exists()  # moved aside, not truncated in place

    def test_two_stores_merge_on_save(self, tmp_path):
        path = tmp_path / "cache.json"
        a = TuneCache(path)
        b = TuneCache(path)
        a.put("from-a", 1)
        b.put("from-b", 2)
        a.save()
        b.save()  # must union with a's entries, not clobber them
        merged = TuneCache(path)
        assert merged.lookup("from-a") == (True, 1, None)
        assert merged.lookup("from-b") == (True, 2, None)

    def test_racing_processes_union_their_work(self, tmp_path):
        path = tmp_path / "cache.json"

        def _writer(which):
            cache = TuneCache(path)
            for i in range(20):
                cache.put(f"{which}-{i}", i)
            cache.save()

        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_writer, args=(w,)) for w in ("p", "q")
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        merged = TuneCache(path)
        assert len(merged) == 40

    def test_checkpoint_every_persists_mid_run(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = TuneCache(path, checkpoint_every=2)
        cache.put("k1", 1)
        assert not path.exists()  # below the checkpoint threshold
        cache.put("k2", 2)
        stored = json.loads(path.read_text())["entries"]
        assert stored == {"k1": 1, "k2": 2}


# -- injected faults through a real search --------------------------------------


#: A four-candidate space (N=12 unrolls by auto, 2, 3 or 6), so plans
#: injecting at measurements 1-3 all fire.
FOUR_CANDIDATES = ("matmul", (4, 4, 12))


def _tune(tmp_path, injector, **kwargs):
    defaults = dict(
        kernel=FOUR_CANDIDATES[0],
        sizes=FOUR_CANDIDATES[1],
        strategy="exhaustive",
        cache=TuneCache(tmp_path / "cache.json"),
        retries=2,
        injector=injector,
    )
    defaults.update(kwargs)
    kernel = defaults.pop("kernel")
    sizes = defaults.pop("sizes")
    return tune_kernel(kernel, sizes, **defaults)


class TestInjectedSearch:
    def test_one_shot_worker_crash_recovers(self, tmp_path):
        injector = FaultInjector([Injection(index=1, action="crash")])
        result = _tune(tmp_path, injector, workers=2)
        assert all(o.valid for o in result.candidates)
        assert result.best.cycles <= result.default_cycles
        assert any("respawn" in event for event in result.events)

    def test_sticky_crash_becomes_structured_fault(self, tmp_path):
        injector = FaultInjector(
            [Injection(index=1, action="crash", sticky=True)]
        )
        result = _tune(tmp_path, injector, workers=2, retries=1)
        failed = [o for o in result.candidates if not o.valid]
        assert len(failed) == 1
        assert failed[0].fault.kind == "worker-crash"
        assert failed[0].fault.attempts == 2  # original + one retry
        # Transient faults are never persisted: a rerun re-measures
        # (and, injector-free, succeeds).
        rerun = _tune(tmp_path, None, workers=1)
        assert all(o.valid for o in rerun.candidates)

    def test_delay_past_deadline_is_timeout(self, tmp_path):
        injector = FaultInjector(
            [Injection(index=2, action="delay", value=60.0, sticky=True)]
        )
        result = _tune(
            tmp_path, injector, workers=1, deadline=0.5, retries=0
        )
        failed = [o for o in result.candidates if not o.valid]
        assert len(failed) == 1
        assert failed[0].fault.kind == "timeout"
        assert result.best.cycles <= result.default_cycles

    def test_raise_is_deterministic_and_cached(self, tmp_path):
        injector = FaultInjector([Injection(index=1, action="raise")])
        result = _tune(tmp_path, injector, workers=1)
        failed = [o for o in result.candidates if not o.valid]
        assert len(failed) == 1
        assert failed[0].fault.kind == "sim"
        assert "injected" in failed[0].fault.message
        # Deterministic faults persist: the rerun serves the failure
        # from cache instead of re-measuring.
        rerun = _tune(tmp_path, None, workers=1)
        cached_failure = [o for o in rerun.candidates if not o.valid]
        assert len(cached_failure) == 1 and cached_failure[0].cached

    def test_interrupt_checkpoints_and_reports_partial(self, tmp_path):
        injector = FaultInjector([Injection(index=2, action="interrupt")])
        with pytest.raises(SearchInterrupted) as info:
            _tune(tmp_path, injector, workers=1)
        partial = info.value.partial
        assert partial is not None and partial.interrupted
        assert partial.best.cycles <= partial.default_cycles
        assert len(partial.candidates) == 2  # measurements 0 and 1
        # The cache was checkpointed: a rerun reuses the two scores.
        rerun = _tune(tmp_path, None, workers=1)
        assert rerun.cache_hits == 2


class TestTunerCLIExitCodes:
    def test_interrupt_exits_130(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULTS", "interrupt@2")
        code = kernel_tuner.main(
            ["matmul", "4", "4", "12", "--cache", str(tmp_path / "c.json")]
        )
        assert code == 130
        captured = capsys.readouterr()
        assert "interrupted" in captured.err
        assert "partial" in captured.out  # best-so-far report printed

    def test_no_baseline_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULTS", "raise@0:sticky")
        code = kernel_tuner.main(
            ["matmul", "4", "4", "4", "--cache", str(tmp_path / "c.json")]
        )
        assert code == 3
        assert "tuning failed" in capsys.readouterr().err

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as info:
            kernel_tuner.main(["--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes" in out and "130" in out and "143" in out


# -- the chaos property ---------------------------------------------------------

_CHAOS_ACTIONS = ("crash", "delay", "raise")


@pytest.mark.chaos
class TestChaosProperty:
    """Any plan of injected faults, any pool width: the search still
    terminates promptly, the winner never loses to the default, and
    every failure is a structured taxonomy fault."""

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        plan=st.dictionaries(
            keys=st.sampled_from([1, 2, 3]),
            values=st.sampled_from(_CHAOS_ACTIONS),
            max_size=3,
        ),
        workers=st.sampled_from(sorted({1, CHAOS_WORKERS})),
    )
    def test_search_survives_arbitrary_fault_plans(self, plan, workers):
        # Non-retryable "raise" stays off measurement 0: the default
        # must keep its baseline (crash/delay are one-shot + retried,
        # so they recover anywhere).
        injector = FaultInjector(
            [
                Injection(index=index, action=action, value=60.0)
                for index, action in sorted(plan.items())
            ]
        )
        start = time.monotonic()
        result = tune_kernel(
            *FOUR_CANDIDATES,
            workers=workers,
            deadline=CHAOS_DEADLINE,
            retries=2,
            injector=injector,
        )
        elapsed = time.monotonic() - start
        # Terminates within a small multiple of the deadline budget:
        # 4 candidates x (1 + retries) attempts, plus slack.
        assert elapsed < 4 * 3 * CHAOS_DEADLINE + 30.0
        # The winner never regresses past the untuned default.
        assert result.best.cycles <= result.default_cycles
        # Every failure is structured taxonomy, never a bare null.
        for outcome in result.candidates:
            if not outcome.valid:
                assert isinstance(outcome.fault, Fault)
                assert outcome.fault.kind in FAULT_KINDS
