"""Failure-path tests: fault taxonomy, hardened pool, crash-safe
cache, deadline watchdogs, and the chaos property.

The tuner's failure paths are driven by patching its cycle oracle
(``repro.tune.search.evaluate_config``): a compile error, a blown
deadline, a failing default, Ctrl-C mid-search.  The pool is driven
directly with plan-driven tasks, so every failure scenario replays
bit-for-bit.

Environment knobs (the CI chaos job turns them):

* ``REPRO_TUNE_TEST_WORKERS`` — pool width for the chaos property
  (default 2);
* ``REPRO_TUNE_TEST_DEADLINE`` — per-task deadline in seconds
  (default 0.75; keep it low so delays resolve quickly).
"""

import json
import multiprocessing
import os
import signal
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api, kernels
from repro.runtime.faults import (
    FAULT_KINDS,
    FaultInjector,
    Injection,
    WorkerCrash,
)
from repro.runtime.workers import HardenedPool, PoolConfig
from repro.snitch.machine import DeadlineExceeded, SnitchMachine
from repro.snitch.memory import TCDM
from repro.tools import kernel_tuner
from repro.tune import (
    CompileFault,
    Fault,
    SimFault,
    TimeoutFault,
    TuneCache,
    UnknownFault,
    classify_error,
    evaluate_config,
    tune_kernel,
)
from repro.tune import search
from repro.tune.schedule import ScheduleConfig, ScheduleError

CHAOS_WORKERS = int(os.environ.get("REPRO_TUNE_TEST_WORKERS", "2"))
CHAOS_DEADLINE = float(os.environ.get("REPRO_TUNE_TEST_DEADLINE", "0.75"))


# -- taxonomy -------------------------------------------------------------------


class TestFaultTaxonomy:
    def test_json_round_trip(self):
        fault = TimeoutFault(
            message="blew the deadline",
            candidate="factor=1",
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
            "REPRO_FAULTS",
            "reject-admission@2; delay-response@1=0.5, crash-server@3",
        )
        injector = FaultInjector.from_env()
        assert injector.plan == (
            Injection(index=2, action="reject-admission"),
            Injection(index=1, action="delay-response", value=0.5),
            Injection(index=3, action="crash-server"),
        )

    def test_from_env_absent(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert FaultInjector.from_env() is None

    def test_from_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "explode@1")
        with pytest.raises(ValueError, match="explode"):
            FaultInjector.from_env()

    @pytest.mark.parametrize("text", ["crash@2", "raise@3:sticky"])
    def test_from_env_rejects_retired_tuner_grammar(self, monkeypatch, text):
        """The tuner's actions and ``:sticky`` suffix are gone: a stale
        plan fails loudly instead of injecting nothing."""
        monkeypatch.setenv("REPRO_FAULTS", text)
        with pytest.raises(ValueError, match="bad REPRO_FAULTS entry"):
            FaultInjector.from_env()


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
        cycles, fault = evaluate_config(
            "matmul",
            (8, 8, 8),
            ScheduleConfig(),
            deadline_seconds=1e-9,
        )
        assert cycles is None
        assert type(fault) is TimeoutFault and fault.stage == "simulate"


# -- hardened pool --------------------------------------------------------------

# Pool task functions live at module scope so forked workers resolve
# them cleanly.  Contract: payload -> (result, fault_json), never raise.


def _ok_task(payload):
    return payload * 10, None


def _crash_once_task(marker):
    # First visitor leaves a marker and dies; a second run succeeds.
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("died here")
        os.kill(os.getpid(), signal.SIGKILL)
    return 99, None


def _sleep_task(seconds):
    time.sleep(seconds)
    return 1, None


#: What ``_timeout_task`` ran (serial pools run tasks in-process).
_TIMEOUT_CALLS = []


def _timeout_task(payload):
    _TIMEOUT_CALLS.append(payload)
    return None, TimeoutFault(message="blew the deadline").to_json()


def _pairs(payloads):
    return [(f"task-{pos}", payload) for pos, payload in enumerate(payloads)]


class TestHardenedPool:
    def test_serial_map_preserves_order(self):
        with HardenedPool(_ok_task, PoolConfig(workers=1)) as pool:
            results = pool.map(_pairs([3, 1, 2]))
        assert results == [(30, None), (10, None), (20, None)]

    def test_parallel_map_matches_serial(self):
        with HardenedPool(_ok_task, PoolConfig(workers=4)) as pool:
            results = pool.map(_pairs(list(range(8))))
        assert results == [(i * 10, None) for i in range(8)]

    def test_worker_crash_is_returned_at_once_and_pool_respawns(
        self, tmp_path
    ):
        """A crashed job is not re-dispatched: it comes back as a
        ``worker-crash`` on its first attempt, the worker is replaced,
        and the next batch runs on the respawned pool."""
        victim = str(tmp_path / "victim")
        with HardenedPool(_crash_once_task, PoolConfig(workers=2)) as pool:
            [(value, fault)] = pool.map([("victim", victim)])
            assert value is None
            assert Fault.from_json(fault).kind == "worker-crash"
            assert fault["attempts"] == 1
            assert pool.events == [
                "worker respawn (worker crashed running victim)"
            ]
            # The marker is down, so the same job now succeeds.
            assert pool.map([("victim", victim), ("other", victim)]) == [
                (99, None),
                (99, None),
            ]

    def test_idle_worker_death_is_charged_to_the_job_handed_to_it(self):
        """A worker that dies between two maps dies idle: the job
        handed to it comes back as a crash on its first attempt (it is
        not re-queued), the other jobs succeed, and the next map runs
        clean on the respawned pool."""
        with HardenedPool(_ok_task, PoolConfig(workers=2)) as pool:
            assert pool.map(_pairs([1, 2])) == [(10, None), (20, None)]
            victim = pool._workers[0].process
            victim.kill()
            victim.join(timeout=30)
            results = pool.map(_pairs([1, 2, 3, 4]))
            value, fault = results[0]
            assert value is None
            assert Fault.from_json(fault).kind == "worker-crash"
            assert fault["attempts"] == 1
            assert results[1:] == [(20, None), (30, None), (40, None)]
            assert pool.events == [
                "worker respawn (worker died while idle: task-0)"
            ]
            assert pool.map(_pairs([5, 6])) == [(50, None), (60, None)]
            assert len(pool.events) == 1

    def test_deadline_watchdog_kills_and_records_timeout(self):
        config = PoolConfig(workers=2, deadline=0.3)
        start = time.monotonic()
        with HardenedPool(_sleep_task, config) as pool:
            results = pool.map(
                [("quick", 0.0), ("hung", 30.0)]
            )
        elapsed = time.monotonic() - start
        assert elapsed < 10.0  # nowhere near the 30s hang
        assert results[0] == (1, None)
        cycles, fault = results[1]
        assert cycles is None
        assert Fault.from_json(fault).kind == "timeout"
        assert any("watchdog" in event for event in pool.events)

    def test_serial_timeout_is_returned_at_once(self):
        """A timed-out job is not re-run: a second run would spend the
        same deadline again."""
        _TIMEOUT_CALLS.clear()
        with HardenedPool(_timeout_task, PoolConfig(workers=1)) as pool:
            [(cycles, fault)] = pool.map([("slow", "payload")])
        assert cycles is None
        assert Fault.from_json(fault).kind == "timeout"
        assert fault["attempts"] == 1
        assert _TIMEOUT_CALLS == ["payload"]
        assert pool.events == []

    def test_watchdog_timeout_is_not_redispatched(self):
        config = PoolConfig(workers=2, deadline=0.3)
        with HardenedPool(_sleep_task, config) as pool:
            results = pool.map([("quick", 0.0), ("hung", 30.0)])
        assert results[0] == (1, None)
        cycles, fault = results[1]
        assert cycles is None
        assert Fault.from_json(fault).kind == "timeout"
        assert fault["attempts"] == 1
        [event] = pool.events
        assert "watchdog" in event

    def test_no_fork_means_serial_from_the_start(self, monkeypatch):
        from repro.runtime import workers as workers_mod

        monkeypatch.setattr(workers_mod, "_FORK_AVAILABLE", False)
        with HardenedPool(_ok_task, PoolConfig(workers=4)) as pool:
            assert not pool.parallel
            assert pool.events == [
                "fork unavailable on this platform: evaluating serially"
            ]
            results = pool.map(_pairs([1, 2]))
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

    def test_warm_search_leaves_the_store_untouched(self, tmp_path):
        """An all-hits search has nothing to persist: the file is not
        rewritten (same inode, same bytes)."""
        path = tmp_path / "cache.json"
        tune_kernel("relu", (4, 8), cache=path)
        before = path.stat()
        text = path.read_bytes()
        warm = tune_kernel("relu", (4, 8), cache=path)
        assert warm.cache_misses == 0
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (
            before.st_ino, before.st_mtime_ns
        )
        assert path.read_bytes() == text


# -- tuner failure paths --------------------------------------------------------


#: A four-candidate space: N=12 unrolls by auto, 2, 3 or 6.
FOUR_CANDIDATES = ("matmul", (4, 4, 12))


def _patch_oracle(monkeypatch, failures):
    """Make the tuner's oracle fail on chosen unroll factors.

    ``failures`` maps a config's ``unroll_factor`` to the ``(stage,
    exception)`` it fails with — classified as the real oracle does,
    except that a ``KeyboardInterrupt`` propagates; every other config
    is measured for real.
    """
    real = evaluate_config

    def oracle(kernel, sizes, config, **kwargs):
        if config.unroll_factor in failures:
            stage, error = failures[config.unroll_factor]
            if not isinstance(error, Exception):
                raise error
            return None, classify_error(
                error, stage=stage, candidate=config.key()
            )
        return real(kernel, sizes, config, **kwargs)

    monkeypatch.setattr(search, "evaluate_config", oracle)


def _tune(path):
    return tune_kernel(*FOUR_CANDIDATES, cache=TuneCache(path))


class TestTunerFaults:
    def test_deterministic_fault_is_cached_with_provenance(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "cache.json"
        _patch_oracle(
            monkeypatch, {2: ("compile", ValueError("does not lower"))}
        )
        result = _tune(path)
        (failed,) = [o for o in result.candidates if not o.valid]
        assert type(failed.fault) is CompileFault
        assert failed.fault.candidate == "factor=2"
        assert failed.fault.stage == "compile"
        assert "does not lower" in failed.fault.message
        assert result.best.cycles <= result.default_cycles
        # The rerun serves the failure, provenance and all, from cache.
        monkeypatch.undo()
        rerun = _tune(path)
        (cached,) = [o for o in rerun.candidates if not o.valid]
        assert cached.cached and cached.fault == failed.fault
        assert rerun.cache_hits == 4 and rerun.cache_misses == 0

    def test_timeout_is_not_cached(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.json"
        _patch_oracle(
            monkeypatch, {3: ("simulate", DeadlineExceeded("too slow"))}
        )
        result = _tune(path)
        (failed,) = [o for o in result.candidates if not o.valid]
        assert failed.fault.kind == "timeout" and failed.fault.retryable
        assert result.best.cycles <= result.default_cycles
        # A timeout is load-dependent: the rerun measures it again.
        monkeypatch.undo()
        rerun = _tune(path)
        assert all(o.valid for o in rerun.candidates)
        assert rerun.cache_hits == 3 and rerun.cache_misses == 1

    def test_raise_is_deterministic_and_cached(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.json"
        _patch_oracle(
            monkeypatch, {6: ("simulate", RuntimeError("bad store"))}
        )
        result = _tune(path)
        (failed,) = [o for o in result.candidates if not o.valid]
        assert type(failed.fault) is SimFault and not failed.fault.retryable
        assert failed.fault.candidate == "factor=6"
        monkeypatch.undo()
        rerun = _tune(path)
        (cached,) = [o for o in rerun.candidates if not o.valid]
        assert cached.cached and cached.fault == failed.fault

    def test_delay_past_deadline_is_timeout(self, tmp_path):
        """A real blown deadline, threaded from ``tune_kernel`` into the
        engine: the default times out, so there is no baseline, and
        nothing transient reaches the store."""
        path = tmp_path / "cache.json"
        with pytest.raises(ScheduleError, match="timeout"):
            tune_kernel(
                *FOUR_CANDIDATES, cache=TuneCache(path), deadline=1e-9
            )
        assert len(TuneCache(path)) == 0
        assert _tune(path).cache_misses == 4

    def test_failing_default_raises(self, tmp_path, monkeypatch):
        _patch_oracle(
            monkeypatch, {None: ("compile", ValueError("broken"))}
        )
        with pytest.raises(ScheduleError, match="default schedule failed"):
            _tune(tmp_path / "cache.json")

    def test_interrupt_persists_measured_candidates(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "cache.json"
        _patch_oracle(monkeypatch, {3: ("simulate", KeyboardInterrupt())})
        with pytest.raises(KeyboardInterrupt):
            _tune(path)
        # The default and factor 2 were measured before the interrupt.
        assert len(TuneCache(path)) == 2
        monkeypatch.undo()
        assert _tune(path).cache_hits == 2


class TestTunerCLIExitCodes:
    def test_interrupt_exits_130(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "c.json"
        _patch_oracle(monkeypatch, {3: ("simulate", KeyboardInterrupt())})
        code = kernel_tuner.main(
            ["matmul", "4", "4", "12", "--cache", str(path)]
        )
        assert code == 130
        assert "interrupted" in capsys.readouterr().err
        assert len(TuneCache(path)) == 2

    def test_no_baseline_exits_3(self, tmp_path, monkeypatch, capsys):
        _patch_oracle(
            monkeypatch, {None: ("simulate", RuntimeError("boom"))}
        )
        code = kernel_tuner.main(
            ["matmul", "4", "4", "4", "--cache", str(tmp_path / "c.json")]
        )
        assert code == 3
        assert "tuning failed" in capsys.readouterr().err

    def test_failed_candidate_is_marked_in_report(
        self, tmp_path, monkeypatch, capsys
    ):
        _patch_oracle(
            monkeypatch, {2: ("compile", ValueError("does not lower"))}
        )
        code = kernel_tuner.main(
            ["matmul", "4", "4", "12", "--cache", str(tmp_path / "c.json")]
        )
        assert code == 0
        (line,) = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("factor=2 ")
        ]
        assert "failed" in line and "[compile]" in line

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as info:
            kernel_tuner.main(["--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes" in out and "130" in out and "143" not in out


# -- the chaos property ---------------------------------------------------------

_CHAOS_ACTIONS = ("crash", "delay", "raise")
_CHAOS_TASKS = 4


def _chaos_task(payload):
    """A plan-driven pool task: crash its worker once, stall past the
    deadline, or raise; otherwise succeed with its own index."""
    index, action, marker = payload
    in_worker = multiprocessing.parent_process() is not None
    try:
        if action == "crash" and in_worker and not os.path.exists(marker):
            with open(marker, "w") as handle:
                handle.write("died here")
            os.kill(os.getpid(), signal.SIGKILL)
        if action == "delay":
            if not in_worker:
                # No watchdog in-process: model the blown deadline.
                raise DeadlineExceeded("stalled past the deadline")
            time.sleep(60.0)
        if action == "raise":
            raise RuntimeError("injected mid-task failure")
    except Exception as error:  # classify, as every pool task must
        return None, classify_error(error, stage="simulate").to_json()
    return index, None


@pytest.mark.chaos
class TestChaosProperty:
    """Any plan of injected faults, any pool width: the pool still
    terminates promptly, answers every task in order, and reports
    every failure as a structured taxonomy fault."""

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        plan=st.dictionaries(
            keys=st.integers(0, _CHAOS_TASKS - 1),
            values=st.sampled_from(_CHAOS_ACTIONS),
            max_size=3,
        ),
        workers=st.sampled_from(sorted({1, CHAOS_WORKERS})),
    )
    def test_pool_survives_arbitrary_fault_plans(self, plan, workers):
        config = PoolConfig(workers=workers, deadline=CHAOS_DEADLINE)
        with tempfile.TemporaryDirectory() as scratch:
            tasks = [
                (
                    f"task-{index}",
                    (index, plan.get(index), os.path.join(scratch, str(index))),
                )
                for index in range(_CHAOS_TASKS)
            ]
            start = time.monotonic()
            with HardenedPool(_chaos_task, config) as pool:
                results = pool.map(tasks)
            elapsed = time.monotonic() - start
        # Terminates within the deadline budget: every task runs
        # once, a stalled one until its deadline, plus slack.
        assert elapsed < _CHAOS_TASKS * CHAOS_DEADLINE + 30.0
        assert len(results) == _CHAOS_TASKS
        for index, (value, fault_json) in enumerate(results):
            action = plan.get(index)
            if action == "crash" and workers == 1:
                action = None  # nothing to kill in-process
            if fault_json is None:
                assert value == index and action is None  # in order
                continue
            fault = Fault.from_json(fault_json)
            assert value is None and type(fault) is FAULT_KINDS[fault.kind]
            # Returned on its first attempt: a crash is not re-run.
            assert fault.attempts == 1
            assert fault.kind == {
                "crash": "worker-crash",
                "delay": "timeout",
                "raise": "sim",
            }[action]
