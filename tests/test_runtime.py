"""The runtime layer under tuner and service.

Three contracts, each stated once and checked for every user:

* **layering** — the import graph (``runtime`` below ``tune`` below
  ``service``; the compiler core below all three) is asserted by
  walking the sources, function-level imports included;
* **durable writes** — ``TuneCache.save``, ``ArtifactStore.put`` and
  ``RequestJournal.begin`` share one idiom
  (:mod:`repro.runtime.atomic_file`): fsync counts, crash-mid-write
  residue, dead-pid temp sweep, quarantine — plus a pin of the three
  on-disk formats as the previous commit wrote them;
* **the pool owns its process boundary** — spans cross it beside the
  result (never inside it), guarded connections are closed in workers.
"""

import ast
import errno
import multiprocessing
import os
import subprocess
from pathlib import Path

import pytest

import repro
from repro.obs.tracing import correlation, recording, span
from repro.runtime import atomic_file
from repro.runtime.faults import SimFault
from repro.runtime.store import ArtifactStore, content_key
from repro.runtime.workers import (
    HardenedPool,
    PoolConfig,
    guard_connection,
    unguard_connection,
)
from repro.service import RequestJournal
from repro.tune import (
    TuneCache,
    load_schedules,
    save_schedules,
    tune_kernel,
)

SRC = Path(repro.__file__).parent


# -- layering -------------------------------------------------------------------

#: package -> sibling packages it must not import (directly).
_CORE = ("ir", "dialects", "transforms", "backend", "snitch", "obs", "kernels")
FORBIDDEN = {
    "runtime": {"tune", "service", "tools"},
    "tune": {"service"},
    **{package: {"runtime", "tune", "service"} for package in _CORE},
}


def _imported_packages(path: Path, root: Path = SRC) -> set[str]:
    """Top-level ``repro`` packages ``path`` imports, at module level
    or inside any function."""
    module = ("repro",) + path.relative_to(root).with_suffix("").parts
    package = module[:-1]  # holds for __init__.py too
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            targets = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = (
                list(package[: len(package) - node.level + 1])
                if node.level
                else []
            )
            base += node.module.split(".") if node.module else []
            # ``from .. import api`` names a submodule, not an attribute.
            targets = [base + [alias.name] for alias in node.names]
        else:
            continue
        for parts in targets:
            if parts[0] == "repro" and len(parts) > 1:
                found.add(parts[1])
    return found


def test_layering_nothing_imports_upward():
    violations = []
    for path in sorted(SRC.rglob("*.py")):
        owner = path.relative_to(SRC).parts[0]
        bad = _imported_packages(path) & FORBIDDEN.get(owner, set())
        if bad:
            violations.append(f"{path.relative_to(SRC)} -> {sorted(bad)}")
    assert not violations, "\n".join(violations)


def test_layering_walker_sees_function_level_imports(tmp_path):
    """The walker itself: a lazy import inside a function counts."""
    probe = tmp_path / "tune" / "probe.py"
    probe.parent.mkdir()
    probe.write_text(
        "import repro.obs.tracing\n"
        "def f():\n"
        "    from ..service import wire\n"
        "    from .. import api\n"
        "    from .cache import TuneCache\n"
    )
    assert _imported_packages(probe, tmp_path) == {
        "obs", "service", "api", "tune"
    }


def test_reference_interpreter_is_only_an_oracle():
    """Nothing under ``src/repro`` but ``snitch/machine.py`` — which
    defines it — names ``run_reference``, in code, strings or
    docstrings: production runs, profiled ones included, go through
    the engine."""
    mentions = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "snitch" / "machine.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            text = (
                node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.value if isinstance(node, ast.Constant)
                else ""
            )
            if isinstance(text, str) and "run_reference" in text:
                mentions.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not mentions, "\n".join(mentions)


# -- the durable-write contract -------------------------------------------------

KEY = content_key("durable-write contract")


def _dead_pid() -> int:
    process = subprocess.Popen(["true"])
    process.wait()
    return process.pid


class _CacheUser:
    """``TuneCache.save``: one flat file, two fsyncs (file + dir)."""

    fsyncs = 2

    def target(self, root: Path) -> Path:
        return root / "cache.json"

    def write(self, root: Path, tag: str) -> None:
        cache = TuneCache(self.target(root))
        cache.put(tag, 1)
        cache.save()

    reopen_and_write = write

    def read(self, root: Path):
        return TuneCache(self.target(root)).lookup("first")[0]


class _StoreUser:
    """``ArtifactStore.put``: one file per artifact, one fsync."""

    fsyncs = 1

    def target(self, root: Path) -> Path:
        return root / "objects" / "cycles" / KEY[:2] / f"{KEY}.json"

    def write(self, root: Path, tag: str) -> None:
        ArtifactStore(root).put("cycles", KEY, {"tag": tag})

    reopen_and_write = write

    def read(self, root: Path):
        payload = ArtifactStore(root).get("cycles", KEY)
        return payload is not None and payload["tag"] == "first"


class _JournalUser:
    """``RequestJournal.begin``: one rewritten file, one fsync."""

    fsyncs = 1

    def target(self, root: Path) -> Path:
        return root / "journal.json"

    def write(self, root: Path, tag: str) -> None:
        RequestJournal(self.target(root)).begin("kernel", "c" * 64, tag)

    def reopen_and_write(self, root: Path, tag: str) -> None:
        # A restarted server sweeps the journal before it journals.
        journal = RequestJournal(self.target(root))
        journal.sweep()
        journal.begin("kernel", "d" * 64, tag)

    def read(self, root: Path):
        pending = RequestJournal(self.target(root)).pending()
        return [record["label"] for record in pending] == ["first"]


USERS = pytest.mark.parametrize(
    "user",
    [_CacheUser(), _StoreUser(), _JournalUser()],
    ids=["TuneCache.save", "ArtifactStore.put", "RequestJournal.begin"],
)


@pytest.fixture()
def fsync_calls(monkeypatch):
    """Call it to start counting ``os.fsync`` calls (they still reach
    the disk); returns the list the calls are appended to."""
    calls = []
    real_fsync = os.fsync

    def arm():
        monkeypatch.setattr(
            os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd))[1]
        )
        return calls

    return arm


class _Killed(BaseException):
    """Stands in for SIGKILL between the temp write and the rename."""


@USERS
class TestDurableWriteContract:
    def test_fsync_count_per_write(self, user, tmp_path, fsync_calls):
        user.write(tmp_path, "warm")  # directories exist from here on
        calls = fsync_calls()
        user.write(tmp_path, "counted")
        assert len(calls) == user.fsyncs

    def test_kill_before_rename_keeps_previous_content(
        self, user, tmp_path, monkeypatch
    ):
        user.write(tmp_path, "first")
        target = user.target(tmp_path)
        before = target.read_bytes()
        real_replace = Path.replace

        def killed_replace(self, destination):
            if self.name.endswith(".tmp"):
                raise _Killed
            return real_replace(self, destination)

        monkeypatch.setattr(Path, "replace", killed_replace)
        with pytest.raises(_Killed):
            user.write(tmp_path, "second")
        monkeypatch.undo()
        assert target.read_bytes() == before
        assert user.read(tmp_path)
        leftovers = sorted(
            path.name
            for path in target.parent.iterdir()
            if path != target and not path.name.endswith(".lock")
        )
        assert leftovers == [f"{target.name}.{os.getpid()}.tmp"]

    def test_next_writer_sweeps_dead_pid_temp_only(self, user, tmp_path):
        user.write(tmp_path, "first")
        target = user.target(tmp_path)
        dead = target.with_name(f"{target.name}.{_dead_pid()}.tmp")
        live = target.with_name(f"{target.name}.{os.getppid()}.tmp")
        dead.write_text("torn")
        live.write_text("in progress")
        user.reopen_and_write(tmp_path, "second")
        assert not dead.exists()
        assert live.read_text() == "in progress"

    def test_corrupt_file_is_quarantined_with_one_warning(
        self, user, tmp_path
    ):
        user.write(tmp_path, "first")
        target = user.target(tmp_path)
        target.write_text("{not json")
        with pytest.warns(RuntimeWarning) as caught:
            assert not user.read(tmp_path)
        quarantined = [
            warning
            for warning in caught
            if "quarantined" in str(warning.message)
        ]
        assert len(quarantined) == 1
        corrupt = target.with_name(target.name + ".corrupt")
        assert corrupt.read_text() == "{not json"
        assert not target.exists()


def test_journal_finish_is_one_fsync(tmp_path, fsync_calls):
    journal = RequestJournal(tmp_path / "journal.json")
    entry_id = journal.begin("kernel", "c" * 64, "label")
    calls = fsync_calls()
    journal.finish(entry_id)
    assert len(calls) == 1 and journal.pending() == []


def test_save_schedules_two_writers_do_not_collide(
    tmp_path, monkeypatch, fsync_calls
):
    """Regression: ``save_schedules`` wrote through a fixed
    ``<path>.tmp`` without an fsync, so a second writer that got in
    between the first one's write and rename stole its temp file (the
    first then died in ``replace``).  On the shared idiom each writer
    owns a pid-tagged temp and both renames succeed."""
    path = tmp_path / "schedules.json"
    mine = tune_kernel("sum", (2, 4)).best
    theirs = tune_kernel("relu", (2, 4)).best
    real_replace = Path.replace
    my_pid = os.getpid()

    def replace_after_a_second_writer(self, destination):
        if os.getpid() == my_pid:  # our rename: let the other one in
            monkeypatch.setattr(os, "getpid", lambda: my_pid + 1)
            save_schedules(path, [theirs])
            monkeypatch.setattr(os, "getpid", lambda: my_pid)
            monkeypatch.setattr(Path, "replace", real_replace)
        return real_replace(self, destination)

    monkeypatch.setattr(Path, "replace", replace_after_a_second_writer)
    calls = fsync_calls()
    save_schedules(path, [mine])
    assert len(calls) == 2  # one per writer
    assert load_schedules(path) == [mine]  # the later rename wins
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


class TestPidAlive:
    """Regression: the tuner's copy used to answer *dead* on an
    unexpected ``OSError``, so its sweep could unlink a live writer's
    temp file; the store's copy answered *alive*.  One conservative
    definition now serves both."""

    @pytest.fixture()
    def kill_raises_einval(self, monkeypatch):
        def kill(pid, signal):
            raise OSError(errno.EINVAL, "Invalid argument")

        monkeypatch.setattr(os, "kill", kill)

    def test_unexpected_oserror_means_alive(self, kill_raises_einval):
        assert atomic_file.pid_alive(12345)

    def test_no_such_process_means_dead(self):
        assert not atomic_file.pid_alive(_dead_pid())

    @pytest.mark.parametrize(
        "user", [_CacheUser(), _StoreUser()], ids=["TuneCache", "ArtifactStore"]
    )
    def test_temp_survives_the_sweep(
        self, user, tmp_path, kill_raises_einval
    ):
        target = user.target(tmp_path)
        target.parent.mkdir(parents=True, exist_ok=True)
        temp = target.with_name(f"{target.name}.4194000.tmp")
        temp.write_text("a live writer's bytes")
        user.write(tmp_path, "first")
        assert temp.read_text() == "a live writer's bytes"


class TestFormatPins:
    """Files exactly as the previous commit wrote them still load."""

    CACHE = (
        '{\n  "schema": 2,\n  "entries": {\n'
        '    "matmul/4x4x4/perm=id|factor=2|cores=1/engine=1": {\n'
        '      "fault": {\n        "kind": "compile",\n'
        '        "message": "ValueError: does not lower",\n'
        '        "retryable": false,\n'
        '        "candidate": "perm=default|factor=2|cores=1",\n'
        '        "stage": "compile",\n        "attempts": 1\n      }\n'
        "    },\n"
        '    "matmul/4x4x4/perm=id|factor=auto|cores=1/engine=1": 123\n'
        "  }\n}\n"
    )
    STORE_KEY = (
        "52bf2103aeb348488d4695b356e1e7b8db6a096aeda74c1d98d436b68b502c6f"
    )
    STORE_ENTRY = (
        '{\n  "integrity": "0921fc99f77d617a861c91158a2a1ee1b2619e28'
        '6feba97e189bae525b7b7ae6",\n'
        f'  "key": "{STORE_KEY}",\n'
        '  "kind": "cycles",\n  "meta": {\n    "note": "pin"\n  },\n'
        '  "payload": {\n    "cycles": 321\n  },\n  "schema": 1\n}\n'
    )
    JOURNAL = (
        '{\n  "entries": {\n    "kernel/' + "c" * 64 + '": {\n'
        '      "key": "' + "c" * 64 + '",\n      "kind": "kernel",\n'
        '      "label": "compile relu 4x8 [ours]",\n'
        '      "pid": %d,\n      "started": 1790668563.0071025\n'
        '    }\n  },\n  "schema": 1\n}\n'
    )

    def test_schema_2_cache_file_is_all_hits(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(self.CACHE)
        cache = TuneCache(path)
        assert len(cache) == 2
        assert cache.lookup(
            "matmul/4x4x4/perm=id|factor=auto|cores=1/engine=1"
        ) == (True, 123, None)
        hit, cycles, fault = cache.lookup(
            "matmul/4x4x4/perm=id|factor=2|cores=1/engine=1"
        )
        assert hit and cycles is None and fault.kind == "compile"
        # ...and a save writes the same bytes back.
        cache.put("matmul/4x4x4/perm=id|factor=auto|cores=1/engine=1", 123)
        cache.save()
        assert path.read_text() == self.CACHE

    def test_schema_1_store_entry_is_a_hit(self, tmp_path):
        store = ArtifactStore(tmp_path)
        entry = (
            tmp_path / "objects" / "cycles" / "52" / f"{self.STORE_KEY}.json"
        )
        entry.parent.mkdir(parents=True)
        entry.write_text(self.STORE_ENTRY)
        assert store.get("cycles", self.STORE_KEY) == {"cycles": 321}
        assert store.verify_all() == {"ok": 1, "corrupt": 0}
        assert self.STORE_KEY == content_key("pinned artifact")
        store.put("cycles", self.STORE_KEY, {"cycles": 321}, {"note": "pin"})
        assert entry.read_text() == self.STORE_ENTRY

    def test_schema_1_journal_entry_is_pending(self, tmp_path):
        journal = RequestJournal(tmp_path / "journal.json")
        journal.path.write_text(self.JOURNAL % os.getpid())
        (record,) = journal.pending()
        assert record["label"] == "compile relu 4x8 [ours]"
        assert journal.sweep() == []  # this live process owns it
        journal.path.write_text(self.JOURNAL % _dead_pid())
        assert [r["key"] for r in journal.sweep()] == ["c" * 64]


# -- the pool owns its process boundary -----------------------------------------


def _spanned_task(payload):
    """Opens a span, then succeeds or returns a classified fault."""
    with span("worker.job", label=payload):
        if payload == "bad":
            fault = SimFault(message="boom", stage="simulate")
            return None, fault.to_json()
        return {"value": payload}, None


_GUARDED_END, _OTHER_END = multiprocessing.Pipe()


def _guard_probe_task(task):
    return _GUARDED_END.closed, None


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


class TestPoolCarriesSpans:
    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
    def test_worker_spans_join_the_callers_trace(self, workers):
        tasks = [(name, name) for name in ["a", "bad", "c"]]
        with HardenedPool(_spanned_task, PoolConfig(workers=workers)) as pool:
            untraced = pool.map(tasks)
            with recording() as recorder, correlation("feedfacefeedface"):
                traced = pool.map(tasks)
        # Spans travel beside the result, never inside it.
        assert traced == untraced
        assert traced[0] == ({"value": "a"}, None)
        assert traced[1][0] is None and traced[1][1]["kind"] == "sim"
        events = recorder.events_json()
        assert sorted(event["args"]["label"] for event in events) == [
            "a",
            "bad",  # a faulted job's span survives too
            "c",
        ]
        assert {
            event["args"]["correlation_id"] for event in events
        } == {"feedfacefeedface"}
        pids = {event["pid"] for event in events}
        assert (os.getpid() in pids) == (workers == 1)


@needs_fork
def test_workers_close_guarded_connections():
    guard_connection(_GUARDED_END)
    try:
        with HardenedPool(_guard_probe_task, PoolConfig(workers=2)) as pool:
            results = pool.map([("a", None), ("b", None)])
    finally:
        unguard_connection(_GUARDED_END)
    assert results == [(True, None), (True, None)]
    assert not _GUARDED_END.closed  # the parent's end is untouched
