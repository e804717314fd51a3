"""The server's crash-safe journal of accepted-but-unfinished work."""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from ..runtime.atomic_file import (
    exclusive_lock,
    pid_alive,
    quarantine,
    sweep_stale_tmp,
    write_atomic,
)


class RequestJournal:
    """Crash-safe record of accepted-but-unfinished requests.

    The server journals every request it admits for *computation*
    (store hits never touch the journal) and removes the entry once
    the result is persisted or faulted.  A server that dies mid-batch
    — SIGKILL, OOM, power loss — therefore leaves behind exactly the
    entries it never finished; on restart, :meth:`sweep` returns
    those interrupted records (entries whose recorded writer pid is
    dead) and clears them, so the new server can report what was lost
    and clients can resubmit (completed keys come back as cheap store
    hits).

    One JSON file, rewritten through the shared durable-write idiom
    (:mod:`repro.runtime.atomic_file`) under ``<path>.lock``, so a
    crash mid-journal-write leaves the previous consistent state,
    never a truncated file.
    """

    SCHEMA = 1

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._mutex = threading.Lock()

    def _read(self) -> dict:
        """Entry-id -> record; a missing journal is empty, a corrupt
        one is quarantined and degrades to empty (the store's
        contract: never raise on bad durable state)."""
        try:
            data = json.loads(self.path.read_text())
        except OSError:
            return {}
        except ValueError:
            data = None
        if (
            not isinstance(data, dict)
            or data.get("schema") != self.SCHEMA
            or not isinstance(data.get("entries"), dict)
        ):
            quarantine(
                self.path,
                f"request journal {self.path} is corrupt, starting "
                "from an empty one",
            )
            return {}
        return data["entries"]

    def _write(self, entries: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(
            {"schema": self.SCHEMA, "entries": entries},
            indent=2,
            sort_keys=True,
        ) + "\n"
        write_atomic(self.path, text)

    def begin(self, kind: str, key: str, label: str = "") -> str:
        """Record one accepted-but-unfinished request; returns its
        entry id."""
        entry_id = f"{kind}/{key}"
        with self._mutex, exclusive_lock(self.path):
            entries = self._read()
            entries[entry_id] = {
                "kind": kind,
                "key": key,
                "label": label,
                "pid": os.getpid(),
                "started": time.time(),
            }
            self._write(entries)
        return entry_id

    def finish(self, entry_id: str) -> None:
        """Drop a completed (persisted or faulted) request's entry."""
        with self._mutex, exclusive_lock(self.path):
            entries = self._read()
            if entries.pop(entry_id, None) is not None:
                self._write(entries)

    def sweep(self) -> list[dict]:
        """Interrupted work left by dead writers, cleared on return
        (with any temp file such a writer abandoned mid-write).

        An entry whose recorded pid is still alive belongs to a live
        server sharing the journal and is left alone.
        """
        with self._mutex, exclusive_lock(self.path):
            sweep_stale_tmp(self.path.parent, self.path.name + ".")
            entries = self._read()
            interrupted = {
                entry_id: record
                for entry_id, record in entries.items()
                if not pid_alive(record.get("pid", -1))
            }
            if interrupted:
                self._write(
                    {
                        entry_id: record
                        for entry_id, record in entries.items()
                        if entry_id not in interrupted
                    }
                )
        return sorted(
            interrupted.values(),
            key=lambda r: (r.get("kind", ""), r.get("key", "")),
        )

    def pending(self) -> list[dict]:
        """Current unfinished entries (no sweep, no mutation)."""
        with self._mutex:
            return sorted(
                self._read().values(),
                key=lambda r: (r.get("kind", ""), r.get("key", "")),
            )


__all__ = ["RequestJournal"]
