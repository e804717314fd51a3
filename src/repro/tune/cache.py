"""Crash-safe persistent cycle cache for schedule-space search.

Cycle counts on the simulator are deterministic: the engine's timing
model is data-independent, so one (kernel, shape, schedule config,
engine + compiler version) quadruple always scores the same.  That makes tuning
perfectly cacheable — repeated tuner runs, CI smoke jobs, and network-
wide sweeps only pay for configs they have never measured.

The store is a flat JSON file (schema 2)::

    {"schema": 2,
     "entries": {"<key>": <cycles>,
                 "<key>": {"fault": {"kind": "compile", ...}}, ...}}

A *failed* config is cached as its structured
:class:`~repro.runtime.faults.Fault` — kind, stage, message, attempt
count — never as a bare ``null``, so reruns skip it with full
provenance.  Only **deterministic** faults (compile / verify / sim)
are persisted; a transient one (a wall-clock timeout) is not,
because a later run on a less loaded machine may well succeed.  A file
of any other schema is handled like any unreadable file (this is a
cache: quarantine and re-measure).  The engine and compiler versions
(:func:`repro.compiler.artifact_versions`) are part of every key — a
timing-model or code-generation change silently starts a fresh
keyspace instead of serving stale cycles.

Every load and save goes through the shared durable-write idiom
(:mod:`repro.runtime.atomic_file`: sidecar ``flock``, pid-tagged temp
file + fsync + atomic rename, dead-writer temp sweep, quarantine of
an unreadable file to ``<path>.corrupt``).  The *format* is this
module's own — the artifact store overwrites one idempotent file per
content address; this file is union-merged, once per search:
``save()`` takes the lock, re-reads the store, unions the on-disk
entries with this process's and renames the result into place, so two
tuner processes sharing one store *union* their work instead of
last-writer-wins clobbering.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from ..runtime.atomic_file import (
    exclusive_lock,
    fsync_dir,
    quarantine,
    sweep_stale_tmp,
    write_atomic,
)
from ..runtime.faults import Fault
from ..compiler import artifact_versions
from .schedule import ScheduleConfig

#: Internal miss sentinel (a cached failure is a *hit* with a fault).
_MISS = object()


def _parse_entries(payload) -> dict[str, int | Fault] | None:
    """Entries of a schema-2 payload; None if unreadable.

    Individually malformed entries are dropped; a structurally alien
    payload (any other schema included) returns None so the caller can
    quarantine the file.
    """
    if not isinstance(payload, dict):
        return None
    raw = payload.get("entries")
    if not isinstance(raw, dict):
        return None
    if payload.get("schema") != TuneCache.SCHEMA:
        return None
    entries: dict[str, int | Fault] = {}
    for key, value in raw.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, int):
            entries[str(key)] = value
        elif isinstance(value, dict):
            try:
                entries[str(key)] = Fault.from_json(value["fault"])
            except (KeyError, ValueError):
                continue
    return entries


class TuneCache:
    """(kernel, shape, config, validate, engine, compiler) -> cycles
    store."""

    SCHEMA = 2

    def __init__(self, path: str | Path | None = None):
        #: Backing file; None = in-memory only (still deduplicates
        #: across the searches that share this object).
        self.path = Path(path) if path is not None else None
        self.hits = 0
        self.misses = 0
        self._entries: dict[str, int | Fault] = {}
        self._dirty = False
        if self.path is not None:
            self._entries = self._load()

    def _read_disk(self) -> dict[str, int | Fault] | None:
        """The entries on disk: none when there is no file yet, None
        when the file is unreadable (undecodable bytes, bad JSON, an
        alien schema)."""
        try:
            return _parse_entries(json.loads(self.path.read_text()))
        except OSError:
            return {}
        except ValueError:
            return None

    def _load(self) -> dict[str, int | Fault]:
        sweep_stale_tmp(self.path.parent, self.path.name + ".")
        entries = self._read_disk()
        if entries is None:
            quarantine(
                self.path,
                f"tune cache {self.path} is corrupt, starting from an "
                "empty store",
            )
            return {}
        return entries

    @staticmethod
    def key(
        kernel: str,
        sizes: Sequence[int],
        config: ScheduleConfig,
        validate: bool,
    ) -> str:
        """The canonical cache key of one measurement (``validate``
        included: a validated search must not be served an unchecked
        measurement, nor an unvalidated one a ``verify`` fault)."""
        shape = "x".join(str(int(s)) for s in sizes)
        engine_version, compiler_version = artifact_versions()
        return (
            f"{kernel}/{shape}/{config.key()}/validate={validate}"
            f"/engine={engine_version}/compiler={compiler_version}"
        )

    def lookup(self, key: str) -> tuple[bool, int | None, Fault | None]:
        """(hit, cycles, fault).  A recorded failure is a hit with a
        structured fault and ``cycles is None``."""
        value = self._entries.get(key, _MISS)
        if value is _MISS:
            self.misses += 1
            return False, None, None
        self.hits += 1
        if isinstance(value, Fault):
            return True, None, value
        return True, value, None

    def put(self, key: str, cycles: int) -> None:
        """Record a measurement (failures: :meth:`put_failure`)."""
        self._store(key, cycles)

    def put_failure(self, key: str, fault: Fault) -> None:
        """Record a config's structured failure."""
        self._store(key, fault)

    def _store(self, key: str, value: int | Fault) -> None:
        self._entries[key] = value
        self._dirty = True

    def __len__(self) -> int:
        return len(self._entries)

    def save(self) -> None:
        """Merge-union persist the store (no-op when in-memory/clean).

        Concurrency-safe: under an exclusive file lock the current
        on-disk entries are re-read and unioned with this process's
        (ours win on key collisions — the oracle is deterministic, so
        collisions agree anyway), then written through a
        fsync + atomic-rename sequence.
        """
        if self.path is None or not self._dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with exclusive_lock(self.path):
            # Merge-on-save: union entries another process persisted
            # since our load, instead of last-writer-wins clobbering.
            disk = self._read_disk()
            if disk:
                merged = dict(disk)
                merged.update(self._entries)
                self._entries = merged
            serialized = {
                key: (
                    {"fault": value.to_json()}
                    if isinstance(value, Fault)
                    else value
                )
                for key, value in sorted(self._entries.items())
            }
            payload = {"schema": self.SCHEMA, "entries": serialized}
            write_atomic(
                self.path, json.dumps(payload, indent=2) + "\n"
            )
            fsync_dir(self.path.parent)
            sweep_stale_tmp(self.path.parent, self.path.name + ".")
        self._dirty = False


__all__ = ["TuneCache"]
