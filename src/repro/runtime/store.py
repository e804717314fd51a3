"""Content-addressed artifact store.

Generalizes the tuner's cycle cache (:mod:`repro.tune.cache`) from
"cycle counts only" to *any* compilation artifact: compiled assembly
plus metadata, per-pass timings, cycle measurements.
The design carries over the durability lessons of that cache and adds
content addressing:

* **keys are content hashes** — an artifact is addressed by the sha256
  of exactly the inputs that determine it (for a compiled kernel: the
  canonical module text, the canonical pipeline spec, and the engine
  and compiler versions), so two processes that compile the same
  thing independently produce the same key and share the entry;
* **one file per artifact** — ``<root>/objects/<kind>/<kk>/<key>.json``
  (``kk`` = first two hex digits).  Concurrent writers of *different*
  artifacts never contend, and concurrent writers of the *same*
  artifact write identical bytes;
* **integrity hashes verified on read** — every entry embeds the
  sha256 of its canonical payload JSON; a mismatch (torn write, bit
  rot, hand edit) quarantines the file to ``<name>.corrupt`` and
  reports a miss, never a wrong artifact;
* **flock + atomic rename writes** — the shared durable-write idiom
  (:mod:`repro.runtime.atomic_file`) under a store-wide lock: a
  SIGKILL mid-write leaves at most a stale temp file (cleaned up by
  the next writer), never a truncated entry;
* **LRU size cap** — ``max_bytes`` bounds the store; eviction removes
  least-recently-*used* entries (reads refresh an entry's mtime) and
  is accounted in :meth:`stats`.

Failure semantics follow ``docs/ROBUSTNESS.md``: corruption is
quarantined with a warning, never silently eaten, and a missing or
unreadable store directory degrades to misses instead of raising.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

from ..compiler import artifact_versions
from .atomic_file import (
    exclusive_lock,
    quarantine,
    sweep_stale_tmp,
    write_atomic,
)


class StoreError(ValueError):
    """A malformed key, kind, or artifact payload."""


#: Artifact kinds the repo currently stores.  The store itself is
#: kind-agnostic (any ``[a-z-]`` name works); these are the
#: conventional ones, documented in ``docs/SERVICE.md``.
KNOWN_KINDS = ("kernel", "cycles")

_HEX = set("0123456789abcdef")


def content_key(*parts: object) -> str:
    """sha256 hex digest of a tuple of key parts.

    Parts are length-prefixed before hashing so no two distinct tuples
    can collide by concatenation (``("ab", "c")`` vs ``("a", "bc")``).
    """
    digest = hashlib.sha256()
    for part in parts:
        text = part if isinstance(part, str) else json.dumps(
            part, sort_keys=True, separators=(",", ":")
        )
        data = text.encode("utf-8")
        digest.update(f"{len(data)}:".encode("ascii"))
        digest.update(data)
    return digest.hexdigest()


def compile_key(module_text: str, pipeline_spec: str) -> str:
    """The content address of one compilation.

    The canonical module text and canonical pipeline spec pin the
    compiler's *inputs*; :func:`~repro.compiler.artifact_versions`
    rides along so artifacts invalidate themselves when the compiler
    emits different code for the same inputs or the timing model
    changes the cycle counts they embed — the same policy as the
    tuner's cycle cache.
    """
    return content_key(module_text, pipeline_spec, *artifact_versions())


def _payload_digest(payload: dict) -> str:
    """Integrity hash of an artifact payload (canonical JSON)."""
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ArtifactStore:
    """Content-addressed (kind, key) -> JSON payload store (see
    module docstring).

    ``max_bytes`` arms the LRU size cap: every :meth:`put` that pushes
    the store past the cap evicts least-recently-used entries until it
    fits again.  ``None`` (the default) means unbounded; :meth:`gc`
    applies a cap on demand either way.
    """

    SCHEMA = 1

    def __init__(
        self, root: str | Path, max_bytes: int | None = None
    ):
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.evicted_bytes = 0
        self.quarantined = 0
        self._lock = threading.Lock()

    # -- paths ----------------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    def _entry_path(self, kind: str, key: str) -> Path:
        if not kind or not all(c.isalnum() or c == "-" for c in kind):
            raise StoreError(f"bad artifact kind {kind!r}")
        if len(key) != 64 or not set(key) <= _HEX:
            raise StoreError(
                f"bad artifact key {key!r} (want sha256 hex digest)"
            )
        return self.objects_dir / kind / key[:2] / f"{key}.json"

    def _flock(self):
        """The store-wide advisory write lock (``store.lock``)."""
        return exclusive_lock(self.root / "store")

    # -- core API -------------------------------------------------------------

    def put(
        self,
        kind: str,
        key: str,
        payload: dict,
        meta: dict | None = None,
    ) -> Path:
        """Persist one artifact; returns its entry path.

        Identical (kind, key) pairs carry identical payloads by
        construction (the key is a content address), so overwrites are
        idempotent.  The write is crash-safe: temp file + fsync +
        atomic rename under the store lock.
        """
        if not isinstance(payload, dict):
            raise StoreError(
                f"artifact payload must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        path = self._entry_path(kind, key)
        entry = {
            "schema": self.SCHEMA,
            "kind": kind,
            "key": key,
            "integrity": _payload_digest(payload),
            "meta": meta or {},
            "payload": payload,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(entry, indent=2, sort_keys=True) + "\n"
        with self._flock():
            write_atomic(path, text)
        with self._lock:
            self.puts += 1
        sweep_stale_tmp(path.parent)
        if self.max_bytes is not None:
            self.gc(self.max_bytes)
        return path

    def get(self, kind: str, key: str) -> dict | None:
        """The artifact payload, or None on miss.

        The embedded integrity hash is re-verified; a mismatching or
        unreadable entry is quarantined to ``<name>.corrupt`` (a
        warning names it) and reported as a miss.  A hit refreshes the
        entry's mtime — the LRU clock :meth:`gc` evicts by.
        """
        path = self._entry_path(kind, key)
        try:
            text = path.read_text()
        except OSError:
            with self._lock:
                self.misses += 1
            return None
        payload = self._verify(path, kind, key, text)
        with self._lock:
            if payload is None:
                self.misses += 1
            else:
                self.hits += 1
        if payload is not None:
            try:
                os.utime(path)  # LRU touch
            except OSError:  # pragma: no cover - entry raced away
                pass
        return payload

    def contains(self, kind: str, key: str) -> bool:
        """Whether an entry exists (no integrity check, no LRU touch)."""
        return self._entry_path(kind, key).exists()

    def _verify(
        self, path: Path, kind: str, key: str, text: str
    ) -> dict | None:
        """Parse + integrity-check one entry; quarantine on failure."""
        try:
            entry = json.loads(text)
        except ValueError:
            self._quarantine(path, "undecodable JSON")
            return None
        if not isinstance(entry, dict):
            self._quarantine(path, "not a JSON object")
            return None
        payload = entry.get("payload")
        if (
            entry.get("schema") != self.SCHEMA
            or entry.get("kind") != kind
            or entry.get("key") != key
            or not isinstance(payload, dict)
        ):
            self._quarantine(path, "malformed entry structure")
            return None
        if entry.get("integrity") != _payload_digest(payload):
            self._quarantine(path, "integrity hash mismatch")
            return None
        return payload

    def _quarantine(self, path: Path, reason: str) -> None:
        with self._lock:
            self.quarantined += 1
        quarantine(path, f"artifact {path.name} is corrupt ({reason})")

    # -- maintenance ----------------------------------------------------------

    def _entries(self) -> list[tuple[Path, int, float]]:
        """(path, size, mtime) of every live entry file."""
        out = []
        if not self.objects_dir.is_dir():
            return out
        for path in sorted(self.objects_dir.rglob("*.json")):
            try:
                stat = path.stat()
            except OSError:
                continue
            out.append((path, stat.st_size, stat.st_mtime))
        return out

    def gc(self, max_bytes: int | None = None) -> dict:
        """Evict least-recently-used entries down to ``max_bytes``.

        Also sweeps stale temp files store-wide.  Returns a report:
        entries/bytes before and after, entries evicted.  ``None``
        (and no store-level cap) only sweeps temp files.
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        with self._flock():
            if self.objects_dir.is_dir():
                for directory in {
                    p.parent for p in self.objects_dir.rglob("*.tmp")
                }:
                    sweep_stale_tmp(directory)
            entries = self._entries()
            total = sum(size for _, size, _ in entries)
            before = {"entries": len(entries), "bytes": total}
            evicted = 0
            if cap is not None:
                # Oldest mtime first = least recently used (reads
                # refresh mtime).
                entries.sort(key=lambda item: item[2])
                for path, size, _ in entries:
                    if total <= cap:
                        break
                    try:
                        path.unlink()
                    except OSError:
                        continue
                    total -= size
                    evicted += 1
                    with self._lock:
                        self.evictions += 1
                        self.evicted_bytes += size
        return {
            "before": before,
            "after": {
                "entries": before["entries"] - evicted,
                "bytes": total,
            },
            "evicted": evicted,
        }

    def verify_all(self) -> dict:
        """Integrity-check every entry in place (no quarantine).

        Returns ``{"ok": N, "corrupt": N}`` — the concurrency drills
        use it to prove racing writers leave zero corrupt entries.
        """
        ok = corrupt = 0
        for path, _, _ in self._entries():
            try:
                entry = json.loads(path.read_text())
                payload = entry["payload"]
                good = (
                    entry["integrity"] == _payload_digest(payload)
                    and entry["schema"] == self.SCHEMA
                )
            except (OSError, ValueError, KeyError, TypeError):
                good = False
            if good:
                ok += 1
            else:
                corrupt += 1
        return {"ok": ok, "corrupt": corrupt}

    def stats(self) -> dict:
        """Traffic counters of this handle + current disk footprint."""
        entries = self._entries()
        with self._lock:
            return {
                "root": str(self.root),
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "evictions": self.evictions,
                "evicted_bytes": self.evicted_bytes,
                "quarantined": self.quarantined,
                "entries": len(entries),
                "bytes": sum(size for _, size, _ in entries),
                "max_bytes": self.max_bytes,
            }


__all__ = [
    "ArtifactStore",
    "KNOWN_KINDS",
    "StoreError",
    "compile_key",
    "content_key",
]
