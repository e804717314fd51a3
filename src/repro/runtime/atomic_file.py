"""The one durable-write idiom every on-disk store here uses.

The cycle cache, the artifact store and the request journal keep
different *formats* but one *idiom*: writers serialize on an advisory
``flock`` held on a sidecar ``<path>.lock``; content reaches disk
through a pid-tagged temp file, ``fsync`` and an atomic rename, so a
crash mid-write leaves the previous content plus at most a stale
``<name>.<pid>.tmp``; the embedded pid lets a later writer prove that
file is garbage; unreadable content is set aside as ``<path>.corrupt``
with a warning, never silently eaten.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` may name a live process.

    Only a definite "no such process" answers False: callers *delete*
    what a dead pid owns, so someone else's process or an unexpected
    ``OSError`` must answer True.
    """
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True


def _sidecar(path: Path, suffix: str) -> Path:
    return path.with_name(path.name + suffix)


@contextmanager
def exclusive_lock(path: Path):
    """Advisory exclusive lock on ``<path>.lock`` (no-op sans fcntl).

    The lock file is never unlinked: the kernel drops a dead process's
    ``flock`` automatically, so a leftover file cannot block the next
    run, and unlinking would race live lockers onto different inodes.
    """
    if fcntl is None:
        yield
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(_sidecar(path, ".lock"), "w") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def write_atomic(path: Path, text: str) -> None:
    """Replace ``path``'s content: pid-tagged temp file, flush, one
    fsync, atomic rename.  The parent directory must exist."""
    tmp = _sidecar(path, f".{os.getpid()}.tmp")
    with open(tmp, "w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    tmp.replace(path)


def fsync_dir(directory: Path) -> None:
    """Make a rename in ``directory`` durable (best effort)."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass


def sweep_stale_tmp(directory: Path, prefix: str = "") -> None:
    """Remove ``<prefix>*.<pid>.tmp`` files in ``directory`` that a
    SIGKILLed (or OOM-killed) writer left behind.  Live writers'
    temps — this process's included — are left alone."""
    try:
        siblings = list(directory.iterdir())
    except OSError:
        return
    for candidate in siblings:
        name = candidate.name
        if not (name.startswith(prefix) and name.endswith(".tmp")):
            continue
        pid_text = name[: -len(".tmp")].rpartition(".")[2]
        if not pid_text.isdigit() or pid_alive(int(pid_text)):
            continue
        try:
            candidate.unlink()
        except OSError:  # raced away
            pass


def quarantine(path: Path, description: str) -> None:
    """Set a corrupt file aside as ``<path>.corrupt`` and warn
    (``description`` opens the warning text), so the bytes survive
    for inspection and the next save cannot clobber the evidence."""
    corrupt = _sidecar(path, ".corrupt")
    try:
        path.replace(corrupt)
        where = str(corrupt)
    except OSError:
        where = "(quarantine rename failed; file left in place)"
    warnings.warn(
        f"{description}; quarantined to {where}",
        RuntimeWarning,
        stacklevel=3,
    )


__all__ = [
    "exclusive_lock",
    "fsync_dir",
    "pid_alive",
    "quarantine",
    "sweep_stale_tmp",
    "write_atomic",
]
