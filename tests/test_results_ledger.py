"""The paper's numbers, held exactly: the cycle-level twin of
``test_golden_asm.py``.

``results/`` holds three committed files — ``BENCH_paper.json`` (every
figure and table of the evaluation), ``BENCH_fpu_util.json`` and
``BENCH_tuning.json`` — each written by one module under
``benchmarks/`` whose ``run()`` is deterministic: simulated cycles and
counters only, no wall-clock.  This suite regenerates each document and
compares it with the committed bytes, naming every cell that moved.  A
change that is *meant* to move cycles regenerates the files on
purpose::

    PYTHONPATH=src python -m benchmarks.bench_paper
    PYTHONPATH=src python -m benchmarks.bench_fpu_util
    PYTHONPATH=src python -m benchmarks.bench_tuning

and the JSON diff is then part of the review.  This is the only place
the paper's numbers are gated (``test_paper_claims.py`` pins bands).
"""

import functools
import importlib
import json
import socket
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # ``benchmarks`` is a top-level package

from benchmarks.bench_paper import RESULTS_DIR, render  # noqa: E402

#: Every results-writing module: ``benchmarks/bench_*.py``.
MODULES = sorted(
    path.stem for path in (ROOT / "benchmarks").glob("bench_*.py")
)

BY_MODULE = pytest.mark.parametrize("module", MODULES)


def _module(name: str):
    return importlib.import_module(f"benchmarks.{name}")


@functools.lru_cache(maxsize=None)
def _regenerated(name: str) -> str:
    """The bytes ``name`` would write now (first run, shared)."""
    return render(_module(name).run())


def _moved(old, new, path="") -> list[str]:
    """``path: old -> new`` for every leaf that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        lines = []
        for key in sorted(old.keys() | new.keys()):
            if key not in new:
                lines.append(f"{path}/{key}: removed")
            elif key not in old:
                lines.append(f"{path}/{key}: added")
            else:
                lines += _moved(old[key], new[key], f"{path}/{key}")
        return lines
    if (
        isinstance(old, list)
        and isinstance(new, list)
        and len(old) == len(new)
    ):
        return [
            line
            for index, (a, b) in enumerate(zip(old, new))
            for line in _moved(a, b, f"{path}[{index}]")
        ]
    return [] if old == new else [f"{path}: {old!r} -> {new!r}"]


@BY_MODULE
def test_regeneration_matches_the_committed_file_exactly(module):
    name = _module(module).RESULTS_NAME
    committed = (RESULTS_DIR / name).read_text()
    regenerated = _regenerated(module)
    if regenerated == committed:
        return
    moved = _moved(json.loads(committed), json.loads(regenerated))
    shown = "\n".join(moved[:40])
    pytest.fail(
        f"results/{name}: {len(moved)} value(s) "
        f"moved (regenerate with `python -m benchmarks.{module}` if "
        f"that is intended):\n{shown}"
        + ("\n..." if len(moved) > 40 else "")
        + ("" if moved else "\n(same values, different bytes)")
    )


@BY_MODULE
def test_two_regenerations_in_one_process_are_byte_identical(module):
    """No run leaves state behind (a warm cycle cache, a memo) that
    changes what the next one records."""
    assert render(_module(module).run()) == _regenerated(module)


def test_results_and_writers_correspond_one_to_one():
    """Every tracked file under ``results/`` has exactly one writer
    under ``benchmarks/`` and vice versa — no orphan report can
    reappear."""
    try:
        listed = subprocess.run(
            ["git", "ls-files", "results"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.split()
        tracked = sorted(Path(name).name for name in listed)
    except (OSError, subprocess.CalledProcessError):
        tracked = []
    if not tracked:  # an exported tree: what is there is what shipped
        tracked = sorted(
            path.name for path in RESULTS_DIR.iterdir() if path.is_file()
        )
    assert tracked == sorted(
        _module(name).RESULTS_NAME for name in MODULES
    )


#: Key words that would make a results file depend on the host or the
#: clock (matched against the ``_``-separated words of every key).
_HOST_WORDS = {
    "time", "timestamp", "seconds", "ms", "s", "latency", "date",
    "host", "hostname", "path", "pid", "rss", "wall",
}


@BY_MODULE
def test_committed_file_holds_nothing_host_dependent(module):
    def walk(node, path=""):
        if isinstance(node, dict):
            for key, value in node.items():
                assert not _HOST_WORDS & set(key.lower().split("_")), (
                    f"{path}/{key}"
                )
                walk(value, f"{path}/{key}")
        elif isinstance(node, list):
            for index, value in enumerate(node):
                walk(value, f"{path}[{index}]")
        elif isinstance(node, str):
            assert str(ROOT) not in node and "/tmp" not in node, path
            assert socket.gethostname() not in node, path

    walk(json.loads((RESULTS_DIR / _module(module).RESULTS_NAME).read_text()))
