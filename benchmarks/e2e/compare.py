"""Compare two result sets written by ``python -m benchmarks.e2e run``.

One row per (end-to-end metric, workload): both values, the ratio
with its base, and a verdict by the metric's own bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .spec import END_TO_END, EXACT, WORKLOAD_NAMES

TIME_UNITS = ("s", "ms", "1/s")


@dataclass
class Row:
    metric: str
    workload: str
    a: float
    b: float
    verdict: str

    def __str__(self) -> str:
        ratio = self.b / self.a if self.a else float("nan")
        return (
            f"{self.metric:<20} {self.workload:<14} "
            f"{self.a:>14.6g} {self.b:>14.6g}  "
            f"B/A {ratio:>7.4f} (base A = {self.a:.6g})  {self.verdict}"
        )


def _spread(run: dict, metric: str) -> float:
    """A single run has no run-to-run spread of its own; for a time,
    how far the machine's speed moved while it ran stands in."""
    if END_TO_END[metric][0] in TIME_UNITS:
        return run["info"]["cal.factor_spread"]
    return 0.0


def verdict(metric: str, a: float, b: float, spread: float) -> str:
    """same / better / worse by the metric's bound; exact-mismatch for
    the simulated metrics; unresolved where nothing moved beyond the
    bound but the spread is wider than the bound."""
    _, better, bound = END_TO_END[metric]
    if bound == EXACT:
        close = abs(a - b) <= EXACT * max(abs(a), abs(b))
        return "same" if close else "exact-mismatch"
    worse_by = (b - a) / a if better == "lower" else (a - b) / a
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unresolved" if spread > bound else "same"


def compare(a: dict, b: dict) -> list[Row]:
    rows = []
    for workload in WORKLOAD_NAMES:
        run_a = a["workloads"][workload]
        run_b = b["workloads"][workload]
        for metric in END_TO_END:
            a_value = run_a["metrics"][metric]["value"]
            b_value = run_b["metrics"][metric]["value"]
            spread = max(_spread(run_a, metric), _spread(run_b, metric))
            rows.append(
                Row(
                    metric, workload, a_value, b_value,
                    verdict(metric, a_value, b_value, spread),
                )
            )
    return rows


def compare_files(path_a: str, path_b: str) -> int:
    """Print the table; non-zero on worse or exact-mismatch."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    rows = compare(a, b)
    for row in rows:
        print(row)
    bad = [r for r in rows if r.verdict in ("worse", "exact-mismatch")]
    print(f"{len(rows)} rows, {len(bad)} worse or exact-mismatch")
    return 1 if bad else 0
