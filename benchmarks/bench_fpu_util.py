"""FPU-utilization benchmark: the paper's Table 1 methodology.

Profiles every Table 1 kernel through every named pipeline with the
cycle-attribution profiler (:mod:`repro.obs.profiler`) attached and
reports, per (kernel, pipeline) cell: total cycles, FLOPs, FLOPs per
cycle, FPU utilization, and the full cycle breakdown — FPU arithmetic,
FPU non-arith, FPU stalls, integer core, SSR drain waits, branch
bubbles — split by region (FREP body vs. scalar code).

Every cell asserts the profiler's partition invariant: the buckets sum
*exactly* to the run's total cycles (no idle, no double counting), and
the ``fpu_arith`` bucket equals the trace's own FPU-arithmetic count.

Regenerate ``results/BENCH_fpu_util.json`` (held, exactly, by
``tests/test_results_ledger.py``) with::

    PYTHONPATH=src python -m benchmarks.bench_fpu_util

JSON schema (``schema`` = 1)::

    {
      "schema": 1, "smoke": false, "seed": 0, "engine_version": 2,
      "pipelines": ["ours", ...],
      "kernels": {
        "<kernel>": {
          "sizes": [..],
          "<pipeline>": {
            "cycles": .., "flops": .., "flops_per_cycle": ..,
            "fpu_utilization": ..,
            "buckets": {"fpu_arith": .., "fpu_nonarith": ..,
                        "fpu_stall": .., "int_core": ..,
                        "ssr_wait": .., "branch_bubble": ..},
            "regions": {"scalar": {...}, "frep_body": {...}},
            "idle": 0
          }, ...
        }, ...
      }
    }
"""

from repro.kernels import KERNEL_BUILDERS
from repro.snitch.engine import ENGINE_VERSION
from repro.transforms.pipelines import PIPELINE_NAMES

from .bench_paper import SEED, measure, write_results

RESULTS_NAME = "BENCH_fpu_util.json"

#: Table 1 kernels at representative (TCDM-friendly) shapes.
PAPER_KERNELS = (
    ("fill", (8, 16)),
    ("sum", (8, 16)),
    ("relu", (8, 16)),
    ("conv3x3", (8, 8)),
    ("max_pool3x3", (8, 8)),
    ("sum_pool3x3", (8, 8)),
    ("matmul", (4, 8, 8)),
    ("matmul_t", (4, 8, 8)),
    ("matvec", (8, 16)),
)


def profile_cell(kernel: str, sizes, pipeline: str) -> dict:
    """One (kernel, pipeline) profile with the invariants asserted."""
    builder, _arity = KERNEL_BUILDERS[kernel]
    run = measure(builder, tuple(sizes), pipeline, profile=True).run
    cell = run.profile.to_json()
    total = sum(cell["buckets"].values())
    assert total == cell["cycles"], (
        f"{kernel}/{pipeline}: buckets sum to {total}, "
        f"cycles are {cell['cycles']}"
    )
    assert cell["idle"] == 0, f"{kernel}/{pipeline}: idle cycles"
    assert cell["buckets"]["fpu_arith"] == run.trace.fpu_arith_cycles, (
        f"{kernel}/{pipeline}: fpu_arith disagrees with the trace"
    )
    region_total = sum(
        sum(buckets.values()) for buckets in cell["regions"].values()
    )
    assert region_total == cell["cycles"], (
        f"{kernel}/{pipeline}: regions sum to {region_total}"
    )
    return cell


def run() -> dict:
    """Profile the suite; returns the results document."""
    results: dict = {
        "schema": 1,
        "smoke": False,
        "seed": SEED,
        "engine_version": ENGINE_VERSION,
        "pipelines": list(PIPELINE_NAMES),
        "kernels": {},
    }
    for kernel, sizes in PAPER_KERNELS:
        row: dict = {"sizes": list(sizes)}
        for pipeline in PIPELINE_NAMES:
            row[pipeline] = profile_cell(kernel, sizes, pipeline)
            print(
                f"{kernel:<12} {pipeline:<16} "
                f"{row[pipeline]['cycles']:>7} cycles  "
                f"{100.0 * row[pipeline]['fpu_utilization']:5.1f}% fpu"
            )
        results["kernels"][kernel] = row
    return results


if __name__ == "__main__":
    write_results(RESULTS_NAME, run())
