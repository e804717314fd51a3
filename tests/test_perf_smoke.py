"""Compile-time perf smoke tests (``pytest -m perf_smoke``).

Wall-clock assertions are flaky on shared machines, so these check the
machine-independent efficiency metrics instead: the rewrite driver's
counters, recorded per pass by the :class:`PassManager` instrumentation,
and the verifier's ``ir_verify_ops_checked`` op visits.
The budgets have generous headroom over the worklist driver's actual
numbers but sit far below the fixpoint re-walk driver's (which visited
~220 ops compiling the same kernel), so any regression toward
whole-module rescans trips them immediately.
"""

import numpy as np
import pytest

from repro import api, kernels
from repro.compiler import Compiler
from repro.obs import METRICS
from repro.snitch.cluster import run_row_partitioned

#: Counter ceilings for matmul(1, 8, 8); the worklist driver uses
#: ~14/14/10 and the old fixpoint driver used ~220 invocations.
BUDGETS = {
    "ours": {"ops_visited": 60, "pattern_invocations": 60},
    "mlir": {"ops_visited": 40, "pattern_invocations": 40},
}


def _counter_totals(pipeline):
    module, _ = kernels.matmul(1, 8, 8)
    compiled = Compiler(pipeline).compile(module)
    totals = {"ops_visited": 0, "pattern_invocations": 0}
    for _, stats in compiled.pass_stats:
        for key in totals:
            totals[key] += stats[key]
    return totals


@pytest.mark.perf_smoke
@pytest.mark.parametrize("pipeline", sorted(BUDGETS))
def test_driver_counters_within_budget(pipeline):
    totals = _counter_totals(pipeline)
    for key, budget in BUDGETS[pipeline].items():
        assert totals[key] <= budget, (
            f"{pipeline}: {key} = {totals[key]} exceeds the perf-smoke "
            f"budget of {budget}; the pattern driver regressed toward "
            "whole-module rescans"
        )


#: Op visits of the verifier over one ``ours`` compile of
#: matmul(1, 8, 8) when every pass was followed by a whole-module
#: ``verify`` (through PR 21): the module's op count summed over the
#: input and the 13 post-pass verifications.
WHOLE_MODULE_VERIFY_OPS = 585


@pytest.mark.perf_smoke
def test_verification_is_proportional_to_what_changed():
    module, _ = kernels.matmul(1, 8, 8)
    before = METRICS.snapshot()
    Compiler("ours").compile(module)
    delta = METRICS.delta(before)
    checked = sum(
        delta[f'ir_verify_ops_checked{{mode="{mode}"}}']
        for mode in ("full", "incremental")
    )
    assert checked <= 0.7 * WHOLE_MODULE_VERIFY_OPS, (
        f"the verifier visited {checked} ops; post-pass verification "
        "regressed toward whole-module re-verification"
    )


@pytest.mark.perf_smoke
def test_simulator_decodes_once_per_program():
    """The predecoded engine's decode must run once per program — not
    once per run: repeated runs of one compiled kernel share a decode."""
    module, spec = kernels.matmul(1, 8, 8)
    compiled = Compiler("ours").compile(module)
    arguments = spec.random_arguments(seed=0)
    before = METRICS.counter("engine_programs_decoded").value
    for _ in range(3):
        api.run_kernel(compiled, arguments)
    assert METRICS.counter("engine_programs_decoded").value == before + 1


@pytest.mark.perf_smoke
def test_simulator_decodes_once_per_cluster():
    """...and not once per core: equal-shape cluster cores share both
    the compiled kernel and its decoded program."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (8, 6))
    y = rng.uniform(-1, 1, (8, 6))
    z = np.zeros((8, 6))
    before = METRICS.counter("engine_programs_decoded").value
    run_row_partitioned(
        kernels.sum_kernel,
        lambda module, spec: api.compile_linalg(module, pipeline="ours"),
        (8, 6),
        4,
        [x, y, z],
        row_parallel_args=[0, 1, 2],
    )
    assert METRICS.counter("engine_programs_decoded").value == before + 1


@pytest.mark.perf_smoke
def test_pass_stats_recorded_for_every_pass():
    module, _ = kernels.matmul(1, 8, 8)
    compiled = Compiler("ours").compile(module)
    assert [n for n, _ in compiled.pass_stats] == [
        n for n, _ in compiled.pass_timings
    ]
    assert all(
        set(stats)
        == {"ops_visited", "pattern_invocations", "rewrites_applied"}
        for _, stats in compiled.pass_stats
    )
