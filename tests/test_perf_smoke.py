"""Compile-time and simulator perf smoke tests (``pytest -m perf_smoke``).

Wall-clock assertions are flaky on shared machines, so these check
countable efficiency metrics instead: the rewrite driver's counters
and the verifier's op visits (``ops_verified``), recorded per pass in
``pass_stats`` by the :class:`PassManager`, the Python bytecodes the
simulator executes per simulated instruction, plain and with the cycle
profiler attached (exact on one CPython minor version only, so pinned
to it), and that a compile's bytecode count repeats exactly and stays
at its pinned level.
The budgets have generous headroom over the worklist driver's actual
numbers but sit far below the fixpoint re-walk driver's (which visited
~220 ops compiling the same kernel), so any regression toward
whole-module rescans trips them immediately.
"""

import sys
from functools import partial

import numpy as np
import pytest

from repro import api, kernels
from repro.compiler import Compiler
from repro.ir import verify
from repro.obs.hostprof import BytecodeCounter
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
    checked = verify(module)  # what the compile's input check visits
    compiled = Compiler("ours").compile(module)
    checked += sum(
        stats["ops_verified"] for _, stats in compiled.pass_stats
    )
    assert 0 < checked <= 0.7 * WHOLE_MODULE_VERIFY_OPS, (
        f"the verifier visited {checked} ops; post-pass verification "
        "regressed toward whole-module re-verification"
    )


@pytest.mark.perf_smoke
def test_simulator_decodes_once_per_program(decodes):
    """The predecoded engine's decode must run once per program — not
    once per run: repeated runs of one compiled kernel share a decode."""
    module, spec = kernels.matmul(1, 8, 8)
    compiled = Compiler("ours").compile(module)
    arguments = spec.random_arguments(seed=0)
    for _ in range(3):
        api.run_kernel(compiled, arguments)
    assert len(decodes) == 1


@pytest.mark.perf_smoke
def test_simulator_decodes_once_per_cluster(decodes):
    """...and not once per core: equal-shape cluster cores share both
    the compiled kernel and its decoded program."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (8, 6))
    y = rng.uniform(-1, 1, (8, 6))
    z = np.zeros((8, 6))
    run_row_partitioned(
        kernels.sum_kernel,
        lambda module, spec: api.compile_linalg(module, pipeline="ours"),
        (8, 6),
        4,
        [x, y, z],
        row_parallel_args=[0, 1, 2],
    )
    assert len(decodes) == 1


@pytest.mark.perf_smoke
def test_pass_stats_recorded_for_every_pass():
    module, _ = kernels.matmul(1, 8, 8)
    compiled = Compiler("ours").compile(module)
    assert [n for n, _ in compiled.pass_stats] == [
        n for n, _ in compiled.pass_timings
    ]
    assert all(
        set(stats)
        == {
            "ops_visited",
            "pattern_invocations",
            "rewrites_applied",
            "ops_verified",
        }
        for _, stats in compiled.pass_stats
    )


def _compile_bytecodes() -> int:
    """Bytecodes of one ``ours`` compile of a fresh conv3x3(8, 8)."""
    module, _ = kernels.conv3x3(8, 8)
    counter = BytecodeCounter()
    counter.count(Compiler("ours").compile, module)
    return counter.total


@pytest.mark.perf_smoke
def test_compile_bytecodes_are_exact():
    """A warm compile of a fresh module runs the same bytecodes every
    time: no instrument on the compile path follows the clock."""
    _compile_bytecodes()  # imports, caches
    totals = {_compile_bytecodes() for _ in range(6)}
    assert len(totals) == 1, f"bytecode totals spread: {sorted(totals)}"


#: Bytecodes per simulated instruction of one warm ``api.run_kernel``
#: on the block engine, counted on CPython 3.11: the streamed FREP
#: matmul of ``ours`` and the pointer loop of ``clang``.  The
#: closure-per-instruction engine before it ran 380 and 170.
SIM_BYTECODES = {"ours": ((16, 32, 16), 167.0), "clang": ((8, 64, 16), 60.6)}
#: The same with ``profile=True``: the engine's step reports plus the
#: closed-form bucket count.  Painting every cycle onto an array ran
#: 333.1 and 346.6.
PROFILE_BYTECODES = {
    "ours": ((16, 32, 16), 193.7), "clang": ((8, 64, 16), 138.1),
}
#: The CPython minor version the levels above were counted on.
PINNED = (3, 11)

pinned_bytecodes = pytest.mark.skipif(
    sys.version_info[:2] != PINNED,
    reason="bytecode counts are exact only on the CPython minor version "
    "that pinned them (3.11)",
)


def _assert_run_within_level(pipeline, levels, profile):
    """One warm run stays within its pinned level + 15 %."""
    sizes, level = levels[pipeline]
    module, spec = kernels.matmul(*sizes)
    compiled = api.compile_linalg(module, pipeline=pipeline)
    arguments = spec.random_arguments(seed=0)
    run_kernel = partial(api.run_kernel, profile=profile)
    run_kernel(compiled, arguments)  # decode and generate first
    counter = BytecodeCounter()
    run = counter.count(run_kernel, compiled, arguments)
    instructions = run.trace.int_instructions + run.trace.fpu_instructions
    per_instruction = counter.total / instructions
    assert per_instruction <= 1.15 * level, (
        f"{pipeline}: {per_instruction:.1f} bytecodes per simulated "
        f"instruction, budget {1.15 * level:.1f}"
    )


@pytest.mark.perf_smoke
@pinned_bytecodes
@pytest.mark.parametrize("pipeline", sorted(SIM_BYTECODES))
def test_simulator_bytecodes_per_instruction(pipeline):
    """A block engine regression toward per-instruction dispatch trips
    the level."""
    _assert_run_within_level(pipeline, SIM_BYTECODES, profile=False)


@pytest.mark.perf_smoke
@pinned_bytecodes
@pytest.mark.parametrize("pipeline", sorted(PROFILE_BYTECODES))
def test_profiled_simulator_bytecodes_per_instruction(pipeline):
    """A profiler regression toward per-cycle painting, or a costlier
    ``step``, trips the level."""
    _assert_run_within_level(pipeline, PROFILE_BYTECODES, profile=True)


#: Bytecodes of one warm ``ours`` compile of conv3x3(8, 8), counted on
#: CPython 3.11 with each op class's ``verify_`` generated as source.
#: The generic check-interpreting closure before it ran 317,612.
COMPILE_BYTECODES = 284_369


@pytest.mark.perf_smoke
@pinned_bytecodes
def test_compile_bytecodes_at_level():
    """One warm compile stays within its pinned level + 5 %: a fall-back
    to interpreted verify checks (+12 %) trips it."""
    _compile_bytecodes()  # imports, caches, generated hooks
    total = _compile_bytecodes()
    assert total <= 1.05 * COMPILE_BYTECODES, (
        f"a warm conv3x3(8, 8) compile ran {total} bytecodes, budget "
        f"{1.05 * COMPILE_BYTECODES:.0f}"
    )
