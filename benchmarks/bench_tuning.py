"""Schedule-space autotuning benchmark: default vs. tuned cycles.

Runs the cycle-oracle tuner (``repro.tune``) over

* the Table 1 paper kernels at representative shapes,
* every distinct NSNet2 and AlexNet layer shape (the paper's two
  network kernel mixes), plus whole-network totals with the tuned
  per-layer schedules applied,
* a Figure 11 MatMul sweep subset (M = 1, N/K grid) — the shape
  family whose default unroll heuristic leaves cycles on the table,

and records default/tuned cycles, the winning config, candidates
evaluated, and persistent-cache traffic per entry.  Every winning
schedule is additionally re-run on the *reference* interpreter and
must match the predecoded engine bit-for-bit (cycles and memory) —
the tuner's oracle is only trusted because the differential suite
backs it.

Invariants asserted here:

* tuned cycles <= default cycles for every entry (the default is
  always measured, so search can only improve);
* at least one Fig. 11 sweep point improves *strictly*.

The search always starts from a cold in-memory cycle cache, so the
cache-traffic counters are as deterministic as the cycles.  Regenerate
``results/BENCH_tuning.json`` (held, exactly, by
``tests/test_results_ledger.py``) with::

    PYTHONPATH=src python -m benchmarks.bench_tuning

JSON schema (``schema`` = 1)::

    {
      "schema": 1, "smoke": false, "seed": 0,
      "strategy": "exhaustive", "engine_version": 2,
      "candidate_budget": null,
      "entries": [
        {"group": "paper" | "nsnet2" | "alexnet" | "fig11",
         "kernel": "...", "sizes": [..],
         "default_cycles": .., "tuned_cycles": .., "speedup": ..,
         "config": {"unroll_factor": .., "num_cores": ..},
         "pipeline_spec": "...",
         "candidates_evaluated": .., "cache_hits": ..,
         "cache_misses": .., "differential_ok": true}
      ],
      "networks": {"<name>": {"default_cycles": ..,
                              "tuned_cycles": ..}},
      "summary": {"entries": .., "improved": ..,
                  "fig11_strictly_improved": <bool>,
                  "candidates_evaluated": .., "cache_hits": ..,
                  "cache_misses": ..}
    }
"""

import numpy as np

from repro.kernels import KERNEL_BUILDERS, networks
from repro.snitch.engine import ENGINE_VERSION
from repro.snitch.machine import SnitchMachine
from repro.snitch.memory import TCDM
from repro.tune import TuneCache, schedule_table, tune_kernel
from repro.tune.schedule import resolve_kernel

from .bench_fpu_util import PAPER_KERNELS
from .bench_paper import SEED, measure, write_results

RESULTS_NAME = "BENCH_tuning.json"

#: Figure 11 sweep subset: C[1xN] = A[1xK] B[KxN].
FIG11_SUBSET = (16, 32, 48, 64)

#: Builder function name -> tuner kernel name.
_BUILDER_TO_KERNEL = {
    builder.__name__: name
    for name, (builder, _arity) in KERNEL_BUILDERS.items()
}


def differential_check(schedule) -> bool:
    """Winning schedule on both engines: identical cycles + memory.

    This is the per-result version of the differential suite: the
    predecoded engine (the tuner's oracle, checked against numpy by
    :func:`measure`) and the reference interpreter must agree on the
    tuned kernel.
    """
    builder, sizes = resolve_kernel(schedule.kernel, schedule.sizes)
    fast = measure(builder, sizes, schedule.pipeline_spec)
    memory = TCDM()
    int_args, float_args, placements = {}, {}, []
    for argument in fast.arguments:
        if isinstance(argument, np.ndarray):
            base = memory.allocate(argument.nbytes)
            memory.write_array(base, argument)
            int_args[f"a{len(int_args)}"] = base
            placements.append((base, argument))
        else:
            float_args[f"fa{len(float_args)}"] = float(argument)
            placements.append(None)
    trace = SnitchMachine(fast.compiled.program, memory).run_reference(
        fast.compiled.entry, int_args=int_args, float_args=float_args
    )
    if trace.cycles != fast.run.trace.cycles:
        return False
    if trace.cycles != schedule.cycles and schedule.config.num_cores == 1:
        return False
    return all(
        placement is None
        or np.array_equal(
            got, memory.read_array(placement[0], got.shape, got.dtype)
        )
        for got, placement in zip(fast.run.arrays, placements)
    )


def tune_entry(group, kernel, sizes, cache):
    """Tune one kernel shape and render its JSON entry."""
    result = tune_kernel(
        kernel, sizes, strategy="exhaustive", seed=SEED, cache=cache
    )
    best = result.best
    ok = differential_check(best)
    entry = {
        "group": group,
        "kernel": kernel,
        "sizes": list(sizes),
        "default_cycles": best.default_cycles,
        "tuned_cycles": best.cycles,
        "speedup": round(best.speedup, 4),
        "config": best.config.to_json(),
        "pipeline_spec": best.pipeline_spec,
        "candidates_evaluated": result.candidates_evaluated,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "differential_ok": ok,
    }
    assert best.cycles <= best.default_cycles, entry
    assert ok, f"differential mismatch for {kernel} {sizes}"
    print(
        f"{group:<8} {kernel:<12} {'x'.join(map(str, sizes)):<10} "
        f"default {best.default_cycles:>6}  tuned {best.cycles:>6}  "
        f"({best.speedup:.3f}x, {result.candidates_evaluated} cands, "
        f"{result.cache_hits} cached)"
    )
    return entry, best


def network_entries(cache):
    """Distinct NSNet2/AlexNet layer shapes + whole-network totals."""
    entries = []
    tuned = []
    nets = {
        "nsnet2": networks.nsnet2_layers(),
        "alexnet": networks.alexnet_layers(),
    }
    seen = set()
    for net_name, layers in nets.items():
        for layer in layers:
            kernel = _BUILDER_TO_KERNEL[layer.builder.__name__]
            key = (kernel, tuple(layer.sizes))
            if key in seen:
                continue
            seen.add(key)
            entry, best = tune_entry(
                net_name, kernel, layer.sizes, cache
            )
            entries.append(entry)
            tuned.append(best)
    table = schedule_table(tuned)
    totals = {}
    for net_name, layers in nets.items():
        default_run = networks.run_network(
            net_name, layers, pipeline="ours", seed=SEED
        )
        tuned_run = networks.run_network(
            net_name, layers, pipeline="ours", seed=SEED,
            schedules=table,
        )
        assert tuned_run.total_cycles <= default_run.total_cycles
        totals[net_name] = {
            "default_cycles": default_run.total_cycles,
            "tuned_cycles": tuned_run.total_cycles,
        }
        print(
            f"network  {net_name:<12} default "
            f"{default_run.total_cycles:>6}  tuned "
            f"{tuned_run.total_cycles:>6}"
        )
    return entries, totals


def run() -> dict:
    """Tune the suite; returns the results document."""
    cache = TuneCache()
    entries = [
        tune_entry("paper", kernel, sizes, cache)[0]
        for kernel, sizes in PAPER_KERNELS
    ]
    net_entries, networks_totals = network_entries(cache)
    entries.extend(net_entries)
    entries.extend(
        tune_entry("fig11", "matmul", (1, k, n), cache)[0]
        for k in FIG11_SUBSET
        for n in FIG11_SUBSET
    )
    improved = sum(
        1 for e in entries if e["tuned_cycles"] < e["default_cycles"]
    )
    fig11_strict = any(
        e["tuned_cycles"] < e["default_cycles"]
        for e in entries
        if e["group"] == "fig11"
    )
    assert fig11_strict, (
        "no Fig. 11 sweep point improved strictly — the schedule "
        "space lost its known wins"
    )
    summary = {
        "entries": len(entries),
        "improved": improved,
        "fig11_strictly_improved": fig11_strict,
        "candidates_evaluated": sum(
            e["candidates_evaluated"] for e in entries
        ),
        "cache_hits": sum(e["cache_hits"] for e in entries),
        "cache_misses": sum(e["cache_misses"] for e in entries),
    }
    print(
        f"{len(entries)} entries, {improved} improved, "
        f"{summary['cache_hits']} cache hits / "
        f"{summary['cache_misses']} misses"
    )
    return {
        "schema": 1,
        "smoke": False,
        "seed": SEED,
        "strategy": "exhaustive",
        "engine_version": ENGINE_VERSION,
        "candidate_budget": None,
        "entries": entries,
        "networks": networks_totals,
        "summary": summary,
    }


if __name__ == "__main__":
    write_results(RESULTS_NAME, run())
