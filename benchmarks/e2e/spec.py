"""The benchmark's contract as data: workloads, metrics, bounds.

``BENCHMARK.json`` at the repo root is :func:`benchmark_json` written
out (a test holds the two together); ``run.py`` emits exactly these
metric names, ``compare.py`` judges by these bounds.
"""

from __future__ import annotations

#: name -> why the workload exists (one line each).
WORKLOADS = {
    "compile_suite": (
        "IR text -> parse -> Compiler(pipeline).compile -> assemble "
        "over 38 shapes x 9 pipelines: ir, transforms and backend do "
        "all the work, the simulator none"
    ),
    "sim_sweep": (
        "api.run_kernel of 30 precompiled kernels, one per fast-engine "
        "path (FREP+SSR, scalar loop, branchy, packed SIMD, 4-core) "
        "plus the NSNet2/AlexNet layers: compiler work is all in set-up"
    ),
    "profile_sweep": (
        "the same kernels through run_kernel(profile=True): reference "
        "interpreter + cycle profiler, the path a fast-engine gain "
        "must not move"
    ),
    "tune_search": (
        "exhaustive tune_kernel on a fresh cache then on the warm one, "
        "per shape: half compile, half simulate, plus the search and "
        "cache layers"
    ),
    "service_mix": (
        "ServiceClient.submit over a Unix socket to a one-worker "
        "server, exactly 75% store hits: the shell (wire, keying, "
        "store get and put); p50 is the hit path, p90 the computed one"
    ),
}
WORKLOAD_NAMES = tuple(WORKLOADS)

EXACT = 1e-9
#: How long one run's timed section measures.
RUN_SECONDS = 10

#: name -> (unit, better, regression bound as a share of the parent).
#: Times are calibrated (see README): seconds on a machine that runs
#: the calibration loop in its nominal 20 ms.
END_TO_END = {
    "setup_s": ("s", "lower", 0.15),
    "jobs_per_s": ("1/s", "higher", 0.10),
    "job_ms_p50": ("ms", "lower", 0.10),
    "job_ms_p90": ("ms", "lower", 0.15),
    "host_bytecodes": ("count", "lower", 0.005),
    "ours_cycles_total": ("cycles", "lower", EXACT),
    "ours_fpu_util_mean": ("fraction", "higher", EXACT),
    "peak_rss_mb": ("MiB", "lower", 0.10),
}

PASSES = (
    "allocate-registers",
    "canonicalize",
    "convert-linalg-to-memref-stream",
    "convert-to-riscv",
    "dce",
    "eliminate-identity-moves",
    "fuse-fill",
    "fuse-fmadd",
    "interchange",
    "lower-generic-to-loops",
    "lower-generic-to-pointer-loops",
    "lower-riscv-scf",
    "lower-snitch-stream",
    "lower-to-snitch",
    "scalar-replacement",
    "unroll-and-jam",
    "verify-streams",
)
PIPELINES = (
    "ours",
    "table3-baseline",
    "table3-streams",
    "table3-scalar",
    "table3-frep",
    "table3-fuse",
    "table3-unroll",
    "clang",
    "mlir",
)
BUCKETS = (
    "fpu_arith",
    "fpu_nonarith",
    "fpu_stall",
    "int_core",
    "ssr_wait",
    "branch_bubble",
)


def _per_layer() -> dict:
    ms = ("ms", "lower")
    count_down = ("count", "lower")
    layers = {
        "kernels.build_ms": ms,
        "ir.parse_ms": ms,
        "ir.print_ms": ms,
        "ir.verify_ms": ms,
        "ir.parse_ops_per_s": ("1/s", "higher"),
        "compiler.setup_ms": ms,
    }
    for name in PASSES:
        layers[f"pass.{name}.ms"] = ms
        layers[f"pass.{name}.rewrites"] = ("count", "higher")
        layers[f"pass.{name}.ops_after"] = count_down
    layers.update({
        "backend.emit_ms": ms,
        "backend.asm_insts": count_down,
        "backend.fp_regs_max": count_down,
        "backend.int_regs_max": count_down,
        "snitch.assemble_ms": ms,
        "snitch.decode_ms": ms,
        "snitch.run_ms": ms,
        "snitch.run_minst_per_s": ("Minst/s", "higher"),
        "snitch.sim_insts": count_down,
        "snitch.ref_ms": ms,
        "snitch.ref_minst_per_s": ("Minst/s", "higher"),
        "snitch.tcdm_io_ms": ms,
        "snitch.cluster_ms": ms,
        "obs.profiler_ms": ms,
        "obs.profile_slowdown": ("ratio", "lower"),
    })
    for name in BUCKETS:
        layers[f"cycles.{name}"] = ("cycles", "lower")
    for name in PIPELINES:
        layers[f"cycles.pipeline.{name}"] = ("cycles", "lower")
    for name in PIPELINES:
        layers[f"fpu_util.pipeline.{name}"] = ("fraction", "higher")
    layers.update({
        "tune.candidates": count_down,
        "tune.candidates_per_s": ("1/s", "higher"),
        "tune.eval_ms": ms,
        "tune.search_overhead_ms": ms,
        "tune.cache_hits": ("count", "higher"),
        "tune.cache_io_ms": ms,
        "tune.warm_call_ms_p50": ms,
        "tune.improved": ("count", "higher"),
        "tune.speedup_geomean": ("ratio", "higher"),
        "tune.default_cycles_total": ("cycles", "lower"),
        "service.hit_ms_p50": ms,
        "service.computed_ms_p50": ms,
        "service.hit_share": ("fraction", "higher"),
        "service.client_self_ms": ms,
        "service.server_self_ms": ms,
        "service.worker_self_ms": ms,
        "service.retries": count_down,
        "service.faults": count_down,
        "service.server_rss_mb": ("MiB", "lower"),
        "store.put_ms_p50": ms,
        "store.get_ms_p50": ms,
        "store.bytes": ("B", "lower"),
        "store.artifacts": count_down,
        "trace.overhead_ratio": ("ratio", "higher"),
        "unattributed_share": ("fraction", "lower"),
        "cal.factor_median": ("ratio", "higher"),
        "cal.factor_spread": ("fraction", "lower"),
        "cal.discarded_chunks": count_down,
        "raw.jobs_per_s": ("1/s", "higher"),
    })
    return layers


#: name -> (unit, better).  Module names are the layer names; ``*_ms``
#: and ``*.ms`` are calibrated self time per round of the traced run.
PER_LAYER = _per_layer()

#: Span name -> the per-layer metric its self time is booked to.  The
#: first block are the benchmark's own spans, the second the spans
#: ``src/`` already emits (read through ``repro.obs.tracing``).
SPAN_METRIC = {
    "kernels.build": "kernels.build_ms",
    "ir.parse": "ir.parse_ms",
    "ir.print": "ir.print_ms",
    "ir.verify": "ir.verify_ms",
    "compiler.setup": "compiler.setup_ms",
    "backend.emit": "backend.emit_ms",
    "snitch.assemble": "snitch.assemble_ms",
    "snitch.decode": "snitch.decode_ms",
    "snitch.run": "snitch.run_ms",
    "snitch.ref": "snitch.ref_ms",
    "snitch.tcdm_io": "snitch.tcdm_io_ms",
    "snitch.cluster": "snitch.cluster_ms",
    "obs.profiler": "obs.profiler_ms",
    "tune.call": "tune.search_overhead_ms",
    "tune.warm_call": "tune.search_overhead_ms",
    "tune.cache_io": "tune.cache_io_ms",
    "service.client": "service.client_self_ms",
    "engine.decode": "snitch.decode_ms",
    "sim.run": "snitch.run_ms",
    "sim.run_reference": "snitch.ref_ms",
    "tune.search": "tune.search_overhead_ms",
    "tune.candidate": "tune.eval_ms",
    "client.submit": "service.client_self_ms",
    "server.submit": "service.server_self_ms",
    "worker.job": "service.worker_self_ms",
}


def span_metric(name: str) -> str:
    """The metric a span's self time belongs to; the root ``job``
    span and any span this table does not know are unattributed."""
    if name.startswith("pass."):
        metric = f"pass.{name[5:]}.ms"
        if metric in PER_LAYER:
            return metric
    return SPAN_METRIC.get(name, "unattributed_share")


def benchmark_json() -> dict:
    """The root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why}
            for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }
