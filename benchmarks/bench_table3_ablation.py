"""Table 3: the incremental optimization study on MatMul 1x200 x 200x5.

Applies the pipeline stages cumulatively — Baseline, + Streams,
+ Scalar Replacement, + FRep, + Fuse Fill, + Unroll-and-Jam — and
reports registers, executed memory operations, FMA count, static FREP
count, cycles and FPU occupancy, mirroring the paper's table row for
row.  Two extra ablations cover design choices called out in
docs/MACHINE_MODEL.md: the unroll factor (the stall cliff below
``FP_LATENCY`` = 4, §3) and the stream-pattern simplification
(configuration instruction savings, §5).
"""

import numpy as np
import pytest

from repro import api, kernels
from repro.transforms.pipelines import TABLE3_STAGES
from benchmarks.conftest import make_report_fixture

report = make_report_fixture(
    "table3_ablation.txt",
    f"{'stage':<22} {'FP':>5} {'int':>5} {'loads':>6} {'stores':>6} "
    f"{'fmadd':>6} {'frep':>5} {'cycles':>7} {'occup%':>7}",
)

SHAPE = (1, 200, 5)


def run_stage(pipeline):
    module, spec = kernels.matmul(*SHAPE)
    compiled = api.compile_linalg(module, pipeline=pipeline)
    args = spec.random_arguments(seed=0)
    result = api.run_kernel(compiled, args)
    expected = spec.reference(*args)
    np.testing.assert_allclose(result.arrays[2], expected[2], atol=1e-8)
    return compiled, result.trace


@pytest.mark.parametrize(
    "label,pipeline", TABLE3_STAGES, ids=[s[1] for s in TABLE3_STAGES]
)
def bench_stage(benchmark, report, label, pipeline):
    """One cumulative optimization stage of Table 3."""
    compiled, trace = benchmark.pedantic(
        lambda: run_stage(pipeline), rounds=1, iterations=1
    )
    fp, integer = compiled.register_usage()
    frep_static = compiled.program.static_counts().get("frep.o", 0)
    benchmark.extra_info.update(
        fp_registers=fp,
        int_registers=integer,
        loads=trace.loads,
        stores=trace.stores,
        fmadd=trace.fmadd,
        frep=frep_static,
        cycles=trace.cycles,
        occupancy=round(100 * trace.fpu_utilization, 2),
    )
    report.row(
        f"{label:<22} {fp:>2}/20 {integer:>2}/15 {trace.loads:>6} "
        f"{trace.stores:>6} {trace.fmadd:>6} {frep_static:>5} "
        f"{trace.cycles:>7} {100 * trace.fpu_utilization:>7.2f}"
    )


@pytest.mark.parametrize("factor", (1, 2, 4, 5))
def bench_unroll_factor_ablation(benchmark, report, factor):
    """docs/MACHINE_MODEL.md §3: the FPU pipeline needs an interleave of >= 4
    (paper Section 3.4); smaller factors stall on the accumulator."""

    def once():
        module, spec = kernels.matmul(1, 200, 20)
        compiled = api.compile_linalg(
            module, pipeline="ours", unroll_factor=factor
        )
        result = api.run_kernel(compiled, spec.random_arguments(seed=0))
        return result.trace

    trace = benchmark.pedantic(once, rounds=1, iterations=1)
    benchmark.extra_info.update(
        cycles=trace.cycles,
        occupancy=round(100 * trace.fpu_utilization, 2),
        stalls=trace.fpu_stall_cycles,
    )
    report.row(
        f"unroll factor {factor:<8} {'':>5} {'':>5} {'':>6} {'':>6} "
        f"{'':>6} {'':>5} {trace.cycles:>7} "
        f"{100 * trace.fpu_utilization:>7.2f}"
    )


def bench_stream_config_simplification(benchmark, report):
    """docs/MACHINE_MODEL.md §5: contiguous-dim collapsing and the zero-stride
    repetition keep the stream setup short — count the scfgwi writes the
    full MatMul kernel needs (2 per hardware dim + repeat + pointer)."""

    def once():
        module, _ = kernels.matmul(*SHAPE)
        compiled = api.compile_linalg(module, pipeline="ours")
        return compiled.program.static_counts()

    counts = benchmark.pedantic(once, rounds=1, iterations=1)
    scfgwi = counts.get("scfgwi", 0)
    benchmark.extra_info["scfgwi_instructions"] = scfgwi
    report.row(f"scfgwi after simplification: {scfgwi}")
    # 3 streams, each collapsed to one hardware dim (+ repeat + ptr):
    # well under the 3 * (2*4 + 2) = 30 an unsimplified config needs.
    assert scfgwi <= 12
