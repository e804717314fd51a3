"""The paper-results ledger: every figure and table of the evaluation.

One runner for Section 4 of the paper.  The six experiments — Fig. 9
(handwritten dialect-level kernels), Fig. 10 (compiler vs. the
Clang/MLIR flows), Fig. 11 (MatMul roofline sweep), Table 2 (spill-free
register allocation), Table 3 (the incremental ablation) and the
NSNet2/AlexNet kernel mixes — are stated as *data*: rows of
``(cell, point, builder, sizes, pipeline)``.  Every row goes through
one :func:`measure` (build, compile, simulate on seed 0, check against
numpy) and lands, with the deterministic trace fields, in one committed
file, ``results/BENCH_paper.json``.  Nothing in that file depends on
the host: no timestamps, no wall-clock, sorted keys — so
``tests/test_results_ledger.py`` regenerates it and compares *exactly*,
cell by cell.  A change that moves a cycle count regenerates the file
and the JSON diff is part of its review::

    PYTHONPATH=src python -m benchmarks.bench_paper

prints the human-readable tables and rewrites the file.
``bench_fpu_util`` and ``bench_tuning`` share :func:`measure` and
:func:`write_results` and are held by the same test.

The paper's claims are asserted where the numbers are made: each
experiment's table function raises if its claim fails (Fig. 11 past 90 %
of the roofline and growing, Table 2 inside the 20 FP / 15 int budget,
...), so a regenerated ledger that lost a claim is never written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro import api, kernels
from repro.compiler import CompiledKernel, artifact_versions
from repro.kernels import lowlevel, networks
from repro.transforms.pipelines import TABLE3_STAGES

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
RESULTS_NAME = "BENCH_paper.json"

#: Seeds the input data of every measurement.
SEED = 0

#: ``pipeline`` of a handwritten rv/rv_snitch/snitch_stream kernel:
#: only the backend passes run (``api.compile_lowlevel``).
LOWLEVEL = "lowlevel"


@dataclass
class Measured:
    """One kernel built, compiled, simulated and checked."""

    compiled: CompiledKernel
    arguments: list
    run: api.KernelRun

    def fields(self) -> dict:
        """The deterministic numbers a ledger cell records."""
        trace = self.run.trace
        fp, integer = self.compiled.register_usage()
        static = self.compiled.program.static_counts()
        return {
            "cycles": trace.cycles,
            "fpu_arith_cycles": trace.fpu_arith_cycles,
            "fpu_stall_cycles": trace.fpu_stall_cycles,
            "fpu_utilization": trace.fpu_utilization,
            "flops": trace.flops,
            "flops_per_cycle": trace.throughput,
            "loads": trace.loads,
            "stores": trace.stores,
            "fmadd": trace.fmadd,
            # Static counts over the emitted assembly (Table 3's
            # "FRep" column; the stream-configuration ablation).
            "frep": static.get("frep.o", 0),
            "scfgwi": static.get("scfgwi", 0),
            "fp_registers": fp,
            "int_registers": integer,
        }


def measure(
    builder: Callable,
    sizes: tuple[int, ...],
    pipeline: str,
    unroll_factor: int | None = None,
    profile: bool = False,
) -> Measured:
    """Build → compile → simulate on ``SEED`` → check against numpy.

    ``pipeline`` is a named pipeline, a raw pipeline spec, or
    :data:`LOWLEVEL`.  Every output is compared with the kernel's numpy
    reference (``KernelSpec.check``, whose tolerance follows the
    dtype: the 32-bit packed-SIMD kernels' sums round per lane).
    """
    module, spec = builder(*sizes)
    if pipeline == LOWLEVEL:
        compiled = api.compile_lowlevel(module, spec.name)
    else:
        compiled = api.compile_linalg(
            module, pipeline=pipeline, unroll_factor=unroll_factor
        )
    arguments = spec.random_arguments(seed=SEED)
    run = api.run_kernel(compiled, arguments, profile=profile)
    spec.check(arguments, run.arrays)
    return Measured(compiled, arguments, run)


def render(document: dict) -> str:
    """The exact bytes of a results file."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def write_results(name: str, document: dict) -> Path:
    """The one writer of ``results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(render(document))
    print(f"wrote {path}")
    return path


# -- the experiments, as data ---------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One measurement: ``cells[cell][point] = measure(...).fields()``."""

    cell: str
    point: str
    builder: Callable
    sizes: tuple[int, ...]
    pipeline: str
    unroll_factor: int | None = None


FLOWS = ("ours", "clang", "mlir")

#: Fig. 9 series: (name, builder, swept sizes, swept value -> shape).
_FIG9_SERIES = (
    ("sum32_mx40", lowlevel.lowlevel_sum_f32, (8, 16, 24, 32, 40),
     lambda m: (m, 40)),
    ("sum32_40xn", lowlevel.lowlevel_sum_f32, (8, 16, 24, 32, 40),
     lambda n: (40, n)),
    ("relu32_mx40", lowlevel.lowlevel_relu_f32, (8, 16, 24, 32, 40),
     lambda m: (m, 40)),
    ("relu32_40xn", lowlevel.lowlevel_relu_f32, (8, 16, 24, 32, 40),
     lambda n: (40, n)),
    # MatMulT 1xK * (NxK)^T; the builder takes (K, N).
    ("matmul_t32_1xk_40xk", lowlevel.lowlevel_matmul_t_f32,
     (4, 8, 12, 16, 20), lambda k: (k, 40)),
    ("matmul_t32_1x20_nx20", lowlevel.lowlevel_matmul_t_f32,
     (8, 16, 24, 32, 40), lambda n: (20, n)),
)

FIG9 = [
    Case(f"{series}[{value}]", LOWLEVEL, builder, shape(value), LOWLEVEL)
    for series, builder, values, shape in _FIG9_SERIES
    for value in values
]

_FIG10_KERNELS = {
    "conv3x3": kernels.conv3x3,
    "fill": kernels.fill,
    "max_pool3x3": kernels.max_pool3x3,
    "relu": kernels.relu,
    "sum": kernels.sum_kernel,
    "sum_pool3x3": kernels.sum_pool3x3,
}

FIG10 = [
    Case(f"{orientation}[{name}-{size}]", flow, builder, shape(size), flow)
    for orientation, shape in (
        ("mx20", lambda size: (size, 20)),
        ("20xn", lambda size: (20, size)),
    )
    for name, builder in _FIG10_KERNELS.items()
    for size in (4, 8, 12, 16, 20)
    for flow in FLOWS
]

#: Fig. 11: C[1xN] = A[1xK] B[KxN] over N, K in {4, 8, ..., 64}.
FIG11_GRID = tuple(range(4, 65, 4))

FIG11 = [
    Case("full_sweep", f"n{n}_k{k}", kernels.matmul, (1, k, n), "ours")
    for k in FIG11_GRID
    for n in FIG11_GRID
]

TABLE2 = [
    Case(f"f64_registers[{name}]", "ours", builder, shape, "ours")
    for name, builder, shape in (
        ("fill", kernels.fill, (4, 4)),
        ("relu", kernels.relu, (4, 4)),
        ("sum", kernels.sum_kernel, (4, 4)),
        ("max_pool3x3", kernels.max_pool3x3, (4, 4)),
        ("sum_pool3x3", kernels.sum_pool3x3, (4, 4)),
        ("conv3x3", kernels.conv3x3, (4, 4)),
        ("matmul", kernels.matmul, (4, 16, 8)),
    )
] + [
    Case(f"f32_registers[{name}]", LOWLEVEL, builder, shape, LOWLEVEL)
    for name, builder, shape in (
        ("relu32", lowlevel.lowlevel_relu_f32, (4, 8)),
        ("sum32", lowlevel.lowlevel_sum_f32, (4, 8)),
        ("matmul_t32", lowlevel.lowlevel_matmul_t_f32, (16, 16)),
    )
]

#: Table 3's kernel: MatMul 1x200 x 200x5.
_TABLE3_SHAPE = (1, 200, 5)

TABLE3 = (
    [
        Case(f"stage[{stage}]", stage, kernels.matmul, _TABLE3_SHAPE, stage)
        for _label, stage in TABLE3_STAGES
    ]
    # docs/MACHINE_MODEL.md §3: the FPU pipeline needs an interleave of
    # >= 4 (paper Section 3.4); smaller factors stall on the accumulator.
    + [
        Case(
            f"unroll_factor_ablation[{factor}]", "ours",
            kernels.matmul, (1, 200, 20), "ours", unroll_factor=factor,
        )
        for factor in (1, 2, 4, 5)
    ]
    # docs/MACHINE_MODEL.md §5: contiguous-dim collapsing and the
    # zero-stride repetition keep the stream set-up short.
    + [
        Case(
            "stream_config_simplification", "ours",
            kernels.matmul, _TABLE3_SHAPE, "ours",
        )
    ]
)

_NETWORKS = {
    "AlexNet": networks.alexnet_layers,
    "NSNet2": networks.nsnet2_layers,
}

NETWORKS = [
    Case(
        f"network[{name}]", f"{flow}/{layer.name}",
        layer.builder, layer.sizes, flow,
    )
    for name, layers in _NETWORKS.items()
    for flow in FLOWS
    for layer in layers()
]


# -- the tables (and the paper's claims) ----------------------------------------


def _table(header: str, rows: list[str]) -> list[str]:
    return [header, "-" * len(header), *rows]


def _fig9(cells: dict) -> tuple[dict, list[str]]:
    """FPU utilization / throughput / cycles of the f32 kernels."""
    points = {cell: cells[cell][LOWLEVEL] for cell in cells}
    rows = []
    for cell, point in points.items():
        # Packed SIMD peaks at 2 FLOPs/cycle, vfmac at 4.
        peak = 4.0 if cell.startswith("matmul_t32") else 2.0
        rows.append(
            f"{cell:<26} {point['cycles']:>7} "
            f"{point['fpu_utilization']:>6.1%} "
            f"{point['flops_per_cycle']:>8.2f} "
            f"{100 * point['flops_per_cycle'] / peak:>9.1f}"
        )
    header = (
        f"{'kernel':<26} {'cycles':>7} {'util':>6} {'FLOP/cyc':>8} "
        f"{'roofline%':>9}"
    )
    return {
        "max_fpu_utilization": max(
            point["fpu_utilization"] for point in points.values()
        ),
        "max_flops_per_cycle": max(
            point["flops_per_cycle"] for point in points.values()
        ),
    }, _table(header, rows)


def _fig10(cells: dict) -> tuple[dict, list[str]]:
    """FPU utilization of the three flows of paper Figure 8."""
    rows = [
        f"{cell:<22} "
        + " ".join(
            f"{points[flow]['fpu_utilization']:>6.1%}" for flow in FLOWS
        )
        for cell, points in cells.items()
    ]
    header = (
        f"{'kernel':<22} "
        + " ".join(f"{flow:>6}" for flow in FLOWS)
        + "   (FPU util)"
    )
    return {
        "max_fpu_utilization": {
            flow: max(
                points[flow]["fpu_utilization"] for points in cells.values()
            )
            for flow in FLOWS
        }
    }, _table(header, rows)


def _fig11(cells: dict) -> tuple[dict, list[str]]:
    """% of the 2 FLOPs/cycle FMA roofline over the (N, K) grid."""
    points = cells["full_sweep"]
    grid = {
        (n, k): 100 * points[f"n{n}_k{k}"]["flops_per_cycle"] / 2.0
        for k in FIG11_GRID
        for n in FIG11_GRID
    }
    # Paper: >90% past the size frontier, growth in both axes.
    assert grid[(64, 64)] > 90.0, grid[(64, 64)]
    assert grid[(4, 4)] < grid[(32, 32)] < grid[(64, 64)]
    over_90 = sum(1 for value in grid.values() if value >= 90.0)
    summary = {
        "points": len(grid),
        "points_over_90_percent": over_90,
        "max_percent": round(max(grid.values()), 1),
        "min_percent": round(min(grid.values()), 1),
    }
    lines = [
        "Sustained 64-bit MatMul throughput, % of the 2 FLOP/cycle "
        "roofline",
        "K\\N " + " ".join(f"{n:>5}" for n in FIG11_GRID),
    ]
    for k in FIG11_GRID:
        row = " ".join(f"{grid[(n, k)]:5.1f}" for n in FIG11_GRID)
        lines.append(f"{k:>3} {row}")
    lines.append(
        f"{over_90}/{len(grid)} points at or above 90% of the roofline"
    )
    return summary, lines


def _table2(cells: dict) -> tuple[dict, list[str]]:
    """Distinct FP / integer registers in the final IR."""
    rows = []
    summary = {"max_fp_registers": 0, "max_int_registers": 0}
    for cell, points in cells.items():
        (point,) = points.values()
        fp, integer = point["fp_registers"], point["int_registers"]
        # The spill-free budget: 20 FP + 15 integer caller-saved.
        assert fp <= 20 and integer <= 15, (cell, fp, integer)
        summary["max_fp_registers"] = max(summary["max_fp_registers"], fp)
        summary["max_int_registers"] = max(
            summary["max_int_registers"], integer
        )
        rows.append(f"{cell:<28} {fp:>4}/20 {integer:>4}/15")
    header = f"{'kernel':<28} {'FP':>7} {'int':>7}"
    return summary, _table(header, rows)


def _table3(cells: dict) -> tuple[dict, list[str]]:
    """The cumulative optimization study, row for row."""
    rows = []
    for cell, points in cells.items():
        (p,) = points.values()
        rows.append(
            f"{cell:<30} {p['fp_registers']:>2}/20 "
            f"{p['int_registers']:>2}/15 {p['loads']:>6} "
            f"{p['stores']:>6} {p['fmadd']:>6} {p['frep']:>5} "
            f"{p['fpu_stall_cycles']:>6} {p['cycles']:>7} "
            f"{100 * p['fpu_utilization']:>7.2f}"
        )
    scfgwi = cells["stream_config_simplification"]["ours"]["scfgwi"]
    # 3 streams, each collapsed to one hardware dim (+ repeat + ptr):
    # well under the 3 * (2*4 + 2) = 30 an unsimplified config needs.
    assert scfgwi <= 12, scfgwi
    rows.append(f"scfgwi after simplification: {scfgwi}")
    header = (
        f"{'stage':<30} {'FP':>5} {'int':>5} {'loads':>6} {'stores':>6} "
        f"{'fmadd':>6} {'frep':>5} {'stalls':>6} {'cycles':>7} "
        f"{'occup%':>7}"
    )
    first, last = TABLE3_STAGES[0][1], TABLE3_STAGES[-1][1]
    return {
        "scfgwi_instructions": scfgwi,
        "speedup_baseline_to_final": round(
            cells[f"stage[{first}]"][first]["cycles"]
            / cells[f"stage[{last}]"][last]["cycles"],
            2,
        ),
    }, _table(header, rows)


def _networks(cells: dict) -> tuple[dict, list[str]]:
    """End-to-end cycles and cycle-weighted utilization per flow."""
    summary: dict = {}
    rows = []
    for cell, points in cells.items():
        totals = {}
        for flow in FLOWS:
            layers = [
                point
                for name, point in points.items()
                if name.startswith(f"{flow}/")
            ]
            cycles = sum(layer["cycles"] for layer in layers)
            busy = sum(layer["fpu_arith_cycles"] for layer in layers)
            totals[flow] = {
                "total_cycles": cycles,
                "mean_utilization": busy / cycles,
            }
        for flow, total in totals.items():
            total["speedup_vs_clang"] = round(
                totals["clang"]["total_cycles"] / total["total_cycles"], 2
            )
            rows.append(
                f"{cell:<18} {flow:<7} {total['total_cycles']:>9} "
                f"{total['mean_utilization']:>10.1%} "
                f"{total['speedup_vs_clang']:>7.2f}x"
            )
        ours = totals["ours"]
        assert ours["total_cycles"] < totals["mlir"]["total_cycles"], cell
        assert ours["mean_utilization"] > 0.7, cell
        summary[cell] = totals
    header = (
        f"{'network':<18} {'flow':<7} {'cycles':>9} {'mean util':>10} "
        f"{'speedup':>8}"
    )
    return summary, _table(header, rows)


#: experiment -> (its cases, its table-and-claims function).
EXPERIMENTS = {
    "fig9": (FIG9, _fig9),
    "fig10": (FIG10, _fig10),
    "fig11": (FIG11, _fig11),
    "table2": (TABLE2, _table2),
    "table3": (TABLE3, _table3),
    "networks": (NETWORKS, _networks),
}


def run() -> dict:
    """Measure every case; returns the results document."""
    engine_version, compiler_version = artifact_versions()
    experiments = {}
    for name, (cases, table) in EXPERIMENTS.items():
        cells: dict = {}
        for case in cases:
            cells.setdefault(case.cell, {})[case.point] = measure(
                case.builder,
                case.sizes,
                case.pipeline,
                unroll_factor=case.unroll_factor,
            ).fields()
        summary, _lines = table(cells)
        experiments[name] = {"cells": cells, "summary": summary}
    return {
        "schema": 1,
        "seed": SEED,
        "engine_version": engine_version,
        "compiler_version": compiler_version,
        "experiments": experiments,
    }


def tables(document: dict) -> str:
    """The human-readable tables of a results document."""
    blocks = []
    for name, (_cases, table) in EXPERIMENTS.items():
        _summary, lines = table(document["experiments"][name]["cells"])
        blocks.append("\n".join([f"== {name} ==", *lines]))
    return "\n\n".join(blocks)


if __name__ == "__main__":
    document = run()
    print(tables(document))
    write_results(RESULTS_NAME, document)
