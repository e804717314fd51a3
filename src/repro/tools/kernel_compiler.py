"""Command-line micro-kernel compiler.

Compile a kernel from the Table 1 suite through any named pipeline —
or any raw textual pipeline spec — print the assembly and (optionally)
simulate and validate it::

    python -m repro.tools.kernel_compiler matmul 1 200 5 \\
        --pipeline ours --run
    python -m repro.tools.kernel_compiler conv3x3 8 20 \\
        --pipeline clang --run --compare ours
    python -m repro.tools.kernel_compiler matvec 5 200 --show-stages
    python -m repro.tools.kernel_compiler conv3x3 8 8 --count-bytecodes
    python -m repro.tools.kernel_compiler --list-pipelines
    python -m repro.tools.kernel_compiler sum 4 4 --pipeline \\
        "convert-linalg-to-memref-stream,lower-to-snitch{use-frep=false},\\
verify-streams,lower-snitch-stream,canonicalize,dce,\\
allocate-registers,lower-riscv-scf,eliminate-identity-moves"

This is the reproduction's equivalent of the paper artifact's
per-experiment scripts (Section A.7).
"""

from __future__ import annotations

import argparse
import sys

from .. import api, kernels
from ..compiler import Compiler
from ..ir.core import IRError
from ..kernels.builders import OracleMismatch
from ..ir.pass_manager import PrintIRInstrumentation
from ..obs.hostprof import BytecodeCounter
from ..ir.pipeline_spec import PipelineSpecError
from ..tune.schedule import ScheduleError, resolve_kernel

#: Kernel name -> (builder, number of size arguments) — the shared
#: Table 1 registry (also used by the autotuner CLI).
KERNEL_BUILDERS = kernels.KERNEL_BUILDERS


def build_argument_parser() -> argparse.ArgumentParser:
    """The tool's CLI schema."""
    from ..transforms.pipelines import PIPELINE_NAMES

    parser = argparse.ArgumentParser(
        prog="repro-kernel-compiler",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "kernel",
        nargs="?",
        choices=sorted(KERNEL_BUILDERS),
        help="kernel name",
    )
    parser.add_argument(
        "sizes", type=int, nargs="*", help="shape sizes (kernel-specific)"
    )
    parser.add_argument(
        "--pipeline",
        default="ours",
        metavar="NAME_OR_SPEC",
        help="compilation flow: a named pipeline "
        f"({', '.join(PIPELINE_NAMES)}) or a raw pipeline-spec string "
        'like "convert-linalg-to-memref-stream,...,unroll-and-jam'
        '{factor=4},..." (default: ours)',
    )
    parser.add_argument(
        "--list-pipelines",
        action="store_true",
        help="print each named pipeline's expanded spec and exit",
    )
    parser.add_argument(
        "--list-dialects",
        action="store_true",
        help="print each registered dialect (name, op count, one-line "
        "doc) and exit",
    )
    parser.add_argument(
        "--unroll-factor",
        type=int,
        default=None,
        help="override the automatic unroll-and-jam factor",
    )
    parser.add_argument(
        "--run",
        action="store_true",
        help="simulate on the Snitch model and validate against numpy",
    )
    parser.add_argument(
        "--compare",
        metavar="PIPELINE",
        default=None,
        help="also compile+run with another pipeline and compare",
    )
    parser.add_argument(
        "--show-stages",
        action="store_true",
        help="print the IR after every pass (progressive lowering)",
    )
    parser.add_argument(
        "--print-ir-after-all",
        action="store_true",
        help="stream the IR after each pass as it runs (pass-manager "
        "instrumentation; unlike --show-stages, printing interleaves "
        "with compilation)",
    )
    parser.add_argument(
        "--count-bytecodes",
        action="store_true",
        help="print the compile's Python bytecodes per pass, then per "
        "post-pass verify, then the unattributed residual",
    )
    parser.add_argument(
        "--time-passes",
        action="store_true",
        help="print a per-pass table of wall-clock time and rewrite-"
        "driver counters (ops visited, pattern invocations, rewrites)",
    )
    parser.add_argument(
        "--no-asm", action="store_true", help="do not print the assembly"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="input data seed"
    )
    return parser


def list_pipelines() -> None:
    """Print each named pipeline's expanded spec."""
    from ..transforms.pipelines import NAMED_PIPELINES

    width = max(map(len, NAMED_PIPELINES))
    for name in sorted(NAMED_PIPELINES):
        print(f"{name:<{width}}  {NAMED_PIPELINES[name]}")


def list_dialects() -> None:
    """Print each registered dialect: name, op count, one-line doc."""
    from ..ir import op_registry

    dialects = op_registry.dialects()
    width = max(len(d.name) for d in dialects)
    for dialect in dialects:
        count = f"{len(dialect.ops):3} ops"
        print(f"{dialect.name:<{width}}  {count}  {dialect.doc}")


def compile_kernel(
    name, sizes, pipeline, unroll_factor, show_stages, print_ir=False,
    count_bytecodes=False,
):
    """Build + compile; returns (spec, compiled).  ``count_bytecodes``
    prints the compile's bytecode table (and wins over ``print_ir``)."""
    try:
        builder, sizes = resolve_kernel(name, sizes)
    except ScheduleError as error:
        raise SystemExit(str(error))
    module, spec = builder(*sizes)
    instrument = PrintIRInstrumentation() if print_ir else None
    if count_bytecodes:
        instrument = BytecodeCounter()
    try:
        compiler = Compiler(
            pipeline,
            unroll_factor=unroll_factor,
            snapshots=show_stages,
            instrument=instrument,
        )
    except PipelineSpecError as error:
        raise SystemExit(f"bad --pipeline: {error}")
    try:
        if count_bytecodes:
            compiled = instrument.count(compiler.compile, module)
            print(instrument.report())
        else:
            compiled = compiler.compile(module)
    except (IRError, ValueError) as error:
        # e.g. a LoweringError: a backend-only pipeline over a
        # linalg-level kernel produces no rv_func.func entry.
        raise SystemExit(f"compilation failed: {error}")
    return spec, compiled


def print_pass_timings(compiled) -> None:
    """The per-pass wall-clock + rewrite-counter table (--time-passes).

    ``pass_timings`` and ``pass_stats`` are parallel lists (one entry
    per executed pass, in order), so rows are zipped — a pipeline may
    legitimately run the same pass name more than once.
    """
    width = max(
        [len(name) for name, _ in compiled.pass_timings] + [4]
    )
    header = (
        f"{'pass':<{width}} {'seconds':>10} {'visited':>8} "
        f"{'invoked':>8} {'rewrites':>8}"
    )
    print("=== compile-time per pass ===")
    print(header)
    print("-" * len(header))
    total = 0.0
    for (name, seconds), (_, stats) in zip(
        compiled.pass_timings, compiled.pass_stats
    ):
        total += seconds
        print(
            f"{name:<{width}} {seconds:>10.6f} "
            f"{stats.get('ops_visited', 0):>8} "
            f"{stats.get('pattern_invocations', 0):>8} "
            f"{stats.get('rewrites_applied', 0):>8}"
        )
    print("-" * len(header))
    print(f"{'total':<{width}} {total:>10.6f}")


def report_run(spec, compiled, seed: int) -> "api.KernelRun":
    """Simulate, validate and print the paper's metrics."""
    arguments = spec.random_arguments(seed=seed)
    result = api.run_kernel(compiled, arguments)
    try:
        spec.check(arguments, result.arrays)
    except OracleMismatch as error:
        raise SystemExit(f"numpy check failed: {error}")
    trace = result.trace
    fp, integer = compiled.register_usage()
    print(f"cycles:          {trace.cycles}")
    print(f"throughput:      {trace.throughput:.3f} FLOPs/cycle")
    print(f"fpu utilization: {trace.fpu_utilization:.1%}")
    print(f"loads/stores:    {trace.loads}/{trace.stores}")
    print(f"registers:       {fp}/20 FP, {integer}/15 int")
    print("numpy check:     OK")
    return result


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_argument_parser()
    args = parser.parse_args(argv)
    if args.list_pipelines:
        list_pipelines()
        return 0
    if args.list_dialects:
        list_dialects()
        return 0
    if args.kernel is None:
        parser.error(
            "a kernel name is required (or --list-pipelines / "
            "--list-dialects)"
        )
    spec, compiled = compile_kernel(
        args.kernel,
        args.sizes,
        args.pipeline,
        args.unroll_factor,
        args.show_stages,
        print_ir=args.print_ir_after_all,
        count_bytecodes=args.count_bytecodes,
    )
    if args.show_stages:
        for name, text in compiled.snapshots:
            print(f"// ===== after {name} =====")
            print(text)
    if args.time_passes:
        print_pass_timings(compiled)
    if not args.no_asm:
        print(compiled.asm)
    if args.run or args.compare:
        print(f"--- {args.pipeline} ---")
        base = report_run(spec, compiled, args.seed)
        if args.compare:
            other_spec, other = compile_kernel(
                args.kernel,
                args.sizes,
                args.compare,
                args.unroll_factor,
                False,
            )
            print(f"--- {args.compare} ---")
            other_run = report_run(other_spec, other, args.seed)
            speedup = other_run.trace.cycles / base.trace.cycles
            print(
                f"{args.pipeline} is {speedup:.2f}x faster than "
                f"{args.compare}"
                if speedup > 1
                else f"{args.compare} is {1 / speedup:.2f}x faster "
                f"than {args.pipeline}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
