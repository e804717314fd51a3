"""Command-line cycle-attribution profiler (paper Table 1 methodology).

Compile a Table 1 kernel through any pipeline, run it on the
simulator's fast engine with the cycle profiler attached, and report
where every cycle went — FPU arithmetic, FPU stalls, integer core,
SSR drain waits, branch bubbles — split by region (FREP body vs.
scalar code)::

    python -m repro.tools.kernel_profiler matmul 1 200 5
    python -m repro.tools.kernel_profiler conv3x3 8 8 \\
        --pipeline table3-scalar --regions
    python -m repro.tools.kernel_profiler relu 8 16 \\
        --json profile.json --trace trace.json

``--json`` writes the machine-readable profile (buckets sum exactly
to total cycles — the profiler's partition invariant).  ``--trace``
writes a Chrome trace-event file of the compile + run spans — load it
at https://ui.perfetto.dev.  Both accept ``-`` for stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

import numpy as np

from .. import api, kernels
from ..ir.core import IRError
from ..ir.pipeline_spec import PipelineSpecError
from ..obs.tracing import TraceRecorder, recording, span
from ..tune.schedule import ScheduleError, resolve_kernel

KERNEL_BUILDERS = kernels.KERNEL_BUILDERS


def build_argument_parser() -> argparse.ArgumentParser:
    """The tool's CLI schema."""
    from ..transforms.pipelines import PIPELINE_NAMES

    parser = argparse.ArgumentParser(
        prog="repro-kernel-profiler",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "kernel",
        choices=sorted(KERNEL_BUILDERS),
        help="kernel name (Table 1 suite)",
    )
    parser.add_argument(
        "sizes", type=int, nargs="*",
        help="shape sizes (kernel-specific)",
    )
    parser.add_argument(
        "--pipeline", default="ours", metavar="NAME_OR_SPEC",
        help="named pipeline or raw pass spec (default: ours; "
        f"names: {', '.join(PIPELINE_NAMES)})",
    )
    parser.add_argument(
        "--unroll", type=int, default=None, metavar="N",
        help="unroll-and-jam factor override",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="input-data seed (default: 0)",
    )
    parser.add_argument(
        "--no-validate", action="store_true",
        help="skip the numpy-oracle check on the outputs",
    )
    parser.add_argument(
        "--regions", action="store_true",
        help="also print the per-region (scalar / frep_body) split",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the profile as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a Chrome trace-event JSON of the compile + run "
        "spans ('-' for stdout; load at ui.perfetto.dev)",
    )
    return parser


def profile_kernel(
    name: str,
    sizes: tuple[int, ...],
    pipeline: str = "ours",
    unroll_factor: int | None = None,
    seed: int = 0,
    validate: bool = True,
):
    """Compile + profiled run; returns (CycleProfile, KernelRun)."""
    try:
        builder, sizes = resolve_kernel(name, sizes)
    except ScheduleError as error:
        raise SystemExit(str(error))
    module, spec = builder(*sizes)
    try:
        compiled = api.compile_linalg(
            module, pipeline=pipeline, unroll_factor=unroll_factor
        )
    except PipelineSpecError as error:
        raise SystemExit(f"bad --pipeline: {error}")
    except (IRError, ValueError) as error:
        raise SystemExit(f"compilation failed: {error}")
    args = spec.random_arguments(seed=seed)
    result = api.run_kernel(compiled, args, profile=True)
    if validate:
        expected = spec.reference(*args)
        for got, want in zip(result.arrays, expected):
            if want is not None:
                np.testing.assert_allclose(got, want, atol=1e-8)
    return result.profile, result


def _dump(payload: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")
        return
    with open(path, "w") as handle:
        handle.write(payload)


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_argument_parser()
    args = parser.parse_args(argv)

    recorder = TraceRecorder() if args.trace else None
    # NB: an empty TraceRecorder is falsy (__len__ == 0) — test None.
    scope = recording(recorder) if recorder is not None else nullcontext()
    with scope:
        with span(
            "profiler.kernel",
            kernel=args.kernel,
            pipeline=args.pipeline,
        ):
            profile, _result = profile_kernel(
                args.kernel,
                tuple(args.sizes),
                pipeline=args.pipeline,
                unroll_factor=args.unroll,
                seed=args.seed,
                validate=not args.no_validate,
            )

    shape = "x".join(map(str, args.sizes))
    print(f"{args.kernel} {shape}  pipeline={args.pipeline}")
    print(profile.summary())
    if args.regions:
        for region, buckets in sorted(profile.regions.items()):
            total = sum(buckets.values())
            print(f"  region {region:<12} {total:>10} cycles")
            for bucket, count in sorted(buckets.items()):
                print(f"    {bucket:<15} {count:>10}")
    if args.json:
        _dump(
            json.dumps(profile.to_json(), indent=2, sort_keys=True),
            args.json,
        )
    if recorder is not None:
        _dump(
            json.dumps(recorder.chrome_trace(), indent=2), args.trace
        )
        if args.trace != "-":
            print(
                f"trace: {args.trace} ({len(recorder)} events; "
                f"load at ui.perfetto.dev)",
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
