"""Command-line schedule-space autotuner.

Measure every unroll-and-jam factor of a Table 1 kernel on the
predecoded simulator and report the fastest::

    python -m repro.tools.kernel_tuner matmul 4 4 4
    python -m repro.tools.kernel_tuner conv3x3 8 8 --seed 3
    python -m repro.tools.kernel_tuner matmul 1 16 64 --emit-spec

``--emit-spec`` prints only the winning pipeline spec, ready to feed
back into ``kernel_compiler --pipeline`` (or ``api.compile_linalg``);
``--save`` persists the winning :class:`~repro.tune.TunedSchedule` as
a JSON artifact that network runs can apply.  Measurements go through
the persistent cycle cache (``--cache``), so re-tuning is incremental;
Ctrl-C keeps every candidate measured before it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..kernels.builders import KERNEL_BUILDERS
from ..tune import (
    ScheduleError,
    ScheduleSpace,
    TuneCache,
    load_schedules,
    save_schedules,
    tune_kernel,
)

_EXIT_CODES = """\
exit codes:
  0    success
  2    usage error (bad arguments)
  3    tuning failed (no valid baseline, or an unreadable --save file)
  130  interrupted by Ctrl-C (measured candidates stay cached)
"""


def build_argument_parser() -> argparse.ArgumentParser:
    """The tool's CLI schema."""
    parser = argparse.ArgumentParser(
        prog="repro-kernel-tuner",
        description=__doc__,
        epilog=_EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "kernel",
        choices=sorted(KERNEL_BUILDERS),
        help="kernel name (Table 1 suite)",
    )
    parser.add_argument(
        "sizes", type=int, nargs="*", help="shape sizes (kernel-specific)"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the input data — recorded with the results, so "
        "a tuning run is reproducible (default: 0)",
    )
    parser.add_argument(
        "--cache",
        default="results/tune_cache.json",
        metavar="PATH",
        help="persistent cycle-cache file "
        "(default: results/tune_cache.json)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the persistent cache",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-candidate wall-clock deadline; a candidate past it "
        "is recorded as a timeout fault (default: none)",
    )
    parser.add_argument(
        "--emit-spec",
        action="store_true",
        help="print only the winning pipeline spec",
    )
    parser.add_argument(
        "--save",
        metavar="PATH",
        default=None,
        help="append the winning TunedSchedule to a JSON artifact",
    )
    parser.add_argument(
        "--list-space",
        action="store_true",
        help="print the legal schedule space and exit (no evaluation)",
    )
    return parser


def _saved_schedules(path: str) -> list:
    """The schedules already in the ``--save`` artifact.

    Only a missing file counts as empty: any other load error raises
    :class:`ScheduleError`, so the file is never rewritten without the
    records it could not read.
    """
    if not Path(path).exists():
        return []
    return load_schedules(path)


def _print_result(result, args) -> None:
    if args.emit_spec:
        print(result.best.pipeline_spec)
        return
    print(result.report())
    print(
        f"cache: {result.cache_hits} hits, "
        f"{result.cache_misses} misses"
        + ("" if args.no_cache else f" ({args.cache})")
    )
    if result.faults:
        kinds: dict[str, int] = {}
        for fault in result.faults:
            kinds[fault.kind] = kinds.get(fault.kind, 0) + 1
        summary = ", ".join(
            f"{count} {kind}" for kind, count in sorted(kinds.items())
        )
        print(f"faults: {summary}")


def main(argv=None) -> int:
    """Entry point; returns a process exit code (see ``--help``)."""
    parser = build_argument_parser()
    args = parser.parse_args(argv)
    try:
        if args.list_space:
            space = ScheduleSpace.for_kernel(args.kernel, args.sizes)
            print(
                f"{space.kernel}: bounds {list(space.bounds)}, "
                f"iterators {list(space.iterator_types)}, "
                f"{space.size()} legal configs"
            )
            for config in space.configs():
                print(f"  {config.key()}")
            return 0
        saved = _saved_schedules(args.save) if args.save else []
        result = tune_kernel(
            args.kernel,
            args.sizes,
            seed=args.seed,
            cache=TuneCache(None if args.no_cache else args.cache),
            deadline=args.deadline,
        )
    except ScheduleError as error:
        print(f"tuning failed: {error}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print(
            "interrupted: the candidates measured so far are cached",
            file=sys.stderr,
        )
        return 130

    _print_result(result, args)
    if args.save:
        best = result.best
        keep = [
            schedule
            for schedule in saved
            if (schedule.kernel, schedule.sizes) != (best.kernel, best.sizes)
        ]
        save_schedules(args.save, keep + [best])
        if not args.emit_spec:
            print(f"saved tuned schedule to {args.save}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
