"""``PYTHONPATH=src python -m benchmarks.e2e {run,compare,selfcheck}``.

``run`` drives every workload through ``run.py`` — one fresh process
each — and writes the set to one JSON file; ``compare`` judges two
such files; ``selfcheck`` measures the same code twice and compares.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from . import harness
from .compare import compare_files
from .spec import RUN_SECONDS, WORKLOAD_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")


def run_set(args, traced: bool, out_path: str) -> int:
    """One run of every workload; the exit code is non-zero if any
    run failed."""
    seconds = 1 if args.smoke else RUN_SECONDS
    result = {
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "traced": traced,
        "workloads": {},
    }
    status = 0
    for workload in WORKLOAD_NAMES:
        run_path = os.path.join(OUT_DIR, f"{workload}.run.json")
        command = [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(seconds),
            "--trace", str(int(traced)),
            "--out", run_path,
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        # Everything but the machine-readable last line.
        print(done.stdout.rsplit("\n", 2)[0])
        status |= done.returncode
        if os.path.exists(run_path):
            with open(run_path) as handle:
                result["workloads"][workload] = json.load(handle)
            os.unlink(run_path)
    harness.write_json(out_path, result)
    print(f"wrote {os.path.relpath(out_path)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_run_options(sub):
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--smoke", action="store_true")

    run = commands.add_parser("run", help="measure every workload")
    add_run_options(run)
    run.add_argument(
        "--traced", action="store_true",
        help="the traced run: per-layer metrics and out/*.trace.json",
    )

    compare = commands.add_parser("compare", help="judge B against A")
    compare.add_argument("a")
    compare.add_argument("b")

    selfcheck = commands.add_parser(
        "selfcheck", help="two sets of the same code, compared"
    )
    add_run_options(selfcheck)

    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare_files(args.a, args.b)
    if args.command == "run":
        kind = "traced" if args.traced else "run"
        return run_set(
            args, args.traced,
            os.path.join(OUT_DIR, f"{kind}-seed{args.seed}.json"),
        )
    paths = [
        os.path.join(OUT_DIR, f"selfcheck-{side}.json") for side in "AB"
    ]
    status = 0
    for path in paths:
        status |= run_set(args, False, path)
    return status | compare_files(*paths)


if __name__ == "__main__":
    sys.exit(main())
