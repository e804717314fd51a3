"""Command-line front end for the compile-and-tune service.

Serve a content-addressed artifact store over a Unix socket, or hit
one (a running server via ``--socket``, or the store directly,
in-process, via ``--store``)::

    # long-lived server
    python -m repro.tools.kernel_service serve \\
        --store results/artifacts --socket /tmp/repro.sock --workers 4

    # one job (against the server, or in-process against the store)
    python -m repro.tools.kernel_service submit compile matmul 4 8 8 \\
        --socket /tmp/repro.sock
    python -m repro.tools.kernel_service submit measure conv3x3 8 8 \\
        --unroll 4 --store results/artifacts

    # a batch of jobs from a JSON file (or '-' for stdin)
    python -m repro.tools.kernel_service batch jobs.json \\
        --socket /tmp/repro.sock

    # introspection and store hygiene
    python -m repro.tools.kernel_service stats --socket /tmp/repro.sock
    python -m repro.tools.kernel_service gc --store results/artifacts \\
        --max-bytes 10000000

A batch file is a JSON list of request objects::

    [{"kind": "compile", "kernel": "matmul", "sizes": [4, 8, 8]},
     {"kind": "measure", "kernel": "relu", "sizes": [8, 16],
      "config": {"unroll_factor": 4}}]

Job failures are reported per result (structured fault taxonomy, see
``docs/ROBUSTNESS.md``) and summarized in the exit code; they never
abort the batch.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..kernels.builders import KERNEL_BUILDERS
from ..obs.tracing import correlation, new_correlation_id
from ..runtime.store import ArtifactStore, StoreError
from ..service.client import ServiceClient, ServiceError
from ..service.server import CompileServer, ServiceRequest
from ..service.wire import serve_forever
from ..tune.schedule import ScheduleConfig, ScheduleError

_EXIT_CODES = """\
exit codes:
  0    success (all jobs resolved; serve: clean shutdown, drained)
  1    one or more jobs faulted (results still printed)
  2    usage error (bad arguments)
  4    could not reach the server / bad request
  70   serve: injected crash-server chaos action (abrupt, no drain)
  130  serve: SIGINT received, drained and exited
  143  serve: SIGTERM received, drained and exited
"""


def build_argument_parser() -> argparse.ArgumentParser:
    """The tool's CLI schema."""
    parser = argparse.ArgumentParser(
        prog="repro-kernel-service",
        description=__doc__,
        epilog=_EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_backend(sub, socket_only=False):
        sub.add_argument(
            "--socket",
            metavar="PATH",
            default=None,
            help="Unix socket of a running server",
        )
        if not socket_only:
            sub.add_argument(
                "--store",
                metavar="DIR",
                default=None,
                help="artifact store directory (in-process mode, no "
                "server needed)",
            )
        sub.add_argument(
            "--connect-timeout", type=float, default=5.0,
            metavar="SECONDS",
            help="socket connect timeout (default: 5)",
        )
        sub.add_argument(
            "--call-timeout", type=float, default=None,
            metavar="SECONDS",
            help="per-call reply timeout (default: wait forever)",
        )
        sub.add_argument(
            "--client-retries", type=int, default=3, metavar="N",
            help="bounded retries for transport errors and retryable "
            "server faults (default: 3)",
        )
        sub.add_argument(
            "--breaker-threshold", type=int, default=5, metavar="N",
            help="consecutive transport failures that open the "
            "client circuit breaker (default: 5)",
        )

    serve = commands.add_parser(
        "serve", help="run a compile server on a Unix socket"
    )
    serve.add_argument(
        "--store", metavar="DIR", required=True,
        help="artifact store directory",
    )
    serve.add_argument(
        "--socket", metavar="PATH", required=True,
        help="Unix socket path to listen on",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for compile/measure jobs (default: 1)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock deadline (default: none)",
    )
    serve.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="extra attempts for transient job faults (default: 2)",
    )
    serve.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="LRU size cap for the store (default: unbounded)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="admission high-water mark: refuse (retryable overload "
        "fault) past this many in-flight requests (default: "
        "unbounded)",
    )
    serve.add_argument(
        "--request-deadline", type=float, default=None,
        metavar="SECONDS",
        help="per-request wall-clock budget, admission to result "
        "(default: none)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0,
        metavar="SECONDS",
        help="seconds a SIGTERM/SIGINT/shutdown drain gives "
        "in-flight work before faulting it (default: 10)",
    )

    submit = commands.add_parser(
        "submit", help="resolve one compile/measure job"
    )
    submit.add_argument(
        "kind", choices=("compile", "measure"), help="job kind"
    )
    submit.add_argument(
        "kernel", choices=sorted(KERNEL_BUILDERS),
        help="kernel name (Table 1 suite)",
    )
    submit.add_argument(
        "sizes", type=int, nargs="*",
        help="shape sizes (kernel-specific)",
    )
    submit.add_argument(
        "--pipeline", default="ours",
        help="pipeline name or spec for compile jobs (default: ours)",
    )
    submit.add_argument(
        "--unroll", type=int, default=None, metavar="N",
        help="unroll-and-jam factor for measure jobs",
    )
    submit.add_argument(
        "--cores", type=int, default=1, metavar="N",
        help="cluster cores for measure jobs (default: 1)",
    )
    submit.add_argument(
        "--seed", type=int, default=0,
        help="input-data seed for measure jobs (default: 0)",
    )
    submit.add_argument(
        "--no-validate", action="store_true",
        help="skip the numpy-oracle check on measure jobs",
    )
    submit.add_argument(
        "--asm", action="store_true",
        help="print the compiled assembly instead of the summary",
    )
    submit.add_argument(
        "--corr-id", default=None, metavar="ID",
        help="correlation id to tag the request with (default: mint "
        "a fresh one); echoed on the result, in server logs "
        "(REPRO_SERVICE_LOG=1) and in `stats` recent requests",
    )
    add_backend(submit)

    batch = commands.add_parser(
        "batch", help="resolve a JSON list of jobs"
    )
    batch.add_argument(
        "file", help="JSON file of request objects ('-' for stdin)"
    )
    batch.add_argument(
        "--json", action="store_true",
        help="print full results as JSON instead of a summary table",
    )
    add_backend(batch)

    stats = commands.add_parser(
        "stats", help="server/store statistics"
    )
    add_backend(stats)

    gc = commands.add_parser(
        "gc", help="sweep stale temporaries and evict past a size cap"
    )
    gc.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="evict least-recently-used entries past this many bytes",
    )
    add_backend(gc)
    return parser


class _InProcessBackend:
    """``--store`` mode: a private server over the store, no socket."""

    def __init__(self, store_dir: str):
        self.store = ArtifactStore(store_dir)
        self.server = CompileServer(self.store)

    def submit(self, request, corr_id=None):
        with correlation(corr_id or new_correlation_id()):
            return self.server.submit(request).to_json()

    def batch(self, requests):
        return [
            result.to_json() for result in self.server.batch(requests)
        ]

    def stats(self):
        return self.server.stats()

    def gc(self, max_bytes=None):
        return self.store.gc(max_bytes)

    def close(self):
        self.server.close()


def _backend(parser, args):
    socket = getattr(args, "socket", None)
    store = getattr(args, "store", None)
    if socket and store:
        parser.error("--socket and --store are mutually exclusive")
    if socket:
        return ServiceClient(
            socket,
            connect_timeout=args.connect_timeout,
            call_timeout=args.call_timeout,
            retries=args.client_retries,
            breaker_threshold=args.breaker_threshold,
        )
    if store:
        return _InProcessBackend(store)
    parser.error("one of --socket or --store is required")


def _request_from_args(parser, args) -> ServiceRequest:
    try:
        return ServiceRequest(
            kind=args.kind,
            kernel=args.kernel,
            sizes=tuple(args.sizes),
            pipeline=args.pipeline,
            config=ScheduleConfig(
                unroll_factor=args.unroll, num_cores=args.cores
            ),
            seed=args.seed,
            validate=not args.no_validate,
        )
    except (StoreError, ScheduleError) as error:
        parser.error(str(error))


def _summarize(result: dict) -> str:
    request = result["request"]
    shape = "x".join(map(str, request["sizes"]))
    name = f"{request['kind']} {request['kernel']} {shape}"
    latency = result["latency"] * 1000
    if result["fault"] is not None:
        fault = result["fault"]
        return (
            f"{name:<32} FAULT {fault['kind']}: "
            f"{fault.get('message', '')} ({latency:.1f} ms)"
        )
    payload = result["payload"]
    detail = (
        f"{payload['cycles']} cycles"
        if "cycles" in payload
        else f"{len(payload['asm'].splitlines())} asm lines"
    )
    corr = result.get("correlation_id") or "-"
    return (
        f"{name:<32} {result['source']:<8} {detail} "
        f"({latency:.1f} ms) corr={corr}"
    )


def _load_batch_file(parser, path: str) -> list[ServiceRequest]:
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path) as handle:
                data = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        parser.error(f"cannot read batch file {path!r}: {error}")
    if not isinstance(data, list):
        parser.error("batch file must be a JSON list of requests")
    try:
        return [ServiceRequest.from_json(entry) for entry in data]
    except StoreError as error:
        parser.error(str(error))


def main(argv=None) -> int:
    """Entry point; returns a process exit code (see ``--help``)."""
    parser = build_argument_parser()
    args = parser.parse_args(argv)

    if args.command == "serve":
        print(
            f"serving {args.store} on {args.socket} "
            f"({args.workers} workers)",
            file=sys.stderr,
        )
        return serve_forever(
            args.store,
            args.socket,
            workers=args.workers,
            deadline=args.deadline,
            retries=args.retries,
            max_bytes=args.max_bytes,
            max_inflight=args.max_inflight,
            request_deadline=args.request_deadline,
            drain_timeout=args.drain_timeout,
        )

    backend = _backend(parser, args)
    try:
        if args.command == "submit":
            request = _request_from_args(parser, args)
            result = backend.submit(request, corr_id=args.corr_id)
            if args.asm:
                if result["fault"] is not None:
                    print(
                        f"fault: {result['fault']['kind']}: "
                        f"{result['fault'].get('message', '')}",
                        file=sys.stderr,
                    )
                    return 1
                if "asm" not in result["payload"]:
                    print(
                        "no assembly on a measure result",
                        file=sys.stderr,
                    )
                    return 2
                print(result["payload"]["asm"], end="")
                return 0
            print(_summarize(result))
            return 0 if result["fault"] is None else 1
        if args.command == "batch":
            requests = _load_batch_file(parser, args.file)
            results = backend.batch(requests)
            if args.json:
                json.dump(results, sys.stdout, indent=2)
                print()
            else:
                for result in results:
                    print(_summarize(result))
                hits = sum(
                    1 for r in results if r["source"] == "store"
                )
                faults = sum(
                    1 for r in results if r["fault"] is not None
                )
                print(
                    f"{len(results)} jobs: {hits} store hits, "
                    f"{faults} faults"
                )
            return 0 if all(
                r["fault"] is None for r in results
            ) else 1
        if args.command == "stats":
            json.dump(backend.stats(), sys.stdout, indent=2)
            print()
            return 0
        if args.command == "gc":
            json.dump(
                backend.gc(args.max_bytes), sys.stdout, indent=2
            )
            print()
            return 0
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ServiceError, ConnectionError, FileNotFoundError) as error:
        print(f"service error: {error}", file=sys.stderr)
        return 4
    finally:
        if isinstance(backend, _InProcessBackend):
            backend.close()


if __name__ == "__main__":
    sys.exit(main())
