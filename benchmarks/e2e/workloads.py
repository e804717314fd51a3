"""The five workloads, each driving ``repro`` through its public API.

A workload is an object with a seeded job stream (``rounds``), a timed
``run_job``, an untimed ``record`` that cross-checks what the job
returned, a ``traced_job`` that does the same work with spans at every
layer boundary, a ``verify`` that simulates every distinct artifact
against the numpy oracle, and ``layer_metrics`` for the traced run's
counts.  ``run.py`` owns the protocol around them.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext

import numpy as np

from repro import api, kernels
from repro.backend.asm_emitter import emit_module
from repro.compiler import CompiledKernel, Compiler
from repro.dialects import riscv_func
from repro.ir.parser import parse_module
from repro.ir.pass_manager import PassInstrumentation
from repro.ir.printer import print_op
from repro.ir.verifier import verify
from repro.obs.profiler import CycleProfiler
from repro.service import (
    ArtifactStore,
    CompileServer,
    ServiceClient,
)
from repro.snitch import engine
from repro.snitch.assembler import assemble
from repro.snitch.cluster import run_row_partitioned
from repro.snitch.machine import SnitchMachine
from repro.snitch.memory import TCDM
from repro.transforms.pipelines import PIPELINE_NAMES, build_pipeline
from repro.tune import TuneCache, tune_kernel
from repro.tune.schedule import cluster_plan, resolve_kernel

from .harness import percentile
from .spec import BUCKETS, PASSES
from .inputs import (
    COMPILES_PER_EPOCH,
    REPEATS_PER_FIRST,
    request_epochs,
    shape_set,
    shuffled,
    sim_kernels,
    strided,
)

#: Seed of the request stream the service's counted pass replays: the
#: bytecode count must not depend on ``--seed``.
_COUNTED_STREAM_SEED = 0


class JobFailed(Exception):
    """A job returned, but what it returned is wrong."""


#: f64 kernels: the repo's convention.  f32 kernels (the handwritten
#: packed-SIMD ones) accumulate in another order than numpy does:
#: ``bench_fig9_lowlevel``'s rtol, and an atol of K x eps32.
_TOLERANCE = {
    np.dtype(np.float64): {"atol": 1e-8},
    np.dtype(np.float32): {"rtol": 1e-4, "atol": 1e-5},
}


def _check_arrays(label: str, arrays, expected) -> None:
    for got, want in zip(arrays, expected):
        if want is not None and not np.allclose(
            got, want, **_TOLERANCE[np.asarray(want).dtype]
        ):
            raise JobFailed(f"{label}: does not match the numpy oracle")


def _simulate(label, compiled, spec, seed: int, profile: bool = False):
    """One verified run on seeded inputs."""
    arguments = spec.random_arguments(seed)
    run = api.run_kernel(compiled, arguments, profile=profile)
    _check_arrays(label, run.arrays, spec.reference(*arguments))
    return run


def _op_count(module) -> int:
    return sum(1 for _ in module.walk())


class Workload:
    """What ``run.py`` drives; see the module docstring."""

    name = ""
    #: Jobs per calibration chunk (about half a second of work).
    chunk_jobs = 1
    #: Jobs run once, untimed, at the end of set-up so caches are full
    #: and lazy imports done before the first timed job.
    warmup_jobs = 1
    #: Whether a chunk whose calibrations disagreed can be run again.
    rerun = True

    def __init__(self, seed: int, smoke: bool, scratch: str):
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        #: The traced run's span log (None while tracing is off).
        self.log = None
        #: ``(label, compiled, spec, verified run)`` of the kernels
        #: compiled with ``ours`` — what ``ours_cycles_total`` sums;
        #: set by verify.
        self.ours: list = []
        self.round_jobs: list = []

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        # The same jobs whatever the seed, so set-up time is too.
        for job in strided(sorted(self.round_jobs), self.warmup_jobs):
            self.record(job, self.run_job(job))

    def rounds(self):
        """The job stream: the seeded order, again every round."""
        while True:
            yield self.round_jobs

    def run_job(self, job):
        raise NotImplementedError

    def record(self, job, result) -> None:
        """Untimed: cross-check ``result``; raise JobFailed if bad."""

    def traced_job(self, job):
        raise NotImplementedError

    def counted_jobs(self) -> list:
        """Seed-independent jobs of the bytecode-counting pass."""
        raise NotImplementedError

    def counted_pass(self) -> None:
        """What the bytecode counter runs."""
        for job in self.counted_jobs():
            self.run_job(job)

    def verify(self) -> list[str]:
        """Simulate every distinct artifact against the oracle; the
        messages of those that fail."""
        raise NotImplementedError

    def ours_cycle_buckets(self) -> dict:
        """Modelled-hardware attribution over the ``ours`` kernels:
        the profiler's buckets partition cycles, so these sum to
        ``ours_cycles_total``."""
        totals: Counter = Counter()
        for label, compiled, spec, _ in self.ours:
            run = _simulate(label, compiled, spec, self.seed, profile=True)
            totals.update(run.profile.buckets)
        return {f"cycles.{bucket}": totals[bucket] for bucket in BUCKETS}

    def extra_rss_mb(self) -> float:
        """Peak RSS of processes the workload still has running."""
        return 0.0

    def layer_metrics(self, ms: dict, section, factor: float) -> dict:
        """Per-layer counts of the traced run.  ``ms`` is calibrated
        ms per round by metric name, ``section`` the untraced
        reference section measured just before, ``factor`` what turns
        the traced section's raw seconds into calibrated ones."""
        return {}

    def close(self) -> None:
        """Stop what set-up started."""


# -- compile_suite ----------------------------------------------------------------


class _OpsAfterPass(PassInstrumentation):
    def __init__(self):
        self.ops: Counter = Counter()

    def after_pass(self, pass_, module, elapsed) -> None:
        self.ops[pass_.name] += _op_count(module)


class CompileSuite(Workload):
    """IR text -> parse -> Compiler(pipeline).compile -> assemble."""

    name = "compile_suite"
    chunk_jobs = 86
    warmup_jobs = 9

    def setup(self) -> None:
        self.shapes = shape_set(self.smoke)
        self.texts = []
        self.specs = []
        for kernel, sizes in self.shapes:
            builder, sizes = resolve_kernel(kernel, sizes)
            with self._span("kernels.build"):
                module, spec = builder(*sizes)
            with self._span("ir.print"):
                self.texts.append(print_op(module))
            self.specs.append(spec)
        self.pairs = [
            (shape, pipeline)
            for shape in range(len(self.shapes))
            for pipeline in PIPELINE_NAMES
        ]
        self.round_jobs = shuffled(self.pairs, self.seed, self.name)
        #: job -> (asm, entry) of its first compile.
        self.artifacts: dict = {}
        self.pipeline_cycles: Counter = Counter()
        self.pipeline_util: dict = {}

    def _span(self, name):
        return self.log.span(name) if self.log else nullcontext()

    def run_job(self, job):
        shape, pipeline = job
        compiled = Compiler(pipeline).compile(
            parse_module(self.texts[shape])
        )
        compiled.program  # assemble: the artifact is a Program
        return compiled

    def record(self, job, compiled) -> None:
        artifact = (compiled.asm, compiled.entry)
        if self.artifacts.setdefault(job, artifact) != artifact:
            raise JobFailed(f"{job}: assembly differs between compiles")

    def traced_job(self, job):
        """``Compiler.compile`` + ``.program`` staged call by call;
        ``record`` holds it to the untraced assembly byte for byte."""
        shape, pipeline = job
        log = self.log
        with log.span("ir.parse"):
            module = parse_module(self.texts[shape])
        with log.span("compiler.setup"):
            manager = build_pipeline(pipeline)
        with log.span("ir.verify"):
            verify(module)
        # ``src/`` spans each pass itself; what is left of the
        # manager's run is the verify after every pass.
        with log.span("ir.verify"):
            manager.run(module)
        entry = next(
            op.sym_name
            for op in module.block.ops
            if isinstance(op, riscv_func.FuncOp)
        )
        with log.span("backend.emit"):
            asm = emit_module(module)
        with log.span("snitch.assemble"):
            assemble(asm)
        return CompiledKernel(module=None, asm=asm, entry=entry)

    def counted_jobs(self) -> list:
        return strided(self.pairs, 60)

    def verify(self) -> list[str]:
        failures = []
        utils: dict = {name: [] for name in PIPELINE_NAMES}
        self.pipeline_cycles.clear()
        self.ours = []
        for (shape, pipeline), (asm, entry) in self.artifacts.items():
            kernel, sizes = self.shapes[shape]
            label = f"{kernel} {sizes} [{pipeline}]"
            compiled = CompiledKernel(module=None, asm=asm, entry=entry)
            try:
                run = _simulate(
                    label, compiled, self.specs[shape], self.seed
                )
            except Exception as error:  # a bad artifact, not a crash
                failures.append(f"{label}: {error}")
                continue
            self.pipeline_cycles[pipeline] += run.trace.cycles
            utils[pipeline].append(run.trace.fpu_utilization)
            if pipeline == "ours":
                self.ours.append(
                    (label, compiled, self.specs[shape], run)
                )
        self.pipeline_util = {
            name: statistics.fmean(values)
            for name, values in utils.items()
            if values
        }
        return failures

    def layer_metrics(self, ms: dict, section, factor: float) -> dict:
        """One untimed pass over every pair with counting hooks."""
        counter = _OpsAfterPass()
        rewrites: Counter = Counter()
        parsed_ops = insts = fp_max = int_max = 0
        for shape, pipeline in self.pairs:
            module = parse_module(self.texts[shape])
            parsed_ops += _op_count(module)
            compiled = Compiler(pipeline, instrument=counter).compile(
                module
            )
            for name, stats in compiled.pass_stats:
                rewrites[name] += stats["rewrites_applied"]
            insts += len(compiled.program.instructions)
            fp_regs, int_regs = compiled.register_usage()
            fp_max = max(fp_max, fp_regs)
            int_max = max(int_max, int_regs)
        metrics = {
            "ir.parse_ops_per_s": parsed_ops / (ms["ir.parse_ms"] / 1000),
            "backend.asm_insts": insts,
            "backend.fp_regs_max": fp_max,
            "backend.int_regs_max": int_max,
        }
        for name in PASSES:
            metrics[f"pass.{name}.rewrites"] = rewrites[name]
            metrics[f"pass.{name}.ops_after"] = counter.ops[name]
        for name in PIPELINE_NAMES:
            metrics[f"cycles.pipeline.{name}"] = self.pipeline_cycles[name]
            metrics[f"fpu_util.pipeline.{name}"] = self.pipeline_util[name]
        return metrics


# -- sim_sweep / profile_sweep ----------------------------------------------------


def _staged_run_kernel(log, compiled, arguments, profile: bool):
    """``api.run_kernel`` staged call by call, a span per layer.

    TCDM placement and read-back are the enclosing span's self time.
    """
    with log.span("snitch.tcdm_io"):
        memory = TCDM()
        int_args: dict = {}
        float_args: dict = {}
        placements = []
        for argument in arguments:
            if isinstance(argument, np.ndarray):
                base = memory.allocate(argument.nbytes)
                memory.write_array(base, argument)
                int_args[f"a{len(int_args)}"] = base
                placements.append((base, argument))
            else:
                float_args[f"fa{len(float_args)}"] = float(argument)
                placements.append(None)
        machine = SnitchMachine(
            compiled.program, memory, record_timeline=profile
        )
        cycle_profile = None
        if profile:
            with log.span("obs.profiler"):
                profiler = CycleProfiler.attach(machine)
            with log.span("snitch.ref"):
                trace = machine.run_reference(
                    compiled.entry,
                    int_args=int_args,
                    float_args=float_args,
                )
            with log.span("obs.profiler"):
                cycle_profile = profiler.finalize(machine)
        else:
            with log.span("snitch.decode"):
                engine.decode(compiled.program)
            with log.span("snitch.run"):
                trace = machine.run(
                    compiled.entry,
                    int_args=int_args,
                    float_args=float_args,
                )
        arrays = [
            None if placement is None else memory.read_array(
                placement[0], placement[1].shape, placement[1].dtype
            )
            for placement in placements
        ]
    return api.KernelRun(
        trace=trace, arrays=arrays, profile=cycle_profile
    )


class SimSweep(Workload):
    """``api.run_kernel`` of kernels compiled in set-up."""

    name = "sim_sweep"
    chunk_jobs = 150
    profile = False

    def setup(self) -> None:
        self.kernels = [
            kernel
            for kernel in sim_kernels(self.smoke)
            if not (self.profile and kernel.kind == "cluster")
        ]
        self.compiled = []
        self.specs = []
        self.arguments = []
        for kernel in self.kernels:
            if kernel.kind == "lowlevel":
                module, spec = getattr(kernels, kernel.kernel)(
                    *kernel.sizes
                )
                compiled = api.compile_lowlevel(module, spec.name)
            else:
                builder, sizes = resolve_kernel(
                    kernel.kernel, kernel.sizes
                )
                module, spec = builder(*sizes)
                # A cluster job compiles per-core chunks on demand.
                compiled = (
                    None if kernel.kind == "cluster"
                    else api.compile_linalg(module, kernel.pipeline)
                )
            self.compiled.append(compiled)
            self.specs.append(spec)
            self.arguments.append(spec.random_arguments(self.seed))
        self.round_jobs = shuffled(
            range(len(self.kernels)), self.seed, self.name
        )
        self.warmup_jobs = len(self.kernels)
        self._chunk_memo: dict = {}
        #: job -> cycles of its first run / its latest run.
        self.cycles: dict = {}
        self.latest: dict = {}

    def _compile_chunk(self, module, spec):
        """Per-core chunk compile, memoised by chunk shape."""
        key = tuple(
            getattr(argument, "shape", None)
            for argument in spec.arguments
        )
        if key not in self._chunk_memo:
            self._chunk_memo[key] = api.compile_linalg(module, "ours")
        return self._chunk_memo[key]

    def _run_cluster(self, job):
        kernel = self.kernels[job]
        plan = cluster_plan(kernel.kernel, kernel.sizes)
        return run_row_partitioned(
            plan.chunk_builder,
            self._compile_chunk,
            plan.shape,
            kernel.cores,
            list(self.arguments[job]),
            row_parallel_args=list(plan.row_parallel_args),
        )

    def run_job(self, job):
        if self.kernels[job].kind == "cluster":
            return self._run_cluster(job)
        return api.run_kernel(
            self.compiled[job], self.arguments[job], profile=self.profile
        )

    def traced_job(self, job):
        if self.kernels[job].kind == "cluster":
            # One call into the cluster layer; the per-core runs
            # inside it show up through the spans ``src/`` emits.
            with self.log.span("snitch.cluster"):
                return self._run_cluster(job)
        return _staged_run_kernel(
            self.log, self.compiled[job], self.arguments[job],
            self.profile,
        )

    def record(self, job, run) -> None:
        label = self.kernels[job].label
        cycles = (
            run.cycles if self.kernels[job].kind == "cluster"
            else run.trace.cycles
        )
        if self.cycles.setdefault(job, cycles) != cycles:
            raise JobFailed(f"{label}: cycles differ between runs")
        profile = getattr(run, "profile", None)
        if profile is not None and (
            sum(profile.buckets.values()) != cycles or profile.idle
        ):
            raise JobFailed(f"{label}: buckets do not sum to cycles")
        self.latest[job] = run

    def counted_jobs(self) -> list:
        return list(range(len(self.kernels)))

    def verify(self) -> list[str]:
        failures = []
        self.ours = []
        for job, run in self.latest.items():
            kernel = self.kernels[job]
            try:
                _check_arrays(
                    kernel.label,
                    run.arrays,
                    self.specs[job].reference(*self.arguments[job]),
                )
            except JobFailed as error:
                failures.append(str(error))
                continue
            if kernel.kind == "linalg" and kernel.pipeline == "ours":
                self.ours.append(
                    (kernel.label, self.compiled[job], self.specs[job],
                     run)
                )
        return failures

    def _instructions(self) -> int:
        total = 0
        for run in self.latest.values():
            trace = (
                run.merged_trace() if hasattr(run, "merged_trace")
                else run.trace
            )
            total += trace.int_instructions + trace.fpu_instructions
        return total

    def layer_metrics(self, ms: dict, section, factor: float) -> dict:
        insts = self._instructions()
        return {
            "snitch.sim_insts": insts,
            "snitch.run_minst_per_s": insts / ms["snitch.run_ms"] / 1000,
        }


class ProfileSweep(SimSweep):
    """The same kernels through the reference interpreter with the
    cycle profiler attached (the cluster job has no profiled form)."""

    name = "profile_sweep"
    chunk_jobs = 15
    profile = True

    def counted_jobs(self) -> list:
        # The engine-path kernels that head the list, less the two
        # multi-row GEMMs: their inner loops are the 1-row kernels'
        # and under the counter they alone would take 7 s.
        return [
            job for job, kernel in enumerate(self.kernels[:8])
            if kernel.label not in ("gemm_16x32x16", "pointer_loop")
        ]

    def layer_metrics(self, ms: dict, section, factor: float) -> dict:
        """Profiled over fast-engine time, paired ABBA per kernel so
        machine drift cancels inside each pair."""
        fast = profiled = 0.0
        for job in range(len(self.kernels)):
            for profile in (False, True, True, False):
                start = time.perf_counter()
                api.run_kernel(
                    self.compiled[job], self.arguments[job],
                    profile=profile,
                )
                elapsed = time.perf_counter() - start
                if profile:
                    profiled += elapsed
                else:
                    fast += elapsed
        return {
            "snitch.ref_minst_per_s": (
                self._instructions() / ms["snitch.ref_ms"] / 1000
            ),
            "obs.profile_slowdown": profiled / fast,
        }


# -- tune_search ------------------------------------------------------------------


class _SpannedCache(TuneCache):
    """A TuneCache whose load and saves are spans."""

    def __init__(self, path, log):
        self._log = log
        with log.span("tune.cache_io"):
            super().__init__(path)

    def save(self) -> None:
        with self._log.span("tune.cache_io"):
            super().save()


class TuneSearch(Workload):
    """An exhaustive ``tune_kernel`` on a fresh cache file, then the
    same call on the now-warm cache."""

    name = "tune_search"
    chunk_jobs = 10
    warmup_jobs = 2

    def setup(self) -> None:
        self.shapes = shape_set(self.smoke)
        self.round_jobs = shuffled(
            range(len(self.shapes)), self.seed, self.name
        )
        self._calls = 0
        #: job -> (winning TunedSchedule, candidates, warm hits).
        self.winners: dict = {}

    def _tune(self, job, cache):
        kernel, sizes = self.shapes[job]
        return tune_kernel(
            kernel, sizes, "exhaustive", seed=self.seed, cache=cache,
            workers=None,
        )

    def _fresh_path(self) -> str:
        """A cache file in a directory of its own: opening a cache
        sweeps its directory for stale temporaries, and that must not
        cost more the more jobs have run."""
        self._calls += 1
        directory = os.path.join(self.scratch, f"tune-{self._calls}")
        os.mkdir(directory)
        return os.path.join(directory, "cache.json")

    def run_job(self, job):
        path = self._fresh_path()
        return self._tune(job, path), self._tune(job, path)

    def traced_job(self, job):
        path = self._fresh_path()
        log = self.log
        with log.span("tune.call"):
            cold = self._tune(job, _SpannedCache(path, log))
        with log.span("tune.warm_call"):
            warm = self._tune(job, _SpannedCache(path, log))
        return cold, warm

    def record(self, job, result) -> None:
        cold, warm = result
        label = f"tune {self.shapes[job]}"
        if warm.best != cold.best:
            raise JobFailed(f"{label}: warm cache changed the winner")
        if warm.cache_misses or (
            warm.cache_hits != warm.candidates_evaluated
        ):
            raise JobFailed(f"{label}: warm call missed the cache")
        outcome = (
            cold.best, cold.candidates_evaluated, warm.cache_hits
        )
        if self.winners.setdefault(job, outcome) != outcome:
            raise JobFailed(f"{label}: search is not deterministic")

    def counted_jobs(self) -> list:
        if self.smoke:
            return [0]
        # A 12-candidate and a 5-candidate search.
        return [
            self.shapes.index(("conv3x3", (8, 8))),
            self.shapes.index(("matmul", (4, 8, 8))),
        ]

    def verify(self) -> list[str]:
        failures = []
        self.ours = []
        for job, (best, _, _) in self.winners.items():
            kernel, sizes = self.shapes[job]
            label = f"tuned {kernel} {sizes}"
            builder, sizes = resolve_kernel(kernel, sizes)
            module, spec = builder(*sizes)
            try:
                compiled = Compiler(best.pipeline_spec).compile(module)
                run = _simulate(label, compiled, spec, self.seed)
                if run.trace.cycles != best.cycles:
                    raise JobFailed(
                        f"{label}: winner re-measures at "
                        f"{run.trace.cycles}, tuner said {best.cycles}"
                    )
            except Exception as error:  # a bad winner, not a crash
                failures.append(f"{label}: {error}")
                continue
            self.ours.append((label, compiled, spec, run))
        return failures

    def layer_metrics(self, ms: dict, section, factor: float) -> dict:
        winners = list(self.winners.values())
        candidates = sum(count for _, count, _ in winners)
        warm = [
            (end - start) / 1e6 * factor
            for name, start, end, _ in self.log.spans
            if name == "tune.warm_call"
        ]
        round_s = len(self.shapes) / section.jobs_per_s()
        return {
            "tune.candidates": candidates,
            "tune.candidates_per_s": candidates / round_s,
            "tune.cache_hits": sum(hits for _, _, hits in winners),
            "tune.warm_call_ms_p50": percentile(warm, 50),
            "tune.improved": sum(
                best.cycles < best.default_cycles
                for best, _, _ in winners
            ),
            "tune.speedup_geomean": math.exp(
                statistics.fmean(
                    math.log(best.default_cycles / best.cycles)
                    for best, _, _ in winners
                )
            ),
            "tune.default_cycles_total": sum(
                best.default_cycles for best, _, _ in winners
            ),
        }


# -- service_mix ------------------------------------------------------------------


class ServiceMix(Workload):
    """``ServiceClient.submit`` over a Unix socket to a one-worker
    ``kernel_service serve`` on a fresh store; 75 % store hits."""

    name = "service_mix"
    #: A key is a first occurrence once; the next epoch is the re-run.
    rerun = False

    def setup(self) -> None:
        self.shapes = shape_set(self.smoke)
        self.round_jobs = []
        self.epochs = request_epochs(self.shapes, self.seed)
        # One epoch a chunk.
        self.chunk_jobs = (1 + REPEATS_PER_FIRST) * (
            len(self.shapes) + COMPILES_PER_EPOCH
        )
        #: store key -> payload of its first occurrence.
        self.payloads: dict = {}
        self.requests: dict = {}
        self.submitted = self.hits = 0
        # Relative: AF_UNIX paths are capped near 100 bytes.
        socket_path = os.path.relpath(
            os.path.join(self.scratch, "s.sock")
        )
        source = os.path.dirname(os.path.dirname(api.__file__))
        self.server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.tools.kernel_service",
                "serve",
                "--store", os.path.join(self.scratch, "store"),
                "--socket", socket_path,
                "--workers", "1",
            ],
            env={**os.environ, "PYTHONPATH": source},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self.client = ServiceClient(socket_path)
        deadline = time.monotonic() + 60
        while not self.client.ping():
            if self.server.poll() is not None:
                raise RuntimeError("the compile server exited at start")
            if time.monotonic() > deadline:
                raise RuntimeError("the compile server did not come up")
            time.sleep(0.01)

    def warm_up(self) -> None:
        """Nothing: a request sent now would no longer be a first
        occurrence, and set-up has waited for the server's ping."""

    def rounds(self):
        yield from self.epochs
        raise RuntimeError(
            "the service request stream ran out of first-occurrence "
            "compile keys before the time budget did"
        )

    def run_job(self, job):
        return self.client.submit(job[0])

    def traced_job(self, job):
        # The client ships the server's and the worker's spans back
        # in the reply when a recorder is installed.
        with self.log.span("service.client"):
            return self.client.submit(job[0])

    def record(self, job, result) -> None:
        request, is_first = job
        self.submitted += 1
        if result["fault"] is not None:
            raise JobFailed(
                f"{request.label()}: {result['fault'].get('kind')}"
            )
        expected = "computed" if is_first else "store"
        if result["source"] != expected:
            raise JobFailed(
                f"{request.label()}: served from {result['source']}, "
                f"the stream says {expected}"
            )
        self.hits += not is_first
        known = self.payloads.setdefault(result["key"], result["payload"])
        if known != result["payload"]:
            raise JobFailed(f"{request.label()}: a repeat differs")
        self.requests[result["key"]] = request

    def counted_jobs(self) -> list:
        epoch = next(request_epochs(self.shapes, _COUNTED_STREAM_SEED))
        return epoch[: len(epoch) // 2]

    def counted_pass(self) -> None:
        """The server-side request path, in process: keying, store
        get and put, and the (serial, one-worker) compile/simulate."""
        store = ArtifactStore(os.path.join(self.scratch, "counted"))
        with CompileServer(store, workers=1) as server:
            for request, _ in self.counted_jobs():
                if server.submit(request).fault is not None:
                    raise JobFailed(f"{request.label()} faulted")

    def verify(self) -> list[str]:
        failures = []
        if self.hits * 4 != self.submitted * 3:
            failures.append(
                f"{self.hits} store hits in {self.submitted} requests "
                "is not 75 %"
            )
        self.ours = []
        cycles = {}
        for kernel, sizes in self.shapes:
            label = f"{kernel} {sizes}"
            builder, resolved = resolve_kernel(kernel, sizes)
            module, spec = builder(*resolved)
            compiled = api.compile_linalg(module, "ours")
            run = _simulate(label, compiled, spec, self.seed)
            cycles[kernel, tuple(sizes)] = run.trace.cycles
            self.ours.append((label, compiled, spec, run))
        for key, payload in self.payloads.items():
            request = self.requests[key]
            label = request.label()
            try:
                if request.kind == "measure":
                    local = cycles[request.kernel, request.sizes]
                    if payload["cycles"] != local:
                        raise JobFailed(
                            f"{label}: served {payload['cycles']} "
                            f"cycles, a local compile gives {local}"
                        )
                else:
                    builder, resolved = resolve_kernel(
                        request.kernel, request.sizes
                    )
                    _simulate(
                        label,
                        CompiledKernel.from_json(payload),
                        builder(*resolved)[1],
                        self.seed,
                    )
            except Exception as error:  # a bad artifact, not a crash
                failures.append(f"{label}: {error}")
        return failures

    def extra_rss_mb(self) -> float:
        with open(f"/proc/{self.server.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        return 0.0

    def layer_metrics(self, ms: dict, section, factor: float) -> dict:
        by_path: dict = {True: [], False: []}
        for jobs, latencies in zip(section.round_jobs, section.rounds):
            # run.py tags every job with its ordinal.
            for (_, (_, is_first)), latency in zip(jobs, latencies):
                by_path[is_first].append(latency * 1000)
        # Direct store calls on this run's artifacts, on a scratch
        # store: the layer under the server, by itself.
        probe = ArtifactStore(os.path.join(self.scratch, "probe"))
        artifacts = [
            (
                "kernel" if self.requests[key].kind == "compile"
                else "cycles",
                key,
                payload,
            )
            for key, payload in self.payloads.items()
        ]
        puts = []
        gets = []
        for kind, key, payload in artifacts:
            start = time.perf_counter()
            probe.put(kind, key, payload)
            puts.append(time.perf_counter() - start)
        for kind, key, _ in artifacts:
            start = time.perf_counter()
            probe.get(kind, key)
            gets.append(time.perf_counter() - start)
        stats = self.client.stats()
        return {
            "service.hit_ms_p50": percentile(by_path[False], 50),
            "service.computed_ms_p50": percentile(by_path[True], 50),
            "service.hit_share": self.hits / self.submitted,
            "service.retries": (
                stats["counters"]["requests"] - self.submitted
            ),
            "service.faults": stats["counters"]["faults"],
            "service.server_rss_mb": self.extra_rss_mb(),
            "store.put_ms_p50": percentile(puts, 50) * 1000 * factor,
            "store.get_ms_p50": percentile(gets, 50) * 1000 * factor,
            "store.bytes": stats["store"]["bytes"],
            "store.artifacts": stats["store"]["entries"],
        }

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is None or server.poll() is not None:
            return
        try:
            self.client.shutdown()
            server.wait(timeout=30)
        except Exception:  # whatever went wrong, the server must end
            server.kill()
            server.wait()
            raise


WORKLOADS = {
    workload.name: workload
    for workload in (
        CompileSuite, SimSweep, ProfileSweep, TuneSearch, ServiceMix
    )
}
