"""End-to-end public API: compile a kernel, run it, measure it.

Typical use (see ``examples/quickstart.py``)::

    from repro import api, kernels

    module, spec = kernels.matmul(1, 200, 5)
    compiled = api.compile_linalg(module, pipeline="ours")
    result = api.run_kernel(compiled, spec.random_arguments())
    print(result.trace.summary())
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compiler import CompiledKernel, Compiler
from .dialects.builtin import ModuleOp
from .ir.printer import print_op
from .runtime.store import compile_key
from .snitch.machine import SnitchMachine
from .snitch.memory import TCDM
from .snitch.trace import ExecutionTrace


@dataclass
class KernelRun:
    """Outcome of simulating a compiled kernel."""

    trace: ExecutionTrace
    #: Final contents of each array argument, in argument order
    #: (``None`` for scalar arguments).
    arrays: list[np.ndarray | None]
    #: Cycle attribution (:class:`repro.obs.profiler.CycleProfile`)
    #: when ``run_kernel(..., profile=True)``; ``None`` otherwise.
    profile: object | None = None


def _compile_through_store(
    store, module: ModuleOp, compiler: Compiler, extra="", **compile_args
) -> CompiledKernel:
    """A content-addressed compile: rehydrate on a hit, else compile
    and persist.

    The key is taken *before* compilation (the pipeline lowers the
    module in place): sha256 of the canonical module text, the
    compiler's canonical pipeline spec, and the engine and compiler
    versions.
    """
    key = compile_key(print_op(module), compiler.pipeline_spec + extra)
    payload = store.get("kernel", key)
    if payload is not None:
        return CompiledKernel.from_json(payload)
    compiled = compiler.compile(module, **compile_args)
    store.put("kernel", key, compiled.to_json())
    return compiled


def compile_linalg(
    module: ModuleOp,
    pipeline: str = "ours",
    unroll_factor: int | None = None,
    snapshots: bool = False,
    store=None,
) -> CompiledKernel:
    """Compile a linalg-level module and emit assembly.

    ``pipeline`` is a named pipeline or any textual pipeline spec —
    a thin wrapper over :class:`repro.compiler.Compiler`.

    ``store`` (an :class:`~repro.service.ArtifactStore`) opts into the
    content-addressed fast path: the kernel is looked up by sha256 of
    (canonical module text, canonical pipeline spec, engine and
    compiler version) and rehydrated without recompiling on a hit; a
    miss compiles and persists the artifact.  Rehydrated kernels carry
    no lowered module (see :attr:`CompiledKernel.rehydrated`);
    requesting ``snapshots`` bypasses the store, since snapshots only
    exist on a fresh compile.
    """
    compiler = Compiler(
        pipeline,
        unroll_factor=unroll_factor,
        snapshots=snapshots,
    )
    if store is None or snapshots:
        return compiler.compile(module)
    return _compile_through_store(store, module, compiler)


def compile_lowlevel(
    module: ModuleOp, entry: str, store=None
) -> CompiledKernel:
    """Compile a handwritten dialect-level kernel (paper Section 4.2).

    The module already contains ``rv_func``/``snitch_stream``/
    ``rv_snitch`` IR, possibly partially register-allocated; only the
    backend stages of the ``"lowlevel"`` named pipeline run: stream
    lowering, register allocation, loop flattening, emission.

    ``store`` opts into the same content-addressed fast path as
    :func:`compile_linalg` (the entry symbol joins the key, since it
    is an input to compilation here).
    """
    compiler = Compiler("lowlevel", verify_input=False)
    if store is None:
        return compiler.compile(module, entry=entry)
    return _compile_through_store(
        store, module, compiler, extra=f"|entry={entry}", entry=entry
    )


def run_kernel(
    compiled: CompiledKernel,
    arguments: list[np.ndarray | float],
    max_instructions: int = 50_000_000,
    deadline_seconds: float | None = None,
    profile: bool = False,
) -> KernelRun:
    """Simulate a compiled kernel on fresh TCDM contents.

    ``arguments`` parallel the kernel's parameters: numpy arrays are
    copied into TCDM buffers and passed as pointers in ``a0, a1, ...``;
    Python floats are passed in ``fa0, fa1, ...``.  Arrays are copied
    back after execution (``KernelRun.arrays``).  ``deadline_seconds``
    arms the simulator's cooperative wall-clock watchdog: a run that
    exceeds it raises :class:`~repro.snitch.machine.DeadlineExceeded`
    instead of monopolising the process.

    ``profile=True`` attaches the cycle-attribution profiler
    (:mod:`repro.obs.profiler`) to the same engine run, with the issue
    timeline recorded; ``KernelRun.profile`` then carries the
    per-bucket breakdown and FPU utilization.
    """
    memory = TCDM()
    int_args: dict[str, int] = {}
    float_args: dict[str, float] = {}
    placements: list[tuple[int, np.ndarray] | None] = []
    next_int = 0
    next_float = 0
    for argument in arguments:
        if isinstance(argument, np.ndarray):
            base = memory.allocate(argument.nbytes)
            memory.write_array(base, argument)
            int_args[f"a{next_int}"] = base
            next_int += 1
            placements.append((base, argument))
        else:
            float_args[f"fa{next_float}"] = float(argument)
            next_float += 1
            placements.append(None)
    machine = SnitchMachine(
        compiled.program,
        memory,
        max_instructions=max_instructions,
        record_timeline=profile,
        deadline_seconds=deadline_seconds,
    )
    cycle_profile = None
    if profile:
        from .obs.profiler import CycleProfiler

        profiler = CycleProfiler.attach(machine)
    trace = machine.run(
        compiled.entry, int_args=int_args, float_args=float_args
    )
    if profile:
        cycle_profile = profiler.finalize(machine)
    arrays: list[np.ndarray | None] = []
    for placement in placements:
        if placement is None:
            arrays.append(None)
            continue
        base, original = placement
        arrays.append(
            memory.read_array(base, original.shape, original.dtype)
        )
    return KernelRun(trace=trace, arrays=arrays, profile=cycle_profile)


__all__ = [
    "CompiledKernel",
    "Compiler",
    "KernelRun",
    "compile_linalg",
    "compile_lowlevel",
    "run_kernel",
]
