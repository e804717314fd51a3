"""The composable compilation facade.

:class:`Compiler` is the one entry point every flow goes through —
named pipelines, raw textual pipeline specs, or explicit pass
sequences::

    from repro.compiler import Compiler

    Compiler().compile(module)                      # the paper's flow
    Compiler(pipeline="table3-frep").compile(module)
    Compiler(
        pipeline="convert-linalg-to-memref-stream,fuse-fill,"
                 "scalar-replacement,unroll-and-jam{factor=4},"
                 "lower-to-snitch{use-frep=true},verify-streams,"
                 "lower-snitch-stream,canonicalize,dce,"
                 "allocate-registers,lower-riscv-scf,"
                 "eliminate-identity-moves",
    ).compile(module)

``api.compile_linalg`` / ``api.compile_lowlevel`` are thin wrappers
over this class; the CLI (``repro.tools.kernel_compiler``) exposes the
same spec strings on ``--pipeline``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .backend.asm_emitter import emit_module
from .backend.register_allocator import count_used_registers
from .dialects import riscv_func
from .dialects.builtin import ModuleOp
from .ir.pass_manager import (
    ModulePass,
    PassInstrumentation,
    PassManager,
)
from .ir.verifier import verify
from .snitch import engine
from .snitch.assembler import Program, assemble
from .transforms.lowering_kit import LoweringError
from .transforms.pipelines import build_pipeline


@dataclass
class CompiledKernel:
    """A kernel compiled down to Snitch assembly.

    Round-trippable: :meth:`to_json` serializes everything execution
    needs (assembly, entry symbol, pass timings/stats) and
    :meth:`from_json` rehydrates a runnable kernel *without
    recompiling* — the content-addressed artifact store
    (:mod:`repro.runtime.store`) persists kernels in exactly this
    form.  A rehydrated kernel has no lowered module
    (:attr:`rehydrated` is true), so IR-level introspection such as
    :meth:`register_usage` is unavailable on it; simulation is not —
    :attr:`program` assembles from the stored text either way.
    """

    #: The lowered module (rv-level IR, registers allocated); None on
    #: a kernel rehydrated from a stored artifact.
    module: ModuleOp | None
    #: The emitted assembly text.
    asm: str
    #: Entry symbol.
    entry: str
    #: (pass name, IR text) snapshots if requested at compile time.
    snapshots: list[tuple[str, str]] = field(default_factory=list)
    #: (pass name, seconds) per-pass compile-time timings.
    pass_timings: list[tuple[str, float]] = field(default_factory=list)
    #: (pass name, rewrite-driver counters) per pass: ops visited,
    #: pattern invocations, rewrites applied.
    pass_stats: list[tuple[str, dict[str, int]]] = field(
        default_factory=list
    )

    @cached_property
    def program(self) -> Program:
        """The assembled program (parsed once, then cached).

        Returning one ``Program`` object per kernel matters beyond the
        parse cost: the simulator's predecoded engine memoizes its
        decode on the ``Program``, so every run and every cluster core
        executing this kernel shares a single decode.
        """
        return assemble(self.asm)

    @property
    def rehydrated(self) -> bool:
        """Whether this kernel came from a stored artifact (no IR)."""
        return self.module is None

    def register_usage(self) -> tuple[int, int]:
        """(FP, integer) registers used — the paper's Table 2 metric."""
        if self.module is None:
            raise ValueError(
                "register_usage needs the lowered module; this kernel "
                "was rehydrated from a stored artifact (assembly only)"
            )
        for op in self.module.walk():
            if isinstance(op, riscv_func.FuncOp):
                return count_used_registers(op)
        raise ValueError("no function in compiled module")

    def to_json(self) -> dict:
        """Serialize for the artifact store (module text excluded —
        the store key already content-addresses the *input* module;
        the lowered IR is recomputable and large)."""
        return {
            "asm": self.asm,
            "entry": self.entry,
            "pass_timings": [
                [name, seconds] for name, seconds in self.pass_timings
            ],
            "pass_stats": [
                [name, dict(counters)]
                for name, counters in self.pass_stats
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CompiledKernel":
        """Rehydrate a kernel from its stored artifact form."""
        try:
            return cls(
                module=None,
                asm=data["asm"],
                entry=data["entry"],
                pass_timings=[
                    (str(name), float(seconds))
                    for name, seconds in data.get("pass_timings", [])
                ],
                pass_stats=[
                    (str(name), dict(counters))
                    for name, counters in data.get("pass_stats", [])
                ],
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(
                f"malformed CompiledKernel artifact: {error}"
            ) from None


#: Version of the *emitted code*.  Bump it whenever a change alters the
#: assembly produced for an unchanged (module, pipeline spec): every
#: persisted key folds it in through :func:`artifact_versions`, so
#: stores and cycle caches miss instead of serving the old code with a
#: valid checksum.  (``ENGINE_VERSION`` is the same switch for the
#: simulator's timing model.)
COMPILER_VERSION = 5


def artifact_versions() -> tuple[int, int]:
    """``(ENGINE_VERSION, COMPILER_VERSION)`` — what every persisted
    artifact key and every stored :class:`~repro.tune.TunedSchedule`
    carries.  Read at call time, so a bump (or a test's monkeypatch)
    reaches every key site at once."""
    return engine.ENGINE_VERSION, COMPILER_VERSION


class Compiler:
    """Compile modules through a composable pass pipeline.

    ``pipeline`` selects the flow and may be:

    * a named pipeline (``"ours"``, ``"table3-frep"``, ``"lowlevel"``,
      ... — see ``transforms.pipelines.NAMED_PIPELINES``);
    * a raw textual pipeline spec
      (``"fuse-fill,unroll-and-jam{factor=4},..."``);
    * a :class:`PassManager` (used as-is; ``verify_each`` etc. are then
      taken from the manager, and snapshots/timings accumulate across
      compiles);
    * a sequence of :class:`ModulePass` instances.

    ``unroll_factor`` overrides every ``unroll-and-jam`` pass in a
    name/spec pipeline; ``verify_each`` verifies the module after every
    pass; ``verify_input`` verifies it before the first; ``snapshots``
    records the IR after every pass onto the compiled kernel; and
    ``instrument`` receives :class:`PassInstrumentation` callbacks
    around each pass.
    """

    def __init__(
        self,
        pipeline: str | PassManager | Sequence[ModulePass] = "ours",
        *,
        unroll_factor: int | None = None,
        verify_each: bool = True,
        verify_input: bool = True,
        snapshots: bool = False,
        instrument: PassInstrumentation | None = None,
    ):
        self.pipeline = pipeline
        self.unroll_factor = unroll_factor
        self.verify_each = verify_each
        self.verify_input = verify_input
        self.snapshots = snapshots
        self.instrument = instrument
        self._prebuilt: PassManager | None = None
        self._canonical_spec: str | None = None
        self._spec_passes: list[ModulePass] | None = None
        # Resolve names/specs eagerly so a bad pipeline fails at
        # construction, not at first compile; the built manager is
        # kept for the first compile.  The canonical spec text itself
        # is derived lazily — computing it costs as much as building
        # the manager and most compiles never read it.
        if isinstance(pipeline, str):
            self._prebuilt = self._make_manager()
            self._spec_passes = list(self._prebuilt.passes)

    def _make_manager(self) -> PassManager:
        """A pass manager for one compile.

        Built fresh per compile for name/spec/sequence pipelines so
        snapshots and timings are per-kernel (the eagerly validated
        manager serves the first compile); an explicitly provided
        :class:`PassManager` is reused as given.
        """
        if isinstance(self.pipeline, PassManager):
            return self.pipeline
        if self._prebuilt is not None:
            manager, self._prebuilt = self._prebuilt, None
            return manager
        if isinstance(self.pipeline, str):
            return build_pipeline(
                self.pipeline,
                unroll_factor=self.unroll_factor,
                snapshot=self.snapshots,
                verify_each=self.verify_each,
                instrument=self.instrument,
            )
        return PassManager(
            list(self.pipeline),
            verify_each=self.verify_each,
            snapshot=self.snapshots,
            instrument=self.instrument,
        )

    @property
    def pipeline_spec(self) -> str:
        """The flow as a canonical, round-trippable textual spec."""
        if self._canonical_spec is None:
            if self._spec_passes is not None:
                from .ir.pipeline_spec import (
                    pass_to_spec,
                    print_pipeline_spec,
                )

                self._canonical_spec = print_pipeline_spec(
                    pass_to_spec(p) for p in self._spec_passes
                )
            else:
                return self._make_manager().pipeline_spec
        return self._canonical_spec

    def compile(
        self, module: ModuleOp, entry: str | None = None
    ) -> CompiledKernel:
        """Lower ``module`` in place and emit assembly.

        ``entry`` names the entry symbol for modules whose pipeline
        does not start from ``func.func`` (e.g. handwritten rv-level
        kernels); by default the first ``rv_func.func`` produced by the
        pipeline is the entry.
        """
        manager = self._make_manager()
        if self.verify_input:
            verify(module)
        manager.run(module)
        if entry is None:
            for op in module.block.ops:
                if isinstance(op, riscv_func.FuncOp):
                    entry = op.sym_name
                    break
            if entry is None:
                raise LoweringError(
                    f"pipeline {manager.pipeline_spec!r} produced no "
                    f"rv_func.func"
                )
        asm = emit_module(module)
        return CompiledKernel(
            module=module,
            asm=asm,
            entry=entry,
            snapshots=list(manager.snapshots),
            pass_timings=list(manager.timings),
            pass_stats=list(manager.pass_stats),
        )


__all__ = [
    "COMPILER_VERSION",
    "CompiledKernel",
    "Compiler",
    "artifact_versions",
]
