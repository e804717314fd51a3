"""Module passes and the pass manager.

The multi-level backend is "structured as small, self-contained passes,
making it easier to introspect, develop and maintain" (paper Section 3.4).
A :class:`ModulePass` transforms a module in place; a :class:`PassManager`
runs a named sequence and can record IR snapshots between stages (used by
the progressive-lowering example and the ablation benchmarks).
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Sequence

from ..obs.metrics import METRICS
from ..obs.tracing import span
from .core import RECORDING, ChangeSet, Operation
from .printer import print_op
from .verifier import verify, verify_changes

#: Callbacks invoked with every newly defined :class:`ModulePass`
#: subclass — how the pass registry auto-registers passes at import
#: time (see :mod:`repro.transforms.registry`).
SUBCLASS_HOOKS: list[Callable[[type], None]] = []


class ModulePass:
    """Base class of all passes; subclasses set ``name`` and ``run``."""

    #: Identifier used in pipeline specifications.
    name = "unnamed-pass"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for hook in SUBCLASS_HOOKS:
            hook(cls)

    def run(self, module: Operation) -> None:
        """Transform ``module`` in place."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<pass {self.name}>"


class FunctionPass(ModulePass):
    """A pass applied independently to each function-like op.

    Subclasses implement :meth:`run_on_function`; functions are discovered
    by walking for ops whose name ends in ``.func``.
    """

    def run(self, module: Operation) -> None:
        for op in list(module.walk()):
            if op.name.endswith(".func"):
                self.run_on_function(op)

    def run_on_function(self, func: Operation) -> None:
        """Transform one function in place."""
        raise NotImplementedError


class PassInstrumentation:
    """Observer hooks around every pass a :class:`PassManager` runs.

    Subclass and override any subset; hand an instance to
    ``PassManager(instrument=...)`` (or ``Compiler(instrument=...)``).
    """

    def before_pass(self, pass_: ModulePass, module: Operation) -> None:
        """Called immediately before ``pass_`` runs."""

    def after_pass(
        self, pass_: ModulePass, module: Operation, elapsed: float
    ) -> None:
        """Called after ``pass_`` (and verification); ``elapsed`` is
        the pass run time in seconds."""


class PrintIRInstrumentation(PassInstrumentation):
    """Print the IR after every pass (``--print-ir-after-all``)."""

    def __init__(self, stream=None):
        self.stream = stream

    def after_pass(self, pass_, module, elapsed) -> None:
        stream = self.stream if self.stream is not None else sys.stdout
        print(f"// -----// IR after {pass_.name} //----- //", file=stream)
        print(print_op(module), file=stream)


class PassManager:
    """Runs a sequence of passes, with optional verification,
    IR snapshots, per-pass timing and instrumentation hooks.

    With ``verify_each`` the module is verified after every pass: in
    full after the first (the manager cannot know its input was
    checked) and after the last (the backstop for a pass that went
    around the mutation primitives of :mod:`repro.ir.core`), and in
    between only over what the pass changed, as those primitives
    recorded it (:func:`~repro.ir.verifier.verify_changes`).
    """

    def __init__(
        self,
        passes: Sequence[ModulePass] = (),
        verify_each: bool = True,
        snapshot: bool = False,
        instrument: PassInstrumentation | None = None,
    ):
        self.passes: list[ModulePass] = list(passes)
        self.verify_each = verify_each
        self.snapshot = snapshot
        self.instrument = instrument
        #: (pass name, IR text) pairs recorded when ``snapshot`` is set.
        self.snapshots: list[tuple[str, str]] = []
        #: (pass name, seconds) pairs, recorded on every run.
        self.timings: list[tuple[str, float]] = []
        #: (pass name, rewrite-driver counts) pairs: ops visited,
        #: pattern invocations and rewrites applied by each pass.
        self.pass_stats: list[tuple[str, dict[str, int]]] = []

    def add(self, pass_: ModulePass) -> "PassManager":
        """Append a pass; returns self for chaining."""
        self.passes.append(pass_)
        return self

    def run(self, module: Operation) -> None:
        """Run every pass in order on ``module``."""
        if self.snapshot:
            self.snapshots.append(("input", print_op(module)))
        last = len(self.passes) - 1
        size = 0  # ops in the module, as the verifier last counted
        for position, pass_ in enumerate(self.passes):
            if self.instrument is not None:
                self.instrument.before_pass(pass_, module)
            # One recorder per pass, on this thread only; mutations
            # are noted only where they will be verified from.  (A
            # manager run from inside a pass records for, and then
            # hands all it saw to, the outer pass's recorder.)
            incremental = self.verify_each and 0 < position < last
            outer, outer_changes = RECORDING.rewrites, RECORDING.changes
            changes = ChangeSet()
            RECORDING.rewrites = changes
            if incremental or outer_changes is not None:
                RECORDING.changes = changes
            start = time.perf_counter()
            try:
                with span(f"pass.{pass_.name}"):
                    pass_.run(module)
            finally:
                RECORDING.rewrites, RECORDING.changes = outer, outer_changes
                if outer is not None:
                    outer.absorb(changes)
            elapsed = time.perf_counter() - start
            self.timings.append((pass_.name, elapsed))
            METRICS.histogram(
                "compile_pass_seconds", **{"pass": pass_.name}
            ).observe(elapsed)
            self.pass_stats.append(
                (
                    pass_.name,
                    {
                        "ops_visited": changes.ops_visited,
                        "pattern_invocations": changes.pattern_invocations,
                        "rewrites_applied": changes.rewrites_applied,
                    },
                )
            )
            if self.verify_each:
                with span("ir.verify"):
                    if incremental:
                        size = verify_changes(module, changes, size)
                    else:
                        size = verify(module)
            if self.instrument is not None:
                self.instrument.after_pass(pass_, module, elapsed)
            if self.snapshot:
                self.snapshots.append((pass_.name, print_op(module)))

    @property
    def pipeline_spec(self) -> str:
        """The scheduled passes as a round-trippable textual spec
        (non-default pass options included)."""
        from .pipeline_spec import pass_to_spec, print_pipeline_spec

        return print_pipeline_spec(pass_to_spec(p) for p in self.passes)


class LambdaPass(ModulePass):
    """Wrap a plain callable as a pass (handy in tests)."""

    def __init__(self, name: str, fn: Callable[[Operation], None]):
        self.name = name
        self._fn = fn

    def run(self, module: Operation) -> None:
        self._fn(module)


__all__ = [
    "ModulePass",
    "FunctionPass",
    "PassInstrumentation",
    "PassManager",
    "PrintIRInstrumentation",
    "LambdaPass",
]
