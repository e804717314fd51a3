"""Host bytecode attribution: which pass the compiler's Python ran in.

Wall-clock on a shared host is noisy; the number of bytecodes the
interpreter executes is exact and repeatable on one CPython minor
version.  :class:`BytecodeCounter` counts them with the standard
library's per-opcode trace events (``sys.settrace`` with
``f_trace_opcodes``) and charges every one to exactly one bucket:

* a pass's *self* count — from the pass manager's ``before_pass`` hook
  to the end of the pass, its callees included;
* that pass's *post-pass verify* — the ``verify``/``verify_changes``
  call the pass manager makes after it;
* the *unattributed residual* — everything else counted: input
  verification, pipeline set-up, assembly emission.

The buckets partition the total by construction.  It costs nothing
when off: it is a :class:`~repro.ir.pass_manager.PassInstrumentation`
that only the caller who asked for counts installs, and the trace
function is installed only while :meth:`BytecodeCounter.count` runs.

    counter = BytecodeCounter()
    counter.count(Compiler("ours", instrument=counter).compile, module)
    print(counter.report())
"""

from __future__ import annotations

import gc
import sys
from dataclasses import dataclass

from ..ir import verifier
from ..ir.pass_manager import PassInstrumentation, PassManager

#: The pass manager's post-pass verifiers, as the frames that run them.
_VERIFY_CODES = frozenset(
    (verifier.verify.__code__, verifier.verify_changes.__code__)
)
_MANAGER_RUN = PassManager.run.__code__


@dataclass
class PassCount:
    """One executed pass: its own bytecodes and its post-pass verify."""

    name: str
    self_count: int = 0
    verify_count: int = 0


class BytecodeCounter(PassInstrumentation):
    """Counts the bytecodes run under :meth:`count`, by pass."""

    def __init__(self):
        #: One entry per executed pass, in order (a pipeline may run
        #: the same pass name more than once).
        self.passes: list[PassCount] = []
        self.residual = 0
        self._bucket: PassCount | None = None
        self._verify_frame = None

    @property
    def total(self) -> int:
        return self.residual + sum(
            entry.self_count + entry.verify_count for entry in self.passes
        )

    def before_pass(self, pass_, module) -> None:
        self._bucket = PassCount(pass_.name)
        self.passes.append(self._bucket)

    def after_pass(self, pass_, module, elapsed) -> None:
        self._bucket = None

    def count(self, body, *args):
        """``body(*args)``, counting the bytecodes this thread runs in
        it; returns what ``body`` returns.

        The cyclic collector is held off for the count (after one
        collection, so earlier garbage is gone) and restored after:
        a collection runs finalizers and ``gc.callbacks`` in whatever
        frame triggers it, which would charge Python that is not
        ``body``'s to it, by allocation timing."""

        def charge(frame, event, arg):
            if event == "opcode":
                bucket = self._bucket
                if bucket is None:
                    self.residual += 1
                elif self._verify_frame is None:
                    bucket.self_count += 1
                else:
                    bucket.verify_count += 1
            elif event == "return" and frame is self._verify_frame:
                self._verify_frame = None
            return charge

        def on_call(frame, event, arg):
            frame.f_trace_opcodes = True
            frame.f_trace_lines = False
            if (
                frame.f_code in _VERIFY_CODES
                and frame.f_back.f_code is _MANAGER_RUN
            ):
                # Charged to verify, callees included, until it returns.
                self._verify_frame = frame
            return charge

        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        sys.settrace(on_call)
        try:
            return body(*args)
        finally:
            sys.settrace(None)
            if enabled:
                gc.enable()

    def report(self) -> str:
        """Per pass: self count, then its post-pass verify; then the
        residual and the total."""
        width = max([len(entry.name) for entry in self.passes] + [16])
        rows = [f"{'bytecodes':>12}  pass"]
        for entry in self.passes:
            rows.append(f"{entry.self_count:>12}  {entry.name}")
            rows.append(f"{entry.verify_count:>12}    verify")
        rows.append(f"{self.residual:>12}  (unattributed)")
        rows.append(f"{'-' * 12}  {'-' * width}")
        rows.append(f"{self.total:>12}  total")
        return "\n".join(rows)


__all__ = ["BytecodeCounter", "PassCount"]
