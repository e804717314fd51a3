"""Composing a custom pipeline from a textual spec.

The named pipelines ("ours", "table3-*", ...) are just entries in a
spec-string table — the same machinery accepts any composition of
registered passes.  This example builds a *custom* ablation the paper
never names: the full streaming flow but with a fixed unroll factor of
2 instead of the automatic selection, written as an MLIR-style spec
with a pass option (``unroll-and-jam{factor=2}``).  It then compares
the result against the stock "ours" flow on a matvec kernel.

Run with:  python examples/compose_pipeline.py
"""

import numpy as np

from repro import kernels
from repro.api import run_kernel
from repro.compiler import Compiler
from repro.ir.pipeline_spec import parse_pipeline_spec
from repro.transforms.pipelines import NAMED_PIPELINES

#: The full flow of paper Section 3.4, but with unroll factor pinned
#: to 2.  Every element is a registered pass; options are typed and
#: validated (try misspelling one to see the error message).
CUSTOM_SPEC = (
    "convert-linalg-to-memref-stream,fuse-fill,scalar-replacement,"
    "unroll-and-jam{factor=2},lower-to-snitch{use-frep=true},"
    "verify-streams,lower-snitch-stream,canonicalize,dce,"
    "allocate-registers,lower-riscv-scf,eliminate-identity-moves"
)


def measure(pipeline: str) -> tuple[str, float]:
    module, spec = kernels.matvec(4, 200)
    compiler = Compiler(pipeline)
    compiled = compiler.compile(module)
    arguments = spec.random_arguments(seed=0)
    result = run_kernel(compiled, arguments)
    expected = spec.reference(*arguments)[2]
    assert np.allclose(result.arrays[2], expected)
    return compiler.pipeline_spec, result.trace.fpu_utilization


def main() -> None:
    # The spec language round-trips: parse -> build -> print is
    # canonical, so pipelines are introspectable as plain text.
    print(f"# custom spec has {len(parse_pipeline_spec(CUSTOM_SPEC))} "
          f"passes; 'ours' expands to:\n#   {NAMED_PIPELINES['ours']}")
    for label, pipeline in (("ours", "ours"), ("custom", CUSTOM_SPEC)):
        spec_text, utilization = measure(pipeline)
        print(f"{label:<8} fpu-utilization={utilization:.1%}")
        print(f"         {spec_text}")


if __name__ == "__main__":
    main()
