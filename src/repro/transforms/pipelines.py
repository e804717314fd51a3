"""Named compilation pipelines, declared as textual pipeline specs.

``ours`` is the full multi-level flow of paper Section 3.4; the
``table3-*`` prefixes reproduce the incremental ablation of Table 3;
``clang``/``mlir`` are the general-purpose-backend comparison flows of
Figure 8 (both lower through explicit loops and loads/stores and differ
only in how much mid-level optimisation happens before the backend);
and ``lowlevel`` is the backend-only tail used for handwritten
dialect-level kernels (Section 4.2).

Each pipeline is a spec string in :data:`NAMED_PIPELINES`
(:mod:`repro.ir.pipeline_spec` syntax) and is built through the pass
registry — :func:`build_pipeline` accepts a pipeline name *or* any raw
spec string, so arbitrary flows compose without touching this table::

    build_pipeline("convert-linalg-to-memref-stream,fuse-fill,"
                   "scalar-replacement,unroll-and-jam{factor=4},"
                   "lower-to-snitch,verify-streams,fuse-fmadd,"
                   "lower-snitch-stream,canonicalize,dce,"
                   "allocate-registers,lower-riscv-scf,"
                   "eliminate-identity-moves")
"""

from __future__ import annotations

from ..ir.pass_manager import PassInstrumentation, PassManager
from ..ir.pipeline_spec import PipelineSpecError, parse_pipeline_spec
from .registry import PASS_REGISTRY
from .unroll_and_jam import UnrollAndJamPass

#: Shared tail of the streaming flows: verify streams, fuse FMAs,
#: lower streams, allocate registers, flatten loops.
_SNITCH_BACKEND = (
    "verify-streams,fuse-fmadd,lower-snitch-stream,canonicalize,dce,"
    "allocate-registers,lower-riscv-scf,eliminate-identity-moves"
)

#: Shared tail of the general-purpose (no-Snitch-extension) flows.
_LOOPS_BACKEND = (
    "convert-to-riscv,fuse-fmadd,dce,allocate-registers,"
    "lower-riscv-scf,eliminate-identity-moves"
)

#: Backend tail after pointer-loop lowering (already rv-level).
_POINTER_BACKEND = (
    "fuse-fmadd,dce,allocate-registers,lower-riscv-scf,"
    "eliminate-identity-moves"
)

_FRONT = "convert-linalg-to-memref-stream"

_OURS = (
    f"{_FRONT},fuse-fill,scalar-replacement,unroll-and-jam,"
    f"lower-to-snitch,{_SNITCH_BACKEND}"
)

#: Pipeline name -> textual pipeline spec.
#:
#: ============== ========================================================
#: name           contents
#: ============== ========================================================
#: ours           full flow: fuse-fill, scalar replacement, unroll-and-jam,
#:                streams + FREP (paper Section 3.4)
#: table3-baseline direct loop lowering, standard RISC-V only
#: table3-streams  + SSR input streams
#: table3-scalar   + scalar replacement of the accumulator
#: table3-frep     + FREP hardware loops
#: table3-fuse     + fill fusion (output becomes a pure write stream)
#: table3-unroll   + unroll-and-jam (== ours)
#: clang          naive loop flow (stands in for the C/Clang baseline)
#: mlir           loop flow with mid-level scalar replacement (stands in
#:                for the upstream-MLIR baseline)
#: lowlevel       backend-only tail for handwritten dialect-level kernels
#: ============== ========================================================
NAMED_PIPELINES: dict[str, str] = {
    "ours": _OURS,
    "table3-baseline": f"{_FRONT},lower-generic-to-loops,{_LOOPS_BACKEND}",
    "table3-streams": (
        f"{_FRONT},lower-to-snitch{{use-frep=false}},{_SNITCH_BACKEND}"
    ),
    "table3-scalar": (
        f"{_FRONT},scalar-replacement,lower-to-snitch{{use-frep=false}},"
        f"{_SNITCH_BACKEND}"
    ),
    "table3-frep": (
        f"{_FRONT},scalar-replacement,lower-to-snitch,{_SNITCH_BACKEND}"
    ),
    "table3-fuse": (
        f"{_FRONT},fuse-fill,scalar-replacement,lower-to-snitch,"
        f"{_SNITCH_BACKEND}"
    ),
    "table3-unroll": _OURS,
    "clang": (
        f"{_FRONT},lower-generic-to-pointer-loops,{_POINTER_BACKEND}"
    ),
    "mlir": (
        f"{_FRONT},scalar-replacement,lower-generic-to-pointer-loops,"
        f"{_POINTER_BACKEND}"
    ),
    "lowlevel": (
        "lower-snitch-stream,canonicalize,dce,allocate-registers,"
        "lower-riscv-scf,eliminate-identity-moves"
    ),
}


def scheduled_pipeline_spec(
    unroll_factor: int | None = None,
    unroll_dim: int | None = None,
    use_frep: bool = True,
) -> str:
    """The ``ours`` flow with explicit schedule choices as pass options.

    This is how a tuned schedule round-trips as a plain pipeline-spec
    string: unroll-and-jam factor/dim (None = the paper's automatic
    heuristics).  ``scheduled_pipeline_spec()`` with no arguments is
    exactly :data:`NAMED_PIPELINES`\\ ["ours"]'s flow.
    """
    stages = [_FRONT, "fuse-fill", "scalar-replacement"]
    options = []
    if unroll_factor is not None:
        options.append(f"factor={unroll_factor}")
    if unroll_dim is not None:
        options.append(f"dim={unroll_dim}")
    stages.append(
        f"unroll-and-jam{{{' '.join(options)}}}" if options
        else "unroll-and-jam"
    )
    stages.append(
        "lower-to-snitch" if use_frep else "lower-to-snitch{use-frep=false}"
    )
    stages.append(_SNITCH_BACKEND)
    return ",".join(stages)


def expand_pipeline(pipeline: str) -> str:
    """Resolve a pipeline name to its spec (specs pass through)."""
    if pipeline in NAMED_PIPELINES:
        return NAMED_PIPELINES[pipeline]
    if (
        "," not in pipeline
        and "{" not in pipeline
        and pipeline not in PASS_REGISTRY
    ):
        # Neither a named pipeline nor anything spec-shaped: reject
        # with the full menu rather than a parse error.
        import difflib

        message = f"unknown pipeline {pipeline!r}"
        close = difflib.get_close_matches(
            pipeline,
            list(NAMED_PIPELINES) + list(PASS_REGISTRY.names()),
            n=3,
        )
        if close:
            message += f" — did you mean {' or '.join(close)}?"
        raise PipelineSpecError(
            f"{message} (named pipelines: "
            f"{', '.join(sorted(NAMED_PIPELINES))}; or pass a spec "
            f"string of registered passes: "
            f"{', '.join(PASS_REGISTRY.names())})"
        )
    return pipeline


def build_pipeline(
    pipeline: str,
    unroll_factor: int | None = None,
    snapshot: bool = False,
    verify_each: bool = True,
    instrument: PassInstrumentation | None = None,
) -> PassManager:
    """Construct a pass manager from a pipeline name or spec string.

    ``unroll_factor`` overrides the factor of every ``unroll-and-jam``
    pass in the resulting pipeline (None keeps each pass's own
    configuration — automatic selection unless the spec says
    ``unroll-and-jam{factor=N}``).
    """
    specs = parse_pipeline_spec(expand_pipeline(pipeline))
    passes = PASS_REGISTRY.build_pipeline_specs(specs)
    if unroll_factor is not None:
        for pass_ in passes:
            if isinstance(pass_, UnrollAndJamPass):
                pass_.factor = unroll_factor
    return PassManager(
        passes,
        verify_each=verify_each,
        snapshot=snapshot,
        instrument=instrument,
    )


#: Pipeline names accepted by :func:`build_pipeline` (the linalg-level
#: evaluation flows; ``lowlevel`` is additionally in NAMED_PIPELINES).
PIPELINE_NAMES = (
    "ours",
    "table3-baseline",
    "table3-streams",
    "table3-scalar",
    "table3-frep",
    "table3-fuse",
    "table3-unroll",
    "clang",
    "mlir",
)

#: The Table 3 ablation stages, in the paper's cumulative order.
TABLE3_STAGES = (
    ("Baseline", "table3-baseline"),
    ("+ Streams", "table3-streams"),
    ("+ Scalar Replacement", "table3-scalar"),
    ("+ FRep", "table3-frep"),
    ("+ Fuse Fill", "table3-fuse"),
    ("+ Unroll-and-Jam", "table3-unroll"),
)


__all__ = [
    "NAMED_PIPELINES",
    "PIPELINE_NAMES",
    "TABLE3_STAGES",
    "build_pipeline",
    "expand_pipeline",
    "scheduled_pipeline_spec",
]
