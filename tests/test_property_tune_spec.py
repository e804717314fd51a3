"""Property test: tuned-schedule pipeline specs round-trip.

Any legal (unroll factor, unroll dim) option set must survive
``parse -> print -> parse`` of the textual pipeline-spec language
unchanged, and compiling the same kernel from the original and the
re-printed spec must produce byte-identical assembly — a tuned
schedule is exactly as reproducible as the spec string that names it.
"""

from hypothesis import given, settings, strategies as st

from repro import api, kernels
from repro.ir.pipeline_spec import (
    parse_pipeline_spec,
    print_pipeline_spec,
)
from repro.transforms.pipelines import scheduled_pipeline_spec
from repro.transforms.unroll_and_jam import legal_unroll_factors

#: Kernel shapes small enough to compile by the dozen, each with at
#: least one reduction (so the unroll axis is live) and two leading
#: parallel dims, both output-varying (so either is a legal ``dim``).
_SHAPES = st.sampled_from(
    [
        ("matmul", (2, 4, 4)),
        ("matmul", (4, 4, 8)),
        ("matmul", (1, 8, 8)),
        ("matmul_t", (2, 4, 6)),
        ("conv3x3", (4, 4)),
        ("max_pool3x3", (4, 4)),
    ]
)

_BUILDERS = {
    "matmul": kernels.matmul,
    "matmul_t": kernels.matmul_transposed,
    "conv3x3": kernels.conv3x3,
    "max_pool3x3": kernels.max_pool3x3,
}

#: Parallel-dim bounds per kernel family (post-conversion order).
_PARALLEL_BOUNDS = {
    "matmul": lambda s: (s[0], s[2]),
    "matmul_t": lambda s: (s[0], s[2]),
    "conv3x3": lambda s: (s[0], s[1]),
    "max_pool3x3": lambda s: (s[0], s[1]),
}


@st.composite
def _legal_option_sets(draw):
    """(kernel, sizes, factor | None, dim | None)."""
    kernel, sizes = draw(_SHAPES)
    bounds = _PARALLEL_BOUNDS[kernel](sizes)
    dim = draw(st.one_of(st.none(), st.sampled_from(range(len(bounds)))))
    # unroll-and-jam splits the requested dim, else the innermost
    # parallel one; any exact divisor of its bound is legal.
    bound = bounds[-1 if dim is None else dim]
    factor = draw(
        st.one_of(
            st.none(), st.sampled_from(legal_unroll_factors(bound) or [1])
        )
    )
    return kernel, sizes, factor, dim


@given(_legal_option_sets())
@settings(max_examples=25, deadline=None)
def test_legal_schedule_specs_round_trip(option_set):
    kernel, sizes, factor, dim = option_set
    spec_text = scheduled_pipeline_spec(unroll_factor=factor, unroll_dim=dim)
    parsed = parse_pipeline_spec(spec_text)
    printed = print_pipeline_spec(parsed)
    assert parse_pipeline_spec(printed) == parsed
    # The canonical print is stable (print . parse is idempotent).
    assert print_pipeline_spec(parse_pipeline_spec(printed)) == printed

    builder = _BUILDERS[kernel]
    module_a, _ = builder(*sizes)
    module_b, _ = builder(*sizes)
    asm_original = api.compile_linalg(module_a, pipeline=spec_text).asm
    asm_reprinted = api.compile_linalg(module_b, pipeline=printed).asm
    assert asm_original == asm_reprinted
