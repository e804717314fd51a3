"""The peeled first reduction step: bit-identical outputs, one init.

On the fused, scalar-replaced path ``lower-to-snitch`` materialises the
fill constant once per kernel and peels each group's first reduction
step onto it: ``combine(init, x)`` runs outside the loop, exactly what
the first FREP iteration computed, and K-1 steps remain (inline when
that is one step; a reduction of one or two steps needs no loop, so its
pushes fold into their producers).  Three nets hold it:

* outputs — ``ours`` (peeled, unrolled) and ``table3-fuse`` (peeled)
  agree bit for bit with ``table3-frep``, which is unpeeled (the fill
  is its own loop and the accumulators are loaded), so it is an
  independent oracle.  Outputs are *poisoned* first:
  ``KernelSpec.random_arguments`` zero-fills them, which would hide an
  output element left unwritten or accumulated onto.  Hypothesis draws
  the reduction extent, 1, 2, 3 and primes included;
* every golden-asm case that peels, against the same oracle;
* the emitted shape — one ``fcvt.d.w`` per kernel, ahead of its first
  loop, and no ``frep.o`` or stream drain when K <= 2.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import api
from repro.kernels.builders import KERNEL_BUILDERS, ArrayArg
from repro.tools import kernel_compiler
from repro.transforms.pipelines import expand_pipeline
from test_golden_asm import CASES as GOLDEN_CASES

REDUCTION_KERNELS = (
    "conv3x3",
    "max_pool3x3",
    "sum_pool3x3",
    "matmul",
    "matmul_t",
    "matvec",
)
#: The flows that peel (fuse-fill + scalar replacement) and the
#: unpeeled oracle.
PEELED = ("ours", "table3-fuse")
ORACLE = "table3-frep"
#: Reduction extents: the empty 0 (nothing to peel: the init itself
#: is pushed), the loop-free 1 and 2, the shortest FREP (3), primes (no
#: unroll factor divides them) and a power of two.
EXTENTS = (0, 1, 2, 3, 5, 7, 8, 11, 13)

#: Finite and non-zero: a NaN would never compare equal, and 0.0 is the
#: value an output left unwritten already holds.
SENTINEL = 1234.5


def _outputs(kernel: str, sizes, pipeline: str):
    module, spec = KERNEL_BUILDERS[kernel][0](*sizes)
    compiled = api.compile_linalg(module, pipeline=pipeline)
    arguments = spec.random_arguments(seed=0)
    for argument, value in zip(spec.arguments, arguments):
        if isinstance(argument, ArrayArg) and argument.role == "out":
            value.fill(SENTINEL)
    expected = spec.reference(*arguments)
    arrays = api.run_kernel(compiled, arguments).arrays
    outputs = []
    for got, want in zip(arrays, expected):
        if want is not None:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
            outputs.append(got)
    return outputs


def _assert_peeled_match_oracle(kernel: str, sizes, peeled=PEELED):
    oracle = _outputs(kernel, sizes, ORACLE)
    for pipeline in peeled:
        for got, want in zip(_outputs(kernel, sizes, pipeline), oracle):
            assert np.array_equal(got, want), (kernel, sizes, pipeline)


def _asm(kernel: str, sizes, pipeline: str = "ours") -> str:
    module, _ = KERNEL_BUILDERS[kernel][0](*sizes)
    return api.compile_linalg(module, pipeline=pipeline).asm


# -- outputs ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    kernel=st.sampled_from(("matmul", "matmul_t")),
    m=st.integers(1, 3),
    k=st.sampled_from(EXTENTS),
    n=st.integers(1, 6),
)
@example(kernel="matmul", m=1, k=0, n=4)
@example(kernel="matmul_t", m=2, k=0, n=5)
@example(kernel="matmul", m=2, k=1, n=3)
@example(kernel="matmul", m=1, k=2, n=5)
@example(kernel="matmul_t", m=3, k=3, n=4)
@example(kernel="matmul_t", m=2, k=13, n=1)
def test_matmul_like_bit_identical(kernel, m, k, n):
    _assert_peeled_match_oracle(kernel, (m, k, n))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(rows=st.integers(1, 8), cols=st.sampled_from(EXTENTS))
@example(rows=4, cols=0)
@example(rows=4, cols=1)
@example(rows=3, cols=2)
@example(rows=5, cols=3)
def test_matvec_bit_identical(rows, cols):
    _assert_peeled_match_oracle("matvec", (rows, cols))


@pytest.mark.parametrize("kernel", REDUCTION_KERNELS[:3])
@pytest.mark.parametrize("sizes", [(1, 1), (2, 3), (4, 4), (3, 7), (8, 8)])
def test_window_kernels_bit_identical(kernel, sizes):
    """The window kernels reduce over a fixed 3x3 = 9 steps."""
    _assert_peeled_match_oracle(kernel, sizes)


def _peeled_golden_cases() -> dict:
    """Golden case id -> (kernel, sizes, pipeline spec) for every case
    whose ``lower-to-snitch`` flow fuses the fill of a reduction
    kernel (the loop lowerers behind fuse-fill do not peel)."""
    cases = {}
    for case_id, (_, pipeline) in GOLDEN_CASES.items():
        kernel, _, sizes = case_id.split("/")[1].rpartition("-")
        spec = expand_pipeline(pipeline)
        if (
            kernel in REDUCTION_KERNELS
            and "fuse-fill" in spec
            and "lower-to-snitch" in spec
        ):
            sizes = tuple(int(size) for size in sizes.split("x"))
            cases[case_id] = (kernel, sizes, spec)
    return cases


PEELED_GOLDEN = _peeled_golden_cases()


def test_every_peeled_golden_case_is_netted():
    """ours, table3-unroll and table3-fuse over 18 Table 1 shapes, 14
    tuner configs and 4 explicit schedules."""
    assert len(PEELED_GOLDEN) == 72


@pytest.mark.parametrize("case_id", sorted(PEELED_GOLDEN))
def test_peeled_golden_case_matches_oracle(case_id):
    kernel, sizes, spec = PEELED_GOLDEN[case_id]
    _assert_peeled_match_oracle(kernel, sizes, peeled=(spec,))


# -- the emitted shape ------------------------------------------------------------


def _first_loop_line(lines: list[str]) -> int:
    for index, line in enumerate(lines):
        if line.startswith((".for_body", "frep.o")):
            return index
    return len(lines)


@pytest.mark.parametrize("pipeline", PEELED)
@pytest.mark.parametrize(
    "kernel, sizes",
    [
        ("conv3x3", (4, 8)),
        ("max_pool3x3", (3, 7)),
        ("sum_pool3x3", (8, 8)),
        ("matmul", (4, 8, 8)),
        ("matmul", (3, 1, 5)),
        ("matmul_t", (1, 16, 5)),
        ("matvec", (11, 4)),
        ("matvec", (8, 2)),
    ],
)
def test_one_init_register_ahead_of_the_first_loop(pipeline, kernel, sizes):
    lines = [
        line.strip() for line in _asm(kernel, sizes, pipeline).splitlines()
    ]
    converts = [
        index
        for index, line in enumerate(lines)
        if line.startswith("fcvt.d.w")
    ]
    assert len(converts) == 1
    assert converts[0] < _first_loop_line(lines)


@pytest.mark.parametrize("k", (1, 2))
@pytest.mark.parametrize(
    "kernel, sizes",
    [("matmul", (3, "k", 4)), ("matmul_t", (2, "k", 5)), ("matvec", (6, "k"))],
)
def test_short_reductions_need_no_loop_and_no_drain(kernel, sizes, k):
    asm = _asm(kernel, [k if size == "k" else size for size in sizes])
    assert "frep.o" not in asm
    assert "fmv.d ft2" not in asm


@pytest.mark.parametrize("k", (3, 7))
def test_longer_reductions_keep_the_frep_and_its_drain(k):
    asm = _asm("matmul", (2, k, 4))
    assert asm.count("frep.o") == 1
    assert "fmv.d ft2" in asm


@pytest.mark.parametrize("pipeline", ("ours", "table3-fuse", "table3-unroll"))
@pytest.mark.parametrize(
    "kernel, sizes",
    [("matmul", ("1", "0", "4")), ("matmul_t", ("3", "0", "2")),
     ("matvec", ("5", "0"))],
)
def test_empty_reduction_compiles_and_runs(capsys, pipeline, kernel, sizes):
    """K = 0: each output is the fill constant, pushed without a read."""
    code = kernel_compiler.main(
        [kernel, *sizes, "--pipeline", pipeline, "--run", "--no-asm"]
    )
    assert code == 0, capsys.readouterr()
    assert "numpy check:     OK" in capsys.readouterr().out
    asm = _asm(kernel, [int(size) for size in sizes], pipeline)
    assert "fmadd.d" not in asm and "ft0" not in asm
