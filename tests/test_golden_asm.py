"""Golden assembly digests: the net every compiler refactor runs under.

``tests/golden/asm_sha256.json`` pins the sha256 of the emitted
assembly for every case :func:`golden_cases` enumerates.  The digests
are *committed*, so — unlike ``test_compiler_api``'s spec-vs-pass-list
comparison, which runs both sides at the same commit — they pin asm
**across** commits.  A change that is meant to alter generated code
regenerates the file on purpose::

    PYTHONPATH=src python tests/test_golden_asm.py --regen

and the diff of the JSON is then part of the review.  A refactor must
not touch it.

The cases: the nine named pipelines over the nine Table 1 builders at
shapes covering bound-1 dims, prime bounds (the unroll-and-jam
fallback) and the 5-D conv/pool hoisting path; a hand-built
pure-parallel read-modify-write generic (``z = x*y + z`` — no Table 1
builder produces one, so it is ``lower-to-snitch``'s only coverage of
that structure) which is also checked against numpy; the loop
lowerers behind ``scalar-replacement`` (flows only raw specs reach);
and every config of the tuner's :class:`ScheduleSpace` for one matmul
and four window-kernel shapes, plus explicit ``dim``/``use-frep=false``
schedules.
"""

import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.compiler import Compiler
from repro.dialects import arith, func, linalg
from repro.dialects.builtin import ModuleOp
from repro.ir.affine_map import AffineMap
from repro.ir.attributes import MemRefType, f64
from repro.ir.core import Block, Region
from repro.kernels.builders import KERNEL_BUILDERS
from repro.transforms.pipelines import (
    NAMED_PIPELINES,
    PIPELINE_NAMES,
    scheduled_pipeline_spec,
)
from repro.tune.schedule import ScheduleSpace

GOLDEN_PATH = Path(__file__).parent / "golden" / "asm_sha256.json"

#: Table 1 builder -> shapes.  (1, …) rows are the bound-1 dims; 7, 11
#: and 13 are the primes; conv/pool after unroll-and-jam are the 5-D
#: iteration spaces that need a hoisted loop.
TABLE1_SHAPES = {
    "fill": [(4, 8), (1, 1), (1, 7)],
    "sum": [(4, 8), (1, 1), (3, 5)],
    "relu": [(4, 8), (1, 7)],
    "conv3x3": [(4, 4), (1, 1), (2, 11), (4, 8)],
    "max_pool3x3": [(4, 4), (1, 5)],
    "sum_pool3x3": [(4, 4), (3, 7)],
    "matmul": [(4, 8, 8), (1, 200, 5), (1, 1, 1), (3, 5, 11), (2, 3, 13)],
    "matmul_t": [(4, 8, 8), (1, 16, 5)],
    "matvec": [(8, 8), (1, 7), (11, 4)],
}

RMW_SHAPES = [(4, 8), (1, 1), (3, 5), (1, 7)]

#: Kernel shapes whose whole tuner schedule space is pinned: the 8x8
#: window kernels are the hoisted ones whose tuned factor 8 wins.
SCHEDULE_SPACES = [
    ("matmul", (4, 8, 8)),
    ("conv3x3", (4, 4)),
    ("conv3x3", (8, 8)),
    ("max_pool3x3", (8, 8)),
    ("sum_pool3x3", (8, 8)),
]

#: Schedules :class:`ScheduleSpace` never renders: an explicit unroll
#: dim, and the software-loop variant of the scheduled flow.
EXPLICIT_SCHEDULES = [
    ("matmul", (4, 8, 8), dict(unroll_factor=2, unroll_dim=0)),
    ("matmul", (4, 8, 8), dict(unroll_dim=1, use_frep=False)),
    ("conv3x3", (4, 4), dict(unroll_factor=4, unroll_dim=0)),
    ("conv3x3", (4, 4), dict(use_frep=False)),
]


def _with_scheduling(pipeline: str, passes: str) -> str:
    """A named flow with mid-level passes spliced in after the front."""
    front, tail = NAMED_PIPELINES[pipeline].split(",", 1)
    return f"{front},{passes},{tail}"


#: Flows no named pipeline spells: the two loop lowerers behind
#: scalar replacement, with and without a fused fill (``mlir`` is the
#: pointer-loop flow with scalar replacement alone).
RAW_FLOWS = {
    "loops+scalar": _with_scheduling(
        "table3-baseline", "scalar-replacement"
    ),
    "loops+fuse+scalar": _with_scheduling(
        "table3-baseline", "fuse-fill,scalar-replacement"
    ),
    "pointer+fuse+scalar": _with_scheduling(
        "clang", "fuse-fill,scalar-replacement"
    ),
}
RAW_FLOW_KERNELS = [
    ("matmul", (4, 8, 8)),
    ("conv3x3", (4, 4)),
    ("max_pool3x3", (4, 4)),
    ("matvec", (8, 8)),
]


def parallel_rmw(n: int, m: int) -> ModuleOp:
    """``z[i, j] = x[i, j] * y[i, j] + z[i, j]``, identity maps."""
    memref_type = MemRefType(f64, (n, m))
    fn = func.FuncOp("rmw", [memref_type] * 3)
    x, y, z = fn.args
    block = Block([f64, f64, f64])
    prod = arith.MulfOp(block.args[0], block.args[1])
    acc = arith.AddfOp(prod.result, block.args[2])
    block.add_ops([prod, acc, linalg.YieldOp([acc.result])])
    identity = AffineMap.identity(2)
    fn.entry_block.add_op(
        linalg.GenericOp(
            inputs=[x, y],
            outputs=[z],
            indexing_maps=[identity] * 3,
            iterator_types=["parallel", "parallel"],
            body=Region([block]),
        )
    )
    fn.entry_block.add_op(func.ReturnOp())
    return ModuleOp([fn])


def _sizes(sizes) -> str:
    return "x".join(str(s) for s in sizes)


def golden_cases() -> dict:
    """Case id -> (zero-argument module factory, pipeline name or spec)."""
    cases = {}

    def table1(kernel, sizes):
        builder = KERNEL_BUILDERS[kernel][0]
        return lambda: builder(*sizes)[0]

    for kernel, shapes in TABLE1_SHAPES.items():
        for sizes in shapes:
            for pipeline in PIPELINE_NAMES:
                cases[f"{pipeline}/{kernel}-{_sizes(sizes)}"] = (
                    table1(kernel, sizes),
                    pipeline,
                )
    for sizes in RMW_SHAPES:
        for pipeline in PIPELINE_NAMES:
            cases[f"{pipeline}/rmw-{_sizes(sizes)}"] = (
                lambda sizes=sizes: parallel_rmw(*sizes),
                pipeline,
            )
    for flow, spec in RAW_FLOWS.items():
        for kernel, sizes in RAW_FLOW_KERNELS:
            cases[f"{flow}/{kernel}-{_sizes(sizes)}"] = (
                table1(kernel, sizes),
                spec,
            )
    for kernel, sizes in SCHEDULE_SPACES:
        for config in ScheduleSpace.for_kernel(kernel, sizes).configs():
            cases[f"tuned/{kernel}-{_sizes(sizes)}/{config.key()}"] = (
                table1(kernel, sizes),
                config.pipeline_spec(),
            )
    for kernel, sizes, schedule in EXPLICIT_SCHEDULES:
        rendered = ",".join(f"{k}={v}" for k, v in schedule.items())
        cases[f"scheduled/{kernel}-{_sizes(sizes)}/{rendered}"] = (
            table1(kernel, sizes),
            scheduled_pipeline_spec(**schedule),
        )
    return cases


CASES = golden_cases()


def asm_digest(case_id: str) -> str:
    build, pipeline = CASES[case_id]
    asm = Compiler(pipeline).compile(build()).asm
    return hashlib.sha256(asm.encode()).hexdigest()


@functools.cache
def _committed() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["asm_sha256"]


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_asm_matches_committed_digest(case_id):
    assert asm_digest(case_id) == _committed()[case_id]


def test_golden_file_names_exactly_the_cases():
    """The net cannot shrink (or grow unpinned) without a regen."""
    assert sorted(_committed()) == sorted(CASES)


@pytest.mark.parametrize("pipeline", PIPELINE_NAMES)
@pytest.mark.parametrize("sizes", RMW_SHAPES, ids=_sizes)
def test_parallel_rmw_matches_numpy(pipeline, sizes):
    rng = np.random.default_rng(0)
    x, y, z = (rng.uniform(-1.0, 1.0, sizes) for _ in range(3))
    compiled = api.compile_linalg(parallel_rmw(*sizes), pipeline=pipeline)
    arrays = api.run_kernel(compiled, [x, y, z.copy()]).arrays
    np.testing.assert_allclose(arrays[2], x * y + z, rtol=1e-12)
    np.testing.assert_array_equal(arrays[0], x)
    np.testing.assert_array_equal(arrays[1], y)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: {sys.argv[0]} --regen")
    digests = {case_id: asm_digest(case_id) for case_id in sorted(CASES)}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps({"asm_sha256": digests}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
