"""Stream configuration: configured once per loop nest, armed per row.

``lower-snitch-stream`` emits a streaming region's bound, stride and
repetition words ahead of the outermost enclosing ``rv_scf.for`` that
runs no other stream-config writer; only the pointer writes (which arm
the movers) stay inside the loop.  When that loop runs nothing else but
integer ALU ops, the ``ssrcfg`` enable goes ahead of it and its drain
after it, once per nest.  Three nets hold it:

* the hoisted window kernels — conv3x3, max_pool3x3 and sum_pool3x3 at
  4x4, 4x8, 8x8, 12x12 and the AlexNet layer tiles, through the six
  streaming pipelines and every :class:`ScheduleSpace` config — match
  numpy with their outputs *poisoned*: ``KernelSpec.random_arguments``
  zero-fills outputs, which hides a kernel that leaves an output
  element unwritten or accumulates onto it;
* two regions in one loop keep their configuration per region, with
  the asm pinned byte for byte;
* hand-built nests — two loops deep, and one with an explicit store
  beside its region — enable once per nest or once per row as the
  rule says, and store exactly what numpy does into poisoned outputs.
"""

import hashlib

import numpy as np
import pytest

from repro import api
from repro.dialects import riscv, riscv_func, riscv_scf, riscv_snitch
from repro.dialects.builtin import ModuleOp
from repro.dialects.riscv import FloatRegisterType
from repro.dialects.snitch_stream import StreamingRegionOp, StridePattern
from repro.ir.builder import Builder
from repro.kernels.builders import KERNEL_BUILDERS, ArrayArg
from repro.kernels.networks import alexnet_layers
from repro.snitch.isa import scfg_action
from repro.transforms.pipelines import NAMED_PIPELINES, PIPELINE_NAMES
from repro.transforms.lowering_kit import FunctionLowering
from repro.tune.schedule import ScheduleSpace

WINDOW_KERNELS = ("conv3x3", "max_pool3x3", "sum_pool3x3")
WINDOW_SHAPES = sorted(
    {(4, 4), (4, 8), (8, 8), (12, 12)}
    | {
        layer.sizes
        for layer in alexnet_layers()
        if layer.builder.__name__ in WINDOW_KERNELS
    }
)
STREAMING_PIPELINES = [
    name
    for name in PIPELINE_NAMES
    if "lower-snitch-stream" in NAMED_PIPELINES[name]
]

#: Finite and non-zero: a NaN would never compare equal, and 0.0 is the
#: value an output left unwritten already holds.
SENTINEL = 1234.5
#: What ``row_loop_with_store`` stores beside its region.
MARK = 7.0


def _sizes(sizes) -> str:
    return "x".join(str(s) for s in sizes)


def _cases() -> dict:
    """Case id -> (kernel, sizes, pipeline spec), one per distinct spec
    (``table3-unroll`` and the ``factor=auto`` config are ``ours``)."""
    cases = {}
    for kernel in WINDOW_KERNELS:
        for sizes in WINDOW_SHAPES:
            flows = {
                name: NAMED_PIPELINES[name] for name in STREAMING_PIPELINES
            }
            for config in ScheduleSpace.for_kernel(kernel, sizes).configs():
                flows[f"tuned/{config.key()}"] = config.pipeline_spec()
            seen = set()
            for flow, spec in flows.items():
                if spec not in seen:
                    seen.add(spec)
                    cases[f"{kernel}-{_sizes(sizes)}/{flow}"] = (
                        kernel,
                        sizes,
                        spec,
                    )
    return cases


CASES = _cases()


def _in_loop_lines(asm: str) -> list[str]:
    """The instructions between a loop's head label and its end."""
    lines, depth = [], 0
    for line in asm.splitlines():
        line = line.strip()
        if line.startswith(".for_body"):
            depth += 1
        elif line.startswith(".for_end"):
            depth -= 1
        elif depth:
            lines.append(line)
    return lines


def in_loop_scfg_fields(asm: str) -> set[str]:
    """The ``scfg_action`` fields of every ``scfgwi`` inside a loop."""
    return {
        scfg_action(int(line.rsplit(",", 1)[1]))[1]
        for line in _in_loop_lines(asm)
        if line.startswith("scfgwi")
    }


def in_loop_toggles(asm: str) -> int:
    """How many ``csrsi``/``csrci`` sit inside a loop."""
    return sum(
        line.startswith(("csrsi", "csrci")) for line in _in_loop_lines(asm)
    )


def _compile(case_id: str):
    kernel, sizes, spec = CASES[case_id]
    module, kernel_spec = KERNEL_BUILDERS[kernel][0](*sizes)
    return api.compile_linalg(module, pipeline=spec), kernel_spec


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_poisoned_outputs_match_reference(case_id):
    compiled, spec = _compile(case_id)
    arguments = spec.random_arguments(seed=0)
    for argument, value in zip(spec.arguments, arguments):
        if isinstance(argument, ArrayArg) and argument.role == "out":
            value.fill(SENTINEL)
    expected = spec.reference(*arguments)
    arrays = api.run_kernel(compiled, arguments).arrays
    for got, want in zip(arrays, expected):
        if want is not None:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    # Nothing but arming is left inside a loop.
    assert in_loop_scfg_fields(compiled.asm) <= {"read", "write"}


@pytest.mark.parametrize("kernel", WINDOW_KERNELS)
def test_hoisted_loop_arms_per_row(kernel):
    """At 8x8 the heuristic's factor 4 leaves a 5-D pattern: one loop is
    hoisted and armed per row.  Factor 8 covers the whole output row, so
    the pattern fits the SSRs' four dims and no loop arms anything."""
    hoisted, _ = _compile(f"{kernel}-8x8/ours")
    assert in_loop_scfg_fields(hoisted.asm) == {"read", "write"}
    # Only pointer advances run beside the region: streaming stays
    # enabled across the row loop.
    assert in_loop_toggles(hoisted.asm) == 0
    whole_row, _ = _compile(f"{kernel}-8x8/tuned/factor=8|cores=1")
    assert in_loop_scfg_fields(whole_row.asm) == set()


def two_regions_per_row(n: int, m: int) -> ModuleOp:
    """Per row i: ``z[i] = x[i]``, then ``w[i, 2k] = w[i, 2k+1] =
    x[i, k]`` — two streaming regions with different patterns in one
    ``rv_scf.for``, so neither region's configuration may leave it."""
    fn = riscv_func.FuncOp(
        "two_regions", riscv_func.abi_arg_types(["int"] * 3)
    )
    builder = Builder.at_end(fn.entry_block)
    pointers = [builder.insert(riscv.MVOp(arg)).rd for arg in fn.args]
    bounds = [builder.insert(riscv.LiOp(v)).rd for v in (0, n, 1)]
    loop = riscv_scf.ForOp(*bounds, pointers)
    builder.insert(loop)
    body = Builder.at_end(loop.body_block)
    x, z, w = loop.body_iter_args
    row = StridePattern([m], [8])
    pairs = StridePattern([m // 2, 2], [8, 0])
    for source, dest, pattern in ((x, z, row), (x, w, pairs)):
        region = StreamingRegionOp([source], [dest], [pattern, row])
        body.insert(region)
        inner = Builder.at_end(region.body_block)
        frep = riscv_snitch.FrepOuter(inner.insert(riscv.LiOp(m - 1)).rd)
        inner.insert(frep)
        copy = Builder.at_end(frep.body_block)
        read = copy.insert(riscv_snitch.ReadOp(region.body_block.args[0]))
        copy.insert(
            riscv.FMVOp(read.result, result_type=FloatRegisterType("ft1"))
        )
        copy.insert(riscv_snitch.FrepYieldOp())
    advanced = [
        body.insert(riscv.AddiOp(p, 8 * m)).rd for p in (x, z, w)
    ]
    body.insert(riscv_scf.YieldOp(advanced))
    builder.insert(riscv_func.ReturnOp())
    return ModuleOp([fn])


#: sha256 of ``two_regions_per_row(3, 4)``'s asm, in which each region
#: re-issues its whole configuration every row, as two writers in one
#: loop require.  The second region's drain sits at the loop head and
#: after the loop (tests/test_loop_control.py), the first's right after
#: it.
TWO_REGIONS_SHA256 = (
    "a913ac67d318b10a397a67aabe10b8c7f1c43e1be8bde42b91ad062961ee8ca2"
)


def test_two_regions_in_one_loop_stay_per_region():
    n, m = 3, 4
    compiled = api.compile_lowlevel(
        two_regions_per_row(n, m), "two_regions"
    )
    assert in_loop_scfg_fields(compiled.asm) == {
        "bound", "stride", "repeat", "read", "write"
    }
    assert (
        hashlib.sha256(compiled.asm.encode()).hexdigest()
        == TWO_REGIONS_SHA256
    )
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, (n, m))
    poisoned = np.full((n, m), SENTINEL)
    arrays = api.run_kernel(
        compiled, [x, poisoned.copy(), poisoned.copy()]
    ).arrays
    np.testing.assert_array_equal(arrays[1], x)
    np.testing.assert_array_equal(
        arrays[2], np.repeat(x[:, : m // 2], 2, axis=1)
    )


def _copy_region(source, dest, m: int) -> StreamingRegionOp:
    """A region streaming ``m`` doubles from ``source`` to ``dest``."""
    row = StridePattern([m], [8])
    region = StreamingRegionOp([source], [dest], [row, row])
    inner = Builder.at_end(region.body_block)
    frep = riscv_snitch.FrepOuter(inner.insert(riscv.LiOp(m - 1)).rd)
    inner.insert(frep)
    copy = Builder.at_end(frep.body_block)
    read = copy.insert(riscv_snitch.ReadOp(region.body_block.args[0]))
    copy.insert(
        riscv.FMVOp(read.result, result_type=FloatRegisterType("ft1"))
    )
    copy.insert(riscv_snitch.FrepYieldOp())
    return region


def _row_loop(builder, trips: int, pointers, strides, body) -> list:
    """``rv_scf.for`` over ``trips`` rows advancing each pointer by its
    stride; ``body(builder, pointers)`` fills a row.  Returns the
    advanced pointers."""
    bounds = [
        builder.insert(FunctionLowering.li_op(v)).results[0]
        for v in (0, trips, 1)
    ]
    loop = riscv_scf.ForOp(*bounds, pointers)
    builder.insert(loop)
    inner = Builder.at_end(loop.body_block)
    body(inner, loop.body_iter_args)
    advanced = [
        inner.insert(riscv.AddiOp(p, stride)).rd
        for p, stride in zip(loop.body_iter_args, strides)
    ]
    inner.insert(riscv_scf.YieldOp(advanced))
    return list(loop.results)


def nested_row_loops(blocks: int, rows: int, m: int) -> ModuleOp:
    """``z = x`` row by row, the rows in ``blocks`` blocks of ``rows``:
    one region two loops deep, with only loop control and pointer
    advances beside it."""
    fn = riscv_func.FuncOp("nested", riscv_func.abi_arg_types(["int"] * 2))
    builder = Builder.at_end(fn.entry_block)
    pointers = [builder.insert(riscv.MVOp(arg)).rd for arg in fn.args]

    def row(inner, ptrs):
        inner.insert(_copy_region(ptrs[0], ptrs[1], m))

    def block(inner, ptrs):
        _row_loop(inner, rows, list(ptrs), [8 * m] * 2, row)

    _row_loop(builder, blocks, pointers, [8 * m * rows] * 2, block)
    builder.insert(riscv_func.ReturnOp())
    return ModuleOp([fn])


def row_loop_with_store(n: int, m: int) -> ModuleOp:
    """Per row i: ``z[i] = x[i]``, then ``w[i] = MARK`` by an explicit
    ``fsd`` beside the region, which keeps the nest from streaming
    across rows."""
    fn = riscv_func.FuncOp(
        "with_store", riscv_func.abi_arg_types(["int"] * 3)
    )
    builder = Builder.at_end(fn.entry_block)
    pointers = [builder.insert(riscv.MVOp(arg)).rd for arg in fn.args]
    mark = builder.insert(
        riscv.FCvtDWOp(builder.insert(riscv.LiOp(int(MARK))).rd)
    ).rd

    def row(inner, ptrs):
        inner.insert(_copy_region(ptrs[0], ptrs[1], m))
        inner.insert(riscv.FSdOp(mark, ptrs[2], 0))

    _row_loop(builder, n, pointers, [8 * m, 8 * m, 8], row)
    builder.insert(riscv_func.ReturnOp())
    return ModuleOp([fn])


def _mnemonics(asm: str) -> list[str]:
    return [line.split()[0] for line in asm.splitlines() if line.strip()]


def test_nest_two_loops_deep_enables_once():
    blocks, rows, m = 2, 3, 4
    compiled = api.compile_lowlevel(
        nested_row_loops(blocks, rows, m), "nested"
    )
    assert in_loop_scfg_fields(compiled.asm) == {"read", "write"}
    assert in_loop_toggles(compiled.asm) == 0
    mnemonics = _mnemonics(compiled.asm)
    assert mnemonics.count("csrsi") == mnemonics.count("csrci") == 1
    assert mnemonics[-2:] == ["csrci", "ret"]
    x = np.random.default_rng(0).uniform(-1.0, 1.0, (blocks * rows, m))
    z = np.full_like(x, SENTINEL)
    arrays = api.run_kernel(compiled, [x, z]).arrays
    np.testing.assert_array_equal(arrays[1], x)


def test_store_beside_the_region_enables_per_row():
    n, m = 3, 4
    compiled = api.compile_lowlevel(row_loop_with_store(n, m), "with_store")
    # Configured once per nest, but enabled and drained per row: the
    # fsd must not run while streaming is on.
    assert in_loop_scfg_fields(compiled.asm) == {"read", "write"}
    lines = _in_loop_lines(compiled.asm)
    assert [line.split()[0] for line in lines].count("csrsi") == 1
    drain = next(i for i, line in enumerate(lines) if line.startswith("csrci"))
    assert lines[drain + 1].startswith("fsd")
    x = np.random.default_rng(0).uniform(-1.0, 1.0, (n, m))
    z = np.full_like(x, SENTINEL)
    w = np.full(n, SENTINEL)
    arrays = api.run_kernel(compiled, [x, z, w]).arrays
    np.testing.assert_array_equal(arrays[1], x)
    np.testing.assert_array_equal(arrays[2], np.full(n, MARK))
