"""Property test: every registered op round-trips through text.

For each op in the registry, an instance is synthesized *from its
declarative spec* (operand/result types drawn to satisfy the declared
constraints, attributes drawn per their declared class), printed in the
generic syntax, reparsed, and checked for structural equality and clean
verification — the IRDL-layer equivalent of the paper toolchains
interoperating "via the common text IR format".

Ops whose verification demands region structure the spec cannot express
(loop bodies ending in the right yield, ABI-typed entry blocks, ...) are
built through their typed constructors instead; the coverage test at the
bottom guarantees no registered op slips through either path.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dialects import (
    arith,
    builtin,
    func,
    linalg,
    memref,
    memref_stream,
    riscv_func,
    riscv_scf,
    riscv_snitch,
    scf,
    snitch_stream,
)
from repro.dialects.riscv import FloatRegisterType, IntRegisterType
from repro.dialects.stream import ReadableStreamType, WritableStreamType
from repro.ir import op_registry
from repro.ir.affine_map import AffineMap
from repro.ir.attributes import (
    ArrayAttr,
    Attribute,
    BoolAttr,
    DenseIntAttr,
    FunctionType,
    IntAttr,
    MemRefType,
    StringAttr,
    f32,
    f64,
    i32,
    index,
)
from repro.ir.core import Block, Operation, Region
from repro.ir.irdl import ElementOf, SameAs
from repro.ir.parser import parse_op
from repro.ir.printer import print_op
from repro.ir.traits import SameOperandsAndResultType

#: The type menu operand/result draws pick from (filtered by the
#: declared constraint of each field).
CANDIDATE_TYPES = (
    f64,
    f32,
    i32,
    index,
    IntRegisterType(),
    IntRegisterType("t0"),
    FloatRegisterType(),
    FloatRegisterType("ft1"),
    MemRefType(f64, (4,)),
    MemRefType(f64, (2, 3)),
    ReadableStreamType(f64),
    WritableStreamType(f64),
    ReadableStreamType(FloatRegisterType("ft0")),
    WritableStreamType(FloatRegisterType("ft2")),
)

IDENTIFIERS = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)


class _HarnessOp(Operation):
    """Carrier op: its single block defines the tested op's operands."""

    name = "testharness.carrier"
    __slots__ = ()


def draw_type(data, constraint):
    """A type from the menu satisfying ``constraint``."""
    matching = [
        t for t in CANDIDATE_TYPES if constraint.satisfied_by(t)
    ]
    assert matching, f"no candidate type satisfies {constraint!r}"
    return data.draw(st.sampled_from(matching))


def draw_attribute(data, definition) -> Attribute:
    """An attribute matching one declared attr field."""
    base = definition.attr_class
    if base is IntAttr:
        return IntAttr(data.draw(st.integers(-100, 100)))
    if base is StringAttr:
        return StringAttr(data.draw(IDENTIFIERS))
    if base is BoolAttr:
        return BoolAttr(data.draw(st.booleans()))
    if base is DenseIntAttr:
        return DenseIntAttr(
            data.draw(st.lists(st.integers(-8, 8), max_size=3))
        )
    if base is ArrayAttr:
        # String elements: an all-integer array would reparse as a
        # DenseIntAttr, so draw non-numeric payloads.
        return ArrayAttr(
            [
                StringAttr(s)
                for s in data.draw(
                    st.lists(IDENTIFIERS, min_size=1, max_size=3)
                )
            ]
        )
    if base is FunctionType:
        return FunctionType([f64], [])
    return IntAttr(data.draw(st.integers(0, 9)))


def build_from_spec(data, op_class) -> tuple[Block, Operation]:
    """Synthesize one op purely from its declarative spec.

    Operands become arguments of a fresh carrier block (so the printed
    form defines every referenced value); the op itself is appended to
    that block.
    """
    spec = op_class.irdl_spec
    same_type = SameOperandsAndResultType in op_class.traits
    shared = None
    if same_type:
        shared = draw_type(data, spec.operands[0][1].constraint)
    operand_types = []
    group_index: dict[str, int] = {}
    for name, definition in spec.operands:
        count = (
            data.draw(st.integers(0, 2)) if definition.variadic else 1
        )
        group_index[name] = len(operand_types)
        for _ in range(count):
            operand_types.append(
                shared
                if same_type
                else draw_type(data, definition.constraint)
            )
    block = Block(operand_types)
    operands = list(block.args)
    attributes = {}
    for name, definition in spec.attrs:
        if definition.optional and data.draw(st.booleans()):
            continue
        attributes[name] = draw_attribute(data, definition)
    result_types = []
    for name, definition in spec.results:
        default = definition.default
        if same_type:
            result_types.append(shared)
        elif isinstance(default, SameAs):
            result_types.append(
                operands[group_index[default.field]].type
            )
        elif isinstance(default, ElementOf):
            result_types.append(
                operands[group_index[default.field]].type.element_type
            )
        else:
            result_types.append(draw_type(data, definition.constraint))
    op = object.__new__(op_class)
    Operation.__init__(
        op,
        operands=operands,
        result_types=result_types,
        attributes=attributes,
    )
    block.add_op(op)
    return block, op


# ---------------------------------------------------------------------------
# Constructor-based builders for ops with structural (region/correlated)
# requirements the generic spec builder cannot satisfy.
# ---------------------------------------------------------------------------


def _build_constant(data):
    block = Block()
    if data.draw(st.booleans()):
        op = arith.ConstantOp.from_int(data.draw(st.integers(-50, 50)))
    else:
        op = arith.ConstantOp.from_float(
            data.draw(st.integers(-20, 20)) * 0.5, f64
        )
    block.add_op(op)
    return block, op


def _build_module(data):
    block = Block()
    op = builtin.ModuleOp([])
    block.add_op(op)
    return block, op


def _build_func(data):
    block = Block()
    op = func.FuncOp(
        data.draw(IDENTIFIERS), [MemRefType(f64, (4,)), f64]
    )
    block.add_op(op)
    return block, op


def _build_scf_for(data):
    n_iter = data.draw(st.integers(0, 2))
    block = Block([index] * 3 + [f64] * n_iter)
    lb, ub, step, *iter_args = block.args
    op = scf.ForOp(lb, ub, step, iter_args)
    op.body_block.add_op(scf.YieldOp(op.body_iter_args))
    block.add_op(op)
    return block, op


def _build_linalg_generic(data):
    n = data.draw(st.integers(1, 4))
    mtype = MemRefType(f64, (n,))
    block = Block([mtype, mtype])
    body = Block([f64, f64])
    body.add_op(linalg.YieldOp([body.args[0]]))
    op = linalg.GenericOp(
        [block.args[0]],
        [block.args[1]],
        [AffineMap.identity(1), AffineMap.identity(1)],
        ["parallel"],
        Region([body]),
    )
    block.add_op(op)
    return block, op


def _build_linalg_fill(data):
    mtype = MemRefType(f64, (data.draw(st.integers(1, 4)),))
    block = Block([f64, mtype])
    op = linalg.FillOp(block.args[0], block.args[1])
    block.add_op(op)
    return block, op


def _build_memref_load(data):
    rank = data.draw(st.integers(0, 2))
    mtype = MemRefType(f64, (2,) * rank)
    block = Block([mtype] + [index] * rank)
    op = memref.LoadOp(block.args[0], list(block.args[1:]))
    block.add_op(op)
    return block, op


def _build_memref_store(data):
    rank = data.draw(st.integers(0, 2))
    mtype = MemRefType(f64, (2,) * rank)
    block = Block([f64, mtype] + [index] * rank)
    op = memref.StoreOp(
        block.args[0], block.args[1], list(block.args[2:])
    )
    block.add_op(op)
    return block, op


def _build_ms_generic(data):
    n = data.draw(st.integers(1, 5))
    mtype = MemRefType(f64, (n,))
    block = Block([mtype, mtype])
    body = Block([f64, f64])
    body.add_op(memref_stream.YieldOp([body.args[0]]))
    op = memref_stream.GenericOp(
        [block.args[0]],
        [block.args[1]],
        [AffineMap.identity(1), AffineMap.identity(1)],
        ["parallel"],
        [n],
        Region([body]),
    )
    block.add_op(op)
    return block, op


def _build_rv_func(data):
    block = Block()
    op = riscv_func.FuncOp(
        data.draw(IDENTIFIERS),
        riscv_func.abi_arg_types(["int", "float"]),
    )
    block.add_op(op)
    return block, op


def _build_rv_scf_for(data):
    n_iter = data.draw(st.integers(0, 2))
    block = Block(
        [IntRegisterType()] * 3 + [FloatRegisterType()] * n_iter
    )
    lb, ub, step, *iter_args = block.args
    op = riscv_scf.ForOp(lb, ub, step, iter_args)
    op.body_block.add_op(riscv_scf.YieldOp(op.body_iter_args))
    block.add_op(op)
    return block, op


def _build_frep(data):
    n_iter = data.draw(st.integers(0, 2))
    block = Block([IntRegisterType()] + [FloatRegisterType()] * n_iter)
    op = riscv_snitch.FrepOuter(block.args[0], list(block.args[1:]))
    op.body_block.add_op(
        riscv_snitch.FrepYieldOp(op.body_iter_args)
    )
    block.add_op(op)
    return block, op


def _build_ss_streaming_region(data):
    n_in = data.draw(st.integers(0, 2))
    # At least one stream: an empty `patterns = []` would reparse as a
    # DenseIntAttr (and zero-stream regions never occur in pipelines).
    n_out = data.draw(st.integers(1 if n_in == 0 else 0, 1))
    block = Block([IntRegisterType("t0")] * (n_in + n_out))
    pattern = snitch_stream.StridePattern([4], [8])
    op = snitch_stream.StreamingRegionOp(
        list(block.args[:n_in]),
        list(block.args[n_in:]),
        [pattern] * (n_in + n_out),
    )
    block.add_op(op)
    return block, op


#: op name -> constructor-based builder.
STRUCTURAL_BUILDERS = {
    "arith.constant": _build_constant,
    "builtin.module": _build_module,
    "func.func": _build_func,
    "scf.for": _build_scf_for,
    "linalg.generic": _build_linalg_generic,
    "linalg.fill": _build_linalg_fill,
    "memref.load": _build_memref_load,
    "memref.store": _build_memref_store,
    "memref_stream.generic": _build_ms_generic,
    "rv_func.func": _build_rv_func,
    "rv_scf.for": _build_rv_scf_for,
    "rv_snitch.frep_outer": _build_frep,
    "snitch_stream.streaming_region": _build_ss_streaming_region,
}


def build_op(data, op_name) -> tuple[Block, Operation]:
    builder = STRUCTURAL_BUILDERS.get(op_name)
    if builder is not None:
        return builder(data)
    return build_from_spec(data, op_registry.lookup(op_name))


# ---------------------------------------------------------------------------
# Structural equality
# ---------------------------------------------------------------------------


def assert_structurally_equal(a: Operation, b: Operation, vmap) -> None:
    """Deep equality up to SSA-value renaming (``vmap``: a-value -> b)."""
    assert a.name == b.name
    assert a.attributes == b.attributes
    assert len(a.operands) == len(b.operands)
    for va, vb in zip(a.operands, b.operands):
        assert va.type == vb.type
        assert vmap[id(va)] is vb
    assert len(a.results) == len(b.results)
    for ra, rb in zip(a.results, b.results):
        assert ra.type == rb.type
        vmap[id(ra)] = rb
    assert len(a.regions) == len(b.regions)
    for ra, rb in zip(a.regions, b.regions):
        assert len(ra.blocks) == len(rb.blocks)
        for block_a, block_b in zip(ra.blocks, rb.blocks):
            assert [x.type for x in block_a.args] == [
                x.type for x in block_b.args
            ]
            for xa, xb in zip(block_a.args, block_b.args):
                vmap[id(xa)] = xb
            assert len(block_a.ops) == len(block_b.ops)
            for op_a, op_b in zip(block_a.ops, block_b.ops):
                assert_structurally_equal(op_a, op_b, vmap)


# ---------------------------------------------------------------------------
# The properties
# ---------------------------------------------------------------------------

ALL_OP_NAMES = sorted(op_registry.registered_names())


def test_every_registered_op_is_covered():
    """Each registered op has a spec and a working builder path."""
    for name in ALL_OP_NAMES:
        op_class = op_registry.lookup(name)
        assert hasattr(op_class, "irdl_spec"), name
        if name in STRUCTURAL_BUILDERS:
            continue
        assert not op_class.irdl_spec.regions, (
            f"{name} has regions but no structural builder"
        )


@pytest.mark.parametrize("op_name", ALL_OP_NAMES)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_roundtrip(op_name, data):
    block, op = build_op(data, op_name)
    op.verify_()

    harness = _HarnessOp(regions=[Region([block])])
    text = print_op(harness)
    parsed = parse_op(text)

    parsed_block = parsed.regions[0].blocks[0]
    vmap = {
        id(xa): xb for xa, xb in zip(block.args, parsed_block.args)
    }
    parsed_ops = list(parsed_block.ops)
    original_ops = list(block.ops)
    assert len(parsed_ops) == len(original_ops)
    for original, reparsed in zip(original_ops, parsed_ops):
        assert_structurally_equal(original, reparsed, vmap)

    reparsed = parsed_ops[-1]
    assert type(reparsed) is type(op)
    reparsed.verify_()

    # Printing the reparsed IR reproduces the text exactly.
    assert print_op(parsed) == text
