"""Tests for the IRDL-style declarative definition layer."""

import os
import subprocess
import sys
import traceback
from dataclasses import dataclass

import pytest

from repro.dialects import riscv
from repro.dialects.riscv import FloatRegisterType, IntRegisterType
from repro.dialects.stream import ReadableStreamType, WritableStreamType
from repro.ir import op_registry
from repro.ir.attributes import (
    ArrayAttr,
    Attribute,
    DenseIntAttr,
    FunctionType,
    IntAttr,
    MemRefType,
    StringAttr,
    TypeAttribute,
    f64,
    index,
)
from repro.ir.core import Block, IRError, Operation, Region
from repro.ir.irdl import (
    AnyAttr,
    AnyOf,
    BaseAttr,
    Dialect,
    EqAttr,
    ParamAttr,
    SEGMENT_ATTR,
    SameAs,
    attr_def,
    coerce_constraint,
    irdl_op_definition,
    operand_def,
    opt_attr_def,
    result_def,
    var_operand_def,
)
from repro.ir.parser import ParseError, parse_op
from repro.ir.traits import SameOperandsAndResultType


def value(vtype=f64):
    """A fresh SSA value of the given type (a block argument)."""
    return Block([vtype]).args[0]


class TestConstraints:
    def test_any(self):
        assert AnyAttr().satisfied_by(f64)
        assert AnyAttr().satisfied_by(index)

    def test_base(self):
        c = BaseAttr(IntRegisterType)
        assert c.satisfied_by(IntRegisterType("t0"))
        assert not c.satisfied_by(FloatRegisterType("ft0"))

    def test_eq(self):
        c = EqAttr(f64)
        assert c.satisfied_by(f64)
        assert not c.satisfied_by(index)

    def test_any_of(self):
        c = AnyOf(IntRegisterType, FloatRegisterType)
        assert c.satisfied_by(IntRegisterType())
        assert c.satisfied_by(FloatRegisterType("ft0"))
        assert not c.satisfied_by(f64)

    def test_param_attr(self):
        from repro.dialects.stream import ReadableStreamType

        c = ParamAttr(ReadableStreamType, element_type=FloatRegisterType)
        assert c.satisfied_by(ReadableStreamType(FloatRegisterType()))
        assert not c.satisfied_by(ReadableStreamType(f64))
        assert not c.satisfied_by(f64)

    def test_coerce(self):
        assert isinstance(coerce_constraint(None), AnyAttr)
        assert isinstance(coerce_constraint(IntRegisterType), BaseAttr)
        assert isinstance(coerce_constraint(f64), EqAttr)
        with pytest.raises(TypeError):
            coerce_constraint(42)

    def test_describe(self):
        assert "IntRegisterType" in AnyOf(
            IntRegisterType, FloatRegisterType
        ).describe()


@irdl_op_definition
class _PairOp(Operation):
    """A test op: two constrained operands, one derived result."""

    name = "testdl.pair"
    __slots__ = ()

    lhs = operand_def(BaseAttr(IntRegisterType))
    rhs = operand_def(BaseAttr(IntRegisterType))
    count = attr_def(IntAttr)
    tag = opt_attr_def(StringAttr)
    result = result_def(BaseAttr(IntRegisterType), default=SameAs("lhs"))


@irdl_op_definition
class _VariadicOp(Operation):
    """A test op: fixed head operand plus a variadic tail."""

    name = "testdl.variadic"
    __slots__ = ()

    anchor = operand_def(BaseAttr(IntRegisterType))
    rest = var_operand_def(BaseAttr(FloatRegisterType))


@irdl_op_definition
class _SegmentedOp(Operation):
    """A test op with two variadic operand groups (segment-encoded)."""

    name = "testdl.segmented"
    __slots__ = ()

    inputs = var_operand_def()
    outputs = var_operand_def()


@irdl_op_definition
class _SameTypeOp(Operation):
    """A test op with the SameOperandsAndResultType trait."""

    name = "testdl.same"
    traits = frozenset([SameOperandsAndResultType])
    __slots__ = ()

    lhs = operand_def()
    rhs = operand_def()
    result = result_def(default=SameAs("lhs"))


class TestSynthesizedInit:
    def test_positional_and_accessors(self):
        a, b = value(IntRegisterType("t0")), value(IntRegisterType("t1"))
        op = _PairOp(a, b, 3)
        assert op.lhs is a and op.rhs is b
        assert op.count == 3
        assert op.tag is None
        assert op.result.type == IntRegisterType("t0")

    def test_result_type_alias(self):
        a, b = value(IntRegisterType()), value(IntRegisterType())
        op = _PairOp(a, b, 1, result_type=IntRegisterType("t5"))
        assert op.result.type == IntRegisterType("t5")

    def test_missing_operand_rejected(self):
        with pytest.raises(TypeError, match="missing required operand"):
            _PairOp(value(IntRegisterType()))

    def test_missing_attr_rejected(self):
        a, b = value(IntRegisterType()), value(IntRegisterType())
        with pytest.raises(TypeError, match="missing required attribute"):
            _PairOp(a, b)

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError, match="unexpected argument"):
            _PairOp(nonsense=1)

    def test_operand_constraint_enforced(self):
        a, bad = value(IntRegisterType()), value(f64)
        with pytest.raises(IRError, match="lhs"):
            _PairOp(bad, a, 1)

    def test_optional_attr_stored(self):
        a, b = value(IntRegisterType()), value(IntRegisterType())
        op = _PairOp(a, b, 1, tag="hello")
        assert op.tag == "hello"
        assert op.attributes["tag"] == StringAttr("hello")

    def test_variadic_group(self):
        head = value(IntRegisterType())
        tail = [value(FloatRegisterType()) for _ in range(3)]
        op = _VariadicOp(head, tail)
        assert op.anchor is head
        assert list(op.rest) == tail
        op.verify_()

    def test_segment_sizes_attr(self):
        xs = [value(f64), value(f64)]
        ys = [value(index)]
        op = _SegmentedOp(xs, ys)
        assert op.attributes["operand_segment_sizes"] == DenseIntAttr(
            [2, 1]
        )
        assert list(op.inputs) == xs
        assert list(op.outputs) == ys
        op.verify_()


class TestGeneratedVerify:
    def test_arity_enforced(self):
        op = object.__new__(_PairOp)
        Operation.__init__(
            op,
            operands=[value(IntRegisterType())],
            result_types=[IntRegisterType()],
            attributes={"count": IntAttr(1)},
        )
        with pytest.raises(IRError, match="expected 2 operand"):
            op.verify_()

    def test_operand_type_enforced(self):
        op = object.__new__(_PairOp)
        Operation.__init__(
            op,
            operands=[value(f64), value(IntRegisterType())],
            result_types=[IntRegisterType()],
            attributes={"count": IntAttr(1)},
        )
        with pytest.raises(IRError, match="lhs"):
            op.verify_()

    def test_missing_attr_enforced(self):
        op = object.__new__(_PairOp)
        Operation.__init__(
            op,
            operands=[value(IntRegisterType())] * 2,
            result_types=[IntRegisterType()],
        )
        with pytest.raises(IRError, match="missing attribute 'count'"):
            op.verify_()

    def test_bad_segment_attr_enforced(self):
        op = object.__new__(_SegmentedOp)
        Operation.__init__(
            op,
            operands=[value(f64)],
            attributes={"operand_segment_sizes": DenseIntAttr([3, 1])},
        )
        with pytest.raises(IRError, match="operand_segment_sizes"):
            op.verify_()

    def test_same_type_trait_enforced(self):
        op = _SameTypeOp(value(f64), value(f64))
        op.verify_()
        bad = object.__new__(_SameTypeOp)
        Operation.__init__(
            bad,
            operands=[value(f64), value(index)],
            result_types=[f64],
        )
        with pytest.raises(IRError, match="types differ"):
            bad.verify_()

    def test_variadic_element_type_enforced(self):
        op = _VariadicOp(
            value(IntRegisterType()), [value(FloatRegisterType())]
        )
        op.verify_()
        bad = object.__new__(_VariadicOp)
        Operation.__init__(
            bad,
            operands=[value(IntRegisterType()), value(index)],
        )
        with pytest.raises(IRError, match="rest"):
            bad.verify_()

    def test_no_handwritten_declarative_verify(self):
        """No dialect op may hand-roll what its spec already checks.

        Every registered op either inherits the generated ``verify_``
        (its class dict chain holds the compiled closure) or confines
        bespoke logic to ``verify_extra_``.
        """
        for name in op_registry.registered_names():
            op_class = op_registry.lookup(name)
            assert hasattr(op_class, "irdl_spec"), name
            verify = op_class.verify_
            assert getattr(verify, "__qualname__", "").endswith(
                "verify_"
            ), name


class TestInheritedDefinitions:
    def test_leaf_errors_name_the_leaf(self):
        """Errors from an inherited constructor name the concrete op."""
        bad = value(FloatRegisterType("ft0"))
        with pytest.raises(IRError, match="rv.add"):
            riscv.AddOp(bad, bad)
        with pytest.raises(TypeError, match="AddOp"):
            riscv.AddOp()

    def test_subclass_verify_extra_is_called(self):
        """A verify_extra_ added *below* the decorated class still runs."""

        class PickyOp(riscv.RdRsRsInstruction):
            name = "rv.picky_test"
            __slots__ = ()

            def verify_extra_(self):
                raise IRError("picky")

        a = value(IntRegisterType("t0"))
        with pytest.raises(IRError, match="picky"):
            PickyOp(a, a).verify_()

    def test_zero_result_spec_enforced(self):
        """An op declaring no results must not carry any."""
        from repro.dialects import riscv_func

        bad = object.__new__(riscv_func.ReturnOp)
        Operation.__init__(bad, result_types=[IntRegisterType()])
        with pytest.raises(IRError, match="expected 0 result"):
            bad.verify_()

    def test_variadic_results_accepted(self):
        """Loop ops declare a variadic result group: any count passes."""
        from repro.dialects import riscv_scf

        regs = [value(IntRegisterType()) for _ in range(3)]
        iters = [value(FloatRegisterType())]
        loop = riscv_scf.ForOp(*regs, iters)
        loop.body_block.add_op(
            riscv_scf.YieldOp(loop.body_iter_args)
        )
        loop.verify_()
        assert loop.loop_results == tuple(loop.results)

    def test_variadic_results_need_custom_init(self):
        with pytest.raises(TypeError, match="variadic result"):

            @irdl_op_definition
            class _BadOp(Operation):
                name = "testdl.badvar"
                __slots__ = ()

                outs = __import__(
                    "repro.ir.irdl", fromlist=["var_result_def"]
                ).var_result_def()


# ---------------------------------------------------------------------------
# Every declarative diagnostic, word for word
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Alien(TypeAttribute):
    """A type only unconstrained and any-``Attribute`` fields admit."""

    def __str__(self) -> str:
        return "!testdl.alien"


ALIEN = _Alien()

#: Two distinct values of each attribute class a spec constrains to.
SAMPLES = {
    Attribute: (f64, index),
    ArrayAttr: (ArrayAttr([]), ArrayAttr([IntAttr(0)])),
    DenseIntAttr: (DenseIntAttr([0]), DenseIntAttr([1])),
    FloatRegisterType: (FloatRegisterType("ft0"), FloatRegisterType("ft1")),
    FunctionType: (FunctionType([], []), FunctionType([f64], [])),
    IntAttr: (IntAttr(0), IntAttr(1)),
    IntRegisterType: (IntRegisterType("t0"), IntRegisterType("t1")),
    MemRefType: (MemRefType(f64, [4]), MemRefType(f64, [8])),
    ReadableStreamType: (
        ReadableStreamType(FloatRegisterType()),
        ReadableStreamType(FloatRegisterType("ft0")),
    ),
    StringAttr: (StringAttr("a"), StringAttr("b")),
    WritableStreamType: (
        WritableStreamType(FloatRegisterType()),
        WritableStreamType(FloatRegisterType("ft0")),
    ),
}


def sample(constraint, k: int = 0):
    """The ``k``-th (0 or 1) value that meets ``constraint``."""
    if isinstance(constraint, AnyAttr):
        chosen = (f64, index)[k]
    elif isinstance(constraint, EqAttr):
        chosen = constraint.attr
    elif isinstance(constraint, AnyOf):
        chosen = sample(constraint.choices[0], k)
    else:  # BaseAttr, ParamAttr
        chosen = SAMPLES[constraint.attr_class][k]
    assert constraint.satisfied_by(chosen), (constraint, chosen)
    return chosen


@irdl_op_definition
class _EveryConstraintOp(Operation):
    """A test op spelling the constraint forms no dialect op uses."""

    name = "testdl.every"
    __slots__ = ()

    exact = operand_def(EqAttr(f64))
    either = operand_def(AnyOf(IntRegisterType, FloatRegisterType))
    mixed = operand_def(AnyOf(IntRegisterType, EqAttr(index)))
    label = attr_def(AnyOf(StringAttr, IntAttr))
    mode = opt_attr_def(IntAttr)
    result = result_def(EqAttr(f64), default=f64)


@irdl_op_definition
class _TypedSegmentsOp(Operation):
    """A test op whose segment-encoded groups are type-constrained."""

    name = "testdl.typed_segments"
    __slots__ = ()

    ints = var_operand_def(IntRegisterType)
    floats = var_operand_def(FloatRegisterType)


@irdl_op_definition
class _MiddleOp(Operation):
    """A test op: fixed operands on both sides of a variadic group."""

    name = "testdl.middle"
    __slots__ = ()

    head = operand_def(IntRegisterType)
    body = var_operand_def(FloatRegisterType)
    tail = operand_def(IntRegisterType)


def valid_parts(op_class) -> dict:
    """Operands (by field), result types, attributes and a region
    count that pass every declarative check of ``op_class``."""
    spec = op_class.irdl_spec
    return {
        "operands": {
            n: [] if d.variadic else [sample(d.constraint)]
            for n, d in spec.operands
        },
        "results": [
            sample(d.constraint) for _, d in spec.results if not d.variadic
        ],
        "attributes": {n: sample(d.constraint) for n, d in spec.attrs},
        "regions": len(spec.regions),
        "segments": None,
    }


def build(op_class, operands, results, attributes, regions, segments):
    """The op, bypassing the constructor's own checks.  ``segments``:
    ``None`` derives the segment attribute from the operand groups,
    ``"missing"`` leaves it out."""
    attributes = dict(attributes)
    if op_class.irdl_spec.segmented and segments != "missing":
        attributes[SEGMENT_ATTR] = segments or DenseIntAttr(
            [len(group) for group in operands.values()]
        )
    op = object.__new__(op_class)
    Operation.__init__(
        op,
        operands=[value(t) for group in operands.values() for t in group],
        result_types=results,
        attributes=attributes,
        regions=[Region([Block()]) for _ in range(regions)],
    )
    return op


def declarative_cases(op_class):
    """``(id, op_class, parts, message)`` for each violation the spec
    of ``op_class`` can express."""
    spec = op_class.irdl_spec
    name = op_class.name
    base = valid_parts(op_class)
    operands, results = base["operands"], base["results"]

    def case(label, message, **changes):
        return (f"{name}-{label}", op_class, {**base, **changes},
                f"{name}: {message}")

    total = len(spec.operands)
    fixed = [n for n, d in spec.operands if not d.variadic]
    if spec.segmented:
        yield case(
            "segments-missing", f"missing {SEGMENT_ATTR} attribute",
            segments="missing",
        )
        yield case(
            "segments-length",
            f"{SEGMENT_ATTR} names {total + 1} group(s), expected {total}",
            segments=DenseIntAttr([0] * (total + 1)),
        )
        for sizes in ([1] + [0] * (total - 1), [-1] + [0] * (total - 2) + [1]):
            yield case(
                f"segments-{sizes}",
                f"{SEGMENT_ATTR} {sizes} does not cover 0 operand(s)",
                segments=DenseIntAttr(sizes),
            )
    elif len(fixed) == total:
        yield case(
            "operand-count",
            f"expected {total} operand(s), got {total + 1}",
            operands={**operands, "extra": [f64]},
        )
    elif fixed:
        yield case(
            "operand-count",
            f"expected at least {len(fixed)} operand(s), "
            f"got {len(fixed) - 1}",
            operands={n: g for n, g in operands.items() if n != fixed[0]},
        )
    for field, definition in spec.operands:
        constraint = definition.constraint
        if constraint.satisfied_by(ALIEN):
            continue
        group = [sample(constraint), ALIEN] if definition.variadic else [ALIEN]
        yield case(
            f"operand-{field}",
            f"operand '{field}' has type {ALIEN}, expected "
            f"{constraint.describe()}",
            operands={**operands, field: group},
        )
    if spec.variadic_results:
        [(field, definition)] = spec.results
        constraint = definition.constraint
        if not constraint.satisfied_by(ALIEN):
            yield case(
                f"result-{field}",
                f"result '{field}' has type {ALIEN}, expected "
                f"{constraint.describe()}",
                results=[sample(constraint), ALIEN],
            )
    else:
        yield case(
            "result-count",
            f"expected {len(results)} result(s), got {len(results) + 1}",
            results=results + [f64],
        )
        for i, (field, definition) in enumerate(spec.results):
            constraint = definition.constraint
            if not constraint.satisfied_by(ALIEN):
                yield case(
                    f"result-{field}",
                    f"result '{field}' has type {ALIEN}, expected "
                    f"{constraint.describe()}",
                    results=results[:i] + [ALIEN] + results[i + 1 :],
                )
    attributes = base["attributes"]
    for key, definition in spec.attrs:
        if not definition.optional:
            yield case(
                f"attribute-{key}-missing",
                f"missing attribute '{key}'",
                attributes={k: a for k, a in attributes.items() if k != key},
            )
        constraint = definition.constraint
        if not constraint.satisfied_by(ALIEN):
            yield case(
                f"attribute-{key}",
                f"attribute '{key}' must be {constraint.describe()}, "
                f"got {ALIEN}",
                attributes={**attributes, key: ALIEN},
            )
    regions = base["regions"]
    yield case(
        "region-count",
        f"expected {regions} region(s), got {regions + 1}",
        regions=regions + 1,
    )
    if SameOperandsAndResultType in op_class.traits:
        first, second = spec.operands[:2]
        yield case(
            "same-type-operands",
            "operand types differ",
            operands={**operands, second[0]: [sample(second[1].constraint, 1)]},
        )
        yield case(
            "same-type-result",
            "result type differs from operands",
            results=[sample(spec.results[0][1].constraint, 1)],
        )


DECLARATIVE_CLASSES = [
    op_registry.lookup(name) for name in op_registry.registered_names()
] + [
    _PairOp, _VariadicOp, _SegmentedOp, _SameTypeOp, _EveryConstraintOp,
    _TypedSegmentsOp, _MiddleOp,
]
DECLARATIVE_CASES = [
    case for op_class in DECLARATIVE_CLASSES
    for case in declarative_cases(op_class)
]


class TestGeneratedVerifyMessages:
    """The exact text of every diagnostic a spec can give, for every
    registered op and the test ops spelling the remaining forms."""

    @pytest.mark.parametrize(
        "op_class, parts, message",
        [case[1:] for case in DECLARATIVE_CASES],
        ids=[case[0] for case in DECLARATIVE_CASES],
    )
    def test_message(self, op_class, parts, message):
        op = build(op_class, **parts)
        with pytest.raises(IRError) as info:
            op.verify_()
        assert str(info.value) == message

    def test_every_registered_op_is_covered(self):
        covered = {case[1].name for case in DECLARATIVE_CASES}
        assert set(op_registry.registered_names()) <= covered

    def test_every_constraint_form_is_covered(self):
        labels = {case[0].partition("-")[2] for case in DECLARATIVE_CASES}
        assert {
            "operand-count", "segments-missing", "segments-length",
            "result-count", "region-count", "same-type-operands",
            "same-type-result", "operand-exact", "operand-either",
            "operand-mixed", "operand-ints", "operand-body", "operand-tail",
            "result-loop_results", "attribute-label", "attribute-mode",
        } <= labels


class TestGeneratedHooks:
    """``verify_`` is generated per class on first call, its code
    compiled once per shape and its source kept for tracebacks."""

    def test_importing_generates_no_hook(self):
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        script = (
            "import repro\n"
            "from repro.ir import irdl, op_registry\n"
            "op_registry.populate()\n"
            "print(len(op_registry.registered_names()), len(irdl._SHAPES))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, env=env, timeout=120, check=True,
        )
        registered, shapes = map(int, done.stdout.split())
        assert registered >= 80 and shapes == 0

    def test_same_shape_classes_share_code(self):
        a = value(IntRegisterType("t0"))
        riscv.AddOp(a, a).verify_()
        riscv.SubOp(a, a).verify_()
        add, sub = riscv.AddOp.verify_, riscv.SubOp.verify_
        assert add is not sub
        assert add.__code__ is sub.__code__
        assert add.__qualname__ == f"{riscv.AddOp.__qualname__}.verify_"

    def test_hook_of_a_verified_class_is_not_inherited(self):
        """A subclass made after its base was verified checks its own
        ``verify_extra_``."""
        base = _SameTypeOp(value(f64), value(f64))
        base.verify_()

        class StrictOp(_SameTypeOp):
            __slots__ = ()

            def verify_extra_(self):
                raise IRError("strict")

        with pytest.raises(IRError, match="strict"):
            StrictOp(value(f64), value(f64)).verify_()
        base.verify_()

    def test_traceback_shows_hook_source(self):
        bad = object.__new__(riscv.AddOp)
        Operation.__init__(
            bad, operands=[value(f64)] * 2, result_types=[IntRegisterType()]
        )
        with pytest.raises(IRError) as info:
            bad.verify_()
        text = "".join(traceback.format_exception(info.value))
        assert '<repro.ir.irdl: verify_ shape ' in text
        assert (
            "raise IRError(f\"{self.name}: operand '{k1}' has type "
            "{self._operands[0].type}, expected {k2}\")"
        ) in text


class TestSuccessors:
    def test_successor_reads_as_label(self):
        from repro.dialects import riscv_cf

        branch = riscv_cf.BltOp(
            value(IntRegisterType("t0")),
            value(IntRegisterType("t1")),
            ".loop",
        )
        assert branch.target == ".loop"
        assert branch.attributes["target"] == StringAttr(".loop")
        spec = riscv_cf.BltOp.irdl_spec
        succ = [n for n, d in spec.attrs if d.is_successor]
        assert succ == ["target"]


class TestDialect:
    def test_namespace_enforced(self):
        with pytest.raises(ValueError, match="does not belong"):
            Dialect("other", ops=[_PairOp])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate op"):
            Dialect("testdl", ops=[_PairOp, _PairOp])

    def test_op_names_sorted(self):
        d = Dialect("testdl", ops=[_VariadicOp, _PairOp])
        assert d.op_names() == ["testdl.pair", "testdl.variadic"]

    def test_registry_is_dialect_driven(self):
        for dialect in op_registry.dialects():
            for op_class in dialect.ops:
                assert op_registry.lookup(op_class.name) is op_class

    def test_register_dialect_idempotent(self):
        op_registry.populate()
        before = op_registry.registered_names()
        op_registry.populate()
        assert op_registry.registered_names() == before

    def test_duplicate_dialect_rejected(self):
        op_registry.populate()
        with pytest.raises(ValueError, match="duplicate dialect"):
            op_registry.register_dialect(Dialect("rv"))

    def test_instruction_table_is_registered(self):
        """The rv.* leaf table materialized real, registered classes."""
        assert op_registry.lookup("rv.fmadd.d") is riscv.FMAddDOp
        assert riscv.FMAddDOp.mnemonic == "fmadd.d"
        assert riscv.FMAddDOp.irdl_spec.operands[0][0] == "rs1"


class TestParserDiagnostics:
    def test_unknown_op_in_registered_dialect(self):
        with pytest.raises(ParseError) as err:
            parse_op('"arith.bogus"() : () -> ()')
        message = str(err.value)
        assert "arith.bogus" in message
        assert "line 1" in message

    def test_unknown_dialect_still_generic(self):
        op = parse_op('"mystery.op"() : () -> ()')
        assert op.name == "mystery.op"

    def test_operand_arity_checked_against_spec(self):
        with pytest.raises(ParseError) as err:
            parse_op(
                '"builtin.module"() ({\n^0():\n'
                '%0 = "rv.get_register"() : () -> (!rv.reg)\n'
                '%1 = "rv.add"(%0) : (!rv.reg) -> (!rv.reg)\n'
                "}) : () -> ()"
            )
        message = str(err.value)
        assert "rv.add" in message
        assert "expected 2 operand(s)" in message
        assert "line 4" in message

    def test_result_arity_checked_against_spec(self):
        with pytest.raises(ParseError) as err:
            parse_op('"rv.li"() {immediate = 4} : () -> ()')
        assert "expected 1 result(s)" in str(err.value)

    def test_type_mismatch_names_op(self):
        with pytest.raises(ParseError) as err:
            parse_op(
                '"builtin.module"() ({\n^0():\n'
                '%0 = "rv.get_register"() : () -> (!rv.reg)\n'
                '"rv_cf.bnez"(%0) {target = "x"} : (!rv.freg) -> ()\n'
                "}) : () -> ()"
            )
        assert "rv_cf.bnez" in str(err.value)

    def test_parse_error_is_ir_error(self):
        assert issubclass(ParseError, IRError)
