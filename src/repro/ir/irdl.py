"""Declarative, IRDL-style operation definitions.

This is the definition layer the dialects are written against, modelled
on xDSL's IRDL (which the paper's compiler builds on): an operation
*declares* its operands, results, attributes and regions as class-level
field descriptors, and :func:`irdl_op_definition` derives the rest —
named accessors, a keyword constructor and a ``verify_`` hook that
enforces every declared arity and type constraint::

    @irdl_op_definition
    class MulOp(Operation):
        \"\"\"``mul rd, rs1, rs2``.\"\"\"

        name = "rv.mul"
        rs1 = operand_def(BaseAttr(IntRegisterType))
        rs2 = operand_def(BaseAttr(IntRegisterType))
        rd = result_def(BaseAttr(IntRegisterType), default=UNALLOCATED_INT)

    op = MulOp(a, b)                   # synthesized constructor
    op.rs1                             # synthesized accessor
    op.verify_()                       # synthesized verification

Ops keep the plain :class:`~repro.ir.core.Operation` storage underneath,
so the intrusive linked-list IR and the worklist rewrite driver are
untouched; the decorator only installs class-level properties (all
``__slots__``-compatible) and a ``verify_`` stub.  On its first call
the stub writes the class's hook as Python source holding just the
checks its spec needs — ``isinstance`` tests, literal counts, constant
messages — compiled once per class shape.  Structural invariants that
cannot be expressed as per-field constraints (body terminators, yield
arities, cross-operand correlations) live in an optional
``verify_extra_`` hook that the generated ``verify_`` calls last.

:class:`Dialect` groups the op (and attribute) classes of one namespace
into a first-class object; the registry, the parser's name lookup, the
generated dialect reference and the CLI's ``--list-dialects`` are all
driven from these objects instead of module scans.
"""

from __future__ import annotations

import linecache
import threading
from typing import Sequence

from .attributes import (
    ArrayAttr,
    Attribute,
    BoolAttr,
    DenseIntAttr,
    IntAttr,
    StringAttr,
    TypeAttribute,
)
from .core import Block, IRError, Operation, Region, SSAValue
from .traits import SameOperandsAndResultType

#: Sentinel for "no default was given".
_REQUIRED = object()

#: Name of the attribute recording per-group operand counts when an op
#: declares more than one variadic operand group (MLIR's convention).
SEGMENT_ATTR = "operand_segment_sizes"


# ---------------------------------------------------------------------------
# Constraint language
# ---------------------------------------------------------------------------


class Constraint:
    """Base class of attribute/type constraints."""

    __slots__ = ()

    def satisfied_by(self, attr) -> bool:
        """Whether ``attr`` meets this constraint."""
        raise NotImplementedError

    def describe(self) -> str:
        """Short human-readable form (used in errors and docs)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.describe()


class AnyAttr(Constraint):
    """Matches every attribute (the unconstrained default)."""

    __slots__ = ()

    def satisfied_by(self, attr) -> bool:
        return True

    def describe(self) -> str:
        return "any"


class BaseAttr(Constraint):
    """Matches instances of one attribute class (subclasses included)."""

    __slots__ = ("attr_class",)

    def __init__(self, attr_class: type):
        self.attr_class = attr_class

    def satisfied_by(self, attr) -> bool:
        return isinstance(attr, self.attr_class)

    def describe(self) -> str:
        return self.attr_class.__name__


class EqAttr(Constraint):
    """Matches exactly one attribute value (type equality checks)."""

    __slots__ = ("attr",)

    def __init__(self, attr: Attribute):
        self.attr = attr

    def satisfied_by(self, attr) -> bool:
        return attr == self.attr

    def describe(self) -> str:
        return str(self.attr)


class AnyOf(Constraint):
    """Matches when any of the given constraints matches."""

    __slots__ = ("choices",)

    def __init__(self, *choices):
        self.choices = tuple(coerce_constraint(c) for c in choices)

    def satisfied_by(self, attr) -> bool:
        return any(c.satisfied_by(attr) for c in self.choices)

    def describe(self) -> str:
        return " | ".join(c.describe() for c in self.choices)


class ParamAttr(Constraint):
    """A parametrized attribute: base class plus per-field constraints.

    ``ParamAttr(ReadableStreamType, element_type=FloatRegisterType)``
    matches readable streams whose element is an FP register type.
    """

    __slots__ = ("attr_class", "field_constraints")

    def __init__(self, attr_class: type, **field_constraints):
        self.attr_class = attr_class
        self.field_constraints = {
            name: coerce_constraint(c)
            for name, c in field_constraints.items()
        }

    def satisfied_by(self, attr) -> bool:
        if not isinstance(attr, self.attr_class):
            return False
        for name, constraint in self.field_constraints.items():
            if not constraint.satisfied_by(getattr(attr, name, None)):
                return False
        return True

    def describe(self) -> str:
        params = ", ".join(
            f"{name}: {c.describe()}"
            for name, c in self.field_constraints.items()
        )
        return f"{self.attr_class.__name__}<{params}>"


def coerce_constraint(value) -> Constraint:
    """Promote shorthand into a :class:`Constraint`.

    ``None`` means unconstrained, an attribute class becomes a
    :class:`BaseAttr`, an attribute *instance* an :class:`EqAttr`.
    """
    if value is None:
        return AnyAttr()
    if isinstance(value, Constraint):
        return value
    if isinstance(value, type) and issubclass(value, Attribute):
        return BaseAttr(value)
    if isinstance(value, Attribute):
        return EqAttr(value)
    raise TypeError(f"cannot turn {value!r} into a constraint")


# ---------------------------------------------------------------------------
# Result-type derivations
# ---------------------------------------------------------------------------


class SameAs:
    """Result-type default: copy the type of the named operand field."""

    __slots__ = ("field",)

    def __init__(self, field: str):
        self.field = field


class ElementOf:
    """Result-type default: the named operand's ``type.element_type``."""

    __slots__ = ("field",)

    def __init__(self, field: str):
        self.field = field


# ---------------------------------------------------------------------------
# Field descriptors
# ---------------------------------------------------------------------------


class _FieldDef:
    """Base class of the class-body field markers."""

    __slots__ = ("doc",)


class OperandDef(_FieldDef):
    """One required operand."""

    __slots__ = ("constraint",)
    variadic = False

    def __init__(self, constraint=None, doc: str = ""):
        self.constraint = coerce_constraint(constraint)
        self.doc = doc


class VarOperandDef(OperandDef):
    """A variable-length group of operands."""

    __slots__ = ()
    variadic = True


class ResultDef(_FieldDef):
    """One op result.

    ``default`` is the result type used by the synthesized constructor
    when the caller does not pass one: a concrete type, a
    :class:`SameAs`/:class:`ElementOf` derivation, or ``None``
    (caller must supply it).
    """

    __slots__ = ("constraint", "default")
    variadic = False

    def __init__(self, constraint=None, default=None, doc: str = ""):
        self.constraint = coerce_constraint(constraint)
        self.default = default
        self.doc = doc


class VarResultDef(ResultDef):
    """A variable-length group of results (loop-carried values)."""

    __slots__ = ()
    variadic = True


class AttrDef(_FieldDef):
    """One dictionary attribute of the operation.

    ``kind`` is the expected attribute class (or a full
    :class:`Constraint`); plain Python values are converted on
    construction (``int`` -> :class:`IntAttr`, ``str`` ->
    :class:`StringAttr`, ``bool`` -> :class:`BoolAttr`, int sequences ->
    :class:`DenseIntAttr`) and unwrapped symmetrically by the accessor.
    ``elem`` unwraps array elements too (e.g. ``ArrayAttr`` of
    ``StringAttr`` reads as a list of ``str``).  ``raw=True`` disables
    unwrapping.
    """

    __slots__ = (
        "constraint", "attr_class", "optional", "default", "elem", "raw",
        "is_successor",
    )

    def __init__(
        self,
        kind,
        default=_REQUIRED,
        optional: bool = False,
        elem=None,
        raw: bool = False,
        doc: str = "",
    ):
        if isinstance(kind, type) and issubclass(kind, Attribute):
            self.attr_class = kind
            self.constraint = BaseAttr(kind)
        else:
            self.attr_class = None
            self.constraint = coerce_constraint(kind)
        self.optional = optional
        self.default = default
        self.elem = elem
        self.raw = raw
        self.is_successor = False
        self.doc = doc


class RegionDef(_FieldDef):
    """One region of the operation."""

    __slots__ = ()

    def __init__(self, doc: str = ""):
        self.doc = doc


def operand_def(constraint=None, doc: str = "") -> OperandDef:
    """Declare one operand (optionally type-constrained)."""
    return OperandDef(constraint, doc)


def var_operand_def(constraint=None, doc: str = "") -> VarOperandDef:
    """Declare a variadic operand group."""
    return VarOperandDef(constraint, doc)


def result_def(constraint=None, default=None, doc: str = "") -> ResultDef:
    """Declare one result (with an optional default/derived type)."""
    return ResultDef(constraint, default, doc)


def var_result_def(constraint=None, doc: str = "") -> VarResultDef:
    """Declare a variadic result group (e.g. loop-carried values).

    An op without any result declaration is verified to have *zero*
    results; declaring a variadic group instead admits any number.
    """
    return VarResultDef(constraint, None, doc)


def attr_def(kind, default=_REQUIRED, elem=None, raw=False, doc="") -> AttrDef:
    """Declare a required attribute."""
    return AttrDef(kind, default=default, elem=elem, raw=raw, doc=doc)


def opt_attr_def(kind, elem=None, raw=False, doc: str = "") -> AttrDef:
    """Declare an optional attribute (accessor yields ``None`` if absent)."""
    return AttrDef(
        kind, default=None, optional=True, elem=elem, raw=raw, doc=doc
    )


def region_def(doc: str = "") -> RegionDef:
    """Declare one region."""
    return RegionDef(doc)


def successor_def(doc: str = "") -> AttrDef:
    """Declare a control-flow successor.

    This IR lowers structured loops only after register allocation, so
    branch targets are assembly *labels*, not block references; a
    successor is therefore stored as a :class:`StringAttr` naming the
    target label and reads back as ``str``.
    """
    definition = AttrDef(StringAttr, doc=doc)
    definition.is_successor = True
    return definition


# ---------------------------------------------------------------------------
# Operation specs
# ---------------------------------------------------------------------------


class OpSpec:
    """The collected declarative shape of one operation class."""

    __slots__ = (
        "operands", "results", "attrs", "regions", "segmented",
        "variadic_results",
    )

    def __init__(self, operands, results, attrs, regions):
        self.operands: list[tuple[str, OperandDef]] = operands
        self.results: list[tuple[str, ResultDef]] = results
        self.attrs: list[tuple[str, AttrDef]] = attrs
        self.regions: list[tuple[str, RegionDef]] = regions
        variadic = [d for _, d in operands if d.variadic]
        self.segmented = len(variadic) > 1
        if self.segmented and len(variadic) != len(operands):
            raise TypeError(
                "ops with several variadic operand groups must make "
                "every operand group variadic (segment encoding)"
            )
        self.variadic_results = any(d.variadic for _, d in results)
        if self.variadic_results and len(results) != 1:
            raise TypeError(
                "a variadic result group must be the only result "
                "declaration"
            )

    @classmethod
    def from_class(cls, op_class: type) -> "OpSpec":
        base_spec = getattr(op_class, "irdl_spec", None)
        operands = list(base_spec.operands) if base_spec else []
        results = list(base_spec.results) if base_spec else []
        attrs = list(base_spec.attrs) if base_spec else []
        regions = list(base_spec.regions) if base_spec else []
        for name, value in list(op_class.__dict__.items()):
            if isinstance(value, OperandDef):  # VarOperandDef too
                operands.append((name, value))
            elif isinstance(value, ResultDef):
                results.append((name, value))
            elif isinstance(value, AttrDef):
                attrs.append((name, value))
            elif isinstance(value, RegionDef):
                regions.append((name, value))
        return cls(operands, results, attrs, regions)

    def check_arity(
        self, num_operands: int, num_results: int
    ) -> str | None:
        """Check operand/result counts against this spec.

        Returns a human-readable complaint (without the op name) or
        ``None`` when the counts are admissible.  Shared by the
        generated verifier and the parser, so arity diagnostics stay
        consistent between built and parsed IR.
        """
        variadic = sum(1 for _, d in self.operands if d.variadic)
        total = len(self.operands)
        if self.segmented:
            pass  # group sizes live in the segment attribute
        elif variadic == 0:
            if num_operands != total:
                return f"expected {total} operand(s), got {num_operands}"
        elif num_operands < total - variadic:
            return (
                f"expected at least {total - variadic} operand(s), "
                f"got {num_operands}"
            )
        if not self.variadic_results and num_results != len(
            self.results
        ):
            return (
                f"expected {len(self.results)} result(s), "
                f"got {num_results}"
            )
        return None

    def signature(self) -> str:
        """Compact ``(operands) -> results`` form for generated docs."""

        def mark(name: str, definition) -> str:
            return f"{name}..." if definition.variadic else name

        parts = ", ".join(mark(n, d) for n, d in self.operands)
        outs = ", ".join(mark(n, d) for n, d in self.results)
        attrs = ", ".join(
            f"{n}?" if d.optional else n
            for n, d in self.attrs
            if not d.is_successor
        )
        succ = ", ".join(n for n, d in self.attrs if d.is_successor)
        text = f"({parts})"
        if outs:
            text += f" -> {outs}"
        if attrs:
            text += f" {{{attrs}}}"
        if succ:
            text += f" [{succ}]"
        if self.regions:
            text += " (" + ", ".join(n for n, _ in self.regions) + ")"
        return text


# ---------------------------------------------------------------------------
# Accessor synthesis
# ---------------------------------------------------------------------------


def _segment_bounds(op: Operation, field_index: int) -> tuple[int, int]:
    attr = op.attributes.get(SEGMENT_ATTR)
    if not isinstance(attr, DenseIntAttr):
        raise IRError(f"{op.name}: missing {SEGMENT_ATTR} attribute")
    sizes = attr.values
    start = sum(sizes[:field_index])
    return start, start + sizes[field_index]


def _operand_accessors(spec: OpSpec):
    defs = spec.operands
    total = len(defs)
    variadic_at = [i for i, (_, d) in enumerate(defs) if d.variadic]
    accessors = {}
    for i, (name, definition) in enumerate(defs):
        if spec.segmented:

            def get(self, _i=i):
                start, stop = _segment_bounds(self, _i)
                return tuple(self._operands[start:stop])

        elif definition.variadic:
            tail = total - i - 1

            def get(self, _i=i, _tail=tail):
                return tuple(
                    self._operands[_i : len(self._operands) - _tail]
                )

        else:  # fixed: after the variadic group, index from the end
            after = variadic_at and i > variadic_at[0]

            def get(self, _i=i - total if after else i):
                return self._operands[_i]

        accessors[name] = property(get, doc=definition.doc or None)
    return accessors


_ATTR_UNWRAP = {
    IntAttr: lambda a: a.value,
    StringAttr: lambda a: a.value,
    BoolAttr: lambda a: a.value,
    DenseIntAttr: lambda a: a.values,
}


def _attr_accessor(name: str, definition: AttrDef):
    unwrap = None
    if not definition.raw and definition.attr_class is not None:
        unwrap = _ATTR_UNWRAP.get(definition.attr_class)
        if definition.attr_class is ArrayAttr:
            elem_unwrap = (
                _ATTR_UNWRAP.get(definition.elem) if definition.elem
                else None
            )
            if elem_unwrap is not None:
                unwrap = lambda a, _e=elem_unwrap: [  # noqa: E731
                    _e(x) for x in a.elements
                ]
            else:
                unwrap = lambda a: list(a.elements)  # noqa: E731

    if definition.optional:

        def get(self, _k=name, _u=unwrap):
            attr = self.attributes.get(_k)
            if attr is None:
                return None
            return _u(attr) if _u is not None else attr

    elif unwrap is not None:

        def get(self, _k=name, _u=unwrap):
            return _u(self.attributes[_k])

    else:

        def get(self, _k=name):
            return self.attributes[_k]

    return property(get, doc=definition.doc or None)


# ---------------------------------------------------------------------------
# Constructor synthesis
# ---------------------------------------------------------------------------


def _check_operand(op_name, field, value, constraint):
    if not isinstance(value, SSAValue):
        raise IRError(
            f"operand of {op_name} must be an SSAValue, got "
            f"{type(value).__name__}"
        )
    if type(constraint) is not AnyAttr and not constraint.satisfied_by(
        value.type
    ):
        raise IRError(
            f"{op_name}: operand '{field}' must be "
            f"{constraint.describe()}, got {value.type}"
        )


def _to_attribute(op_name, field, definition: AttrDef, value) -> Attribute:
    if isinstance(value, Attribute):
        if not definition.constraint.satisfied_by(value):
            raise IRError(
                f"{op_name}: attribute '{field}' must be "
                f"{definition.constraint.describe()}, got {value}"
            )
        return value
    base = definition.attr_class
    if base is IntAttr and isinstance(value, int) and not isinstance(
        value, bool
    ):
        return IntAttr(value)
    if base is StringAttr and isinstance(value, str):
        return StringAttr(value)
    if base is BoolAttr and isinstance(value, bool):
        return BoolAttr(value)
    if base is DenseIntAttr:
        return DenseIntAttr(value)
    if base is ArrayAttr and isinstance(value, (list, tuple)):
        elem = definition.elem
        elements = []
        for item in value:
            if isinstance(item, Attribute):
                elements.append(item)
            elif elem is StringAttr and isinstance(item, str):
                elements.append(StringAttr(item))
            elif elem is IntAttr and isinstance(item, int):
                elements.append(IntAttr(item))
            else:
                raise IRError(
                    f"{op_name}: attribute '{field}' expects a sequence "
                    f"of attributes, got {type(item).__name__}"
                )
        return ArrayAttr(elements)
    expected = base.__name__ if base else definition.constraint.describe()
    raise IRError(
        f"{op_name}: attribute '{field}' expects {expected}, got "
        f"{type(value).__name__}"
    )


def _compile_init(op_class: type, spec: OpSpec):
    """Build the synthesized keyword constructor for ``op_class``.

    Positional order is operands, then attributes, then result types;
    variadic operand groups take a sequence.  A single declared result
    is also addressable as ``result_type=`` regardless of its field
    name, matching the hand-written constructors this replaces.
    """
    positional = (
        [name for name, _ in spec.operands]
        + [name for name, _ in spec.attrs]
        + [name for name, _ in spec.results]
        + [name for name, _ in spec.regions]
    )
    param_set = set(positional)
    if spec.variadic_results:
        raise TypeError(
            f"{op_class.__name__}: ops with a variadic result group "
            "must define their own __init__ (the result count depends "
            "on runtime arguments)"
        )
    single_result = (
        spec.results[0][0] if len(spec.results) == 1 else None
    )
    operand_defs = spec.operands
    attr_defs = spec.attrs
    result_defs = spec.results
    region_defs = spec.regions
    segmented = spec.segmented

    def __init__(self, *args, **kwargs):
        # Read the *concrete* class at call time: leaf classes (e.g.
        # the rv.* instruction table) inherit this constructor from the
        # decorated shape class, and errors must name them, not it.
        cls = type(self)
        op_name = cls.name
        if len(args) > len(positional):
            raise TypeError(
                f"{cls.__name__} takes at most {len(positional)} "
                f"arguments, got {len(args)}"
            )
        bound = dict(zip(positional, args))
        for key, value in kwargs.items():
            if key == "result_type" and single_result is not None:
                key = single_result
            if key not in param_set:
                raise TypeError(
                    f"{cls.__name__} got an unexpected argument "
                    f"{key!r}"
                )
            if key in bound:
                raise TypeError(
                    f"{cls.__name__} got duplicate values for "
                    f"{key!r}"
                )
            bound[key] = value
        # -- operands --------------------------------------------------
        operand_values: list[SSAValue] = []
        groups: dict[str, object] = {}
        segment_sizes: list[int] = []
        for name, definition in operand_defs:
            value = bound.get(
                name, () if definition.variadic else _REQUIRED
            )
            if value is _REQUIRED:
                raise TypeError(
                    f"{cls.__name__} missing required operand "
                    f"{name!r}"
                )
            if definition.variadic:
                values = list(value)
                for item in values:
                    _check_operand(
                        op_name, name, item, definition.constraint
                    )
                groups[name] = values
                segment_sizes.append(len(values))
                operand_values.extend(values)
            else:
                _check_operand(op_name, name, value, definition.constraint)
                groups[name] = value
                operand_values.append(value)
        # -- attributes ------------------------------------------------
        attributes: dict[str, Attribute] = {}
        for name, definition in attr_defs:
            value = bound.get(name, _REQUIRED)
            if value is _REQUIRED:
                value = definition.default
                if definition.optional and value is _REQUIRED:
                    value = None
            if value is _REQUIRED:
                raise TypeError(
                    f"{cls.__name__} missing required attribute "
                    f"{name!r}"
                )
            if value is None and definition.optional:
                continue
            attributes[name] = _to_attribute(
                op_name, name, definition, value
            )
        if segmented:
            attributes[SEGMENT_ATTR] = DenseIntAttr(segment_sizes)
        # -- results ---------------------------------------------------
        result_types: list[TypeAttribute] = []
        for name, definition in result_defs:
            value = bound.get(name)
            if value is None:
                default = definition.default
                if isinstance(default, SameAs):
                    value = groups[default.field].type
                elif isinstance(default, ElementOf):
                    operand = groups[default.field]
                    value = getattr(operand.type, "element_type", None)
                    if value is None:
                        raise IRError(
                            f"{op_name}: cannot derive the type of "
                            f"'{name}' from {operand.type}"
                        )
                else:
                    value = default
            if value is None:
                raise TypeError(
                    f"{cls.__name__} missing required result type "
                    f"{name!r}"
                )
            result_types.append(value)
        # -- regions ---------------------------------------------------
        regions = [
            bound.get(name) or Region([Block()]) for name, _ in region_defs
        ]
        Operation.__init__(
            self,
            operands=operand_values,
            result_types=result_types,
            attributes=attributes,
            regions=regions,
        )

    __init__.__qualname__ = f"{op_class.__qualname__}.__init__"
    return __init__


# ---------------------------------------------------------------------------
# Verification synthesis
# ---------------------------------------------------------------------------

#: Hook source -> the factory closing it over its constants.  Counts are
#: literals in the source; every other constant (classes, field names,
#: ``describe()`` strings) is a parameter ``k<i>``, so op classes of one
#: shape share one code object.
_SHAPES: dict[str, object] = {}
_SHAPES_LOCK = threading.Lock()


class _HookWriter:
    """Writes the body of one op class's ``verify_`` as source lines."""

    def __init__(self):
        self.lines: list[str] = []
        self.constants: list = []

    def const(self, value) -> str:
        self.constants.append(value)
        return f"k{len(self.constants) - 1}"

    def fail(self, condition: str, message: str, depth: int = 0) -> None:
        """Raise ``<op name>: <message>`` (an f-string) if ``condition``."""
        pad = "    " * depth
        self.lines += [
            f"{pad}if {condition}:",
            f'{pad}    raise IRError(f"{{self.name}}: {message}")',
        ]

    def count(self, what: str, items: str, num: int) -> None:
        self.fail(
            items if num == 0 else f"len({items}) != {num}",
            f"expected {num} {what}(s), got {{len({items})}}",
        )

    def rejects(self, constraint: Constraint, subject: str) -> str | None:
        """A condition true when ``subject`` fails ``constraint``."""
        kind, choices = type(constraint), getattr(constraint, "choices", ())
        if kind is AnyAttr:
            return None
        if kind is EqAttr:
            return f"not {subject} == {self.const(constraint.attr)}"
        if kind is BaseAttr:
            classes = constraint.attr_class
        elif kind is AnyOf and all(type(c) is BaseAttr for c in choices):
            classes = tuple(c.attr_class for c in choices)
        else:
            return f"not {self.const(constraint.satisfied_by)}({subject})"
        return f"not isinstance({subject}, {self.const(classes)})"

    def check_type(self, what, field, constraint, subject, over=None):
        """Check the type ``subject``, for each ``v`` in ``over`` if
        given."""
        condition = self.rejects(constraint, subject)
        if condition is not None:
            if over is not None:
                self.lines.append(f"for v in {over}:")
            self.fail(
                condition,
                f"{what} '{{{self.const(field)}}}' has type {{{subject}}}, "
                f"expected {{{self.const(constraint.describe())}}}",
                over is not None,
            )


def _write_verify(op_class: type) -> _HookWriter:
    """The checks ``op_class``'s spec, traits and ``verify_extra_``
    need, in the order their diagnostics are defined."""
    spec, hook = op_class.irdl_spec, _HookWriter()
    odefs, total = spec.operands, len(spec.operands)
    variadic_at = [i for i, (_, d) in enumerate(odefs) if d.variadic]
    count = "len(self._operands)"
    if spec.segmented:
        sizes = [f"n{i}" for i in range(total)]
        hook.lines.append(f"sizes = self.attributes.get({SEGMENT_ATTR!r})")
        hook.fail(
            "not isinstance(sizes, DenseIntAttr)",
            f"missing {SEGMENT_ATTR} attribute",
        )
        hook.lines.append("sizes = sizes.values")
        hook.fail(
            f"len(sizes) != {total}",
            f"{SEGMENT_ATTR} names {{len(sizes)}} group(s), expected {total}",
        )
        hook.fail(
            f"min(sizes) < 0 or sum(sizes) != {count}",
            f"{SEGMENT_ATTR} {{list(sizes)}} does not cover {{{count}}} "
            "operand(s)",
        )
        if any(type(d.constraint) is not AnyAttr for _, d in odefs):
            hook.lines.append(f"{', '.join(sizes)} = sizes")
    elif not variadic_at:
        hook.count("operand", "self._operands", total)
    elif total > 1:
        hook.fail(
            f"{count} < {total - 1}",
            f"expected at least {total - 1} operand(s), got {{{count}}}",
        )
    # Fixed operands after the variadic group index from the end.
    cut = variadic_at[0] if variadic_at else total
    for i, (name, d) in enumerate(odefs):
        if not d.variadic:
            hook.check_type(
                "operand", name, d.constraint,
                f"self._operands[{i - total if i > cut else i}].type",
            )
    for i in variadic_at:
        (name, d), tail = odefs[i], total - i - 1
        if spec.segmented:
            span = f"{' + '.join(sizes[:i])}:{' + '.join(sizes[: i + 1])}"
        else:
            span = f"{i}:{f'{count} - {tail}' if tail else ''}"
        hook.check_type(
            "operand", name, d.constraint, "v.type", f"self._operands[{span}]"
        )
    if spec.variadic_results:
        [(name, d)] = spec.results
        hook.check_type("result", name, d.constraint, "v.type", "self.results")
    else:
        hook.count("result", "self.results", len(spec.results))
        for i, (name, d) in enumerate(spec.results):
            hook.check_type(
                "result", name, d.constraint, f"self.results[{i}].type"
            )
    for key, d in spec.attrs:
        if d.optional and type(d.constraint) is AnyAttr:
            continue
        key = hook.const(key)
        hook.lines.append(f"a = self.attributes.get({key})")
        if not d.optional:
            hook.fail("a is None", f"missing attribute '{{{key}}}'")
        condition = hook.rejects(d.constraint, "a")
        if condition is not None:
            hook.fail(
                f"a is not None and {condition}" if d.optional else condition,
                f"attribute '{{{key}}}' must be "
                f"{{{hook.const(d.constraint.describe())}}}, got {{a}}",
            )
    hook.count("region", "self.regions", len(spec.regions))
    if SameOperandsAndResultType in op_class.traits:
        hook.lines += [
            "if self._operands or self.results:",
            "    reference = (self._operands or self.results)[0].type",
            "    for v in self._operands:",
        ]
        hook.fail("v.type != reference", "operand types differ", 2)
        hook.lines.append("    for v in self.results:")
        hook.fail(
            "v.type != reference", "result type differs from operands", 2
        )
    if getattr(op_class, "verify_extra_", None) is not None:
        hook.lines.append("self.verify_extra_()")
    return hook


def _install_verify(op_class: type):
    """Generate ``op_class.verify_``, compiling its shape on first use."""
    hook = _write_verify(op_class)
    params = ", ".join(f"k{i}" for i in range(len(hook.constants)))
    body = "".join(f"        {line}\n" for line in hook.lines)
    source = (
        f"def make({params}):\n    def verify_(self):\n{body}"
        "    return verify_\n"
    )
    with _SHAPES_LOCK:  # one compile and one file name per shape
        make = _SHAPES.get(source)
        if make is None:
            name = f"<repro.ir.irdl: verify_ shape {len(_SHAPES)}>"
            lines = source.splitlines(True)
            linecache.cache[name] = (len(source), None, lines, name)
            scope = {"IRError": IRError, "DenseIntAttr": DenseIntAttr}
            exec(compile(source, name, "exec"), scope)
            make = _SHAPES[source] = scope["make"]
    verify_ = op_class.verify_ = make(*hook.constants)
    verify_.__qualname__ = f"{op_class.__qualname__}.verify_"
    return verify_


def _verify_stub(op_class: type):
    """A ``verify_`` generating the hook for the class it is first
    called on.  Every subclass gets its own (``_stub_subclass``): a hook
    generated for a base class would miss a subclass's own traits and
    ``verify_extra_``."""

    def verify_(self):
        return _install_verify(type(self))(self)

    verify_.__qualname__ = f"{op_class.__qualname__}.verify_"
    return verify_


def _stub_subclass(cls) -> None:
    if "verify_" not in cls.__dict__:
        cls.verify_ = _verify_stub(cls)


# ---------------------------------------------------------------------------
# The decorator
# ---------------------------------------------------------------------------


def irdl_op_definition(op_class: type) -> type:
    """Derive accessors, constructor and verification from field defs.

    The class is modified in place: every field descriptor in the class
    body is replaced by a named ``property``, ``verify_`` (and that of
    every subclass) is a stub generating the declarative checks on
    first call, and a keyword ``__init__`` is synthesized unless the
    class (or a mixin below :class:`Operation`) defines its own.
    """
    if not (isinstance(op_class, type) and issubclass(op_class, Operation)):
        raise TypeError("@irdl_op_definition expects an Operation subclass")
    spec = OpSpec.from_class(op_class)
    op_class.irdl_spec = spec
    for name, prop in _operand_accessors(spec).items():
        setattr(op_class, name, prop)
    for i, (name, definition) in enumerate(spec.results):
        if definition.variadic:

            def get(self):
                return tuple(self.results)

        else:

            def get(self, _i=i):
                return self.results[_i]

        setattr(op_class, name, property(get, doc=definition.doc or None))
    for name, definition in spec.attrs:
        setattr(op_class, name, _attr_accessor(name, definition))
    for i, (name, definition) in enumerate(spec.regions):

        def get_region(self, _i=i):
            return self.regions[_i]

        setattr(
            op_class, name, property(get_region, doc=definition.doc or None)
        )
    op_class.verify_ = _verify_stub(op_class)
    op_class.__init_subclass__ = classmethod(_stub_subclass)
    if op_class.__init__ is Operation.__init__:
        op_class.__init__ = _compile_init(op_class, spec)
    return op_class


# ---------------------------------------------------------------------------
# Dialects
# ---------------------------------------------------------------------------


class Dialect:
    """A named group of operation and attribute classes.

    These objects (one per dialect module) drive op registration, the
    parser's name lookup, the generated dialect reference and the CLI's
    ``--list-dialects`` — replacing the old module-scan discovery.
    """

    __slots__ = ("name", "ops", "attrs", "doc")

    def __init__(
        self,
        name: str,
        ops: Sequence[type] = (),
        attrs: Sequence[type] = (),
        doc: str = "",
    ):
        self.name = name
        self.ops = tuple(ops)
        self.attrs = tuple(attrs)
        self.doc = doc
        seen: set[str] = set()
        for op in self.ops:
            namespace, _, suffix = op.name.partition(".")
            if namespace != name or not suffix:
                raise ValueError(
                    f"op {op.name!r} does not belong to dialect {name!r}"
                )
            if op.name in seen:
                raise ValueError(f"duplicate op {op.name!r} in {name!r}")
            seen.add(op.name)

    def op_names(self) -> list[str]:
        """The names of all ops in this dialect, sorted."""
        return sorted(op.name for op in self.ops)

    def __repr__(self) -> str:
        return f"Dialect({self.name!r}, {len(self.ops)} ops)"


__all__ = [
    "Constraint",
    "AnyAttr",
    "BaseAttr",
    "EqAttr",
    "AnyOf",
    "ParamAttr",
    "coerce_constraint",
    "SameAs",
    "ElementOf",
    "OperandDef",
    "VarOperandDef",
    "ResultDef",
    "VarResultDef",
    "AttrDef",
    "RegionDef",
    "operand_def",
    "var_operand_def",
    "result_def",
    "var_result_def",
    "attr_def",
    "opt_attr_def",
    "region_def",
    "successor_def",
    "OpSpec",
    "SEGMENT_ATTR",
    "irdl_op_definition",
    "Dialect",
]
