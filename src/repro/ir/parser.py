"""Textual IR parser: the inverse of :mod:`repro.ir.printer`.

Parses the generic operation syntax the printer emits::

    %2 = "arith.addf"(%0, %1) : (f64, f64) -> (f64)
    "builtin.module"() ({ ^0(): ... }) : () -> ()

Operation classes are resolved through :mod:`repro.ir.op_registry`, so
parsed IR carries the same typed accessors and verification hooks as
built IR — which makes print/parse round-trips first-class citizens in
the test suite, mirroring how the paper's xDSL/MLIR toolchains
interoperate "via the common text IR format" (Section 4.1).
"""

from __future__ import annotations

import re

from .affine_map import (
    AffineConstantExpr,
    AffineDimExpr,
    AffineExpr,
    AffineMap,
)
from .attributes import (
    ArrayAttr,
    Attribute,
    BoolAttr,
    DenseIntAttr,
    FloatAttr,
    FloatType,
    FunctionType,
    IndexType,
    IntAttr,
    IntegerType,
    MemRefType,
    StringAttr,
    SymbolRefAttr,
    TypeAttribute,
)
from .core import Block, IRError, Operation, Region, SSAValue
from . import op_registry


class ParseError(IRError):
    """Raised on malformed IR text, with position information.

    A subclass of :class:`~repro.ir.core.IRError`: a parse failure *is*
    malformed IR, so callers that guard IR construction with ``except
    IRError`` also catch text-level problems.
    """

    def __init__(self, message: str, text: str, position: int):
        line = text.count("\n", 0, position) + 1
        column = position - (text.rfind("\n", 0, position) + 1) + 1
        super().__init__(f"{message} (line {line}, column {column})")


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_.$]*")
_VALUE_ID = re.compile(r"%[A-Za-z0-9_.$]+")
_INTEGER = re.compile(r"-?\d+")
_FLOAT = re.compile(r"-?\d+\.\d*(e[+-]?\d+)?|-?\d+e[+-]?\d+")
_STRING = re.compile(r'"([^"\\]*)"')
#: Whitespace and ``//`` line comments, in any mix (always matches,
#: possibly empty), and what such a run can start with.
_SKIP = re.compile(r"(?:[ \t\n\r]+|//[^\n]*)*")
_SKIP_START = (" ", "\n", "\t", "\r", "//")


_UNREGISTERED_CACHE: dict[str, type[Operation]] = {}


def _unregistered_class(name: str) -> type[Operation]:
    """A generic Operation subclass preserving an unregistered name."""
    cached = _UNREGISTERED_CACHE.get(name)
    if cached is None:
        cached = type(
            "UnregisteredOp", (Operation,), {"name": name, "__slots__": ()}
        )
        _UNREGISTERED_CACHE[name] = cached
    return cached


class Parser:
    """Recursive-descent parser over the printed generic format."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.values: dict[str, SSAValue] = {}

    # -- low-level cursor helpers --------------------------------------------

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.pos)

    def error_at(self, position: int, message: str) -> ParseError:
        """An error anchored at an earlier position (e.g. an op name)."""
        return ParseError(message, self.text, position)

    def skip_ws(self) -> None:
        # Five calls in six already sit on a token (or at the end):
        # only the others pay for a match object.
        if self.text.startswith(_SKIP_START, self.pos):
            self.pos = _SKIP.match(self.text, self.pos).end()

    def peek(self, token: str) -> bool:
        self.skip_ws()
        return self.text.startswith(token, self.pos)

    def accept(self, token: str) -> bool:
        if self.peek(token):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.accept(token):
            raise self.error(f"expected {token!r}")

    def match(self, pattern: re.Pattern) -> str | None:
        self.skip_ws()
        found = pattern.match(self.text, self.pos)
        if found is None:
            return None
        self.pos = found.end()
        return found.group(0)

    def expect_match(self, pattern: re.Pattern, what: str) -> str:
        token = self.match(pattern)
        if token is None:
            raise self.error(f"expected {what}")
        return token

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    # -- entry points -----------------------------------------------------------

    def parse_operation(self) -> Operation:
        """Parse one (possibly nested) operation."""
        result_names = self._parse_result_bindings()
        self.skip_ws()
        name_pos = self.pos
        name = self._parse_op_name()
        operands = self._parse_operand_list()
        regions = self._parse_optional_regions()
        attributes = self._parse_optional_attributes()
        self.expect(":")
        operand_types, result_types = self._parse_signature()
        if len(operand_types) != len(operands):
            raise self.error_at(
                name_pos,
                f"'{name}': {len(operands)} operand(s) but "
                f"{len(operand_types)} operand type(s)",
            )
        if len(result_names) not in (0, len(result_types)):
            raise self.error_at(
                name_pos,
                f"'{name}': {len(result_names)} result binding(s) but "
                f"{len(result_types)} result type(s)",
            )
        op_class = op_registry.lookup(name)
        if op_class is Operation:
            # Tolerate entirely foreign dialects (round-tripping IR from
            # other tools), but an unknown op *within* a registered
            # dialect is almost certainly a typo — reject it with the
            # offending name and source location.
            namespace = name.partition(".")[0]
            if op_registry.get_dialect(namespace) is not None:
                raise self.error_at(
                    name_pos,
                    f"unknown operation '{name}' in registered dialect "
                    f"'{namespace}'",
                )
            op_class = _unregistered_class(name)
        spec = getattr(op_class, "irdl_spec", None)
        if spec is not None:
            complaint = spec.check_arity(len(operands), len(result_types))
            if complaint is not None:
                raise self.error_at(name_pos, f"'{name}': {complaint}")
        op = object.__new__(op_class)
        Operation.__init__(
            op,
            operands=operands,
            result_types=result_types,
            attributes=attributes,
            regions=regions,
        )
        for binding, result in zip(result_names, op.results):
            self.values[binding] = result
        for value, declared in zip(operands, operand_types):
            if value.type != declared:
                raise self.error_at(
                    name_pos,
                    f"'{name}': operand type mismatch: {value.type} vs "
                    f"{declared}",
                )
        return op

    # -- operation pieces ----------------------------------------------------------

    def _parse_result_bindings(self) -> list[str]:
        saved = self.pos
        names = []
        while True:
            token = self.match(_VALUE_ID)
            if token is None:
                self.pos = saved
                return []
            names.append(token)
            if self.accept(","):
                continue
            if self.accept("="):
                return names
            self.pos = saved
            return []

    def _parse_op_name(self) -> str:
        token = self.expect_match(_STRING, "operation name")
        return token[1:-1]

    def _parse_operand_list(self) -> list[SSAValue]:
        self.expect("(")
        operands = []
        while not self.accept(")"):
            token = self.expect_match(_VALUE_ID, "value id")
            if token not in self.values:
                raise self.error(f"use of undefined value {token}")
            operands.append(self.values[token])
            if not self.peek(")"):
                self.expect(",")
        return operands

    def _parse_optional_regions(self) -> list[Region]:
        saved = self.pos
        if not self.accept("("):
            return []
        if not self.peek("{"):
            self.pos = saved
            return []
        regions = [self._parse_region()]
        while self.accept(","):
            regions.append(self._parse_region())
        self.expect(")")
        return regions

    def _parse_region(self) -> Region:
        self.expect("{")
        blocks = []
        while self.peek("^"):
            blocks.append(self._parse_block())
        self.expect("}")
        return Region(blocks)

    def _parse_block(self) -> Block:
        self.expect("^")
        self.expect_match(_INTEGER, "block label")
        self.expect("(")
        block = Block()
        while not self.accept(")"):
            token = self.expect_match(_VALUE_ID, "block argument")
            self.expect(":")
            arg = block.add_arg(self.parse_type())
            self.values[token] = arg
            if not self.peek(")"):
                self.expect(",")
        self.expect(":")
        while self.peek('"') or self.peek("%"):
            block.add_op(self.parse_operation())
        return block

    def _parse_optional_attributes(self) -> dict[str, Attribute]:
        if not self.accept("{"):
            return {}
        attributes: dict[str, Attribute] = {}
        while not self.accept("}"):
            key = self.expect_match(_IDENT, "attribute name")
            self.expect("=")
            attributes[key] = self.parse_attribute()
            if not self.peek("}"):
                self.expect(",")
        return attributes

    def _parse_signature(
        self,
    ) -> tuple[list[TypeAttribute], list[TypeAttribute]]:
        operand_types = self._parse_type_list()
        self.expect("->")
        result_types = self._parse_type_list()
        return operand_types, result_types

    def _parse_type_list(self) -> list[TypeAttribute]:
        self.expect("(")
        types = []
        while not self.accept(")"):
            types.append(self.parse_type())
            if not self.peek(")"):
                self.expect(",")
        return types

    # -- types ------------------------------------------------------------------------

    def parse_type(self) -> TypeAttribute:
        """Parse one type."""
        if self.accept("index"):
            return IndexType()
        if self.accept("memref<"):
            return self._parse_memref_body()
        if self.accept("!rv.reg"):
            from ..dialects.riscv import IntRegisterType

            return IntRegisterType(self._parse_optional_angle_ident())
        if self.accept("!rv.freg"):
            from ..dialects.riscv import FloatRegisterType

            return FloatRegisterType(self._parse_optional_angle_ident())
        if self.accept("!stream.readable<"):
            from ..dialects.stream import ReadableStreamType

            element = self.parse_type()
            self.expect(">")
            return ReadableStreamType(element)
        if self.accept("!stream.writable<"):
            from ..dialects.stream import WritableStreamType

            element = self.parse_type()
            self.expect(">")
            return WritableStreamType(element)
        if self.peek("("):
            operand_types = self._parse_type_list()
            self.expect("->")
            result_types = self._parse_type_list()
            return FunctionType(operand_types, result_types)
        token = self.match(re.compile(r"[fi]\d+"))
        if token is not None:
            width = int(token[1:])
            return (
                FloatType(width)
                if token[0] == "f"
                else IntegerType(width)
            )
        raise self.error("expected a type")

    def _parse_optional_angle_ident(self) -> str:
        if not self.accept("<"):
            return ""
        name = self.expect_match(_IDENT, "register name")
        self.expect(">")
        return name

    def _parse_memref_body(self) -> MemRefType:
        shape = []
        while True:
            saved = self.pos
            token = self.match(_INTEGER)
            if token is not None and self.accept("x"):
                shape.append(int(token))
                continue
            self.pos = saved
            element = self.parse_type()
            self.expect(">")
            return MemRefType(element, shape)

    # -- attributes ----------------------------------------------------------------------

    def parse_attribute(self) -> Attribute:
        """Parse one attribute value."""
        if self.accept("true"):
            return BoolAttr(True)
        if self.accept("false"):
            return BoolAttr(False)
        if self.peek('"'):
            token = self.expect_match(_STRING, "string")
            return StringAttr(token[1:-1])
        if self.accept("@"):
            return SymbolRefAttr(self.expect_match(_IDENT, "symbol"))
        if self.accept("affine_map<"):
            return self._parse_affine_map_body()
        if self.accept("#memref_stream.stride_pattern<"):
            return self._parse_memref_stream_pattern()
        if self.accept("#snitch_stream.stride_pattern<"):
            return self._parse_snitch_stream_pattern()
        if self.peek("["):
            return self._parse_array_or_dense()
        if self.peek("("):
            # function-type attribute (e.g. func.func's signature)
            return self.parse_type()
        number = self.match(_FLOAT)
        if number is not None:
            self.expect(":")
            attr_type = self.parse_type()
            if not isinstance(attr_type, FloatType):
                raise self.error("float attribute needs a float type")
            return FloatAttr(float(number), attr_type)
        token = self.match(_INTEGER)
        if token is not None:
            return IntAttr(int(token))
        raise self.error("expected an attribute")

    def _parse_array_or_dense(self) -> Attribute:
        self.expect("[")
        elements: list[Attribute] = []
        all_ints = True
        while not self.accept("]"):
            element = self.parse_attribute()
            elements.append(element)
            if not isinstance(element, IntAttr):
                all_ints = False
            if not self.peek("]"):
                self.expect(",")
        if elements and all_ints:
            return DenseIntAttr([e.value for e in elements])
        if not elements:
            return DenseIntAttr([])
        return ArrayAttr(elements)

    def _parse_int_list(self) -> list[int]:
        self.expect("[")
        values = []
        while not self.accept("]"):
            values.append(
                int(self.expect_match(_INTEGER, "integer"))
            )
            if not self.peek("]"):
                self.expect(",")
        return values

    def _parse_memref_stream_pattern(self) -> Attribute:
        from ..dialects.memref_stream import StridePatternAttr

        self.expect("ub")
        self.expect("=")
        ub = self._parse_int_list()
        self.expect(",")
        self.expect("index_map")
        self.expect("=")
        self.expect("affine_map<")
        index_map = self._parse_affine_map_body()
        self.expect(">")
        return StridePatternAttr(DenseIntAttr(ub), index_map)

    def _parse_snitch_stream_pattern(self) -> Attribute:
        from ..dialects.snitch_stream import StridePattern

        self.expect("ub")
        self.expect("=")
        ub = self._parse_int_list()
        self.expect(",")
        self.expect("strides")
        self.expect("=")
        strides = self._parse_int_list()
        self.expect(">")
        return StridePattern(ub, strides)

    # -- affine maps --------------------------------------------------------------

    def _parse_affine_map_body(self) -> AffineMap:
        self.expect("(")
        num_dims = 0
        while not self.accept(")"):
            self.expect_match(re.compile(r"d\d+"), "dim name")
            num_dims += 1
            if not self.peek(")"):
                self.expect(",")
        self.expect("->")
        self.expect("(")
        exprs = []
        while not self.accept(")"):
            exprs.append(self._parse_affine_expr())
            if not self.peek(")"):
                self.expect(",")
        self.expect(">")
        return AffineMap(num_dims, exprs)

    def _parse_affine_expr(self) -> AffineExpr:
        left = self._parse_affine_term()
        while True:
            self.skip_ws()
            if self.accept("+"):
                left = left + self._parse_affine_term()
            elif self.accept("*"):
                left = left * self._parse_affine_term()
            else:
                return left

    def _parse_affine_term(self) -> AffineExpr:
        if self.accept("("):
            expr = self._parse_affine_expr()
            self.expect(")")
            return expr
        token = self.match(re.compile(r"d\d+"))
        if token is not None:
            return AffineDimExpr(int(token[1:]))
        token = self.expect_match(_INTEGER, "affine term")
        return AffineConstantExpr(int(token))


def parse_op(text: str) -> Operation:
    """Parse a single top-level operation (e.g. a module)."""
    parser = Parser(text)
    op = parser.parse_operation()
    if not parser.at_end():
        raise parser.error("trailing input after operation")
    return op


def parse_module(text: str):
    """Parse text that must hold a ``builtin.module``."""
    from ..dialects.builtin import ModuleOp

    op = parse_op(text)
    if not isinstance(op, ModuleOp):
        raise ParseError("expected builtin.module", text, 0)
    return op


__all__ = ["Parser", "ParseError", "parse_op", "parse_module"]
