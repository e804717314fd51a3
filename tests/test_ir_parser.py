"""Tests for the textual IR parser, including full round-trips."""

import pytest

from repro import kernels
from repro.dialects import arith, builtin, func, linalg, memref_stream
from repro.dialects.riscv import FloatRegisterType, IntRegisterType
from repro.dialects.snitch_stream import StridePattern
from repro.ir import (
    AffineMap,
    DenseIntAttr,
    FloatAttr,
    IntAttr,
    MemRefType,
    ParseError,
    Parser,
    StringAttr,
    f32,
    f64,
    index,
    parse_module,
    parse_op,
    print_op,
    verify,
)
from repro.ir.attributes import FunctionType
from repro.transforms.convert_linalg_to_memref_stream import (
    ConvertLinalgToMemrefStreamPass,
)


def roundtrip(module):
    """print -> parse -> print must be a fixpoint."""
    text = print_op(module)
    parsed = parse_op(text)
    verify(parsed)
    assert print_op(parsed) == text
    return parsed


class TestTypes:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("f64", f64),
            ("f32", f32),
            ("i32", __import__("repro.ir", fromlist=["i32"]).i32),
            ("index", index),
            ("memref<5x200xf64>", MemRefType(f64, (5, 200))),
            ("memref<f64>", MemRefType(f64, ())),
            ("!rv.reg<t0>", IntRegisterType("t0")),
            ("!rv.reg", IntRegisterType()),
            ("!rv.freg<ft3>", FloatRegisterType("ft3")),
        ],
    )
    def test_type_parsing(self, text, expected):
        assert Parser(text).parse_type() == expected

    def test_stream_types(self):
        parsed = Parser("!stream.readable<!rv.freg<ft0>>").parse_type()
        assert parsed.element_type == FloatRegisterType("ft0")

    def test_bad_type(self):
        with pytest.raises(ParseError):
            Parser("complex<f64>").parse_type()


class TestAttributes:
    def parse(self, text):
        return Parser(text).parse_attribute()

    def test_int(self):
        assert self.parse("42") == IntAttr(42)
        assert self.parse("-7") == IntAttr(-7)

    def test_float_with_type(self):
        assert self.parse("1.5 : f64") == FloatAttr(1.5, f64)
        assert self.parse("-100000000.0 : f64") == FloatAttr(-1e8, f64)

    def test_string(self):
        assert self.parse('"matmul"') == StringAttr("matmul")

    def test_dense_ints(self):
        assert self.parse("[1, 200, 5]") == DenseIntAttr([1, 200, 5])

    def test_array_of_strings(self):
        from repro.ir import ArrayAttr

        assert self.parse('["parallel", "reduction"]') == ArrayAttr(
            [StringAttr("parallel"), StringAttr("reduction")]
        )

    def test_function_type_attr(self):
        assert self.parse("(f64) -> ()") == FunctionType([f64], [])

    def test_affine_map(self):
        parsed = self.parse("affine_map<(d0, d1) -> (((d0 * 5) + d1))>")
        assert isinstance(parsed, AffineMap)
        assert parsed.evaluate((2, 3)) == (13,)

    def test_snitch_stride_pattern(self):
        parsed = self.parse(
            "#snitch_stream.stride_pattern<ub = [5, 200], "
            "strides = [0, 8]>"
        )
        assert parsed == StridePattern([5, 200], [0, 8])

    def test_attr_roundtrip_via_str(self):
        for attr in (
            IntAttr(3),
            FloatAttr(2.5, f64),
            DenseIntAttr([1, 2]),
            StridePattern([4], [8]),
            AffineMap.from_callable(2, lambda i, j: (i + j,)),
        ):
            assert self.parse(str(attr)) == attr


class TestOperations:
    def test_simple_op(self):
        op = parse_op('"arith.constant"() {value = 3} : () -> (index)')
        assert isinstance(op, arith.ConstantOp)
        assert op.value == IntAttr(3)

    def test_unknown_op_kept_generic(self):
        op = parse_op('"mystery.op"() : () -> ()')
        assert op.name == "mystery.op"

    def test_undefined_value_rejected(self):
        with pytest.raises(ParseError):
            parse_op('"arith.addf"(%0, %1) : (f64, f64) -> (f64)')

    def test_operand_type_mismatch_rejected(self):
        text = """
        "builtin.module"() ({
          ^0():
            %0 = "arith.constant"() {value = 1} : () -> (index)
            %1 = "arith.addf"(%0, %0) : (f64, f64) -> (f64)
        }) : () -> ()
        """
        with pytest.raises(ParseError):
            parse_op(text)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_op('"mystery.op"() : () -> () extra')

    def test_parse_module_type_checked(self):
        with pytest.raises(ParseError):
            parse_module('"mystery.op"() : () -> ()')


class TestWhitespaceAndComments:
    """``Parser.skip_ws`` is one precompiled pattern; what it skips and
    where errors point (pinned from the per-character loop it
    replaced) must not move."""

    @pytest.mark.parametrize(
        "text",
        [
            '"mystery.op"() : () -> () // comment at EOF, no newline',
            '"mystery.op"() //directly before a token\n: () -> ()',
            '//c\n//d\r\n  "mystery.op"() : () -> ()//',
            '"mystery.op"()\r\n  : ()\r\n  -> ()\r\n',
        ],
    )
    def test_skipped(self, text):
        assert parse_op(text).name == "mystery.op"

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "// only a comment",
                "expected operation name (line 1, column 18)",
            ),
            (
                "  \t\r\n// c",
                "expected operation name (line 2, column 5)",
            ),
            (
                '// header\r\n"mystery.op"() : () -> () extra',
                "trailing input after operation (line 2, column 27)",
            ),
            (
                '"mystery.op"() : () -> () // x\n  // y\n   oops',
                "trailing input after operation (line 3, column 4)",
            ),
            (
                '"mystery.op"() // c\r\n  ? () -> ()',
                "expected ':' (line 2, column 3)",
            ),
            (
                '"mystery.op"(%0) // undefined\n : (f64) -> ()',
                "use of undefined value %0 (line 1, column 16)",
            ),
            (
                '/ "mystery.op"() : () -> ()',
                "expected operation name (line 1, column 1)",
            ),
        ],
    )
    def test_error_positions(self, text, message):
        with pytest.raises(ParseError) as error:
            parse_op(text)
        assert str(error.value) == message


class TestRoundTrips:
    def test_constant_module(self):
        module = builtin.ModuleOp(
            [arith.ConstantOp.from_float(1.5, f64)]
        )
        roundtrip(module)

    def test_linalg_kernels_roundtrip(self):
        for build in (
            lambda: kernels.matmul(2, 3, 4),
            lambda: kernels.conv3x3(2, 4),
            lambda: kernels.relu(3, 3),
            lambda: kernels.fill(2, 2),
        ):
            module, _ = build()
            parsed = roundtrip(module)
            # parsed ops carry the real classes
            assert any(
                isinstance(op, (linalg.GenericOp, linalg.FillOp))
                for op in parsed.walk()
            )

    def test_memref_stream_level_roundtrip(self):
        module, _ = kernels.matmul(1, 8, 4)
        ConvertLinalgToMemrefStreamPass().run(module)
        parsed = roundtrip(module)
        generic = next(
            op
            for op in parsed.walk()
            if isinstance(op, memref_stream.GenericOp)
            and op.reduction_dims
        )
        assert generic.bounds == (1, 4, 8)

    def test_riscv_level_roundtrip(self):
        from repro.transforms.pipelines import build_pipeline

        module, _ = kernels.matvec(5, 20)
        # stop before loop flattening to keep structured ops in the IR
        manager = build_pipeline("ours")
        manager.passes = manager.passes[:-1]
        manager.run(module)
        parsed = roundtrip(module)
        names = {op.name for op in parsed.walk()}
        assert "rv_snitch.frep_outer" in names
        assert "rv.fmadd.d" in names

    def test_parsed_module_compiles(self):
        """Parsed linalg IR goes through the whole compiler."""
        import numpy as np
        from repro import api

        module, spec = kernels.matmul(1, 16, 4)
        parsed = parse_module(print_op(module))
        compiled = api.compile_linalg(parsed, pipeline="ours")
        args = spec.random_arguments(seed=5)
        result = api.run_kernel(compiled, args)
        np.testing.assert_allclose(
            result.arrays[2], spec.reference(*args)[2], atol=1e-9
        )
