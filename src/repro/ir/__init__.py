"""SSA-with-regions IR core.

A from-scratch implementation of the MLIR/xDSL concepts the paper's
multi-level backend is built on (paper Table 4): operations, SSA values,
attributes/types, blocks and regions, plus builders, printing, verification,
pattern rewriting and a pass manager.
"""

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
    f32,
    f64,
    i1,
    i32,
    i64,
    index,
)
from .affine_map import (
    AffineBinaryExpr,
    AffineConstantExpr,
    AffineDimExpr,
    AffineExpr,
    AffineMap,
)
from .builder import Builder, InsertPoint
from .core import (
    Block,
    BlockArgument,
    BlockOps,
    ChangeSet,
    IRError,
    OperandsView,
    Operation,
    OpResult,
    Region,
    SSAValue,
    Use,
    single_block_region,
)
from .parser import Parser, ParseError, parse_module, parse_op
from .pass_manager import (
    FunctionPass,
    LambdaPass,
    ModulePass,
    PassInstrumentation,
    PassManager,
    PrintIRInstrumentation,
)
from .pipeline_spec import (
    PassSpec,
    PipelineSpecError,
    parse_pipeline_spec,
    pass_to_spec,
    print_pipeline_spec,
)
from .printer import Printer, print_op, value_name
from .rewriter import (
    REWRITE_STATS,
    PatternIndex,
    PatternRewriter,
    RewritePattern,
    RewriteStats,
    TypedPattern,
    apply_patterns,
    apply_patterns_naive,
)
from .traits import (
    ConstantLike,
    HasMemoryEffect,
    IsolatedFromAbove,
    IsTerminator,
    OpTrait,
    Pure,
    SameOperandsAndResultType,
)
from .verifier import VerificationError, verify, verify_changes

__all__ = [
    # attributes
    "Attribute", "TypeAttribute", "IntegerType", "IndexType", "FloatType",
    "IntAttr", "BoolAttr", "FloatAttr", "StringAttr", "ArrayAttr",
    "DenseIntAttr", "SymbolRefAttr", "MemRefType", "FunctionType",
    "i1", "i32", "i64", "index", "f32", "f64",
    # affine
    "AffineExpr", "AffineDimExpr", "AffineConstantExpr", "AffineBinaryExpr",
    "AffineMap",
    # core
    "IRError", "Use", "SSAValue", "OpResult", "BlockArgument", "Operation",
    "Block", "Region", "single_block_region", "BlockOps", "OperandsView",
    "ChangeSet",
    # builder
    "Builder", "InsertPoint",
    # printer / parser
    "Printer", "print_op", "value_name",
    "Parser", "ParseError", "parse_op", "parse_module",
    # rewriter
    "PatternRewriter", "RewritePattern", "TypedPattern", "apply_patterns",
    "apply_patterns_naive", "PatternIndex", "RewriteStats", "REWRITE_STATS",
    # traits
    "OpTrait", "IsTerminator", "Pure", "HasMemoryEffect",
    "IsolatedFromAbove", "SameOperandsAndResultType", "ConstantLike",
    # passes / verification
    "ModulePass", "FunctionPass", "PassManager", "LambdaPass",
    "PassInstrumentation", "PrintIRInstrumentation",
    "VerificationError", "verify", "verify_changes",
    # pipeline specs
    "PassSpec", "PipelineSpecError", "parse_pipeline_spec",
    "pass_to_spec", "print_pipeline_spec",
]
