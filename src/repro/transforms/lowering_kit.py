"""The lowering kit shared by the passes that produce ``rv`` dialects.

``lower-to-snitch``, ``lower-generic-to-pointer-loops``,
``lower-generic-to-loops`` and ``convert-to-riscv`` import this module
and never each other.  It states once the decisions they have in
common:

* :class:`LoweringError` — the one "this IR cannot be lowered here"
  type;
* :class:`FunctionLowering` — the ``func.func`` -> ``rv_func.func``
  shell: ABI signature, old -> new value map, the top-level walk
  (constant / generic / return / structured error), the entry-hoisted
  integer constant pool and the ``fcvt.d.w`` float materialiser, and
  the generic-body cloner through :data:`ARITH_TO_RV` and
  :func:`plan_contraction`, which contracts multiply-adds to FMAs;
* :class:`RegionScope` — "insert this loop (or streaming region), give
  me a builder inside its body, terminate it with the matching yield";
* :func:`check_fused_inits` — the precondition a fused fill constant
  puts on every generic lowering.

Per-operand byte strides and the output dim set are facts of the op and
live on :class:`~repro.dialects.memref_stream.GenericOp`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ..dialects import (
    arith,
    func as func_dialect,
    memref_stream,
    riscv,
    riscv_func,
    riscv_scf,
    riscv_snitch,
    scf,
)
from ..dialects.riscv import FloatRegisterType, IntRegisterType
from ..ir.attributes import FloatAttr, FloatType, IntAttr, MemRefType
from ..ir.builder import Builder
from ..ir.core import Block, IRError, Operation, SSAValue


class LoweringError(IRError):
    """Well-formed IR that a lowering pass cannot map onto its target."""


#: Body arith op -> rv instruction (64-bit path; the DSL pipeline is f64).
ARITH_TO_RV = {
    arith.AddfOp: riscv.FAddDOp,
    arith.SubfOp: riscv.FSubDOp,
    arith.MulfOp: riscv.FMulDOp,
    arith.DivfOp: riscv.FDivDOp,
    arith.MaximumfOp: riscv.FMaxDOp,
    arith.MinimumfOp: riscv.FMinDOp,
}

#: Loop op -> the terminator of its body.
_YIELD_OF = {
    riscv_scf.ForOp: riscv_scf.YieldOp,
    riscv_snitch.FrepOuter: riscv_snitch.FrepYieldOp,
    scf.ForOp: scf.YieldOp,
}


def check_fused_inits(op: memref_stream.GenericOp) -> None:
    """Reject a fused fill constant no accumulator register will hold.

    ``fuse-fill`` records the fill value in ``inits`` and erases the
    fill; only the scalar-replaced lowering — accumulator seeded once,
    before the reduction — honours it.  An accumulate-in-memory
    lowering would have to store the seed ahead of the reduction nest,
    which no lowerer does: it would read stale memory or re-seed every
    iteration.
    """
    fused = any(isinstance(init, FloatAttr) for init in op.inits)
    if fused and not op.is_scalar_replaced:
        raise LoweringError(
            f"{op.name} starts from a fused fill constant but "
            "accumulates in memory: run scalar-replacement after "
            "fuse-fill so the constant seeds a register accumulator"
        )


def plan_contraction(ops: Iterable[Operation]) -> dict:
    """FMA contraction as ops are emitted (LLVM's ``-ffp-contract=on``).

    An ``arith.addf`` absorbs an operand that only it uses and that an
    ``arith.mulf`` of its block produces (lhs tried first): by ``id``,
    the addf maps to its ``fmadd.d`` operands ``(rs1, rs2, rs3)`` and
    the absorbed mulf to None (it is not emitted on its own).
    """
    plan = {}
    for op in ops:
        if type(op) is not arith.AddfOp:
            continue
        for product, addend in ((op.lhs, op.rhs), (op.rhs, op.lhs)):
            mul = product.owner
            if (
                type(mul) is arith.MulfOp
                and mul.parent is op.parent
                and len(product.uses) == 1
            ):
                plan[id(op)] = (mul.lhs, mul.rhs, addend)
                plan[id(mul)] = None
                break
    return plan


def lower_functions(
    module: Operation,
    lower: Callable[[func_dialect.FuncOp], riscv_func.FuncOp],
) -> None:
    """Replace every ``func.func`` of ``module`` by ``lower(func)``."""
    block = module.body.block
    for op in block.ops:
        if isinstance(op, func_dialect.FuncOp):
            block.insert_op_before(lower(op), op)
            op.erase()


class RegionScope:
    """``with RegionScope(owner, op) as scope:`` — emit into ``op``'s body.

    Inserts ``op`` (a loop or a streaming region) at ``owner.builder``
    and points ``owner.builder`` at the end of its body.  On a clean
    exit a loop body is closed with the loop's own yield of
    ``scope.yields`` (the next values of ``op.body_iter_args``), and
    the outer builder is restored; ``op.results`` are then usable.
    """

    __slots__ = ("owner", "op", "yields", "_outer")

    def __init__(self, owner, op: Operation):
        self.owner = owner
        self.op = op
        self.yields: Sequence[SSAValue] = ()

    def __enter__(self) -> "RegionScope":
        owner = self.owner
        self._outer = owner.builder
        self._outer.insert(self.op)
        owner.builder = Builder.at_end(self.op.body_block)
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        owner = self.owner
        yield_class = _YIELD_OF.get(type(self.op))
        if exc_type is None and yield_class is not None:
            owner.builder.insert(yield_class(self.yields))
        owner.builder = self._outer


class FunctionLowering:
    """Shell of one ``func.func`` -> ``rv_func.func`` lowering.

    Arguments map straight to their ABI registers.  Subclasses say what
    a generic becomes (:meth:`lower_generic`) or extend :meth:`lower_op`
    with further ops; everything is emitted through :attr:`builder`.
    """

    def __init__(self, old_func: func_dialect.FuncOp):
        kinds = []
        for arg in old_func.args:
            if isinstance(arg.type, MemRefType):
                kinds.append("int")
            elif isinstance(arg.type, FloatType):
                kinds.append("float")
            else:
                raise LoweringError(
                    f"unsupported function argument type {arg.type}"
                )
        self.old_func = old_func
        self.new_func = riscv_func.FuncOp(
            old_func.sym_name, riscv_func.abi_arg_types(kinds)
        )
        #: ``id`` of an old value -> the value it was lowered to.
        self.value_map: dict[int, SSAValue] = {
            id(old): new
            for old, new in zip(old_func.args, self.new_func.args)
        }
        self.builder = Builder.at_end(self.new_func.entry_block)
        #: The constant pool: each distinct integer is materialised
        #: once, at function entry (like a strength-reduced backend's
        #: rematerialised constants, this keeps loop nests within the
        #: register budget).
        self._constants: dict[int, SSAValue] = {}
        self._last_constant: Operation | None = None

    # -- emission ---------------------------------------------------------------

    def emit(self, op):
        """Insert ``op`` at the current point; returns the op."""
        return self.builder.insert(op)

    @staticmethod
    def li_op(value: int) -> Operation:
        """The (detached) op producing integer ``value``: ``li``, or
        the ``zero`` register for 0."""
        if value == 0:
            return riscv.GetRegisterOp(IntRegisterType("zero"))
        return riscv.LiOp(value)

    def li(self, value: int) -> SSAValue:
        """A pooled integer constant.

        Pool entries sit at the very start of the entry block in
        materialisation order — each splices in after the previous one —
        so they dominate every use.
        """
        cached = self._constants.get(value)
        if cached is not None:
            return cached
        op = self.li_op(value)
        block = self.new_func.entry_block
        if self._last_constant is not None:
            block.insert_op_after(op, self._last_constant)
        elif block.first_op is not None:
            block.insert_op_before(op, block.first_op)
        else:
            block.add_op(op)
        self._last_constant = op
        self._constants[value] = op.results[0]
        return op.results[0]

    def float_constant(self, value: float) -> SSAValue:
        """Materialise an FP constant via integer conversion.

        Snitch kernels only need small integral constants (0.0 for
        zero-initialisation and ReLU thresholds, pooling neutrals),
        which ``fcvt.d.w`` produces from a 32-bit integer register.
        """
        if not (-(2**31) <= value < 2**31 and value == int(value)):
            raise LoweringError(
                f"float constant {value} is not a 32-bit integer, so "
                "fcvt.d.w cannot materialise it"
            )
        return self.emit(riscv.FCvtDWOp(self.li(int(value)))).results[0]

    def counted_loop(
        self, count: int, iter_args: Sequence[SSAValue] = (), frep=False
    ) -> RegionScope:
        """A scope emitting ``count`` repetitions carrying ``iter_args``:
        an ``frep_outer`` hardware loop (FP-only bodies) when ``frep``,
        else ``rv_scf.for`` from 0 by 1."""
        if frep:
            loop = riscv_snitch.FrepOuter(self.li(count - 1), iter_args)
        else:
            loop = riscv_scf.ForOp(
                self.li(0), self.li(count), self.li(1), iter_args
            )
        return RegionScope(self, loop)

    # -- the top-level walk -------------------------------------------------------

    def lower(self) -> riscv_func.FuncOp:
        for op in self.old_func.entry_block.ops:
            self.lower_op(op)
        return self.new_func

    def lower_op(self, op: Operation) -> None:
        if isinstance(op, arith.ConstantOp):
            value = op.value
            if isinstance(value, FloatAttr):
                new = self.float_constant(value.value)
            elif isinstance(value, IntAttr):
                new = self.li(value.value)
            else:
                raise LoweringError(f"unsupported constant {value}")
            self.value_map[id(op.result)] = new
        elif isinstance(op, memref_stream.GenericOp):
            check_fused_inits(op)
            self.lower_generic(op)
        elif isinstance(op, func_dialect.ReturnOp):
            self.emit(riscv_func.ReturnOp())
        else:
            raise LoweringError(
                f"op {op.name} cannot be lowered to RISC-V at this level"
            )

    def lower_generic(self, op: memref_stream.GenericOp) -> None:
        raise LoweringError(
            f"{op.name} must be lowered to loops before this pass"
        )

    # -- generic bodies -------------------------------------------------------------

    def clone_generic_body(
        self, block: Block, mapping: dict[int, SSAValue]
    ) -> list[SSAValue]:
        """Emit a generic's body ``block`` as rv instructions; returns
        the yielded values.

        ``mapping`` substitutes the body's block arguments (by ``id``);
        values defined outside the generic (constants, scalar
        arguments) resolve through :attr:`value_map`.
        """
        outer = self.value_map

        def resolve(value: SSAValue) -> SSAValue:
            new = mapping.get(id(value))
            if new is None:
                new = outer.get(id(value))
            if new is not None:
                return new
            if isinstance(value.type, (FloatRegisterType, IntRegisterType)):
                return value
            raise LoweringError("unmapped value used inside a generic body")

        insert = self.builder.insert
        fma = plan_contraction(block.ops)
        for body_op in block.ops:
            if isinstance(body_op, memref_stream.YieldOp):
                continue
            rv_class = ARITH_TO_RV.get(type(body_op))
            if rv_class is None:
                raise LoweringError(
                    f"unsupported op {body_op.name} in a generic body"
                )
            operands = fma.get(id(body_op), body_op.operands)
            if operands is None:
                continue  # a product its addf emits
            if len(operands) == 3:
                rv_class = riscv.FMAddDOp
            mapping[id(body_op.results[0])] = insert(
                rv_class(*[resolve(value) for value in operands])
            ).results[0]
        return [resolve(value) for value in block.last_op.operands]


__all__ = [
    "ARITH_TO_RV",
    "FunctionLowering",
    "LoweringError",
    "RegionScope",
    "check_fused_inits",
    "lower_functions",
    "plan_contraction",
]
