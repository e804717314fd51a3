"""Convert ``func``/``scf``/``arith``/``memref`` to the RISC-V dialects.

The generic, target-agnostic backend path: this is our stand-in for
"lowering through LLVM" (paper Figure 8).  Like a general-purpose
backend it knows nothing about SSRs or FREP: every ``memref.load``
recomputes its address with integer arithmetic and becomes an explicit
``fld``; loops become ``rv_scf.for`` (and later branches).  The paper's
point — and the measurable effect — is that code of this shape keeps the
integer issue port busy with bookkeeping, capping FPU utilization.

The function shell, the pooled constants (each distinct integer
materialised once at entry, which keeps baseline register pressure
spill-free) and the loop scope are the shared :mod:`.lowering_kit`;
what this pass adds is the op-by-op conversion of loop nests: integer
and float arithmetic, naive address computation, ``scf.for``.
"""

from __future__ import annotations

from ..dialects import arith, memref, riscv, riscv_scf, scf
from ..ir.attributes import MemRefType
from ..ir.core import Operation, SSAValue
from ..ir.pass_manager import ModulePass
from .lowering_kit import (
    ARITH_TO_RV,
    FunctionLowering,
    LoweringError,
    RegionScope,
    lower_functions,
)

#: arith binary op -> rv instruction: the kit's float table plus the
#: integer ops index arithmetic needs.
_BINARY_OPS = {
    **ARITH_TO_RV,
    arith.AddiOp: riscv.AddOp,
    arith.SubiOp: riscv.SubOp,
    arith.MuliOp: riscv.MulOp,
}


class ConvertToRISCVPass(ModulePass):
    """Rewrite every function into ``rv_func`` + ``rv_scf`` + ``rv``."""

    name = "convert-to-riscv"

    def run(self, module: Operation) -> None:
        lower_functions(module, lambda old: _FuncConversion(old).lower())


class _FuncConversion(FunctionLowering):
    """The function shell, converting loop-level ops one by one.

    Arguments are used directly in their ABI registers: the
    general-purpose flows do not reserve-and-copy.
    """

    def mapped(self, value: SSAValue) -> SSAValue:
        new = self.value_map.get(id(value))
        if new is None:
            raise LoweringError("use of unconverted value")
        return new

    def lower_op(self, op: Operation) -> None:
        rv_class = _BINARY_OPS.get(type(op))
        if rv_class is not None:
            new = self.emit(
                rv_class(
                    self.mapped(op.operands[0]),
                    self.mapped(op.operands[1]),
                )
            )
            self.value_map[id(op.results[0])] = new.rd
        elif isinstance(op, memref.LoadOp):
            address = self._address_of(op.memref, op.indices)
            new = self.emit(riscv.FLdOp(address, 0))
            self.value_map[id(op.result)] = new.rd
        elif isinstance(op, memref.StoreOp):
            address = self._address_of(op.memref, op.indices)
            self.emit(
                riscv.FSdOp(self.mapped(op.value), address, 0)
            )
        elif isinstance(op, scf.ForOp):
            self._convert_for(op)
        elif not isinstance(op, scf.YieldOp):  # closed by _convert_for
            super().lower_op(op)

    def _address_of(
        self, memref_value: SSAValue, indices
    ) -> SSAValue:
        """Naive address computation: base + (linear index) * width.

        Recomputed at every access, exactly like unoptimised
        general-purpose codegen — the explicit integer traffic this
        generates is the baseline behaviour the paper measures.
        """
        memref_type = memref_value.type
        assert isinstance(memref_type, MemRefType)
        base = self.mapped(memref_value)
        strides = memref_type.strides()
        linear: SSAValue | None = None
        for index_value, stride in zip(indices, strides):
            part = self.mapped(index_value)
            if stride != 1:
                part = self.emit(
                    riscv.MulOp(part, self.li(stride))
                ).rd
            linear = (
                part
                if linear is None
                else self.emit(riscv.AddOp(linear, part)).rd
            )
        if linear is None:
            return base
        shift = {8: 3, 4: 2}[memref_type.element_byte_width]
        scaled = self.emit(riscv.SlliOp(linear, shift)).rd
        return self.emit(riscv.AddOp(base, scaled)).rd

    def _convert_for(self, op: scf.ForOp) -> None:
        loop = riscv_scf.ForOp(
            self.mapped(op.lower_bound),
            self.mapped(op.upper_bound),
            self.mapped(op.step),
            [self.mapped(v) for v in op.iter_args],
        )
        for old_arg, new_arg in zip(
            op.body_block.args, loop.body_block.args
        ):
            self.value_map[id(old_arg)] = new_arg
        with RegionScope(self, loop) as scope:
            for body_op in op.body_block.ops:
                self.lower_op(body_op)
            scope.yields = [
                self.mapped(v) for v in op.body_block.last_op.operands
            ]
        for old_res, new_res in zip(op.results, loop.results):
            self.value_map[id(old_res)] = new_res


__all__ = ["ConvertToRISCVPass"]
