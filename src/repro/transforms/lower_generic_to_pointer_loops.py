"""Pointer-carrying loop lowering: the *optimised* general-purpose flows.

The paper's "Clang" and "MLIR" comparison flows go through the LLVM
RISC-V backend at ``-O3``: addresses are strength-reduced to pointer
increments, inner loops are unrolled, but the code still issues explicit
loads/stores and loop control on the single in-order issue port and
suffers FPU RAW hazards (paper Section 4.4: "suboptimal patterns in the
generated assembly ... such as explicit loads/stores and RAW hazards").

This pass emits exactly that code shape directly at the RISC-V level.
The function shell, the pooled constants, the loop scope and the body
cloner are the shared :mod:`.lowering_kit`; what this pass adds is the
static schedule of one generic:

* one ``rv_scf.for`` per iteration dim, threading one pointer per
  operand through the whole nest — each loop's back-edge applies a
  *compensated* increment (``stride_d - inner_advance``) so a single
  register per operand suffices, like LLVM's loop-strength reduction;
* the innermost loop unrolled by four, sequentially and *without*
  interleaving — the unrolled accumulator chain keeps its
  read-after-write dependency, which is why these flows plateau;
* scalar-replaced generics keep the accumulator in a register (LLVM's
  scalar promotion); otherwise the output is read-modified-written
  through memory on every innermost iteration.
"""

from __future__ import annotations

from ..dialects import memref_stream, riscv
from ..ir.attributes import FloatAttr
from ..ir.core import Operation, SSAValue
from ..ir.pass_manager import ModulePass
from .lowering_kit import FunctionLowering, LoweringError, lower_functions

#: Innermost-loop unroll factor (mirrors LLVM's default on such loops).
UNROLL = 4


class LowerGenericToPointerLoopsPass(ModulePass):
    """Lower functions to strength-reduced RISC-V loop nests."""

    name = "lower-generic-to-pointer-loops"

    def run(self, module: Operation) -> None:
        lower_functions(
            module, lambda old: _PointerLoopFunction(old).lower()
        )


class _PointerLoopFunction(FunctionLowering):
    """The function shell, one pointer-loop nest per generic."""

    def lower_generic(self, op: memref_stream.GenericOp) -> None:
        _PointerLoopGeneric(self, op).lower()


class _PointerLoopGeneric:
    """Emits a strength-reduced loop nest for one generic."""

    def __init__(self, fn: _PointerLoopFunction, op: memref_stream.GenericOp):
        if op.interleave_factor != 1:
            raise LoweringError(
                "pointer-loop lowering expects non-interleaved generics"
            )
        self.fn = fn
        self.op = op
        self.bounds = list(op.bounds)
        self.num_dims = len(self.bounds)
        self.red_dims = op.reduction_dims
        self.scalar_replaced = op.is_scalar_replaced
        self.n_in = len(op.inputs)
        self.body = op.body_block
        #: Byte stride per operand and iteration dim (an output does
        #: not move along the dims its map excludes).
        self.operand_strides = op.operand_byte_strides()
        self._plan()

    def _plan(self) -> None:
        """Static schedule: per-dim loop/unroll plan and pointer advances.

        Like LLVM, small constant-trip loops (3x3 reduction windows) are
        fully unrolled into static address offsets, and the innermost
        remaining loop is partially unrolled by four.  This keeps the
        loop nest shallow enough for spill-free allocation while leaving
        the sequential (non-interleaved) dependency chains in place.
        """
        #: per dim: (loop trips, sequential copies per trip); a
        #: single-trip dim is all static offsets and needs no loop.
        self.plan: list[tuple[int, int]] = [(1, 1)] * self.num_dims
        innermost_loop_seen = False
        for dim in reversed(range(self.num_dims)):
            bound = self.bounds[dim]
            if innermost_loop_seen:
                self.plan[dim] = (bound, 1)
            elif bound <= UNROLL:
                self.plan[dim] = (1, bound)
            else:
                factor = next(
                    (c for c in (UNROLL, 2) if bound % c == 0), 1
                )
                self.plan[dim] = (bound // factor, factor)
                innermost_loop_seen = True
        #: advance[d][i]: pointer i's total movement over dims d..end.
        n_ops = len(self.op.operands)
        self.advance: list[list[int]] = [
            [0] * n_ops for _ in range(self.num_dims + 1)
        ]
        for dim in reversed(range(self.num_dims)):
            trips, factor = self.plan[dim]
            for i in range(n_ops):
                if trips == 1:
                    self.advance[dim][i] = self.advance[dim + 1][i]
                else:
                    self.advance[dim][i] = (
                        trips * factor * self.operand_strides[i][dim]
                    )

    # -- emission ------------------------------------------------------------

    def lower(self) -> None:
        pointers = [
            self.fn.value_map[id(v)] for v in self.op.operands
        ]
        self._emit_dim(0, pointers, accumulators=None, offsets={})

    def _offset_of(self, index: int, offsets: dict[int, int]) -> int:
        """Static byte offset of operand ``index`` for unrolled dims."""
        return sum(
            f * self.operand_strides[index][d]
            for d, f in offsets.items()
        )

    def _emit_dim(
        self,
        dim: int,
        pointers: list[SSAValue],
        accumulators: list[SSAValue] | None,
        offsets: dict[int, int],
    ) -> tuple[list[SSAValue] | None, list[SSAValue]]:
        """Emit the nest from ``dim``; returns (accumulators, pointers)
        as SSA values after the nest ran."""
        fn = self.fn
        n_in = self.n_in

        # Entering the reduction region of a scalar-replaced generic:
        # materialise the accumulator, run the reduction, store once.
        if (
            self.scalar_replaced
            and accumulators is None
            and dim == min(self.red_dims)
        ):
            out_offset = self._offset_of(n_in, offsets)
            init = self.op.inits[0]
            if isinstance(init, FloatAttr):
                acc = fn.float_constant(init.value)
            else:
                acc = fn.emit(
                    riscv.FLdOp(pointers[n_in], out_offset)
                ).rd
            final_accs, final_ptrs = self._emit_dim(
                dim, pointers, [acc], offsets
            )
            fn.emit(
                riscv.FSdOp(final_accs[0], pointers[n_in], out_offset)
            )
            return None, final_ptrs

        if dim == self.num_dims:
            new_accs = self._emit_body(pointers, accumulators, offsets)
            return new_accs, pointers

        trips, factor = self.plan[dim]
        if trips == 1:
            accs = accumulators
            ptrs = pointers
            for f in range(factor):
                accs, ptrs = self._emit_dim(
                    dim + 1, ptrs, accs, {**offsets, dim: f}
                )
            return accs, ptrs

        # Only pointers that actually move at this dim are loop-carried;
        # the rest are re-read from the enclosing scope (inner loops
        # re-initialise from them every iteration), saving registers.
        carried_idx = [
            i
            for i in range(len(pointers))
            if self.operand_strides[i][dim] != 0
        ]
        n_ptrs = len(carried_idx)
        carried = [pointers[i] for i in carried_idx]
        with fn.counted_loop(trips, carried + (accumulators or [])) as scope:
            body_args = scope.op.body_iter_args
            after_ptrs = list(pointers)
            for position, i in enumerate(carried_idx):
                after_ptrs[i] = body_args[position]
            inner_accs = body_args[n_ptrs:] if accumulators else None
            for f in range(factor):
                inner_accs, after_ptrs = self._emit_dim(
                    dim + 1,
                    after_ptrs,
                    inner_accs,
                    {**offsets, dim: f} if factor > 1 else offsets,
                )
            # Compensated back-edge increment: one register per pointer.
            yields = []
            for i in carried_idx:
                delta = factor * (
                    self.operand_strides[i][dim] - self.advance[dim + 1][i]
                )
                if delta == 0:
                    yields.append(after_ptrs[i])
                else:
                    yields.append(
                        fn.emit(riscv.AddiOp(after_ptrs[i], delta)).rd
                    )
            scope.yields = yields + (inner_accs or [])
        results = scope.op.results
        result_ptrs = list(pointers)
        for position, i in enumerate(carried_idx):
            result_ptrs[i] = results[position]
        return (results[n_ptrs:] if accumulators else None), result_ptrs

    def _emit_body(
        self,
        pointers: list[SSAValue],
        accumulators: list[SSAValue] | None,
        offsets: dict[int, int],
    ) -> list[SSAValue] | None:
        """One unrolled instance of the scalar computation: explicit
        loads, the body, and (without a register accumulator) a
        read-modify-write of the output through memory."""
        insert = self.fn.builder.insert
        n_in = self.n_in
        args = self.body.args
        mapping: dict[int, SSAValue] = {}
        for i in range(n_in):
            loaded = insert(
                riscv.FLdOp(pointers[i], self._offset_of(i, offsets))
            ).rd
            mapping[id(args[i])] = loaded
        out_offset = self._offset_of(n_in, offsets)
        if accumulators is not None:
            mapping[id(args[n_in])] = accumulators[0]
        elif args[n_in].has_uses:
            mapping[id(args[n_in])] = insert(
                riscv.FLdOp(pointers[n_in], out_offset)
            ).rd
        results = self.fn.clone_generic_body(self.body, mapping)
        if accumulators is not None:
            return results[:1]
        insert(riscv.FSdOp(results[0], pointers[n_in], out_offset))
        return None


__all__ = ["LowerGenericToPointerLoopsPass", "UNROLL"]
