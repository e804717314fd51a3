"""Lower ``rv_scf.for`` to labels and branches — after register allocation.

This is the final structural lowering: by the time it runs every value
holds a concrete register, loop-carried values already share registers
(allocator item D), so the loop reduces to one of three forms:

    unknown or zero trips   N >= 1, iv unused    N >= 1, iv used
    mv   iv, lb             li   iv, N           mv   iv, lb
    bge  iv, ub, end
  body:                   body:                body:
    ...                     ...                  ...
    add  iv, iv, step       addi iv, iv, -1      addi iv, iv, step
    blt  iv, ub, body       bnez iv, body        blt  iv, ub, body
  end:                    end:                 end:

The trip count N is known when bounds and step are ``li`` constants or
``zero``; the loop then needs no zero-trip guard (LLVM's loop
rotation), the ``li``s it leaves without uses are erased, and a step
outside 12 bits keeps ``add``.

Running it *after* allocation is the point of the paper's Section 3.3:
liveness was computed on the structured form, so no basic-block analysis
is ever needed.
"""

from __future__ import annotations

from ..dialects import riscv, riscv_cf, riscv_func, riscv_scf
from ..ir.core import IRError, Operation
from ..ir.pass_manager import ModulePass
from .verify_streams import constant_of, trip_count


def _collect_loops_post_order(
    op: Operation, out: list["riscv_scf.ForOp"]
) -> None:
    """Append every ``rv_scf.for`` under ``op``, children before parents."""
    for region in op.regions:
        for block in region.blocks:
            for nested in block.ops:
                _collect_loops_post_order(nested, out)
                if isinstance(nested, riscv_scf.ForOp):
                    out.append(nested)


class LowerRiscvScfPass(ModulePass):
    """Flatten all structured for-loops into unstructured control flow."""

    name = "lower-riscv-scf"

    def __init__(self):
        self._counter = 0

    def _fresh_label(self, stem: str) -> str:
        self._counter += 1
        return f".{stem}{self._counter}"

    def run(self, module: Operation) -> None:
        # Innermost loops first so nested bodies are already flat: one
        # left-to-right post-order collection visits every loop before
        # its ancestors (and preserves the sibling order the repeated
        # innermost-first rescan used to produce, keeping label
        # numbering — and thus assembly — identical).
        loops: list[riscv_scf.ForOp] = []
        _collect_loops_post_order(module, loops)
        for loop in loops:
            self._lower_loop(loop)

    def _lower_loop(self, loop: riscv_scf.ForOp) -> None:
        block = loop.parent
        if block is None:
            raise IRError("loop not attached")
        iv_type = loop.induction_variable.type
        if not iv_type.is_allocated:
            raise IRError(
                "lower-riscv-scf requires registers to be allocated first"
            )
        body_label = self._fresh_label("for_body")
        end_label = self._fresh_label("for_end")

        header: list = []
        # Loop-carried values: result, body arg and yield operand share
        # one register (allocator item D).  When the init operand kept
        # its own register (it is live past the loop header) a move
        # brings the initial value into the loop register.
        for body_arg, init in zip(loop.body_iter_args, loop.iter_args):
            if body_arg.type == init.type:
                body_arg.replace_all_uses_with(init)
            else:
                move_class = (
                    riscv.FMVOp
                    if isinstance(body_arg.type, riscv.FloatRegisterType)
                    else riscv.MVOp
                )
                move = move_class(init, result_type=body_arg.type)
                header.append(move)
                body_arg.replace_all_uses_with(move.rd)
        trips = trip_count(loop)
        count_down = bool(trips) and not loop.induction_variable.has_uses
        if count_down:
            iv_init = riscv.LiOp(trips, result_type=iv_type)
        else:
            iv_init = riscv.MVOp(loop.lower_bound, result_type=iv_type)
        header.append(iv_init)
        if not trips:
            guard = riscv_cf.BgeOp(iv_init.rd, loop.upper_bound, end_label)
            header.append(guard)
        header.append(riscv_cf.LabelOp(body_label))
        for op in header:
            block.insert_op_before(op, loop)
        loop.induction_variable.replace_all_uses_with(iv_init.rd)
        # After the loop the final iteration values sit in the loop
        # registers: forward results to register-typed placeholders.
        for result, init in zip(loop.results, loop.iter_args):
            if not result.has_uses:
                continue
            if result.type == init.type:
                result.replace_all_uses_with(init)
            else:
                placeholder = riscv.GetRegisterOp(result.type)
                block.insert_op_after(placeholder, loop)
                result.replace_all_uses_with(placeholder.result)

        body_block = loop.body_block
        yield_op = body_block.last_op
        assert isinstance(yield_op, riscv_scf.YieldOp)
        yield_op.erase()
        for op in body_block.ops:
            op.detach()
            block.insert_op_before(op, loop)

        step = constant_of(loop.step)
        if count_down:
            increment = riscv.AddiOp(iv_init.rd, -1, result_type=iv_type)
            branch = riscv_cf.BnezOp(increment.rd, body_label)
        else:
            increment = (
                riscv.AddiOp(iv_init.rd, step, result_type=iv_type)
                if trips and -2048 <= step < 2048
                else riscv.AddOp(iv_init.rd, loop.step, result_type=iv_type)
            )
            branch = riscv_cf.BltOp(increment.rd, loop.upper_bound, body_label)
        for op in (increment, branch, riscv_cf.LabelOp(end_label)):
            block.insert_op_before(op, loop)
        controls = (loop.lower_bound, loop.upper_bound, loop.step)
        loop.erase()
        for value in controls:
            if isinstance(value.owner, riscv.LiOp) and not value.has_uses:
                value.owner.erase()


__all__ = ["LowerRiscvScfPass"]
