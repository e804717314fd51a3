"""Lower ``memref_stream.generic`` to Snitch-level RISC-V IR.

This pass performs the paper's access/execute separation (Section 3.4):
the iteration space, fixed by the earlier scheduling passes, is split
into

* stream configuration — ``snitch_stream.streaming_region`` ops whose
  stride patterns are derived from the affine indexing maps;
* compute — ``rv_scf.for`` loops and ``rv_snitch.frep_outer`` hardware
  loops whose bodies operate on streams instead of memory.

On top of the shared function shell (:mod:`.lowering_kit`) it adds the
reserve-and-copy of argument registers (paper Figure 6), in-place
constant materialisation, and the streaming structure itself, which
handles all the ablation stages of Table 3 on the same code path:

* **streams only** (outputs not scalar-replaced): the reduction loop
  performs an explicit load/FMA/store read-modify-write on the output;
* **scalar replacement** (output maps exclude reduction dims): the
  accumulators live in registers across the reduction; the output is
  loaded/stored once per parallel point;
* **fused fill** (constant ``inits``): accumulators start from the
  constant and the output becomes a pure write stream — no explicit
  loads or stores remain;
* **unroll-and-jam** (``interleaved`` dims): the body processes F
  elements per iteration with F independent accumulators.

When a stride pattern needs more dimensions than the SSR address
generators provide (4), outer parallel loops are *hoisted* out of the
streaming region and re-arm the streams with shifted base pointers per
iteration — this is how the 5-dimensional Conv/Pool iteration spaces fit
the hardware.
"""

from __future__ import annotations

from math import prod
from typing import Callable, Sequence

from ..backend.registers import SNITCH_STREAM_REGISTERS
from ..dialects import memref_stream, riscv, riscv_snitch, snitch_stream
from ..dialects.riscv import IntRegisterType
from ..ir.attributes import FloatAttr, FloatType
from ..ir.core import Operation, SSAValue
from ..ir.pass_manager import ModulePass
from .lowering_kit import (
    FunctionLowering,
    LoweringError,
    RegionScope,
    lower_functions,
)


class LowerToSnitchPass(ModulePass):
    """Convert every function to ``rv_func`` + Snitch-level IR."""

    name = "lower-to-snitch"

    def __init__(self, use_frep: bool = True):
        #: Emit ``frep_outer`` hardware loops (Table 3 "+ FRep").
        self.use_frep = use_frep

    def run(self, module: Operation) -> None:
        lower_functions(
            module,
            lambda old: _SnitchFunction(old, self.use_frep).lower(),
        )


class _SnitchFunction(FunctionLowering):
    """The function shell with Snitch's register and constant policy."""

    def __init__(self, old_func, use_frep: bool):
        super().__init__(old_func)
        self.use_frep = use_frep
        # Copy ABI registers into fresh values (paper Figure 6: rv.mv),
        # keeping the argument registers reserved.
        for old_arg, new_arg in zip(old_func.args, self.new_func.args):
            is_int = isinstance(new_arg.type, IntRegisterType)
            move = riscv.MVOp if is_int else riscv.FMVOp
            self.value_map[id(old_arg)] = self.emit(move(new_arg)).rd

    def li(self, value: int) -> SSAValue:
        """Materialise an integer constant at the current point.

        Not pooled: loop counts are rematerialised next to the loop
        that uses them, so no integer register stays live across a
        streaming region (``zero`` has no assembly form anyway).
        """
        return self.emit(self.li_op(value)).results[0]

    def lower_generic(self, op: memref_stream.GenericOp) -> None:
        _GenericLowering(self, op).lower()


class _GenericLowering:
    """Emits the streaming structure for one ``memref_stream.generic``."""

    def __init__(self, fn: _SnitchFunction, op: memref_stream.GenericOp):
        self.fn = fn
        self.op = op
        self.bounds = list(op.bounds)
        kinds = op.iterator_types
        self.num_dims = len(self.bounds)
        self.par_dims = [i for i, k in enumerate(kinds) if k == "parallel"]
        self.red_dims = op.reduction_dims
        self.inter_dims = [
            i for i, k in enumerate(kinds) if k == "interleaved"
        ]
        self.factor = op.interleave_factor
        self.scalar_replaced = op.is_scalar_replaced
        self._validate_structure()

        self.n_in = len(op.inputs)
        self.body = op.body_block
        self.inits = op.inits
        self.fused = all(
            isinstance(init, FloatAttr) for init in self.inits
        )
        # A pure-parallel body that *reads* its output (z = x*y + z)
        # performs a read-modify-write: with only three stream registers
        # the output is accessed explicitly instead.
        output_args = self.body.args[self.n_in * self.factor :]
        self.parallel_rmw = not self.red_dims and any(
            arg.has_uses for arg in output_args
        )
        # Outputs go through a write stream when they are written exactly
        # once per point with no memory read: pure parallel kernels, or
        # scalar-replaced reductions whose fill was fused.
        self.output_streamed = (
            not self.red_dims and not self.parallel_rmw
        ) or (self.scalar_replaced and self.fused)
        #: Operands ``[0, stream_count)`` are accessed through streams.
        self.stream_count = self.n_in + (
            len(op.outputs) if self.output_streamed else 0
        )
        #: Byte stride per operand and iteration dim (outputs included).
        self.strides = op.operand_byte_strides()
        self.out_dims = op.output_map_dims()
        for value in op.operands:
            element_type = value.type.element_type
            if not (
                isinstance(element_type, FloatType)
                and element_type.width == 64
            ):
                raise LoweringError(
                    "the DSL pipeline targets f64 kernels; express f32 "
                    "kernels at the rv_snitch level (paper Section 4.2)"
                )
        self.hoisted = self._hoist_count()

    # -- analysis ----------------------------------------------------------------

    def _validate_structure(self) -> None:
        if self.red_dims and self.par_dims:
            if max(self.par_dims) > min(self.red_dims):
                raise LoweringError(
                    "iteration dims must be ordered parallel then "
                    "reduction (run convert-linalg-to-memref-stream)"
                )
        if self.inter_dims and self.inter_dims != list(
            range(self.num_dims - len(self.inter_dims), self.num_dims)
        ):
            raise LoweringError("interleaved dims must be innermost")
        if len(self.inter_dims) > 1:
            raise LoweringError("at most one interleaved dim is supported")

    def _pattern(
        self, operand: int, from_dim: int
    ) -> snitch_stream.StridePattern:
        """How ``operand`` is visited over the dims from ``from_dim``
        inwards (an output only ranges over its own map's dims)."""
        dims = range(self.num_dims) if operand < self.n_in else self.out_dims
        dims = [d for d in dims if d >= from_dim]
        strides = self.strides[operand]
        return snitch_stream.StridePattern(
            [self.bounds[d] for d in dims], [strides[d] for d in dims]
        )

    @staticmethod
    def _hardware_rank(pattern: snitch_stream.StridePattern) -> int:
        """Pattern rank as seen by the SSR config (repeat dim is free)."""
        simplified = pattern.simplified()
        rank = simplified.rank
        if rank > 1 and simplified.strides[rank - 1] == 0:
            rank -= 1  # trailing zero stride becomes the repeat counter
        return rank

    def _hoist_count(self) -> int:
        """Leading parallel dims that must become software loops; the
        stream patterns from there inwards are left in ``patterns``."""
        from ..snitch.isa import SSR_MAX_DIMS

        hoisted = 0
        while True:
            self.patterns = [
                self._pattern(operand, hoisted)
                for operand in range(self.stream_count)
            ]
            if all(
                self._hardware_rank(pattern) <= SSR_MAX_DIMS
                for pattern in self.patterns
            ):
                return hoisted
            if hoisted >= len(self.par_dims):
                raise LoweringError(
                    "stream patterns do not fit the SSR address "
                    "generators even with all parallel dims hoisted"
                )
            hoisted += 1

    # -- emission ----------------------------------------------------------------

    def lower(self) -> None:
        if self.stream_count > len(SNITCH_STREAM_REGISTERS):
            raise LoweringError(
                f"kernel needs {self.stream_count} streams; Snitch has "
                f"{len(SNITCH_STREAM_REGISTERS)}"
            )
        if not self.output_streamed and len(self.op.outputs) != 1:
            raise LoweringError(
                "explicit-output lowering supports a single output"
            )
        pointers = [self.fn.value_map[id(v)] for v in self.op.operands]
        # Hoisted dims re-arm the streams from shifted base pointers.
        levels = [
            (self.bounds[dim], [strides[dim] for strides in self.strides])
            for dim in self.par_dims[: self.hoisted]
        ]
        self._emit_pointer_loops(
            levels, pointers, self._emit_streaming_region
        )

    def _emit_pointer_loops(
        self,
        levels: Sequence[tuple[int, Sequence[int]]],
        pointers: list[SSAValue],
        emit_inner: Callable[[list[SSAValue]], None],
    ) -> None:
        """A software loop nest carrying walking pointers.

        ``levels`` lists, outermost first, ``(trip count, byte stride
        per pointer)``; each back-edge advances every pointer by its
        stride.  ``emit_inner`` receives the innermost pointers.
        Single-trip levels need no loop.
        """
        levels = [level for level in levels if level[0] != 1]
        if not levels:
            emit_inner(pointers)
            return
        count, strides = levels[0]
        with self.fn.counted_loop(count, pointers) as scope:
            inner = scope.op.body_iter_args
            self._emit_pointer_loops(levels[1:], inner, emit_inner)
            scope.yields = [
                self._advance(pointer, stride)
                for pointer, stride in zip(inner, strides)
            ]

    def _advance(self, ptr: SSAValue, stride: int) -> SSAValue:
        if stride == 0:
            return ptr
        return self.fn.emit(riscv.AddiOp(ptr, stride)).rd

    def _emit_repeated(
        self,
        count: int,
        emit_body: Callable[[Sequence[SSAValue]], list[SSAValue] | None],
        accumulators: Sequence[SSAValue] = (),
        frep: bool = False,
    ) -> list[SSAValue]:
        """``count`` runs of ``emit_body(carried) -> next carried``
        (``None`` when nothing is carried).

        An ``frep_outer`` hardware loop when ``frep`` (FP-only bodies),
        else an ``rv_scf.for``; returns the values carried out.  A
        single run that carries nothing needs no loop, while a
        one-trip accumulation keeps its software loop.
        """
        if count == 1 and not accumulators:
            emit_body(())
            return []
        with self.fn.counted_loop(
            count, accumulators, frep and count > 1
        ) as scope:
            scope.yields = emit_body(scope.op.body_iter_args) or ()
        return list(scope.op.results)

    def _emit_streaming_region(self, pointers: list[SSAValue]) -> None:
        n_in = self.n_in
        region_op = snitch_stream.StreamingRegionOp(
            pointers[:n_in],
            pointers[n_in : self.stream_count],
            self.patterns,
        )
        streams = region_op.body_block.args
        self.input_streams = streams[:n_in]
        self.write_streams = streams[n_in:]
        with RegionScope(self.fn, region_op):
            if self.red_dims:
                self._emit_reduction_structure(pointers[n_in])
            elif self.parallel_rmw:
                self._emit_parallel_rmw_structure(pointers[n_in])
            else:
                # Pure parallel kernels (Sum, Fill, ReLU).
                total = prod(self.bounds[self.hoisted :])
                self._emit_repeated(
                    total // self.factor,
                    self._emit_point,
                    frep=self.fn.use_frep,
                )

    def _emit_parallel_rmw_structure(self, out_ptr: SSAValue) -> None:
        """Pure-parallel read-modify-write: inputs streamed, the output
        loaded and stored explicitly behind a walking pointer."""
        pattern = self._pattern(self.n_in, self.hoisted).simplified()
        if pattern.rank != 1:
            raise LoweringError(
                "read-modify-write outputs must be visited with a "
                "single constant stride (got a rank-"
                f"{pattern.rank} pattern); restructure the kernel or "
                "hoist more dims"
            )
        count = pattern.ub[0] // self.factor
        self._emit_pointer_loops(
            [(count, [pattern.strides[0]])],
            [out_ptr],
            lambda ptrs: self._emit_rmw_point(ptrs[0]),
        )

    # -- reduction kernels (MatMul, Conv, Pool) --------------------------------------

    def _emit_reduction_structure(self, out_ptr: SSAValue) -> None:
        """One group per point of the non-hoisted parallel dims."""
        inner_par = [d for d in self.par_dims if d >= self.hoisted]
        if self.output_streamed:
            groups = prod(self.bounds[d] for d in inner_par)
            self._emit_repeated(groups, lambda _: self._emit_group(None))
            return
        # Explicit output: the nest carries the output pointer.
        out_strides = self.strides[self.n_in]
        self._emit_pointer_loops(
            [(self.bounds[d], [out_strides[d]]) for d in inner_par],
            [out_ptr],
            lambda ptrs: self._emit_group(ptrs[0]),
        )

    def _emit_group(self, out_ptr: SSAValue | None) -> None:
        """One group: init accumulators, reduce, write results."""
        fn = self.fn
        reduction_count = prod(self.bounds[d] for d in self.red_dims)
        if not self.scalar_replaced:
            # Read-modify-write on the output every iteration (Table 3
            # "+ Streams" stage).  The body has integer operands (the
            # output pointer), so FREP is not applicable.
            self._emit_repeated(
                reduction_count, lambda _: self._emit_rmw_point(out_ptr)
            )
            return
        inter_stride = (
            self.strides[self.n_in][self.inter_dims[0]]
            if self.inter_dims
            else 0
        )
        if self.fused:
            init = self.inits[0].value
            accumulators = [
                fn.float_constant(init) for _ in range(self.factor)
            ]
        else:
            accumulators = [
                fn.emit(riscv.FLdOp(out_ptr, f * inter_stride)).rd
                for f in range(self.factor)
            ]
        results = self._emit_repeated(
            reduction_count, self._emit_point, accumulators, fn.use_frep
        )
        for f, value in enumerate(results):
            if self.output_streamed:
                fn.emit(riscv_snitch.WriteOp(value, self.write_streams[0]))
            else:
                fn.emit(riscv.FSdOp(value, out_ptr, f * inter_stride))

    # -- one point of the iteration space ---------------------------------------------

    def _emit_rmw_point(self, ptr: SSAValue) -> None:
        """Load the output element at ``ptr``, compute, store it back."""
        fn = self.fn
        old = fn.emit(riscv.FLdOp(ptr, 0)).rd
        (new,) = self._emit_point([old])
        fn.emit(riscv.FSdOp(new, ptr, 0))

    def _emit_point(
        self, accumulators: Sequence[SSAValue] = ()
    ) -> list[SSAValue] | None:
        """F stream reads per input (in interleave order), then the
        generic body F-interleaved over them and ``accumulators``.

        Returns the next accumulator values.  Without accumulators
        (pure parallel kernels) the yielded values are finished output
        elements and are pushed to the write streams instead;
        lower-snitch-stream later folds each push into the producing
        instruction when possible (it then writes ft1/ft2 directly).
        """
        insert = self.fn.builder.insert
        args = iter(self.body.args)
        mapping: dict[int, SSAValue] = {}
        for stream in self.input_streams:
            for _ in range(self.factor):
                read = insert(riscv_snitch.ReadOp(stream))
                mapping[id(next(args))] = read.result
        for arg, accumulator in zip(args, accumulators):
            mapping[id(arg)] = accumulator
        results = self.fn.clone_generic_body(self.body, mapping)
        if accumulators:
            return results
        for index, value in enumerate(results):
            stream = self.write_streams[index // self.factor]
            insert(riscv_snitch.WriteOp(value, stream))
        return None


__all__ = ["LowerToSnitchPass"]
