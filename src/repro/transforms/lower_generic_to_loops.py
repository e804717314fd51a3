"""Lower ``memref_stream.generic`` to plain ``scf`` loop nests.

This is the *general-purpose backend* path (paper Figure 8, the "Clang"
and "MLIR" flows): no streams, no FREP — explicit loads/stores, index
arithmetic and loop control, exactly the code shape whose utilization
plateau the evaluation attributes to the LLVM backend's view of the
machine.  It is also the Table 3 "Baseline" lowering.

The pass stays inside ``func``/``scf``/``memref``/``arith`` — crossing
into the ``rv`` dialects is ``convert-to-riscv``'s job — so from the
shared :mod:`.lowering_kit` it takes the loop scope, the fused-fill
precondition and the error type; what it adds is affine index
evaluation over the induction variables.

Scalar-replaced generics keep their accumulator in ``scf.for``
iteration arguments (registers after conversion); otherwise the output
is read-modified-written on every innermost iteration.
"""

from __future__ import annotations

from ..dialects import arith, memref, memref_stream, scf
from ..ir.affine_map import (
    AffineBinaryExpr,
    AffineConstantExpr,
    AffineDimExpr,
    AffineExpr,
    AffineMap,
)
from ..ir.attributes import FloatAttr
from ..ir.builder import Builder
from ..ir.core import Operation, SSAValue
from ..ir.pass_manager import ModulePass
from .lowering_kit import LoweringError, RegionScope, check_fused_inits


class LowerGenericToLoopsPass(ModulePass):
    """Lower every ``memref_stream.generic`` to scf/memref/arith."""

    name = "lower-generic-to-loops"

    def run(self, module: Operation) -> None:
        for op in list(module.walk()):
            if isinstance(op, memref_stream.GenericOp):
                check_fused_inits(op)
                _GenericToLoops(op).lower()


class _GenericToLoops:
    def __init__(self, op: memref_stream.GenericOp):
        if op.interleave_factor != 1:
            raise LoweringError(
                "loop lowering expects non-interleaved generics "
                "(the baseline flows do not unroll-and-jam)"
            )
        self.op = op
        self.builder = Builder.before(op)
        self.bounds = op.bounds
        self.maps = op.indexing_maps
        self.num_inputs = len(op.inputs)
        self.out_dims = op.output_map_dims()
        self.ivs: dict[int, SSAValue] = {}
        self._index_cache: dict[int, SSAValue] = {}

    # -- scalar/index helpers ---------------------------------------------------

    def const_index(self, value: int) -> SSAValue:
        cached = self._index_cache.get(value)
        if cached is not None:
            return cached
        op = self.builder.insert(arith.ConstantOp.from_int(value))
        self._index_cache[value] = op.result
        return op.result

    def eval_expr(self, expr: AffineExpr) -> SSAValue:
        """Emit arith ops computing an affine expression over the ivs."""
        if isinstance(expr, AffineConstantExpr):
            return self.const_index(expr.value)
        if isinstance(expr, AffineDimExpr):
            return self.ivs[expr.position]
        if isinstance(expr, AffineBinaryExpr):
            lhs = self.eval_expr(expr.lhs)
            rhs = self.eval_expr(expr.rhs)
            op_class = (
                arith.AddiOp if expr.kind == "+" else arith.MuliOp
            )
            return self.builder.insert(op_class(lhs, rhs)).result
        raise LoweringError(f"unsupported affine expr {expr}")

    def indices_for(self, amap: AffineMap, dims: list[int]) -> list[SSAValue]:
        """Index values of a map whose dims are the given iteration dims."""
        saved = self.ivs
        self.ivs = {i: saved[d] for i, d in enumerate(dims)}
        try:
            return [self.eval_expr(e) for e in amap.exprs]
        finally:
            self.ivs = saved

    def _load_inputs(self) -> list[SSAValue]:
        """One ``memref.load`` per input at the current point."""
        all_dims = list(range(len(self.bounds)))
        loaded = []
        for value, amap in zip(self.op.inputs, self.maps):
            idx = self.indices_for(amap, all_dims)
            loaded.append(
                self.builder.insert(memref.LoadOp(value, idx)).result
            )
        return loaded

    def _loop(self, dim: int, iter_args=()) -> RegionScope:
        """A scope emitting the ``scf.for`` over iteration dim ``dim``."""
        loop = scf.ForOp(
            self.const_index(0),
            self.const_index(self.bounds[dim]),
            self.const_index(1),
            iter_args,
        )
        self._index_cache = {}  # index constants are cached per block
        self.ivs[dim] = loop.induction_variable
        return RegionScope(self, loop)

    # -- main structure ------------------------------------------------------------

    def lower(self) -> None:
        op = self.op
        if op.is_scalar_replaced:
            # Parallel loops, then an accumulating reduction nest, then
            # one store per output point.
            self._emit_nest(
                op.parallel_dims, self._emit_accumulating_reduction
            )
        else:
            # A single perfect nest with a read-modify-write body.
            self._emit_nest(
                list(range(len(self.bounds))), self._emit_rmw_body
            )
        op.erase()

    def _emit_nest(self, dims: list[int], emit_inner) -> None:
        """One ``scf.for`` per dim of ``dims``, ``emit_inner()`` inside."""
        if not dims:
            emit_inner()
            return
        with self._loop(dims[0]):
            self._emit_nest(dims[1:], emit_inner)

    def _emit_rmw_body(self) -> None:
        op = self.op
        loaded_inputs = self._load_inputs()
        old_values = []
        out_indices = []
        block = op.body_block
        for o, value in enumerate(op.outputs):
            idx = self.indices_for(
                self.maps[self.num_inputs + o], self.out_dims
            )
            out_indices.append(idx)
            if block.args[self.num_inputs + o].has_uses:
                old_values.append(
                    self.builder.insert(memref.LoadOp(value, idx)).result
                )
            else:
                old_values.append(None)
        results = self._clone_body(loaded_inputs, old_values)
        for o, value in enumerate(op.outputs):
            self.builder.insert(
                memref.StoreOp(results[o], value, out_indices[o])
            )

    def _emit_accumulating_reduction(self) -> None:
        op = self.op
        if len(op.outputs) != 1:
            raise LoweringError(
                "scalar-replaced loop lowering supports one output"
            )
        output = op.outputs[0]
        out_idx = self.indices_for(
            self.maps[self.num_inputs], self.out_dims
        )
        init = op.inits[0]
        if isinstance(init, FloatAttr):
            acc0 = self.builder.insert(
                arith.ConstantOp.from_float(
                    init.value, output.type.element_type
                )
            ).result
        else:
            acc0 = self.builder.insert(
                memref.LoadOp(output, out_idx)
            ).result
        final = self._emit_reduction_nest(op.reduction_dims, [acc0])
        self.builder.insert(memref.StoreOp(final[0], output, out_idx))

    def _emit_reduction_nest(
        self, dims: list[int], accumulators: list[SSAValue]
    ) -> list[SSAValue]:
        if not dims:
            return self._clone_body(self._load_inputs(), accumulators)
        with self._loop(dims[0], accumulators) as scope:
            scope.yields = self._emit_reduction_nest(
                dims[1:], scope.op.body_iter_args
            )
        return list(scope.op.results)

    # -- body cloning -----------------------------------------------------------------

    def _clone_body(
        self,
        loaded_inputs: list[SSAValue],
        old_values: list[SSAValue | None],
    ) -> list[SSAValue]:
        """The generic body, as is, over loaded values; returns what
        it yields."""
        block = self.op.body_block
        mapping: dict[int, SSAValue] = {}
        for arg, value in zip(block.args, loaded_inputs + old_values):
            if value is not None:
                mapping[id(arg)] = value
        for body_op in block.ops:
            if isinstance(body_op, memref_stream.YieldOp):
                continue
            self.builder.insert(body_op.clone(mapping))
        return [mapping.get(id(v), v) for v in block.last_op.operands]


__all__ = ["LowerGenericToLoopsPass"]
