"""The multi-level, spill-free register allocator (paper Section 3.3).

Allocation happens on the *structured* backend IR — ``rv_scf.for`` loops
and ``rv_snitch.frep_outer`` hardware loops are still present — after
``lower-snitch-stream`` has replaced every
``snitch_stream.streaming_region`` by its configuration writes (an
unlowered region is refused), in three linear passes:

1. **Exclusion** (Figure 6 item A): every register already named in the IR
   (ABI argument registers, the stream registers that lowered stream
   reads and writes refer to, partially-allocated handwritten kernels)
   is excluded from the allocatable pool.  This is deliberately "overly
   defensive": no live-range analysis of pre-allocated values is
   attempted.
2. **Outer-value tracking** (item B): for each structured loop, the values
   defined outside its region but used inside are collected; their live
   ranges must extend over the whole loop because the body may execute
   many times.
3. **Backwards walk** (item C): blocks are walked backwards, assigning a
   register at a value's first (i.e. textually last) use and freeing it
   at its definition.  SSA guarantees a single definition, so one linear
   walk per block suffices; structured loops are processed recursively.
   Loop-carried values — iteration-argument operands, body block
   arguments, yield operands and loop results — are unified into one
   register first (item D).  The stream registers need no reservation
   of their own (item E): exclusion already withholds them, across the
   whole function — so also across a loop nest that
   ``lower-snitch-stream`` keeps streaming-enabled from one ``csrsi``
   before it to one ``csrci`` after it.

There is **no spilling**: exhausting the pool raises
:class:`RegisterPressureError`, and the evaluation (Table 2) shows the
micro-kernel workloads never trigger it.
"""

from __future__ import annotations

from bisect import bisect_left

from ..dialects import riscv_func, riscv_scf, riscv_snitch, snitch_stream
from ..dialects.riscv import FloatRegisterType, IntRegisterType
from ..ir.core import Block, IRError, Operation, SSAValue


class RegisterPressureError(IRError):
    """Raised when a kernel needs more registers than are available."""


#: Pool orders: temporaries first, stream registers (ft0-2) last so they
#: stay free for streaming kernels.
_INT_POOL = (
    "t0", "t1", "t2", "t3", "t4", "t5", "t6",
    "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7",
)
_FLOAT_POOL = (
    "ft3", "ft4", "ft5", "ft6", "ft7", "ft8", "ft9", "ft10", "ft11",
    "fa0", "fa1", "fa2", "fa3", "fa4", "fa5", "fa6", "fa7",
    "ft0", "ft1", "ft2",
)


class _RegisterFile:
    """Bookkeeping for one register kind (integer or floating point).

    The free pool is kept as a sorted list of *ranks* (positions in the
    pool order) so hand-out order is stable and every operation is a
    bisect/memmove on a ≤20-entry int list instead of keyed Python-level
    scans and sorts — the allocator runs once per value per function.
    """

    def __init__(self, pool: tuple[str, ...]):
        self.pool_order = list(pool)
        #: register name -> position in the pool order.
        self._rank = {name: i for i, name in enumerate(pool)}
        #: sorted ranks of currently free registers.
        self._free_ranks = list(range(len(pool)))
        #: register name -> number of live values currently holding it.
        self.live_counts: dict[str, int] = {}
        #: registers the allocator owns (excluded ones are not returned).
        self.owned = set(pool)

    def _drop_free(self, name: str) -> None:
        rank = self._rank.get(name)
        if rank is None:
            return
        i = bisect_left(self._free_ranks, rank)
        if i < len(self._free_ranks) and self._free_ranks[i] == rank:
            del self._free_ranks[i]

    def exclude(self, name: str) -> None:
        """Pass 1: remove ``name`` from the pool permanently."""
        self._drop_free(name)
        self.owned.discard(name)

    def take(self) -> str:
        """Hand out the next free register."""
        if not self._free_ranks:
            raise RegisterPressureError(
                "out of registers: the spill-free allocator cannot "
                "satisfy this kernel (see paper Section 4.3)"
            )
        return self.pool_order[self._free_ranks.pop(0)]

    def acquire(self, name: str) -> None:
        """Record one more live value in ``name``."""
        self.live_counts[name] = self.live_counts.get(name, 0) + 1
        self._drop_free(name)

    def acquire_taken(self, name: str) -> None:
        """Record the first live value in a register :meth:`take` just
        handed out (already removed from the free pool)."""
        self.live_counts[name] = self.live_counts.get(name, 0) + 1

    def release(self, name: str) -> None:
        """Drop one live value from ``name``; pool it when empty."""
        count = self.live_counts.get(name, 0) - 1
        if count < 0:
            return
        self.live_counts[name] = count
        if count == 0 and name in self.owned:
            rank = self._rank[name]
            i = bisect_left(self._free_ranks, rank)
            if i == len(self._free_ranks) or self._free_ranks[i] != rank:
                self._free_ranks.insert(i, rank)


class RegisterAllocator:
    """Allocates every register-typed value of one ``rv_func.func``."""

    def __init__(self):
        self.int_file = _RegisterFile(_INT_POOL)
        self.float_file = _RegisterFile(_FLOAT_POOL)
        #: register-type class -> file (dispatch without isinstance).
        self._files = {
            IntRegisterType: self.int_file,
            FloatRegisterType: self.float_file,
        }
        #: ids of values currently holding a register.
        self._live_values: set[int] = set()
        #: loop op id -> values defined outside, used inside (pass 2).
        self._outer_values: dict[int, list[SSAValue]] = {}

    # -- public API -----------------------------------------------------------

    def allocate(self, func: riscv_func.FuncOp) -> None:
        """Run all three passes over ``func``, refining types in place."""
        self._exclude_used(func)
        self._track_outer_values(func)
        self._walk_block_backwards(func.entry_block)

    # -- pass 1: exclusion -------------------------------------------------------

    def _exclude_used(self, func: riscv_func.FuncOp) -> None:
        for op in func.walk():
            for value in op.results:
                self._exclude_value(value)
            for region in op.regions:
                for block in region.blocks:
                    for value in block.args:
                        self._exclude_value(value)

    def _exclude_value(self, value: SSAValue) -> None:
        vtype = value.type
        register = getattr(vtype, "register", None)
        if not register:
            return  # non-register type, or not yet allocated
        if isinstance(vtype, IntRegisterType):
            self.int_file.exclude(register)
        elif isinstance(vtype, FloatRegisterType):
            self.float_file.exclude(register)

    # -- pass 2: values defined outside a loop, used inside ------------------------

    def _track_outer_values(self, func: riscv_func.FuncOp) -> None:
        loop_types = (riscv_scf.ForOp, riscv_snitch.FrepOuter)
        for loop in func.walk():
            if not isinstance(loop, loop_types):
                continue
            # One walk collects the nested ops/blocks and the candidate
            # operands; a second pass over those operands then filters
            # out the inside-defined ones.
            inside: set[int] = set()
            inside_blocks = {id(loop.body.block)}
            candidates: list[SSAValue] = []
            for op in loop.walk():
                if op is loop:
                    continue
                inside.add(id(op))
                for region in op.regions:
                    for block in region.blocks:
                        inside_blocks.add(id(block))
                candidates.extend(op.operands)
            seen: set[int] = set()
            outer: list[SSAValue] = []
            for operand in candidates:
                owner = operand.owner
                defined_inside = (
                    isinstance(owner, Operation) and id(owner) in inside
                ) or (
                    isinstance(owner, Block) and id(owner) in inside_blocks
                )
                if defined_inside or id(operand) in seen:
                    continue
                seen.add(id(operand))
                outer.append(operand)
            self._outer_values[id(loop)] = outer

    # -- pass 3: backwards allocation walk ---------------------------------------

    def _walk_block_backwards(self, block: Block) -> None:
        for op in reversed(block.ops):
            self._process_op(op)
        # Block arguments are "defined" at block entry: release them.
        for arg in block.args:
            self._release_value(arg)

    def _process_op(self, op: Operation) -> None:
        if isinstance(op, (riscv_scf.ForOp, riscv_snitch.FrepOuter)):
            self._process_loop(op)
        elif isinstance(op, snitch_stream.StreamingRegionOp):
            raise IRError(
                f"op {op.name} cannot be register-allocated; run "
                "lower-snitch-stream before allocate-registers"
            )
        else:
            self._process_instruction(op)

    def _process_instruction(self, op: Operation) -> None:
        # Read-modify-write instructions tie an operand to a result.
        tied = getattr(op, "tied", None)
        if tied is not None:
            operand_index, result_index = tied
            self._allocate_group(
                [op.results[result_index], op.operands[operand_index]]
            )
        # Uses first: walking backwards, a use precedes its definition.
        for operand in op._operands:
            self._allocate_value(operand)
        # Results: the value's live range ends at its definition.
        for result in op.results:
            self._allocate_value(result)  # dead results still need one
            self._release_value(result)

    def _process_loop(self, loop: Operation) -> None:
        """Shared handling of ``rv_scf.for`` and ``frep_outer`` (item D)."""
        if isinstance(loop, riscv_scf.ForOp):
            iter_inits = list(loop.iter_args)
            body_iter_args = loop.body_iter_args
            control_operands = [
                loop.lower_bound, loop.upper_bound, loop.step,
            ]
            induction = [loop.induction_variable]
        else:
            assert isinstance(loop, riscv_snitch.FrepOuter)
            iter_inits = list(loop.iter_args)
            body_iter_args = loop.body_iter_args
            control_operands = [loop.max_rep]
            induction = []
        yield_op = loop.body.block.last_op
        assert yield_op is not None

        # (D) unify loop-carried groups: result / body arg / yield operand
        # share one register.  The init operand joins the group only when
        # the loop is its sole use — otherwise it stays live after the
        # loop header and must keep its own register (the rv_scf lowering
        # then inserts a move; FREP hardware loops require the unified
        # form, which our FREP codegen guarantees by construction).
        is_frep = isinstance(loop, riscv_snitch.FrepOuter)
        for i, result in enumerate(loop.results):
            init = iter_inits[i]
            group = [
                result,
                body_iter_args[i],
                yield_op.operands[i],
            ]
            init_vtype = init.type
            init_joins = is_frep or (
                len(init.uses) == 1 and not init_vtype.is_allocated
            )
            if init_joins:
                group.append(init)
            self._allocate_group(group)
            if not init_joins:
                self._allocate_value(init)

        # Control operands (bounds, step, repeat count) and the induction
        # variable live across the whole loop.
        for value in control_operands:
            self._allocate_value(value)
        for value in induction:
            self._allocate_value(value)

        # (B) values defined outside the loop but used inside must hold
        # their register for the entire loop.
        for value in self._outer_values.get(id(loop), ()):
            self._allocate_value(value)

        # Recurse into the body (releases body args at block entry).
        self._walk_block_backwards(loop.body.block)

        # The loop op defines its results: their ranges end here.
        for result in loop.results:
            self._release_value(result)

    # -- value-level helpers ---------------------------------------------------------

    def _file_for(self, value: SSAValue) -> _RegisterFile | None:
        return self._files.get(type(value.type))

    def _allocate_value(self, value: SSAValue) -> None:
        """Assign a register to ``value`` if it does not have one yet."""
        file = self._file_for(value)
        if file is None:
            return  # streams and other non-register values
        if id(value) in self._live_values:
            return
        vtype = value.type
        if vtype.is_allocated:
            # Pre-allocated (ABI args, stream reads): excluded in pass 1,
            # tracked as live but never pooled.
            self._live_values.add(id(value))
            file.acquire(vtype.register)
            return
        name = file.take()
        value.set_type(type(vtype)(name))
        self._live_values.add(id(value))
        file.acquire_taken(name)

    def _allocate_group(self, group: list[SSAValue]) -> None:
        """Put every value of a loop-carried group in the same register."""
        kinds = {type(v.type) for v in group}
        if len(kinds) != 1:
            raise IRError("loop-carried group mixes register kinds")
        file = self._file_for(group[0])
        assert file is not None
        chosen: str | None = None
        for value in group:
            if value.type.is_allocated:
                if chosen is None:
                    chosen = value.type.register
                elif chosen != value.type.register:
                    raise IRError(
                        "conflicting pre-allocated registers in "
                        f"loop-carried group: {chosen} vs "
                        f"{value.type.register}"
                    )
        if chosen is None:
            chosen = file.take()
        for value in group:
            if not value.type.is_allocated:
                value.set_type(type(value.type)(chosen))
            if id(value) not in self._live_values:
                self._live_values.add(id(value))
                file.acquire(chosen)

    def _release_value(self, value: SSAValue) -> None:
        """End of live range (its definition, walking backwards)."""
        file = self._file_for(value)
        if file is None:
            return
        if id(value) not in self._live_values:
            return
        self._live_values.discard(id(value))
        file.release(value.type.register)


def allocate_registers(func: riscv_func.FuncOp) -> None:
    """Allocate all registers of ``func`` with a fresh allocator."""
    RegisterAllocator().allocate(func)


def count_used_registers(func: Operation) -> tuple[int, int]:
    """Distinct (FP, integer) registers referenced by ``func``.

    This is the metric of paper Table 2: reserved argument registers and
    stream registers count as used; ``zero`` does not.
    """
    int_used: set[str] = set()
    float_used: set[str] = set()
    for op in func.walk():
        values = list(op.results) + list(op.operands)
        for region in op.regions:
            for block in region.blocks:
                values.extend(block.args)
        for value in values:
            vtype = value.type
            if isinstance(vtype, IntRegisterType) and vtype.is_allocated:
                if vtype.register != "zero":
                    int_used.add(vtype.register)
            elif (
                isinstance(vtype, FloatRegisterType) and vtype.is_allocated
            ):
                float_used.add(vtype.register)
    return len(float_used), len(int_used)


__all__ = [
    "RegisterAllocator",
    "RegisterPressureError",
    "allocate_registers",
    "count_used_registers",
]
