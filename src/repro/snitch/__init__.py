"""Snitch core simulation substrate.

The paper evaluates on a Verilator-generated RTL simulator of the Snitch
cluster; this package substitutes a cycle-approximate architectural model
of one Snitch core (``docs/MACHINE_MODEL.md``): an in-order single-issue integer
core, a 3-stage FPU behind a sequencer (pseudo-dual-issue under FREP),
three stream semantic registers with 4-dimensional affine address
generators, and a flat TCDM.  All quantities the paper measures — cycle
count, FLOP throughput, FPU utilization, executed loads/stores — are
exposed through :class:`repro.snitch.trace.ExecutionTrace`.
"""

from .assembler import AssemblerError, Program, assemble
from .cluster import ClusterRun, CoreRun, partition_rows, run_row_partitioned
from .engine import ENGINE_VERSION, DecodedProgram, decode
from .machine import SnitchMachine, SimulationError
from .memory import TCDM
from .trace import ExecutionTrace

__all__ = [
    "AssemblerError",
    "Program",
    "assemble",
    "DecodedProgram",
    "ENGINE_VERSION",
    "decode",
    "SnitchMachine",
    "SimulationError",
    "TCDM",
    "ExecutionTrace",
    "ClusterRun",
    "CoreRun",
    "partition_rows",
    "run_row_partitioned",
]
