"""The schedule space: what a tuner is allowed to choose.

A *schedule* for a kernel is an unroll-and-jam factor (legal = divides
the bound of the dim the pass interleaves, see
:func:`repro.transforms.unroll_and_jam.legal_unroll_factors`).

:class:`ScheduleConfig` names one such choice and renders it as a
textual pipeline spec, so every tuned schedule round-trips through the
ordinary ``Compiler``/CLI surface; it also carries a cluster core
count, which the service's ``measure`` jobs set and the search leaves
at one.  :class:`ScheduleSpace` enumerates the legal configs of a
concrete kernel by probing its ``memref_stream.generic`` after
conversion.  :class:`TunedSchedule` is the persisted artifact a search
produces: JSON-serialisable and directly appliable to
``api.compile_linalg`` or a network layer list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence
import json

from ..compiler import artifact_versions
from ..dialects import memref_stream
from ..kernels.builders import KERNEL_BUILDERS
from ..runtime.atomic_file import write_atomic
from ..transforms.pipelines import build_pipeline, scheduled_pipeline_spec
from ..transforms.unroll_and_jam import (
    legal_unroll_factors,
    select_unroll_dim,
    select_unroll_factor,
)


class ScheduleError(ValueError):
    """An unknown kernel, illegal config, or malformed artifact."""


@dataclass(frozen=True)
class ScheduleConfig:
    """One point in a kernel's schedule space.

    ``unroll_factor=None`` means "the compiler's own default": the
    automatic unroll heuristic.  ``num_cores == 1`` is a plain
    single-core run; more cores row-partition the kernel across a
    cluster and score the slowest core.  Both fields are type-checked:
    configs arrive from the wire and from files, and the factor is
    spliced into a pipeline spec.
    """

    unroll_factor: int | None = None
    num_cores: int = 1

    def __post_init__(self):
        # ``type(...) is int`` also refuses bools.
        factor, cores = self.unroll_factor, self.num_cores
        if not (factor is None or type(factor) is int) or not (
            type(cores) is int and cores >= 1
        ):
            raise ScheduleError(
                f"bad schedule config: unroll_factor={factor!r} (want an "
                f"int or null), num_cores={cores!r} (want an int >= 1)"
            )

    @property
    def is_default(self) -> bool:
        """Whether this is exactly the untuned compiler behaviour."""
        return self.unroll_factor is None and self.num_cores == 1

    def pipeline_spec(self) -> str:
        """The schedule as a round-trippable textual pipeline spec."""
        return scheduled_pipeline_spec(unroll_factor=self.unroll_factor)

    def key(self) -> str:
        """Canonical short form, used in cache keys and reports."""
        factor = (
            "auto" if self.unroll_factor is None else self.unroll_factor
        )
        return f"factor={factor}|cores={self.num_cores}"

    def to_json(self) -> dict:
        return {
            "unroll_factor": self.unroll_factor,
            "num_cores": self.num_cores,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ScheduleConfig":
        # A non-null field naming no axis of this space is refused, not
        # dropped: the record would otherwise be measured as a
        # different schedule than the one it names.
        extra = {
            name: value
            for name, value in data.items()
            if value is not None and name not in ("unroll_factor", "num_cores")
        }
        if extra:
            raise ScheduleError(f"not schedule axes: {extra!r}")
        return cls(
            unroll_factor=data.get("unroll_factor"),
            num_cores=data.get("num_cores", 1),
        )


def resolve_kernel(kernel: str, sizes: Sequence[int]):
    """(builder, sizes) for a canonical kernel name, arity-checked and
    non-negative: the one size check of every CLI and the service."""
    try:
        builder, arity = KERNEL_BUILDERS[kernel]
    except KeyError:
        raise ScheduleError(
            f"unknown kernel {kernel!r} (known: "
            f"{', '.join(sorted(KERNEL_BUILDERS))})"
        ) from None
    if len(sizes) != arity:
        raise ScheduleError(
            f"kernel {kernel!r} takes {arity} sizes, got {len(sizes)}"
        )
    if any(size < 0 for size in sizes):
        raise ScheduleError(
            f"kernel {kernel!r} sizes must be non-negative, got "
            f"{' '.join(str(size) for size in sizes)}"
        )
    return builder, tuple(int(s) for s in sizes)


@dataclass(frozen=True)
class ClusterPlan:
    """How to row-partition one kernel across cluster cores."""

    #: (rows, cols) the partitioner splits.
    shape: tuple[int, int]
    #: Indices of array arguments offset per row chunk.
    row_parallel_args: tuple[int, ...]
    #: ``(chunk_rows, cols) -> (module, spec)`` for one core's share.
    chunk_builder: Callable


def cluster_plan(kernel: str, sizes: Sequence[int]) -> ClusterPlan | None:
    """The row-partitioning of a paper kernel, or None if unknown.

    Every Table 1 kernel is parallel over its output rows; the plans
    record which arguments are split (the rest broadcast) and how to
    build one core's chunk-sized kernel.  Halo'd inputs (conv/pool
    images with their two extra boundary rows) work because the offset
    is taken in *that operand's* row pitch.
    """
    from ..kernels import builders

    sizes = tuple(sizes)
    if kernel == "fill":
        n, m = sizes
        return ClusterPlan((n, m), (1,), builders.fill)
    if kernel == "sum":
        n, m = sizes
        return ClusterPlan((n, m), (0, 1, 2), builders.sum_kernel)
    if kernel == "relu":
        n, m = sizes
        return ClusterPlan((n, m), (0, 1), builders.relu)
    if kernel == "conv3x3":
        n, m = sizes
        return ClusterPlan(
            (n, m), (0, 2), lambda r, c: builders.conv3x3(r, c)
        )
    if kernel == "max_pool3x3":
        n, m = sizes
        return ClusterPlan((n, m), (0, 1), builders.max_pool3x3)
    if kernel == "sum_pool3x3":
        n, m = sizes
        return ClusterPlan((n, m), (0, 1), builders.sum_pool3x3)
    if kernel == "matmul":
        m_rows, k, n = sizes
        return ClusterPlan(
            (m_rows, n), (0, 2), lambda r, c: builders.matmul(r, k, n)
        )
    if kernel == "matmul_t":
        m_rows, k, n = sizes
        return ClusterPlan(
            (m_rows, n),
            (0, 2),
            lambda r, c: builders.matmul_transposed(r, k, n),
        )
    if kernel == "matvec":
        rows, cols = sizes
        return ClusterPlan((rows, cols), (1, 2), builders.matvec)
    return None


#: The probe pipeline: just enough lowering to see the scheduled
#: generic (explicit bounds, fill fused) without fixing any schedule.
_PROBE_SPEC = "convert-linalg-to-memref-stream,fuse-fill"


@dataclass(frozen=True)
class ScheduleSpace:
    """The legal schedule configs of one concrete kernel."""

    kernel: str
    builder: Callable
    sizes: tuple[int, ...]
    #: Iteration-space shape of the kernel's main generic.
    bounds: tuple[int, ...]
    iterator_types: tuple[str, ...]
    #: Factor choices: ``None`` (the automatic heuristic) plus every
    #: other legal factor of the dim unroll-and-jam interleaves.
    unroll_factors: tuple[int | None, ...]

    @classmethod
    def for_kernel(
        cls, kernel: str, sizes: Sequence[int]
    ) -> "ScheduleSpace":
        """Probe a kernel and enumerate its legal unroll factors."""
        builder, sizes = resolve_kernel(kernel, sizes)
        module, _ = builder(*sizes)
        build_pipeline(_PROBE_SPEC, verify_each=False).run(module)
        generic = None
        for op in module.walk():
            if isinstance(op, memref_stream.GenericOp):
                if generic is None or len(op.bounds) > len(generic.bounds):
                    generic = op
        if generic is None:
            raise ScheduleError(
                f"kernel {kernel!r} lowers to no memref_stream.generic"
            )
        bounds = tuple(generic.bounds)
        factors: tuple[int | None, ...] = (None,)
        # The pass only interleaves reductions.
        dim = select_unroll_dim(generic) if generic.reduction_dims else None
        if dim is not None:
            heuristic = select_unroll_factor(bounds[dim])
            factors += tuple(
                f for f in legal_unroll_factors(bounds[dim]) if f != heuristic
            )
        return cls(
            kernel=kernel,
            builder=builder,
            sizes=sizes,
            bounds=bounds,
            iterator_types=tuple(generic.iterator_types),
            unroll_factors=factors,
        )

    def configs(self) -> Iterator[ScheduleConfig]:
        """Every legal config, the compiler default first."""
        for factor in self.unroll_factors:
            yield ScheduleConfig(unroll_factor=factor)

    def size(self) -> int:
        """Number of configs :meth:`configs` enumerates."""
        return len(self.unroll_factors)


@dataclass(frozen=True)
class TunedSchedule:
    """A winning schedule, ready to persist and apply.

    ``pipeline_spec`` carries the schedule (the unroll factor): pass
    it straight to ``api.compile_linalg(module, pipeline=...)`` (or
    the CLI's ``--pipeline``) to recompile the kernel with it.
    """

    kernel: str
    sizes: tuple[int, ...]
    config: ScheduleConfig
    pipeline_spec: str
    cycles: int
    default_cycles: int
    #: ``artifact_versions()`` of the process that measured ``cycles``.
    engine_version: int = field(
        default_factory=lambda: artifact_versions()[0]
    )
    compiler_version: int = field(
        default_factory=lambda: artifact_versions()[1]
    )

    def is_current(self) -> bool:
        """Whether this process's engine and compiler would measure
        the same ``cycles`` for ``pipeline_spec``."""
        return (
            self.engine_version,
            self.compiler_version,
        ) == artifact_versions()

    @property
    def speedup(self) -> float:
        """Default-schedule cycles over tuned cycles (>= 1.0)."""
        return self.default_cycles / self.cycles if self.cycles else 1.0

    def builder_key(self) -> tuple[str, tuple[int, ...]]:
        """(builder ``__name__``, sizes) — the key network layer
        compilation matches layers against."""
        builder, sizes = resolve_kernel(self.kernel, self.sizes)
        return builder.__name__, sizes

    def to_json(self) -> dict:
        return {
            "kernel": self.kernel,
            "sizes": list(self.sizes),
            "config": self.config.to_json(),
            "pipeline_spec": self.pipeline_spec,
            "cycles": self.cycles,
            "default_cycles": self.default_cycles,
            "engine_version": self.engine_version,
            "compiler_version": self.compiler_version,
        }

    @classmethod
    def from_json(cls, data: dict) -> "TunedSchedule":
        try:
            return cls(
                kernel=data["kernel"],
                sizes=tuple(int(s) for s in data["sizes"]),
                config=ScheduleConfig.from_json(data["config"]),
                pipeline_spec=data["pipeline_spec"],
                cycles=int(data["cycles"]),
                default_cycles=int(data["default_cycles"]),
                engine_version=int(
                    data.get("engine_version", artifact_versions()[0])
                ),
                # Records written before the field existed came from
                # compiler version 1.
                compiler_version=int(data.get("compiler_version", 1)),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ScheduleError(
                f"malformed TunedSchedule record: {error}"
            ) from None


def save_schedules(path, schedules: Sequence[TunedSchedule]) -> None:
    """Write tuned schedules as a JSON artifact (atomic replace)."""
    payload = {
        "schema": 1,
        "schedules": [schedule.to_json() for schedule in schedules],
    }
    write_atomic(Path(path), json.dumps(payload, indent=2) + "\n")


def load_schedules(path) -> list[TunedSchedule]:
    """Read a tuned-schedule artifact written by :func:`save_schedules`."""
    try:
        payload = json.loads(Path(path).read_text())
        records = payload["schedules"]
    except (OSError, ValueError, KeyError) as error:
        raise ScheduleError(
            f"cannot load schedules from {path}: {error}"
        ) from None
    return [TunedSchedule.from_json(record) for record in records]


def schedule_table(
    schedules: Sequence[TunedSchedule],
) -> dict[tuple[str, tuple[int, ...]], str]:
    """(builder name, sizes) -> tuned pipeline spec.

    The mapping ``kernels.networks.compile_layers`` consumes to run a
    whole network with per-layer tuned schedules.  A record with
    ``num_cores > 1`` (artifacts arrive from files) is rejected:
    network layers run single-core, a pipeline spec cannot express
    cluster partitioning, and applying its spec would claim cycles the
    run cannot reproduce.
    """
    for schedule in schedules:
        if schedule.config.num_cores != 1:
            raise ScheduleError(
                f"{schedule.kernel} {'x'.join(map(str, schedule.sizes))}"
                f": schedule was tuned on {schedule.config.num_cores} "
                "cores; a pipeline spec cannot express cluster "
                "partitioning, so it cannot be applied to a "
                "single-core network layer"
            )
    return {
        schedule.builder_key(): schedule.pipeline_spec
        for schedule in schedules
    }


__all__ = [
    "ClusterPlan",
    "ScheduleConfig",
    "ScheduleError",
    "ScheduleSpace",
    "TunedSchedule",
    "cluster_plan",
    "load_schedules",
    "resolve_kernel",
    "save_schedules",
    "schedule_table",
]
