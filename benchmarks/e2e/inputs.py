"""Seeded inputs of the five workloads.

``--seed`` fixes the job order, the argument data and the service
request stream; ``src/`` only ever sees what is generated here.  The
*set* of kernels is the same for every seed, so the simulated metrics
(cycles, FPU utilization) compare exactly between any two runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.kernels import KERNEL_BUILDERS, networks
from repro.service import ServiceRequest
from repro.transforms.pipelines import NAMED_PIPELINES, PIPELINE_NAMES

#: The nine Table 1 kernels at the shapes the tracked history uses
#: (``results/BENCH_tuning.json``, ``results/BENCH_service.json``).
PAPER_KERNELS = (
    ("fill", (8, 16)),
    ("sum", (8, 16)),
    ("relu", (8, 16)),
    ("conv3x3", (8, 8)),
    ("max_pool3x3", (8, 8)),
    ("sum_pool3x3", (8, 8)),
    ("matmul", (4, 8, 8)),
    ("matmul_t", (4, 8, 8)),
    ("matvec", (8, 16)),
)

#: Figure 11 sweep: C[1xN] = A[1xK] B[KxN] over this grid squared.
FIG11_GRID = (16, 32, 48, 64)

SMOKE_SHAPES = (
    ("matmul", (4, 4, 4)),
    ("relu", (4, 4)),
    ("sum", (2, 4)),
)

_BUILDER_TO_KERNEL = {
    builder.__name__: name
    for name, (builder, _arity) in KERNEL_BUILDERS.items()
}


def shape_set(smoke: bool = False) -> list[tuple[str, tuple[int, ...]]]:
    """The 38 shapes every compile-side workload covers: Table 1, the
    13 further distinct NSNet2/AlexNet layer shapes, the Fig. 11
    grid."""
    if smoke:
        return list(SMOKE_SHAPES)
    shapes = list(PAPER_KERNELS)
    for layers in (networks.nsnet2_layers(), networks.alexnet_layers()):
        for layer in layers:
            shape = (
                _BUILDER_TO_KERNEL[layer.builder.__name__],
                tuple(layer.sizes),
            )
            if shape not in shapes:
                shapes.append(shape)
    shapes.extend(
        ("matmul", (1, k, n)) for k in FIG11_GRID for n in FIG11_GRID
    )
    return shapes


def shuffled(items, seed: int, salt: str) -> list:
    """A seeded permutation; ``salt`` decorrelates the workloads."""
    items = list(items)
    random.Random(f"{seed}:{salt}").shuffle(items)
    return items


def strided(items, count: int) -> list:
    """``count`` items spread evenly over ``items`` — the counted
    pass's seed-independent sample."""
    items = list(items)
    step = max(1, len(items) // count)
    return items[::step][:count]


@dataclass(frozen=True)
class SimKernel:
    """One entry of the simulator workloads' kernel list."""

    label: str
    #: "linalg" (builder + pipeline), "lowlevel" (handwritten
    #: dialect-level kernel) or "cluster" (row-partitioned run).
    kind: str
    kernel: str
    sizes: tuple[int, ...]
    pipeline: str = "ours"
    cores: int = 1


def sim_kernels(smoke: bool = False) -> list[SimKernel]:
    """One kernel per engine path, then the two networks' layers."""
    if smoke:
        return [
            SimKernel("gemm", "linalg", "matmul", (4, 4, 4)),
            SimKernel("relu", "linalg", "relu", (4, 4)),
            SimKernel(
                "scalar", "linalg", "matmul", (4, 4, 4),
                "table3-baseline",
            ),
            SimKernel(
                "simd", "lowlevel", "lowlevel_matmul_t_f32", (4, 8)
            ),
            SimKernel(
                "cluster", "cluster", "matmul", (4, 4, 4), cores=2
            ),
        ]
    kernels = [
        # FREP + SSR GEMMs: the paper's headline shape.
        SimKernel("gemm_1x48x48", "linalg", "matmul", (1, 48, 48)),
        SimKernel("gemm_16x32x16", "linalg", "matmul", (16, 32, 16)),
        SimKernel("conv_16x16", "linalg", "conv3x3", (16, 16)),
        SimKernel("pool_16x16", "linalg", "max_pool3x3", (16, 16)),
        # Explicit loads/stores and branches: integer-core heavy.
        SimKernel(
            "scalar_loop", "linalg", "matmul", (1, 16, 16),
            "table3-baseline",
        ),
        SimKernel(
            "pointer_loop", "linalg", "matmul", (8, 64, 16), "clang"
        ),
        SimKernel("matvec_mlir", "linalg", "matvec", (32, 32), "mlir"),
        # Packed SIMD (vfmac.s / vfsum.s): the fast engine's laggard.
        SimKernel(
            "packed_simd", "lowlevel", "lowlevel_matmul_t_f32",
            (64, 40),
        ),
    ]
    for network, layers in (
        ("nsnet2", networks.nsnet2_layers()),
        ("alexnet", networks.alexnet_layers()),
    ):
        kernels.extend(
            SimKernel(
                f"{network}.{layer.name}", "linalg",
                _BUILDER_TO_KERNEL[layer.builder.__name__],
                tuple(layer.sizes),
            )
            for layer in layers
        )
    kernels.append(
        SimKernel(
            "cluster_4core", "cluster", "matmul", (8, 32, 16), cores=4
        )
    )
    return kernels


#: Repeats per first-occurrence request: 3 makes exactly 75 % of the
#: stream store hits.
REPEATS_PER_FIRST = 3
COMPILES_PER_EPOCH = 2


def request_epochs(shapes, seed: int):
    """The service request stream, one epoch (= one round) at a time.

    Yields lists of ``(request, is_first)``.  An epoch's first
    occurrences are one ``measure`` per shape under a seed never used
    before (so its ``ours`` cycles cover the whole shape set) plus
    ``COMPILES_PER_EPOCH`` ``compile`` requests drawn without
    replacement from shapes x pipelines; three times as many repeats
    of keys first seen in this or the previous epoch are shuffled in,
    never ahead of their first occurrence.  A compile's store key has
    no seed in it, so the stream ends when the compile pairs run out:
    152 epochs, drawn from the full shape set in a smoke run too.
    """
    rng = random.Random(f"{seed}:service")
    # The store keys a compile by its spec, and two names share one
    # (table3-unroll is ours): one request per distinct spec.
    by_spec = {NAMED_PIPELINES[name]: name for name in PIPELINE_NAMES}
    pairs = [
        (shape, pipeline)
        for shape in shape_set()
        for pipeline in by_spec.values()
    ]
    rng.shuffle(pairs)
    measure_seed = seed * 1_000_003
    previous: list = []
    while len(pairs) >= COMPILES_PER_EPOCH:
        firsts = []
        for kernel, sizes in shapes:
            measure_seed += 1
            firsts.append(
                ServiceRequest(
                    "measure", kernel, sizes, seed=measure_seed
                )
            )
        for _ in range(COMPILES_PER_EPOCH):
            (kernel, sizes), pipeline = pairs.pop()
            firsts.append(
                ServiceRequest(
                    "compile", kernel, sizes, pipeline=pipeline
                )
            )
        rng.shuffle(firsts)
        slots = [True] * len(firsts) + [False] * (
            REPEATS_PER_FIRST * len(firsts)
        )
        rng.shuffle(slots)
        if not previous:
            # Nothing to repeat yet: the stream opens on a first.
            slots.remove(True)
            slots.insert(0, True)
        seen = list(previous)
        upcoming = iter(firsts)
        epoch = []
        for is_first in slots:
            if is_first:
                request = next(upcoming)
                seen.append(request)
            else:
                request = rng.choice(seen)
            epoch.append((request, is_first))
        previous = firsts
        yield epoch
