"""Network-level workloads: the micro-kernel mixes of NSNet2 and AlexNet.

The paper obtains its micro-kernels from two DNNs — NSNet2 (noise
suppression) and AlexNet (image classification) — "excluding Softmax and
Sigmoid" whose exponentials are out of scope (Section 4.1).  This module
captures per-layer micro-kernel *configurations* for both networks, with
shapes scaled to fit the 128 KiB TCDM exactly as the paper does
("we select shape sizes to fit within the TCDM"), and a driver that
compiles and simulates a whole network's kernel sequence.

This is the downstream-user view of the library: hand it a layer list,
get aggregate cycles and utilization for the network.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .. import api
from . import builders

#: Cross-call layer-compile memo: ``(builder name, sizes, pipeline)``
#: -> ``(compiled, spec)``.  Networks repeat activation and FC shapes
#: both within and across runs; a long-lived process (the compile
#: server, a benchmark loop) reuses one compiled kernel — and one
#: decoded program — per distinct config instead of recompiling every
#: ``run_network`` call.  LRU bounded at :data:`LAYER_MEMO_LIMIT`; all
#: access under the lock.
_LAYER_MEMO: "OrderedDict[tuple, tuple]" = OrderedDict()
_LAYER_MEMO_LOCK = threading.Lock()
LAYER_MEMO_LIMIT = 64


def layer_cache_size() -> int:
    """Number of (builder, sizes, pipeline) configs memoized."""
    with _LAYER_MEMO_LOCK:
        return len(_LAYER_MEMO)


def clear_layer_cache() -> None:
    """Drop every memoized layer compile."""
    with _LAYER_MEMO_LOCK:
        _LAYER_MEMO.clear()


@dataclass
class LayerConfig:
    """One micro-kernel invocation within a network."""

    #: Human-readable layer name ("fc1", "conv2", ...).
    name: str
    #: Kernel builder from :mod:`repro.kernels.builders`.
    builder: Callable
    #: Builder arguments (shapes scaled to the TCDM).
    sizes: tuple[int, ...]

    def build(self):
        """(module, spec) for this layer's kernel."""
        return self.builder(*self.sizes)

    @property
    def schedule_key(self) -> tuple[str, tuple[int, ...]]:
        """(builder name, sizes): the key tuned schedules match on
        (see ``repro.tune.schedule_table``)."""
        return self.builder.__name__, tuple(self.sizes)


@dataclass
class LayerResult:
    """Measured outcome of one simulated layer kernel."""

    name: str
    cycles: int
    flops: int
    utilization: float


@dataclass
class NetworkResult:
    """Aggregated outcome of a network's kernel sequence."""

    name: str
    layers: list[LayerResult]

    @property
    def total_cycles(self) -> int:
        """Sum of per-layer cycle counts."""
        return sum(layer.cycles for layer in self.layers)

    @property
    def total_flops(self) -> int:
        """Sum of per-layer FLOP counts."""
        return sum(layer.flops for layer in self.layers)

    @property
    def mean_utilization(self) -> float:
        """Cycle-weighted FPU utilization across the network."""
        if not self.total_cycles:
            return 0.0
        busy = sum(
            layer.utilization * layer.cycles for layer in self.layers
        )
        return busy / self.total_cycles

    def report(self) -> str:
        """A formatted per-layer table."""
        lines = [
            f"{self.name}: {len(self.layers)} kernels, "
            f"{self.total_cycles} cycles, "
            f"{self.mean_utilization:.1%} mean FPU utilization",
            f"{'layer':<16} {'cycles':>8} {'flops':>8} {'util':>7}",
        ]
        for layer in self.layers:
            lines.append(
                f"{layer.name:<16} {layer.cycles:>8} {layer.flops:>8} "
                f"{layer.utilization:>7.1%}"
            )
        return "\n".join(lines)


def nsnet2_layers(width: int = 40) -> list[LayerConfig]:
    """An NSNet2-shaped kernel mix (TCDM-scaled).

    NSNet2 is a recurrent fully-connected noise suppressor: its compute
    is dominated by matrix-vector/matrix-matrix products over feature
    vectors, interleaved with element-wise activations.  Shapes are
    scaled so every operand set fits the 128 KiB TCDM.
    """
    half = width // 2
    return [
        LayerConfig("fc1", builders.matmul, (1, width, width)),
        LayerConfig("relu1", builders.relu, (1, width)),
        LayerConfig("gru_ih", builders.matmul, (1, width, width)),
        LayerConfig("gru_hh", builders.matmul_transposed, (1, width, width)),
        LayerConfig("gru_sum", builders.sum_kernel, (1, width)),
        LayerConfig("fc2", builders.matmul, (1, width, half)),
        LayerConfig("relu2", builders.relu, (1, half)),
        LayerConfig("fc3", builders.matmul, (1, half, width)),
        LayerConfig("relu3", builders.relu, (1, width)),
    ]


def alexnet_layers(tile: int = 12) -> list[LayerConfig]:
    """An AlexNet-shaped kernel mix (one TCDM-sized tile per layer).

    AlexNet interleaves convolutions, ReLUs and max-pooling, finishing
    with fully-connected layers; each entry is one output tile of the
    corresponding layer.
    """
    return [
        LayerConfig("conv1", builders.conv3x3, (tile, tile)),
        LayerConfig("relu1", builders.relu, (tile, tile)),
        LayerConfig("pool1", builders.max_pool3x3, (tile, tile)),
        LayerConfig("conv2", builders.conv3x3, (tile, tile)),
        LayerConfig("relu2", builders.relu, (tile, tile)),
        LayerConfig("pool2", builders.max_pool3x3, (tile, tile)),
        LayerConfig("conv3", builders.conv3x3, (tile, tile)),
        LayerConfig("relu3", builders.relu, (tile, tile)),
        LayerConfig("fc6", builders.matmul, (1, 4 * tile, 2 * tile)),
        LayerConfig("relu6", builders.relu, (1, 2 * tile)),
        LayerConfig("fc7", builders.matmul, (1, 2 * tile, 2 * tile)),
        LayerConfig("relu7", builders.relu, (1, 2 * tile)),
    ]


def compile_layers(
    layers: list[LayerConfig],
    pipeline: str = "ours",
    schedules: Mapping[tuple[str, tuple[int, ...]], str] | None = None,
) -> list[tuple]:
    """Compile every layer kernel, one compile per distinct config.

    Networks repeat activation and FC shapes; layers with the same
    builder and sizes share one ``(compiled, spec)`` pair — and
    therefore one decoded program in the simulator's predecoded
    engine.  Returns the pairs in layer order.

    ``schedules`` maps a layer's ``schedule_key`` — (builder name,
    sizes) — to a tuned pipeline spec, overriding ``pipeline`` for
    that shape; build one with ``repro.tune.schedule_table`` from the
    autotuner's :class:`~repro.tune.TunedSchedule` artifacts to run
    the network with per-layer tuned schedules.

    The memo persists across calls (an LRU of
    :data:`LAYER_MEMO_LIMIT` entries — see :func:`clear_layer_cache`),
    so a long-lived process pays each distinct (builder, sizes,
    pipeline) compile once.
    """
    pairs = []
    for layer in layers:
        layer_pipeline = pipeline
        if schedules is not None:
            layer_pipeline = schedules.get(
                layer.schedule_key, pipeline
            )
        key = (
            layer.builder.__name__,
            layer.sizes,
            layer_pipeline,
        )
        with _LAYER_MEMO_LOCK:
            cached = _LAYER_MEMO.get(key)
            if cached is not None:
                _LAYER_MEMO.move_to_end(key)
        if cached is None:
            module, spec = layer.build()
            compiled = api.compile_linalg(
                module, pipeline=layer_pipeline
            )
            cached = (compiled, spec)
            with _LAYER_MEMO_LOCK:
                _LAYER_MEMO[key] = cached
                _LAYER_MEMO.move_to_end(key)
                while len(_LAYER_MEMO) > LAYER_MEMO_LIMIT:
                    _LAYER_MEMO.popitem(last=False)
        pairs.append(cached)
    return pairs


def run_network(
    name: str,
    layers: list[LayerConfig],
    pipeline: str = "ours",
    seed: int = 0,
    validate: bool = True,
    schedules: Mapping[tuple[str, tuple[int, ...]], str] | None = None,
) -> NetworkResult:
    """Compile and simulate every layer kernel; aggregate the metrics.

    ``pipeline`` is a named pipeline or any textual pipeline spec
    (forwarded to :func:`repro.api.compile_linalg`); ``schedules``
    optionally overrides it per layer shape with tuned pipeline specs
    (see :func:`compile_layers`).

    Kernels come from :func:`compile_layers`, so repeated layer shapes
    share one compiled kernel and one decoded program; each invocation
    still simulates on fresh TCDM contents.
    """
    results = []
    for layer, (compiled, spec) in zip(
        layers, compile_layers(layers, pipeline, schedules)
    ):
        arguments = spec.random_arguments(seed=seed)
        run = api.run_kernel(compiled, arguments)
        if validate:
            expected = spec.reference(*arguments)
            for got, want in zip(run.arrays, expected):
                if want is not None and not np.allclose(
                    got, want, atol=1e-8
                ):
                    raise AssertionError(
                        f"{name}/{layer.name}: simulation does not "
                        "match the numpy oracle"
                    )
        results.append(
            LayerResult(
                name=layer.name,
                cycles=run.trace.cycles,
                flops=run.trace.flops,
                utilization=run.trace.fpu_utilization,
            )
        )
    return NetworkResult(name=name, layers=results)


__all__ = [
    "LAYER_MEMO_LIMIT",
    "LayerConfig",
    "LayerResult",
    "NetworkResult",
    "nsnet2_layers",
    "alexnet_layers",
    "clear_layer_cache",
    "compile_layers",
    "layer_cache_size",
    "run_network",
]
