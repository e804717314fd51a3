"""Numpy golden models for the stencil kernels (validation oracles).

The element-wise and matrix-product kernels state their numpy model
inline, next to their builder.
"""

from __future__ import annotations

import numpy as np


def ref_conv3x3(image: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Valid 3x3 cross-correlation (no padding, stride 1)."""
    n = image.shape[0] - 2
    m = image.shape[1] - 2
    out = np.zeros((n, m), dtype=image.dtype)
    for ki in range(3):
        for kj in range(3):
            out += weights[ki, kj] * image[ki : ki + n, kj : kj + m]
    return out


def ref_max_pool3x3(image: np.ndarray) -> np.ndarray:
    """3x3 max pooling with stride 1."""
    n = image.shape[0] - 2
    m = image.shape[1] - 2
    out = np.full((n, m), -np.inf, dtype=image.dtype)
    for ki in range(3):
        for kj in range(3):
            out = np.maximum(out, image[ki : ki + n, kj : kj + m])
    return out


def ref_sum_pool3x3(image: np.ndarray) -> np.ndarray:
    """3x3 sum pooling with stride 1."""
    n = image.shape[0] - 2
    m = image.shape[1] - 2
    out = np.zeros((n, m), dtype=image.dtype)
    for ki in range(3):
        for kj in range(3):
            out += image[ki : ki + n, kj : kj + m]
    return out


__all__ = [
    "ref_conv3x3",
    "ref_max_pool3x3",
    "ref_sum_pool3x3",
]
