"""The evaluation kernel suite (paper Table 1).

``builders`` constructs the DNN micro-kernels as linalg-level IR (the
compiler path, Sections 4.3-4.4); ``lowlevel`` holds the handwritten
dialect-level kernels (Section 4.2, RQ1); ``reference`` provides numpy
golden models used by the tests and benchmarks to validate every
simulated result; ``networks`` assembles the kernels into the NSNet2
and AlexNet layer mixes the paper draws them from.
"""

from . import networks
from .builders import (
    KERNEL_BUILDERS,
    KernelSpec,
    OracleMismatch,
    POOL_NEUTRAL_MIN,
    conv3x3,
    fill,
    matmul,
    matmul_transposed,
    matvec,
    max_pool3x3,
    relu,
    sum_kernel,
    sum_pool3x3,
)
from .lowlevel import (
    lowlevel_fill_f64,
    lowlevel_matmul_t_f32,
    lowlevel_relu_f32,
    lowlevel_sum_f32,
)

__all__ = [
    "KERNEL_BUILDERS",
    "KernelSpec",
    "OracleMismatch",
    "fill",
    "sum_kernel",
    "relu",
    "conv3x3",
    "max_pool3x3",
    "sum_pool3x3",
    "matmul",
    "matmul_transposed",
    "matvec",
    "POOL_NEUTRAL_MIN",
    "lowlevel_sum_f32",
    "lowlevel_relu_f32",
    "lowlevel_matmul_t_f32",
    "lowlevel_fill_f64",
    "networks",
]
