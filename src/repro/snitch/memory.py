"""Tightly-coupled data memory (TCDM) model.

Snitch clusters expose 128 KiB of software-managed L1 scratchpad
(paper Section 2.4).  Kernels in the evaluation are sized to fit in the
TCDM "such that our performance measurements are not influenced by the
rest of the memory hierarchy" — so a flat byte array with single-cycle
access semantics is a faithful substitute.  A bump allocator hands out
aligned buffers to the test/benchmark harness, which moves data in and
out through numpy views.
"""

from __future__ import annotations

import struct

import numpy as np

#: Default TCDM capacity (128 KiB, as in the Snitch cluster).
TCDM_SIZE = 128 * 1024

# Prebound struct codecs: one Struct per width, compiled once, so the
# typed accessors below (and the execution engine, which binds these
# directly into its decoded closures) skip the per-call format parse of
# ``struct.pack_into``/``unpack_from``.
U32 = struct.Struct("<I")
U64 = struct.Struct("<Q")
F32 = struct.Struct("<f")
F64 = struct.Struct("<d")
F32X2 = struct.Struct("<ff")  # the two packed-SIMD lanes of a register


class TCDMError(Exception):
    """Raised on out-of-bounds or exhausted-capacity accesses."""


def out_of_bounds(address: int, width: int) -> TCDMError:
    """The out-of-bounds error, in one place.

    Both :meth:`TCDM._check` and the execution engine's inlined bounds
    checks raise through this, so the differential contract (identical
    error messages from both engines) cannot drift.
    """
    return TCDMError(
        f"access of {width} bytes at {address:#x} outside TCDM"
    )


class TCDM:
    """A flat, byte-addressed scratchpad with typed accessors."""

    def __init__(self, size: int = TCDM_SIZE):
        self.size = size
        self.data = bytearray(size)
        self._next_free = 8  # keep address 0 invalid

    # -- allocation ------------------------------------------------------------

    def allocate(self, num_bytes: int, align: int = 8) -> int:
        """Reserve ``num_bytes`` and return the base address."""
        base = (self._next_free + align - 1) // align * align
        if base + num_bytes > self.size:
            raise TCDMError(
                f"TCDM exhausted: need {num_bytes} bytes at {base}, "
                f"capacity {self.size}"
            )
        self._next_free = base + num_bytes
        return base

    def reset_allocator(self) -> None:
        """Forget all allocations (contents are preserved)."""
        self._next_free = 8

    # -- raw access ----------------------------------------------------------------

    def _check(self, address: int, width: int) -> None:
        if address < 0 or address + width > self.size:
            raise out_of_bounds(address, width)

    def load_bytes(self, address: int, width: int) -> bytes:
        """Read ``width`` raw bytes."""
        self._check(address, width)
        return bytes(self.data[address : address + width])

    def store_bytes(self, address: int, value: bytes) -> None:
        """Write raw bytes."""
        self._check(address, len(value))
        self.data[address : address + len(value)] = value

    # -- typed access ------------------------------------------------------------------

    def load_u32(self, address: int) -> int:
        """Read a 32-bit unsigned integer."""
        self._check(address, 4)
        return U32.unpack_from(self.data, address)[0]

    def store_u32(self, address: int, value: int) -> None:
        """Write a 32-bit unsigned integer."""
        self._check(address, 4)
        U32.pack_into(self.data, address, value & 0xFFFFFFFF)

    def load_u64(self, address: int) -> int:
        """Read a 64-bit unsigned integer (one FP register's bits)."""
        self._check(address, 8)
        return U64.unpack_from(self.data, address)[0]

    def store_u64(self, address: int, value: int) -> None:
        """Write a 64-bit unsigned integer."""
        self._check(address, 8)
        U64.pack_into(self.data, address, value & 0xFFFFFFFFFFFFFFFF)

    def load_f64(self, address: int) -> float:
        """Read an IEEE double."""
        self._check(address, 8)
        return F64.unpack_from(self.data, address)[0]

    def store_f64(self, address: int, value: float) -> None:
        """Write an IEEE double."""
        self._check(address, 8)
        F64.pack_into(self.data, address, value)

    def load_f32(self, address: int) -> float:
        """Read an IEEE single."""
        self._check(address, 4)
        return F32.unpack_from(self.data, address)[0]

    def store_f32(self, address: int, value: float) -> None:
        """Write an IEEE single."""
        self._check(address, 4)
        F32.pack_into(self.data, address, np.float32(value))

    # -- numpy bridging ---------------------------------------------------------------------

    def write_array(self, address: int, array: np.ndarray) -> None:
        """Copy a (C-contiguous) numpy array into the TCDM."""
        raw = np.ascontiguousarray(array).tobytes()
        self.store_bytes(address, raw)

    def read_array(
        self, address: int, shape: tuple[int, ...], dtype
    ) -> np.ndarray:
        """Copy a buffer out of the TCDM as a numpy array."""
        count = int(np.prod(shape)) if shape else 1
        width = np.dtype(dtype).itemsize * count
        raw = self.load_bytes(address, width)
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


__all__ = ["TCDM", "TCDMError", "TCDM_SIZE", "out_of_bounds"]
