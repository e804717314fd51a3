"""The ``stream`` dialect: typed handles to hardware data streams.

A ``!stream.readable<T>`` value stands for a configured stream semantic
register that produces one ``T`` per read (paper Figure 6).  The
``snitch_stream`` level binds ``T`` to a stream register type.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.attributes import TypeAttribute
from ..ir.irdl import Dialect


@dataclass(frozen=True)
class ReadableStreamType(TypeAttribute):
    """A stream that produces elements of ``element_type``."""

    element_type: TypeAttribute

    def __str__(self) -> str:
        return f"!stream.readable<{self.element_type}>"


@dataclass(frozen=True)
class WritableStreamType(TypeAttribute):
    """A stream that consumes elements of ``element_type``."""

    element_type: TypeAttribute

    def __str__(self) -> str:
        return f"!stream.writable<{self.element_type}>"


STREAM = Dialect(
    "stream",
    attrs=[ReadableStreamType, WritableStreamType],
    doc="typed handles to hardware data streams",
)


__all__ = ["ReadableStreamType", "WritableStreamType", "STREAM"]
