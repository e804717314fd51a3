"""Shared test fixtures."""

import pytest

from repro.kernels.builders import KERNEL_BUILDERS
from repro.snitch import engine


@pytest.fixture
def break_reference(monkeypatch):
    """``break_reference(kernel)`` makes a registered kernel's numpy
    oracle expect one more than every output the kernel computes, so
    any validated run of it mismatches."""

    def apply(kernel: str) -> None:
        builder, arity = KERNEL_BUILDERS[kernel]

        def broken(*sizes):
            module, spec = builder(*sizes)
            reference = spec.reference
            spec.reference = lambda *args: [
                None if want is None else want + 1.0
                for want in reference(*args)
            ]
            return module, spec

        monkeypatch.setitem(KERNEL_BUILDERS, kernel, (broken, arity))

    return apply


@pytest.fixture
def decodes(monkeypatch):
    """The programs the simulator's engine decodes from now on, one
    entry per decode (its ``_decode_miss`` calls)."""
    calls = []
    miss = engine._decode_miss

    def spy(program):
        calls.append(program)
        return miss(program)

    monkeypatch.setattr(engine, "_decode_miss", spy)
    return calls
