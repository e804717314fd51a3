"""Shared test fixtures."""

import pytest

from repro.kernels.builders import KERNEL_BUILDERS


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
