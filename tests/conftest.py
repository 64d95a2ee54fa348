"""Fixtures shared by the test modules."""

import pytest

from fracext import special


@pytest.fixture
def kernel_calls(monkeypatch):
    """Sizes of the profile kernel evaluations, from a cold memory on.

    ``special._climb`` is the one place that evaluates the kernel pair: a
    profile call that the memory serves does not reach it."""
    sizes = []
    climb = special._climb

    def counted(s, y):
        sizes.append(y.size)
        return climb(s, y)

    monkeypatch.setattr(special, "_companion", None)
    monkeypatch.setattr(special, "_climb", counted)
    return sizes
