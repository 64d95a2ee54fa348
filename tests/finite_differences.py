"""Finite-difference oracle of the tests, on the stencils of ``apply_db``."""

import numpy as np

from fracext.numdiff import _D1, _D2


def central_derivative(f, y, k=1, h=None):
    """k-th derivative (k = 1 or 2) of f at y by the 8th-order stencil.

    ``f`` must accept an array: it is called once on all stencil points.
    The default step balances truncation against roundoff for smooth
    order-one profiles; for y close to 0 it shrinks so the stencil stays on
    the positive half line.
    """
    if k not in (1, 2):
        raise ValueError("central_derivative supports k = 1 or 2 only")
    weights = _D1 if k == 1 else _D2
    if h is None:
        h = max(1e-4, 1e-3 * abs(y))
    if y - 4 * h <= 0.0 < y:
        h = y / 5
    vals = np.asarray(f(y + np.arange(-4, 5) * h), dtype=float)
    return float(weights @ vals) / h ** k
