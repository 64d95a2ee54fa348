"""Finite-difference stencils and power-law limit extrapolation.

These helpers back the verification side of the library.  Boundary
limits are extracted by fitting the known leading power laws, and the
degenerate second-order operator

    D_b f = -f'' - (b/y) f'

is applied numerically, as (D_b + lam)^m, by :func:`apply_db` with one
pair of 8th-order central stencils (``_D1``, ``_D2``, offsets -4..4): one
profile call on the stencil windows of all points, one sliding-window
product per power.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "power_fit_limit",
    "apply_db",
]

# 8th-order central-difference weights on offsets -4..4 for the 1st and 2nd
# derivative
_D1 = np.array([3.0, -32.0, 168.0, -672.0, 0.0,
                672.0, -168.0, 32.0, -3.0]) / 840.0
_D2 = np.array([-9.0, 128.0, -1008.0, 8064.0, -14350.0,
                8064.0, -1008.0, 128.0, -9.0]) / 5040.0


def power_fit_limit(ys, vals, exponents):
    """Limit of g(y) as y -> 0+ given g(y) = L + sum_i A_i y^{p_i} + o().

    ``ys`` must contain exactly ``len(exponents) + 1`` distinct positive
    abscissae; the function solves the small Vandermonde-type system for L.
    ``vals`` may hold one column of samples per curve, shape (len(ys), J);
    the limits of all J curves then come back as an array.
    """
    ys = np.asarray(ys, dtype=float)
    vals = np.asarray(vals, dtype=float)
    exponents = list(exponents)
    if ys.size != len(exponents) + 1:
        raise ValueError("need one sample per fitted exponent plus one")
    # columns scaled to 1 at the first abscissa: the limit is unchanged,
    # while unscaled columns at abscissae near 1e-6 give condition ~1e13
    cols = [np.ones_like(ys)] + [(ys / ys[0]) ** p for p in exponents]
    m = np.column_stack(cols)
    # L is the first row of m^{-1} applied to the samples: one solve serves
    # every curve, and each limit is the same weighted sum however many
    # curves share the call
    weights = np.linalg.solve(m.T, np.eye(ys.size)[0])
    limit = sum(w * v for w, v in zip(weights, vals))
    return float(limit) if vals.ndim == 1 else limit


def apply_db(f, y, b, lam=0.0, times=1, h=None):
    """(D_b + lam)^times f at y > 0 by nested 8th-order central differences.

    ``f`` must accept an array: it is called once, on the windows
    y + k h, |k| <= 4 times, along a new last axis, which must stay on the
    positive half line.  ``y``, ``h`` and ``lam`` broadcast together; a
    scalar result comes back as a float.  Noise grows like h^{-2 times}, so
    nested powers default to the wider step min(0.1, y/(4 times + 2)), a
    single one to min(0.04, y/5).
    """
    if times < 1:
        raise ValueError("times must be >= 1")
    y = np.asarray(y, dtype=float)
    if h is None:
        h = (np.minimum(0.04, y / 5.0) if times == 1
             else np.minimum(0.1, y / (4 * times + 2)))
    if np.any(y - 4 * times * h <= 0.0):
        raise ValueError("stencil window leaves the positive half line")
    h = np.asarray(h, dtype=float)[..., None]
    lam = np.asarray(lam, dtype=float)[..., None]
    ts = y[..., None] + np.arange(-4 * times, 4 * times + 1) * h
    vals = np.asarray(f(ts), dtype=float)
    for _ in range(times):
        window = sliding_window_view(vals, 9, axis=-1)
        d2 = (window @ _D2) / h ** 2
        d1 = (window @ _D1) / h
        ts = ts[..., 4:-4]
        vals = -d2 - b * d1 / ts + lam * vals[..., 4:-4]
    out = vals[..., 0]
    return float(out) if out.ndim == 0 else out
