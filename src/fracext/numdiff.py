"""Finite-difference stencils and power-law limit extrapolation.

These helpers back the verification side of the library: closed-form
derivative formulas are cross-checked against central differences, boundary
limits are extracted by fitting the known leading power laws, and the
degenerate second-order operator

    D_b f = -f'' - (b/y) f'

is applied numerically (possibly several times) to sampled profiles.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "central_derivative",
    "first_derivative_richardson",
    "power_fit_limit",
    "apply_db",
    "apply_db_power",
]

# central-difference weights on offsets -p..p for the 1st and 2nd derivative
_D1_WEIGHTS = {
    4: np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0,
    6: np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0,
    8: np.array([3.0, -32.0, 168.0, -672.0, 0.0,
                 672.0, -168.0, 32.0, -3.0]) / 840.0,
}
_D2_WEIGHTS = {
    4: np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0,
    6: np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0,
    8: np.array([-9.0, 128.0, -1008.0, 8064.0, -14350.0,
                 8064.0, -1008.0, 128.0, -9.0]) / 5040.0,
}


def central_derivative(f, y, k=1, accuracy=8, h=None):
    """k-th derivative (k = 1 or 2) of f at y by a central stencil.

    ``f`` must accept an array: it is called once on all stencil points.
    The default step balances truncation against roundoff for smooth
    order-one profiles; for y close to 0 it shrinks so the stencil stays on
    the positive half line.
    """
    if k == 1:
        weights = _D1_WEIGHTS[accuracy]
    elif k == 2:
        weights = _D2_WEIGHTS[accuracy]
    else:
        raise ValueError("central_derivative supports k = 1 or 2 only")
    half = accuracy // 2
    if h is None:
        h = max(1e-4, 1e-3 * abs(y))
    if y - half * h <= 0.0 < y:
        h = y / (half + 1)
    vals = np.asarray(f(y + np.arange(-half, half + 1) * h), dtype=float)
    return float(weights @ vals) / h ** k


def first_derivative_richardson(f, y, h=None):
    """4th-order central first derivative with one Richardson level.

    Step h = max(1e-4, 1e-3 * y) unless given; the extrapolation removes the
    leading h^4 error, leaving ~h^6.
    """
    if h is None:
        h = max(1e-4, 1e-3 * abs(y))
    d_h = central_derivative(f, y, k=1, accuracy=4, h=h)
    d_h2 = central_derivative(f, y, k=1, accuracy=4, h=0.5 * h)
    return (16.0 * d_h2 - d_h) / 15.0


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


def apply_db(f, y, b, lam=0.0, accuracy=8, h=None):
    """(D_b + lam) f at y > 0, with derivatives by central differences."""
    if y <= 0.0:
        raise ValueError("apply_db needs y > 0")
    half = accuracy // 2
    if h is None:
        h = min(0.04, y / (half + 1))
    d2 = central_derivative(f, y, k=2, accuracy=accuracy, h=h)
    d1 = central_derivative(f, y, k=1, accuracy=accuracy, h=h)
    return -d2 - b * d1 / y + lam * f(y)


def apply_db_power(f, y, b, lam, times, accuracy=8, h=None):
    """(D_b + lam)^times f at y > 0, fully by nested finite differences.

    Each application consumes half a stencil width on both sides, so the
    sampled window is (y - times*half*h, y + times*half*h) and must stay on
    the positive axis.  Noise grows like h^{-2*times}; this path exists for
    cross-validation, not production accuracy.  ``f`` must accept an
    array: it is called once on the whole window.
    """
    if times < 1:
        raise ValueError("times must be >= 1")
    if y <= 0.0:
        raise ValueError("apply_db_power needs y > 0")
    w1 = _D1_WEIGHTS[accuracy]
    w2 = _D2_WEIGHTS[accuracy]
    half = accuracy // 2
    if h is None:
        # evaluation noise amplifies like h^{-2 times}, so prefer a wide
        # stencil; truncation stays negligible for the decaying profiles
        # this path is used on
        h = min(0.1, y / (times * half + 2))
    if y - times * half * h <= 0.0:
        raise ValueError("stencil window leaves the positive half line")
    offs = np.arange(-times * half, times * half + 1)
    ts = y + offs * h
    vals = np.asarray(f(ts), dtype=float)
    for _ in range(times):
        core = slice(half, vals.size - half)
        d1 = np.correlate(vals, w1, "valid") / h
        d2 = np.correlate(vals, w2, "valid") / (h * h)
        ts_in = ts[core]
        vals = -d2 - b * d1 / ts_in + lam * vals[core]
        ts = ts_in
    assert vals.size == 1
    return float(vals[0])
