"""Reference formulas of the modal and curve layers, kept as the numpy
construction the library used before its bookkeeping was trimmed.

Each reference repeats the library's arithmetic operation for operation,
with every mask, reduction and check made on every call, so the library's
results must carry the same bits, and its refusals the same messages.
"""

import math
import warnings

import numpy as np
from hypothesis import strategies as st

from fracext import special
from fracext.extension import _origin_exponents, default_grid
from fracext.special import FracParams
from fracext.spectral import ModalVector, explicit_spectrum

_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


def outcome(call):
    """What ``call()`` gives: its type, shape and bits, or the type and
    message of the ValueError it raises, with the messages of the warnings
    it emits on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = call()
        except ValueError as exc:
            result = ("refused", type(exc).__name__, str(exc))
        else:
            result = ("value", type(got).__name__, np.shape(got), bits(got))
    return result + (sorted({str(w.message) for w in caught}),)


def scaled_power_reference(lam, t, c):
    """lam^t c, with the far-range mask built on every call."""
    with np.errstate(over="ignore", under="ignore"):
        w = lam ** t
        out = w * c
        far = ~((w >= _TINY) & (w <= _HUGE))
        if far.any():
            out[far] = np.sign(c[far]) * np.exp(
                t * np.log(lam[far]) + np.log(np.abs(c[far])))
    return out


@st.composite
def modal_vectors(draw):
    """Up to two kernel modes, eigenvalues from 1e-300 to 1e300 and
    coefficients of any size, many of them zero, or every one zero."""
    kernel = draw(st.integers(0, 2))
    exponents = draw(st.lists(st.floats(-300.0, 300.0),
                              min_size=0 if kernel else 1, max_size=7))
    lam = np.concatenate((np.zeros(kernel), 10.0 ** np.sort(exponents)))
    coeffs = draw(st.lists(st.just(0.0) | st.floats(-1e300, 1e300),
                           min_size=lam.size, max_size=lam.size))
    if draw(st.booleans()):
        coeffs = [0.0] * lam.size
    return ModalVector(np.array(coeffs), explicit_spectrum(lam))


# ---------------------------------------------------------------------------
# the curve layer


def psi_deriv_reference(s, y, order):
    """psi_deriv: both abscissa refusals by full scans, then the binomial
    sum over psi and the first-derivative profile."""
    s = special._check_noninteger_order(s)
    order = special._whole_order(order, "derivative")
    fl = math.floor(s)
    m, r = divmod(order, 2)
    admissible = 0 <= order <= 1 or (1 < order and m <= fl and not (
        order == 2 * fl + 1 and s - fl < 0.5))
    if not admissible:
        raise ValueError(
            f"derivative order {order} is not admissible at s={s}: need 0 "
            f"or 1, or order // 2 <= floor(s) with frac(s) >= 1/2 at order "
            f"2 floor(s) + 1")
    y = np.asarray(y, dtype=float)
    if np.any(y < 0.0):
        raise ValueError(f"psi_deriv requires y >= 0, got min {np.min(y)}")
    if order == 1 and s < 0.5 and np.any(y == 0.0):
        raise ValueError(f"psi_deriv(s={s}, k=1) is unbounded at y = 0: "
                         f"psi_s'(y) ~ -d_s y^(2s-1) below s = 1/2")
    if y.ndim == 0:
        y = float(y)
    f = special._psi_first_deriv if r else special.psi
    total = f(s, y)
    for ell in range(1, m + 1):
        total = total + (math.comb(m, ell) * (-1.0) ** ell
                         * special._gamma_coeff(s, ell) * f(s - ell, y))
    return total


def derivative_curve_reference(u, s, k, grid):
    """(grid, values) of derivative_curve: the grid check on the default
    grid too, lam^{k/2} c at every k and the finiteness scan at every k."""
    if grid is None:
        grid = default_grid(u.spectrum)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"extension grid must be a non-empty 1-D array, "
                         f"got shape {grid.shape}")
    if not (grid[0] > 0 and np.all(np.diff(grid) > 0)):
        raise ValueError("grid must be strictly increasing and positive")
    eig, c = u.spectrum.eigenvalues, u.coeffs
    mask = (eig != 0.0) & (c != 0.0)
    lam = eig[mask]
    with np.errstate(over="ignore", invalid="ignore"):
        active = psi_deriv_reference(s, np.sqrt(lam)[:, None] * grid, k)
        active *= scaled_power_reference(lam, 0.5 * k, c[mask])[:, None]
    values = np.zeros((eig.size, grid.size))
    values[mask] = active
    if k == 0:
        kernel = eig == 0.0
        values[kernel] = c[kernel, None]
    if not np.isfinite(values).all():
        raise ValueError(f"derivative_curve(s={s}, k={k}) overflows: the "
                         f"result must be finite")
    return grid, values


def power_fit_limit_reference(ys, vals, exponents):
    """The fit matrix through column_stack of a list of columns, refused
    where a column leaves the double range."""
    with np.errstate(over="ignore"):
        cols = [np.ones_like(ys)] + [(ys / ys[0]) ** p for p in exponents]
    m = np.column_stack(cols)
    if not np.isfinite(m).all():
        raise ValueError(f"power_fit_limit: the abscissae {ys.tolist()} lie "
                         f"too far apart: (y/y0)^p leaves the double range")
    weights = np.linalg.solve(m.T, np.eye(ys.size)[0])
    return sum(w * v for w, v in zip(weights, vals))


def trace0_reference(curve):
    """trace0's checks and fit on the three lowest abscissae."""
    lam = curve.spectrum.positive
    lam_max = lam[-1] if lam.size else 1.0
    reach = 1e-3 / math.sqrt(lam_max)
    if curve.grid[0] > reach:
        raise ValueError(
            f"grid too coarse near 0 for trace extrapolation: first point "
            f"{curve.grid[0]:.3e} exceeds {reach:.3e}")
    if curve.grid.size < 3:
        raise ValueError("trace extrapolation needs at least three points")
    s = curve.params.s
    if s < 1e-6:
        raise ValueError(
            f"trace0 at s={s}: the order is below the floor 1e-06, where "
            f"the leading exponent 2s leaves the samples too flat to "
            f"extrapolate the limit")
    out = power_fit_limit_reference(curve.grid[:3], curve.values[:, :3].T,
                                    _origin_exponents(s))
    return ModalVector(out, curve.spectrum).coeffs


def conormal_trace_reference(lam, c, s):
    """-d_s lam^s c on the active modes, d_s from a whole FracParams."""
    mask = (lam != 0.0) & (c != 0.0)
    out = np.zeros(c.size)
    amp = scaled_power_reference(lam[mask], s, c[mask])
    with np.errstate(over="ignore"):
        out[mask] = -FracParams.from_order(s).d_s * amp
    if not np.isfinite(out).all():
        raise ValueError(f"conormal_trace(s={s}) overflows: the result "
                         f"must be finite")
    return out


# ---------------------------------------------------------------------------
# the set-up of the kernel's routes


def temme_table_reference(mu):
    """Temme's table by rows of 6-tuples, each formed on its own."""
    t_max = 0.25 * special._ROUTE_TOPS[0] ** 2
    ff, fp, fq = 1.0 / (1.0 - mu * mu), 0.0, 0.0
    pp, qq = 1.0 / (1.0 - mu), 1.0 / (1.0 + mu)
    rows = [(0.0, 0.0, 0.0, 0.0, 1.0, 0.0)]
    c, w, k = 1.0, 0.25, 1
    while k * t_max ** (k - abs(mu)) * c * c >= special._SERIES_EPS:
        rows.append((w * ff, w * fp, w * fq,
                     -w * k * ff, w * (pp - k * fp), -w * k * fq))
        k += 1
        den = k * k - mu * mu
        ff, fp, fq = k * ff / den, (k * fp + pp) / den, (k * fq + qq) / den
        pp /= k - mu
        qq /= k + mu
        c /= k
        w /= 4 * k
    return np.array(rows).reshape(-1, 2, 3)


def hankel_rows_reference(mu, scale):
    """The Hankel rows by a cumulative product over numpy columns."""
    terms = special._HANKEL_TERMS
    odd2 = ((2.0 * np.arange(1, terms) - 1.0) ** 2)[:, None]
    eight_k = 8.0 * np.arange(1, terms)[:, None]
    table = np.ones((terms, 2))
    nu = np.array((mu, mu + 1.0))
    np.cumprod((4.0 * nu * nu - odd2) / eight_k, axis=0, out=table[1:])
    table *= scale
    return table


def trapezoid_columns_reference(mu, bucket, scale):
    """The cosh columns of one bucket."""
    t, w, _ = special._BUCKETS[bucket]
    cols = np.cosh(np.multiply.outer(t, (mu, mu + 1.0)))
    cols *= w
    cols *= scale
    return cols
