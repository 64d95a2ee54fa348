"""Extension curves, boundary traces, derivatives, and ODE residuals.

Given modal data u on a spectrum (lambda_j) and a non-integer order s > 0,
the extension curve is

    P_s[u](y)_j = psi_s(sqrt(lambda_j) |y|) u_j,

a smooth even curve on the half line whose value at 0 recovers u, whose
weighted conormal limit recovers -d_s L^s u, and which is annihilated by
the ceil(s)-th power of the degenerate operator D_b + L.  Kernel modes of a
nonnegative operator ride along as constant-in-y components.

The Dirichlet trace is fitted to the known leading power laws on a small
geometric sample (the curve behaves like L + A y^{p1} + B y^{p2}), which
converges much faster than plain Richardson with guessed exponents.

Curve assembly is independent per (mode, grid point): one builder,
:func:`derivative_curve`, makes one profile call on the whole (mode,
abscissa) matrix, with kernel modes and zero coefficients masked out, for
every derivative order k >= 0, and :func:`extend` is its k = 0 case; the
ODE residual makes one call too, on the stencil windows of every (mode,
point) pair.  All results are deterministic pure functions of the inputs.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .numdiff import apply_db, power_fit_limit
from .special import (
    FracParams,
    _collapse,
    _taylor_coeff,
    _whole_order,
    psi,
    psi_deriv,
    trace_constant,
)
from .spectral import (
    ModalVector,
    Spectrum,
    _active_modes,
    _require_finite,
    _scaled_power,
    apply_power,
)

__all__ = [
    "CurveSamples",
    "ExtensionCurve",
    "default_grid",
    "extend",
    "extend_negative",
    "trace0",
    "conormal_trace",
    "derivative_curve",
    "taylor_expand",
    "ode_residual",
    "curve_to_csv",
    "curve_to_json",
]


@dataclass(frozen=True)
class CurveSamples:
    """Bare per-mode samples of a curve on a positive grid."""

    spectrum: Spectrum
    grid: np.ndarray
    values: np.ndarray  # shape (J, N)

    def column(self, i: int) -> ModalVector:
        return ModalVector(self.values[:, i].copy(), self.spectrum)


@dataclass(frozen=True)
class ExtensionCurve(CurveSamples):
    """Sampled extension curve together with its order data and source."""

    params: FracParams
    source: ModalVector


def default_grid(spectrum: Spectrum, n: int = 160) -> np.ndarray:
    """Geometric grid resolving both the boundary layer and the tail.

    Runs from 1e-4 / sqrt(lambda_max) out to 40 / sqrt(lambda_min) so the
    fastest mode is resolved near 0 and the slowest has decayed at the end.
    At least three points are required, as :func:`trace0` needs them.
    """
    if not (n >= 3 and float(n).is_integer()):
        raise ValueError(f"default_grid needs a whole n >= 3, got n={n}")
    lam = spectrum.positive
    if lam.size == 0:
        lo, hi = 1e-4, 40.0
    else:
        lo = 1e-4 / math.sqrt(lam[-1])
        hi = 40.0 / math.sqrt(lam[0])
    return _geometric_grid(lo, hi, n)


def _geometric_grid(lo, hi, n):
    """n points from lo to hi in geometric progression.  Where hi / lo
    leaves the double range, the inner points come from log space."""
    if hi / lo < math.inf:
        ratio = (hi / lo) ** (1.0 / (n - 1))
        return lo * ratio ** np.arange(n)
    step = (math.log(hi) - math.log(lo)) / (n - 1)
    grid = np.empty(n)
    grid[0], grid[-1] = lo, hi
    grid[1:-1] = np.exp(math.log(lo) + step * np.arange(1, n - 1))
    return grid


def _check_grid(grid):
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"extension grid must be a non-empty 1-D array, "
                         f"got shape {grid.shape}")
    # every comparison with NaN is false, so a NaN point fails here
    if not (grid[0] > 0 and np.all(np.diff(grid) > 0)):
        raise ValueError("grid must be strictly increasing and positive")
    return grid


def extend(u: ModalVector, s: float, grid=None) -> ExtensionCurve:
    """Extension curve of u: per-mode profile samples scaled by u_j.

    Kernel modes (zero eigenvalue) are carried as constant curves, so the
    value at 0 is u exactly and the transform is the identity on the kernel.
    The samples are those of :func:`derivative_curve` at k = 0.
    """
    return ExtensionCurve(**vars(derivative_curve(u, s, 0, grid)),
                          params=FracParams.from_order(s), source=u)


def extend_negative(zeta: ModalVector, s: float, grid=None) -> ExtensionCurve:
    """Negative-order transform: extend the (-s)-power preimage of zeta.

    Requires every kernel coefficient of zeta to vanish (the inverse power
    is undefined there); the Dirichlet trace of the result is L^{-s} zeta.
    """
    return extend(apply_power(zeta, -s), s, grid)


def _origin_exponents(s):
    # psi_s(y) = analytic even part + y^{2s} * (analytic even part)
    if s < 1.0:
        return (2.0 * s, 2.0)
    if s < 2.0:
        return (2.0, 2.0 * s)
    return (2.0, 4.0)


# below this order the leading exponent 2s of trace0's fit leaves the three
# lowest samples flat to rounding: the error grows like 1e-14/s relative to
# max|u| on the default grid (measured 7e-9 at 1e-6, 1e-5 at 1e-9)
_TRACE0_MIN_ORDER = 1e-6


def trace0(curve: ExtensionCurve) -> ModalVector:
    """Boundary value of the curve, extrapolated from the smallest abscissae.

    Fits value + A y^{p1} + B y^{p2} per mode on the three lowest grid
    points, with the exponents the curve's order fixes; the fit matrix
    depends only on the grid, so one solve serves every mode.  Bare
    :class:`CurveSamples` carry no order and are a TypeError.  The grid
    must reach below 1e-3 / sqrt(lambda_max), else the extrapolation is
    unreliable and a ValueError reports it; so does an order below 1e-6,
    whose leading exponent 2s is too flat to extrapolate.
    """
    if not isinstance(curve, ExtensionCurve):
        raise TypeError(f"trace0 needs an ExtensionCurve, whose order fixes "
                        f"the fit exponents; got {type(curve).__name__}")
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
    if s < _TRACE0_MIN_ORDER:
        raise ValueError(
            f"trace0 at s={s}: the order is below the floor "
            f"{_TRACE0_MIN_ORDER:g}, where the leading exponent 2s "
            f"leaves the samples too flat to extrapolate the limit")
    out = power_fit_limit(curve.grid[:3], curve.values[:, :3].T,
                          _origin_exponents(s))
    return ModalVector(out, curve.spectrum)


def conormal_trace(u: ModalVector, s: float) -> ModalVector:
    """Weighted Dirichlet-to-Neumann trace of the extension of u: -d_s L^s u.

    Per mode the collapsed conormal expression is exact at every y,

        y^b d/dy [ (D_b + lambda)^{floor(s)} psi_{s,lambda} ] u_j
            = -d_s lambda^s psi_{ceil(s)-s}(sqrt(lambda) y) u_j,

    and psi tends to 1 at the origin, so the limit is the closed form
    -d_s lambda_j^s u_j on the active modes, finite wherever the product
    is; a result beyond the double range is a ValueError naming it.
    ``fracext verify``'s ``dtn`` check measures the limit on the profile.
    """
    d_s = trace_constant(s)
    mask = _active_modes(u)
    out = np.zeros(u.spectrum.size)
    amp = _scaled_power(u.spectrum.eigenvalues[mask], s, u.coeffs[mask])
    with np.errstate(over="ignore"):  # d_s > 1 can carry amp past the range
        out[mask] = -d_s * amp
    _require_finite(f"conormal_trace(s={s})", out)
    return ModalVector(out, u.spectrum)


def derivative_curve(u: ModalVector, s: float, k: int, grid=None) -> CurveSamples:
    """k-th y-derivative of the extension curve, from the order recurrences.

    Per mode,  d^k/dy^k [psi_s(sqrt(lambda) y)] = lambda^{k/2}
    (d^k psi_s)(sqrt(lambda) y), with the derivative given in closed form by
    Beta-coefficient combinations of lower-order profiles.  Admissible k as
    in :func:`fracext.special.psi_deriv`, k = 0 being the curve itself; a
    value beyond the double range is a ValueError naming it.
    """
    grid = default_grid(u.spectrum) if grid is None else _check_grid(grid)
    mask = _active_modes(u)
    lam, amp = u.spectrum.eigenvalues[mask], u.coeffs[mask]
    # the profile and its derivatives are 0 where sqrt(lambda) y is inf,
    # and an amplitude past the range times that 0 is NaN, named below
    with np.errstate(over="ignore", invalid="ignore"):
        active = psi_deriv(s, np.sqrt(lam)[:, None] * grid, k)
        # at k = 0 the amplitude lam^0 u_j is u_j itself, bit for bit
        active *= (_scaled_power(lam, 0.5 * k, amp) if k else amp)[:, None]
    values = active  # the rows themselves when every mode is active
    if not mask.all():
        values = np.zeros((mask.size, grid.size))
        values[mask] = active
        if k == 0:  # kernel modes carry u_j, and 0 in every derivative
            kernel = u.spectrum.eigenvalues == 0.0
            values[kernel] = u.coeffs[kernel, None]
    if k:  # at k = 0, |psi| <= 1 times a finite u_j stays finite
        _require_finite(f"derivative_curve(s={s}, k={k})", values)
    return CurveSamples(spectrum=u.spectrum, grid=grid, values=values)


def taylor_expand(u: ModalVector, s: float, k: int) -> list:
    """Coefficients T_0..T_k of the even Taylor expansion at the boundary:

        P_s[u](y) = sum_m T_m y^{2m} + o(y^{2k}),
        T_0 = u,   T_m = (-1)^m Gamma(s-m) / (Gamma(s) 2^{2m} m!) L^m u.

    Requires s > 1 and a whole k <= floor(s).
    """
    params = FracParams.from_order(s)
    if params.floor_s < 1:
        raise ValueError(f"taylor_expand needs s > 1, got s={s}")
    k = _whole_order(k, "expansion")
    if not 1 <= k <= params.floor_s:
        raise ValueError(f"expansion order k={k} outside 1..floor(s)")
    terms = [ModalVector(u.coeffs.copy(), u.spectrum)]
    for m in range(1, k + 1):
        powered = apply_power(u, float(m))
        terms.append(ModalVector(_taylor_coeff(s, m) * powered.coeffs,
                                 u.spectrum))
    return terms


def ode_residual(u: ModalVector, s: float, y):
    """Residual norm of the order-ceil(s) extension ODE at interior points.

    The first floor(s) operator powers collapse analytically,
    (D_b + lam)^{floor(s)} psi_{s,lam} = lam^{floor(s)} (d_s/d_{s-floor(s)})
    psi_{s-floor(s),lam}, and one 8th-order stencil applies the last factor
    to every (mode, point) pair at once.  ``y`` is one point (float result)
    or an array of them (the norm of the modal residual at each point).
    """
    params = FracParams.from_order(s)
    y = np.asarray(y, dtype=float)
    if not np.all((y > 0.05) & (y < math.inf)):
        raise ValueError(f"ode_residual needs finite y > 0.05, got y={y}")
    mask = _active_modes(u)
    lam = u.spectrum.eigenvalues[mask].reshape((-1,) + (1,) * y.ndim)
    root = np.sqrt(lam)
    with np.errstate(over="ignore"):  # lam^floor(s) at large orders
        coef = _collapse(s, lam, params.floor_s)
    _require_finite(f"ode_residual(s={s})", coef)
    coef = np.asarray(coef)[..., None]  # over the stencil window axis
    order = s - params.floor_s
    # step size: half-integer orders collapse to elementary exponential
    # profiles (derivatives bounded), so a wide stencil minimises roundoff;
    # otherwise the high derivatives grow like z^{2 frac(s) - k} toward the
    # origin and the stencil must both shrink and keep its distance
    scale = np.maximum(1.0, root / 2.0)
    if abs(order - 0.5) < 1e-12:
        h = np.minimum(0.04, y / 4.2) / scale
    else:
        h = np.minimum(0.01, y / 60.0) / scale
    res = apply_db(lambda t: coef * psi(order, root[..., None] * t),
                   y, params.b, lam, h=h)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(res * u.coeffs[mask].reshape(lam.shape),
                               axis=0)
    _require_finite(f"ode_residual(s={s})", norms)
    return float(norms) if y.ndim == 0 else norms


# ---------------------------------------------------------------------------
# serialisation


def _fmt(x):
    return f"{float(x):.17g}"


def curve_to_csv(curve: CurveSamples) -> str:
    """CSV dump: metadata comment, header y,mode_1..mode_J, one row per point."""
    buf = io.StringIO()
    if isinstance(curve, ExtensionCurve):
        p = curve.params
        buf.write(f"# s={_fmt(p.s)}, b={_fmt(p.b)}, d_s={_fmt(p.d_s)}\n")
    cols = ",".join(f"mode_{j + 1}" for j in range(curve.spectrum.size))
    buf.write(f"y,{cols}\n")
    np.savetxt(buf, np.column_stack((curve.grid, curve.values.T)),
               fmt="%.17g", delimiter=",")
    return buf.getvalue()


def curve_to_json(curve: CurveSamples) -> str:
    """JSON dump {"s":..,"b":..,"grid":[..],"values":[[..]]} (17 sig digits)."""
    parts = []
    if isinstance(curve, ExtensionCurve):
        parts.append(f'"s": {_fmt(curve.params.s)}')
        parts.append(f'"b": {_fmt(curve.params.b)}')
    # one '%' per row: the same 17 significant digits as _fmt
    row = "[" + ", ".join(["%.17g"] * curve.grid.size) + "]"
    parts.append('"grid": ' + row % tuple(curve.grid.tolist()))
    rows = ", ".join(row % tuple(r) for r in curve.values.tolist())
    parts.append(f'"values": [{rows}]')
    return "{" + ", ".join(parts) + "}"
