"""Extension curves, boundary traces, derivatives, and ODE residuals.

Given modal data u on a spectrum (lambda_j) and a non-integer order s > 0,
the extension curve is

    P_s[u](y)_j = psi_s(sqrt(lambda_j) |y|) u_j,

a smooth even curve on the half line whose value at 0 recovers u, whose
weighted conormal limit recovers -d_s L^s u, and which is annihilated by
the ceil(s)-th power of the degenerate operator D_b + L.  Kernel modes of a
nonnegative operator ride along as constant-in-y components.

Limits at y = 0 are extracted by fitting the known leading power laws on a
small geometric sample (the curve behaves like L + A y^{p1} + B y^{p2}),
which converges much faster than plain Richardson with guessed exponents.

Curve assembly is independent per (mode, grid point): every routine makes
one profile call on the whole (mode, abscissa) matrix, with kernel modes
and zero coefficients masked out; the ODE residual makes one too, on the
stencil windows of every (mode, point) pair.  All results are deterministic
pure functions of the inputs.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .numdiff import apply_db, power_fit_limit
from .special import (
    FracParams,
    _apply_operator_power,
    _taylor_coeff,
    psi,
    psi_deriv,
)
from .spectral import ModalVector, Spectrum, _active_modes, apply_power

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

    params: FracParams = None
    source: ModalVector = None


def default_grid(spectrum: Spectrum, n: int = 160) -> np.ndarray:
    """Geometric grid resolving both the boundary layer and the tail.

    Runs from 1e-4 / sqrt(lambda_max) out to 40 / sqrt(lambda_min) so the
    fastest mode is resolved near 0 and the slowest has decayed at the end.
    At least three points are required, as :func:`trace0` needs them.
    """
    if n < 3:
        raise ValueError(f"default_grid needs n >= 3 points, got n={n}")
    lam = spectrum.positive
    if lam.size == 0:
        lo, hi = 1e-4, 40.0
    else:
        lo = 1e-4 / math.sqrt(lam[-1])
        hi = 40.0 / math.sqrt(lam[0])
    ratio = (hi / lo) ** (1.0 / (n - 1))
    return lo * ratio ** np.arange(n)


def _check_grid(grid):
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("extension grid is empty")
    if grid[0] <= 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing and positive")
    return grid


def _active_roots(u):
    """Active-mode mask of u and the square roots of its eigenvalues."""
    mask = _active_modes(u)
    return mask, np.sqrt(u.spectrum.eigenvalues[mask])[:, None]


def extend(u: ModalVector, s: float, grid=None) -> ExtensionCurve:
    """Extension curve of u: per-mode profile samples scaled by u_j.

    Kernel modes (zero eigenvalue) are carried as constant curves, so the
    value at 0 is u exactly and the transform is the identity on the kernel.
    """
    params = FracParams.from_order(s)
    if grid is None:
        grid = default_grid(u.spectrum)
    grid = _check_grid(grid)
    values = np.zeros((u.spectrum.size, grid.size))
    kernel = u.spectrum.eigenvalues == 0.0
    values[kernel] = u.coeffs[kernel, None]
    mask, root = _active_roots(u)
    values[mask] = u.coeffs[mask, None] * psi(s, root * grid)
    return ExtensionCurve(spectrum=u.spectrum, grid=grid, values=values,
                          params=params, source=u)


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


def trace0(curve: CurveSamples) -> ModalVector:
    """Boundary value of the curve, extrapolated from the smallest abscissae.

    Fits value + A y^{p1} + B y^{p2} per mode on the three lowest grid
    points; the fit matrix depends only on the grid, so one solve serves
    every mode.  The grid must reach below 1e-3 / sqrt(lambda_max), else
    the extrapolation is unreliable and a ValueError reports it.
    """
    lam = curve.spectrum.positive
    lam_max = lam[-1] if lam.size else 1.0
    reach = 1e-3 / math.sqrt(lam_max)
    if curve.grid[0] > reach:
        raise ValueError(
            f"grid too coarse near 0 for trace extrapolation: first point "
            f"{curve.grid[0]:.3e} exceeds {reach:.3e}")
    if curve.grid.size < 3:
        raise ValueError("trace extrapolation needs at least three points")
    if isinstance(curve, ExtensionCurve) and curve.params is not None:
        exponents = _origin_exponents(curve.params.s)
    else:
        exponents = (2.0, 4.0)
    out = power_fit_limit(curve.grid[:3], curve.values[:, :3].T, exponents)
    return ModalVector(out, curve.spectrum)


def conormal_trace(u: ModalVector, s: float) -> ModalVector:
    """Weighted Dirichlet-to-Neumann trace of the extension of u.

    Evaluates the collapsed conormal expression per mode,

        y^b d/dy [ (D_b + lambda)^{floor(s)} psi_{s,lambda} ] u_j
            = -d_s lambda^s psi_{ceil(s)-s}(sqrt(lambda) y) u_j,

    on a small geometric y-sequence and extrapolates y -> 0 with the known
    leading exponents.  The result equals -d_s L^s u (coefficients of an
    order--s functional).  Within 1e-9 below an integer order the leading
    exponent 2 (ceil(s) - s) leaves the samples flat to rounding, so the
    limit cannot be extrapolated and a ValueError says so.
    """
    params = FracParams.from_order(s)
    lam_pos = u.spectrum.positive
    lam_max = lam_pos[-1] if lam_pos.size else 1.0
    y0 = 2e-3 / math.sqrt(lam_max)
    s_rem = params.ceil_s - s  # in (0, 1)
    if s_rem < 1e-9:
        raise ValueError(
            f"conormal trace at s={s}: ceil(s) - s = {s_rem:.1e} is below "
            f"1e-9, too close to an integer to extrapolate the limit")
    exponents = _origin_exponents(s_rem)
    ys = np.array([y0, 0.5 * y0, 0.25 * y0])
    mask, root = _active_roots(u)
    amp = -params.d_s * u.spectrum.eigenvalues[mask] ** s * u.coeffs[mask]
    vals = amp[:, None] * psi(s_rem, root * ys)
    out = np.zeros(u.spectrum.size)
    out[mask] = power_fit_limit(ys, vals.T, exponents)
    return ModalVector(out, u.spectrum, order=-s)


def derivative_curve(u: ModalVector, s: float, k: int, grid=None) -> CurveSamples:
    """k-th y-derivative of the extension curve, from the order recurrences.

    Per mode,  d^k/dy^k [psi_s(sqrt(lambda) y)] = lambda^{k/2}
    (d^k psi_s)(sqrt(lambda) y), with the derivative given in closed form by
    Beta-coefficient combinations of lower-order profiles.  Admissible k as
    in :func:`fracext.special.psi_deriv`.
    """
    FracParams.from_order(s)
    if grid is None:
        grid = default_grid(u.spectrum)
    grid = _check_grid(grid)
    values = np.zeros((u.spectrum.size, grid.size))
    mask, root = _active_roots(u)
    amp = u.coeffs[mask] * u.spectrum.eigenvalues[mask] ** (0.5 * k)
    values[mask] = amp[:, None] * psi_deriv(s, root * grid, k)
    return CurveSamples(spectrum=u.spectrum, grid=grid, values=values)


def taylor_expand(u: ModalVector, s: float, k: int) -> list:
    """Coefficients T_0..T_k of the even Taylor expansion at the boundary:

        P_s[u](y) = sum_m T_m y^{2m} + o(y^{2k}),
        T_0 = u,   T_m = (-1)^m Gamma(s-m) / (Gamma(s) 2^{2m} m!) L^m u.

    Requires s > 1 and k <= floor(s).
    """
    params = FracParams.from_order(s)
    if params.floor_s < 1:
        raise ValueError(f"taylor_expand needs s > 1, got s={s}")
    if not 1 <= k <= params.floor_s:
        raise ValueError(f"expansion order k={k} outside 1..floor(s)")
    terms = [ModalVector(u.coeffs.copy(), u.spectrum, u.order)]
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
    if np.any(y <= 0.05):
        raise ValueError("ode_residual needs y bounded away from 0")
    mask = _active_modes(u)
    lam = u.spectrum.eigenvalues[mask].reshape((-1,) + (1,) * y.ndim)
    root = np.sqrt(lam)
    term = _apply_operator_power(s, lam, params.b, params.floor_s)
    coef = np.asarray(term.coef)[..., None]  # over the stencil window axis
    # step size: half-integer orders collapse to elementary exponential
    # profiles (derivatives bounded), so a wide stencil minimises roundoff;
    # otherwise the high derivatives grow like z^{2 frac(s) - k} toward the
    # origin and the stencil must both shrink and keep its distance
    scale = np.maximum(1.0, root / 2.0)
    if abs(term.order - 0.5) < 1e-12:
        h = np.minimum(0.04, y / 4.2) / scale
    else:
        h = np.minimum(0.01, y / 60.0) / scale
    res = apply_db(lambda t: coef * psi(term.order, root[..., None] * t),
                   y, params.b, lam, h=h)
    norms = np.linalg.norm(res * u.coeffs[mask].reshape(lam.shape), axis=0)
    return float(norms) if y.ndim == 0 else norms


# ---------------------------------------------------------------------------
# serialisation


def _fmt(x):
    return f"{float(x):.17g}"


def curve_to_csv(curve: CurveSamples, path=None) -> str:
    """CSV dump: metadata comment, header y,mode_1..mode_J, one row per point."""
    buf = io.StringIO()
    if isinstance(curve, ExtensionCurve) and curve.params is not None:
        p = curve.params
        buf.write(f"# s={_fmt(p.s)}, b={_fmt(p.b)}, d_s={_fmt(p.d_s)}\n")
    cols = ",".join(f"mode_{j + 1}" for j in range(curve.spectrum.size))
    buf.write(f"y,{cols}\n")
    for i, y in enumerate(curve.grid):
        row = ",".join(_fmt(v) for v in curve.values[:, i])
        buf.write(f"{_fmt(y)},{row}\n")
    text = buf.getvalue()
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def curve_to_json(curve: CurveSamples, path=None) -> str:
    """JSON dump {"s":..,"b":..,"grid":[..],"values":[[..]]} (17 sig digits)."""
    parts = []
    if isinstance(curve, ExtensionCurve) and curve.params is not None:
        parts.append(f'"s": {_fmt(curve.params.s)}')
        parts.append(f'"b": {_fmt(curve.params.b)}')
    grid = ", ".join(_fmt(y) for y in curve.grid)
    parts.append(f'"grid": [{grid}]')
    rows = ", ".join(
        "[" + ", ".join(_fmt(v) for v in curve.values[j]) + "]"
        for j in range(curve.spectrum.size))
    parts.append(f'"values": [{rows}]')
    text = "{" + ", ".join(parts) + "}"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
