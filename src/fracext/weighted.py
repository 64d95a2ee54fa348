"""Weighted half-line quadrature, mode energies, and the identity suite.

All integrals here carry a power weight y^beta with beta > -1; every
profile in scope is even, so integrals over the whole line are twice the
half-line value.  :func:`power_weighted_integral` is the one integrator.
It runs on geometric cells: the first cell [0, a] absorbs y^beta exactly
through a Gauss-Jacobi rule (no sample at y = 0), and the cells growing
geometrically away from it use Gauss-Legendre with the weight evaluated.
The log-transformed cells (y = e^t, composite Gauss panels in t) are an
independent rule kept for the tests to cross-check the geometric one.

On top of the rule sit the quadratic energies

    |psi|^2_{lam, H^{k;b}} = | (D_b+lam)^{k/2} psi |^2_{L^{2;b}}          (k even)
                           = | d/dy (D_b+lam)^{(k-1)/2} psi |^2_{L^{2;b}}
                             + lam | (D_b+lam)^{(k-1)/2} psi |^2_{L^{2;b}} (k odd)

evaluated with the operator powers of the Macdonald profile collapsed
analytically through the recurrence

    (D_b + lam)^m psi_{s,lam} = lam^m (d_s / d_{s-m}) psi_{s-m,lam},

valid when b matches the weight exponent of the order s.  The identity suite
(energy isometry, virial split, trace inequality, integration by parts,
Fourier isometries) reports results as :class:`CheckReport` records.

A pure-profile integral with weight y^beta is its lam = 1 value times
lam^{-(beta+1)/2} (z = sqrt(lam) y); integrands that differ between modes
(a fixed test bump) return a (J, N) array on one grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

from .special import (
    FracParams,
    _apply_operator_power,
    _m_b,
    _Term,
    _term_derivative,
    psi,
    psi_fourier,
    seminorm_sq,
)
from .spectral import ModalVector, _active_modes, sobolev_norm

__all__ = [
    "CheckReport",
    "PsiProfile",
    "GaussianBump",
    "CompactBump",
    "QuadraticBump",
    "power_weighted_integral",
    "mode_energy",
    "curve_energy",
    "energy_identity",
    "virial_check",
    "trace_inequality",
    "parts_check",
    "fourier_isometry",
    "psi_fourier_numeric",
    "xi_moment",
]

_POINTS_PER_CELL = 16
_DEFAULT_NODES = 1024
_TAIL_SCALE = 45.0  # e^{-2*45} ~ 8e-40, far below the 1e-18 truncation target


# ---------------------------------------------------------------------------
# quadrature


@lru_cache(maxsize=512)
def _cells_geometric(beta, upper, n):
    """Nodes/weights for int_0^upper y^beta f(y) dy on geometric cells."""
    p = _POINTS_PER_CELL
    ncells = max(4, int(math.ceil(n / p)))
    a1 = upper * 1e-6
    ratio = (upper / a1) ** (1.0 / (ncells - 1))
    bounds = a1 * ratio ** np.arange(ncells)
    bounds[-1] = upper

    xj, wj = roots_jacobi(p, 0.0, beta)
    xl, wl = leggauss(p)
    # singular cell [0, a1]: Gauss-Jacobi soaks up y^beta exactly, never
    # touching y=0; Gauss-Legendre on the others, one row per cell
    a, cc = bounds[:-1, None], bounds[1:, None]
    mid, hw = 0.5 * (a + cc), 0.5 * (cc - a)
    ys = mid + hw * xl
    nodes = np.concatenate((0.5 * a1 * (1.0 + xj), ys.ravel()))
    weights = np.concatenate(((0.5 * a1) ** (beta + 1.0) * wj,
                              (hw * wl * ys ** beta).ravel()))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=128)
def _cells_log_transformed(beta, upper, n):
    """Same integral via y = e^t; composite Gauss panels in t."""
    t_hi = math.log(upper)
    t_lo = t_hi - 41.5 / (beta + 1.0)
    p = _POINTS_PER_CELL
    npanels = max(4, int(math.ceil(n / p)), int(math.ceil((t_hi - t_lo))))
    edges = np.linspace(t_lo, t_hi, npanels + 1)
    xl, wl = leggauss(p)
    a, cc = edges[:-1, None], edges[1:, None]
    mid, hw = 0.5 * (a + cc), 0.5 * (cc - a)
    ts = mid + hw * xl
    nodes = np.exp(ts).ravel()
    weights = (hw * wl * np.exp((beta + 1.0) * ts)).ravel()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def power_weighted_integral(g, beta, upper, n=_DEFAULT_NODES):
    """int_0^upper y^beta g(y) dy for smooth g and any exponent beta > -1.

    ``g`` receives the N nodes of the geometric cells on [0, upper] and may
    return a (J, N) array, for J integrals on the same grid at once.
    """
    if beta <= -1.0:
        raise ValueError(f"exponent {beta} is not integrable at the origin")
    nodes, weights = _cells_geometric(float(beta), float(upper), int(n))
    out = g(nodes) @ weights
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# reports


@dataclass
class CheckReport:
    """One verified identity: computed sides, relative error, verdict.

    ``rel_err`` is |lhs-rhs|/|rhs| (absolute |lhs| when rhs = 0); for
    one-sided checks it is the magnitude of the violation, 0 when satisfied.
    ``note`` carries free-form metadata and is not serialised.
    """

    name: str
    lhs: float
    rhs: float
    rel_err: float
    tol: float
    passed: bool
    note: str = field(default="", compare=False)

    def to_json(self) -> str:
        """One JSON object; like ``allow_nan=False``, a NaN or infinite
        field raises ValueError, since JSON has no token for it."""
        if not all(map(math.isfinite,
                       (self.lhs, self.rhs, self.rel_err, self.tol))):
            raise ValueError(f"report {self.name!r} has a non-finite field, "
                             f"which JSON cannot hold")
        return (
            '{{"name": "{}", "lhs": {:.17g}, "rhs": {:.17g}, '
            '"rel_err": {:.17g}, "tol": {:.17g}, "pass": {}}}'
        ).format(self.name, self.lhs, self.rhs, self.rel_err, self.tol,
                 "true" if self.passed else "false")


def report_equal(name, lhs, rhs, tol=1e-6, abs_tol=1e-12, note=""):
    """Equality check with the absolute fallback when the target is zero."""
    lhs = float(lhs)
    rhs = float(rhs)
    if rhs == 0.0:
        rel = abs(lhs)
        ok = rel <= abs_tol
    else:
        rel = abs(lhs - rhs) / abs(rhs)
        ok = rel <= tol
    return CheckReport(name, lhs, rhs, rel, float(tol), bool(ok), note)


def report_lower_bound(name, lhs, rhs, tol=1e-9, note=""):
    """One-sided check lhs >= rhs, with tol of slack relative to |rhs|."""
    lhs = float(lhs)
    rhs = float(rhs)
    scale = max(abs(rhs), 1e-30)
    violation = max(0.0, (rhs - lhs) / scale)
    return CheckReport(name, lhs, rhs, violation, float(tol),
                       violation <= tol, note)


# ---------------------------------------------------------------------------
# profiles


@dataclass(frozen=True)
class PsiProfile:
    """Analytic handle for the Macdonald profile of one order."""

    s: float

    def __post_init__(self):
        FracParams.from_order(self.s)  # validates positivity/non-integrality


class GaussianBump:
    """Even test profile exp(-a y^2) with exact derivatives."""

    def __init__(self, a=1.0):
        self.a = a

    def value(self, y):
        return np.exp(-self.a * np.asarray(y, dtype=float) ** 2)

    def d1(self, y):
        y = np.asarray(y, dtype=float)
        return -2.0 * self.a * y * np.exp(-self.a * y ** 2)

    def d1_over_y(self, y):
        return -2.0 * self.a * np.exp(-self.a * np.asarray(y, dtype=float) ** 2)

    def d2(self, y):
        y = np.asarray(y, dtype=float)
        return (4.0 * self.a ** 2 * y ** 2 - 2.0 * self.a) * np.exp(-self.a * y ** 2)


class QuadraticBump:
    """Even test profile y^2 exp(-y^2); vanishes at the origin."""

    def value(self, y):
        y = np.asarray(y, dtype=float)
        return y ** 2 * np.exp(-(y ** 2))

    def d1(self, y):
        y = np.asarray(y, dtype=float)
        return 2.0 * y * (1.0 - y ** 2) * np.exp(-(y ** 2))

    def d1_over_y(self, y):
        y = np.asarray(y, dtype=float)
        return 2.0 * (1.0 - y ** 2) * np.exp(-(y ** 2))

    def d2(self, y):
        y = np.asarray(y, dtype=float)
        return (2.0 - 10.0 * y ** 2 + 4.0 * y ** 4) * np.exp(-(y ** 2))


class CompactBump:
    """Smooth even bump exp(-1/(1-y^2)) supported on |y| < 1."""

    def value(self, y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        inside = np.abs(y) < 1.0
        t = 1.0 - y[inside] ** 2
        out[inside] = np.exp(-1.0 / t)
        return out

    def d1(self, y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        inside = np.abs(y) < 1.0
        t = 1.0 - y[inside] ** 2
        out[inside] = -2.0 * y[inside] / t ** 2 * np.exp(-1.0 / t)
        return out


@lru_cache(maxsize=128)
def _profile_l2_sq(order, beta):
    """int_0^inf z^beta psi_order(z)^2 dz, the lam = 1 integral."""
    return power_weighted_integral(lambda z: psi(order, z) ** 2, beta,
                                   _TAIL_SCALE)


def _term_l2b_sq(term, lam, b):
    """int_R |y|^b |term|^2 dy (even integrand, so 2x half line) for one
    eigenvalue lam or an array of them: z = sqrt(lam) y turns it into the
    lam = 1 integral times lam^{-(beta+1)/2}, beta = b + 2 expo."""
    beta = b + 2.0 * term.expo
    return (2.0 * term.coef ** 2 * lam ** (-0.5 * (beta + 1.0))
            * _profile_l2_sq(term.order, beta))


# ---------------------------------------------------------------------------
# energies


def mode_energy(profile, lam, k: int, b: float):
    """Squared weighted energy |profile(sqrt(lam) .)|^2_{lam, H^{k;b}} over R.

    ``profile`` is either a :class:`PsiProfile` (all k with an analytic
    operator collapse) or any object with ``value``/``d1`` callables, in
    which case only k = 1 is available.  ``lam`` is one eigenvalue (float
    result) or an array of them (one energy per entry, one lam = 1 integral).
    """
    if not np.all(np.asarray(lam) > 0):
        raise ValueError("mode energy needs lam > 0")
    if k < 1:
        raise ValueError("energy order k must be >= 1")
    if isinstance(profile, PsiProfile):
        s = profile.s
        t = _apply_operator_power(s, lam, b, k // 2)
        if k % 2 == 0:
            return _term_l2b_sq(t, lam, b)
        grad = _term_derivative(t, lam)
        return _term_l2b_sq(grad, lam, b) + lam * _term_l2b_sq(t, lam, b)
    if k != 1:
        raise ValueError(
            "sampled profiles only support k = 1; higher orders need the "
            "analytic operator powers of a PsiProfile")
    # z = sqrt(lam) y: the energy is 2 lam^{(1-b)/2} int z^b (f'^2 + f^2) dz
    return 2.0 * lam ** (0.5 * (1.0 - b)) * power_weighted_integral(
        lambda z: profile.d1(z) ** 2 + profile.value(z) ** 2,
        b, _TAIL_SCALE)


def curve_energy(curve, k: int | None = None,
                 b: float | None = None) -> float:
    """Total energy of an extension curve: sum of per-mode energies.

    Defaults to the natural exponents of the curve order (k = ceil(s),
    b the matched weight exponent).  Kernel modes ride along as constant
    curves and contribute zero energy.
    """
    params = curve.params
    if k is None:
        k = params.ceil_s
    if b is None:
        b = params.b
    mask = _active_modes(curve.source)
    energies = mode_energy(PsiProfile(params.s),
                           curve.spectrum.eigenvalues[mask], k, b)
    return float(curve.source.coeffs[mask] ** 2 @ energies)


# ---------------------------------------------------------------------------
# the identity suite


def energy_identity(s: float, lam: float, tol: float = 1e-6) -> CheckReport:
    """Quadrature energy of psi_{s,lam} against the closed form 2 d_s lam^s."""
    params = FracParams.from_order(s)
    lhs = mode_energy(PsiProfile(s), lam, params.ceil_s, params.b)
    rhs = 2.0 * params.d_s * lam ** s
    return report_equal(f"energy_identity(s={s}, lam={lam})", lhs, rhs, tol,
                        note=f"tail truncated at y_max="
                             f"{_TAIL_SCALE / math.sqrt(lam):.3g}, "
                             f"{_DEFAULT_NODES} nodes")


def virial_check(s: float, tol: float = 1e-6):
    """Virial split of the minimal energy, for floor(s) even.

    The zero-order part carries the fraction s/ceil(s) of 2 d_s and the
    gradient part the complementary (ceil(s)-s)/ceil(s); the two reports sum
    back to the total energy.
    """
    params = FracParams.from_order(s)
    if params.floor_s % 2 != 0:
        raise ValueError(f"virial split needs floor(s) even, got s={s}")
    m = params.floor_s // 2
    t = _apply_operator_power(s, 1.0, params.b, m)
    grad = _term_derivative(t, 1.0)
    zero_part = _term_l2b_sq(t, 1.0, params.b)
    grad_part = _term_l2b_sq(grad, 1.0, params.b)
    total = 2.0 * params.d_s
    return (
        report_equal(f"virial_zero_order(s={s})", zero_part,
                     s / params.ceil_s * total, tol),
        report_equal(f"virial_gradient(s={s})", grad_part,
                     (params.ceil_s - s) / params.ceil_s * total, tol),
    )


def trace_inequality(b: float, profile=None,
                     tol: float = 1e-6) -> CheckReport:
    """Weighted trace inequality |f|^2_{H^{1;b}} >= m_b |f(0)|^2.

    With the default profile (the Macdonald profile of order (1-b)/2, the
    unique minimiser) the check is equality to ``tol``; any other profile is
    checked one-sidedly.
    """
    if not -1.0 < b < 1.0:
        raise ValueError("b must lie in (-1, 1)")
    m_b = _m_b(b)
    if profile is None:
        s = 0.5 * (1.0 - b)
        lhs = mode_energy(PsiProfile(s), 1.0, 1, b)
        return report_equal(f"trace_equality(b={b})", lhs, m_b, tol)
    lhs = mode_energy(profile, 1.0, 1, b)
    rhs = m_b * float(profile.value(0.0)) ** 2
    return report_lower_bound(f"trace_inequality(b={b})", lhs, rhs)


def parts_check(s: float, eta, b: float | None = None,
                tol: float = 1e-6) -> CheckReport:
    """Integration by parts against the Macdonald profile:

        (psi_s', eta')_{L^{2;b}} = (D_b psi_s, eta)_{L^{2;b}} + flux,

    where the origin flux  -2 lim y^b psi_s'(y) eta(y)  vanishes for s > 1
    but equals 2 d_s eta(0) for s < 1 with the matched weight: the profile's
    conormal derivative does not decay, which is precisely the Dirac-type
    trace behaviour of the whole construction.  The psi side is applied
    analytically; ``eta`` supplies ``value``/``d1``.  For s < 1 the weight
    must match the order (otherwise the flux is 0 or divergent).
    """
    params = FracParams.from_order(s)
    if b is None:
        b = params.b
    matched = abs(b - params.b) <= 1e-12
    flux = 0.0
    if matched:
        if s > 1.0:
            # D_b psi_s = (D_b + 1) psi_s - psi_s, the first power collapsed
            t = _apply_operator_power(s, 1.0, b, 1)
            db_psi = lambda y: t.coef * psi(t.order, y) - psi(s, y)
        else:
            db_psi = lambda y: -psi(s, y)
            flux = 2.0 * params.d_s * float(eta.value(0.0))
    elif s > 1.0:
        c1 = (2.0 * s - 1.0 + b) / (2.0 * (s - 1.0))
        db_psi = lambda y: c1 * psi(s - 1.0, y) - psi(s, y)
    else:
        raise ValueError(
            "for s < 1 the weighted Laplacian of psi_s is only available "
            "with the matched weight exponent")
    lhs = 2.0 * power_weighted_integral(
        lambda y: db_psi(y) * eta.value(y), b, _TAIL_SCALE) + flux
    grad = _term_derivative(_Term(1.0, 0.0, s), 1.0)
    rhs = 2.0 * power_weighted_integral(
        lambda y: grad.coef * psi(grad.order, y) * eta.d1(y),
        b + grad.expo, _TAIL_SCALE)
    return report_equal(f"parts_check(s={s}, b={b})", lhs, rhs, tol,
                        abs_tol=1e-10)


def psi_fourier_numeric(s: float, xi: float) -> float:
    """Fourier transform of psi_s by direct cosine quadrature (oracle path)."""
    xi = abs(float(xi))
    # resolve the oscillation: enough cells for a few panels per wavelength
    n = max(_DEFAULT_NODES, int(24 * _TAIL_SCALE * max(xi, 1.0) / math.pi))
    return math.sqrt(2.0 / math.pi) * power_weighted_integral(
        lambda y: np.cos(xi * y) * psi(s, y), 0.0, _TAIL_SCALE, n)


def xi_moment(s, q):
    """int_0^inf xi^q (1 + xi^2)^{-(1+2s)} dxi via xi = tan(theta)."""
    if not (-1.0 < q < 4.0 * s + 1.0):
        raise ValueError("xi moment diverges")

    def g_low(th):
        return np.sinc(th / math.pi) ** q * np.cos(th) ** (4.0 * s - q)

    def g_high(th):
        return np.sinc(th / math.pi) ** (4.0 * s - q) * np.cos(th) ** q

    quarter = 0.25 * math.pi
    low = power_weighted_integral(g_low, q, quarter)
    high = power_weighted_integral(g_high, 4.0 * s - q, quarter)
    return low + high


def fourier_isometry(u: ModalVector, s: float, sigma: float = 0.0,
                     alpha: float | None = None, b: float | None = None,
                     tol: float = 1e-7) -> CheckReport:
    """Fourier-side isometries of the extension transform (integer s allowed).

    Exactly one of ``alpha``/``b`` selects the statement:

    * ``b``: the weighted L^2 norm of the curve, measured in the fiber of
      order sigma + (1+b)/2, equals |psi_s|_{L^{2;b}(R)} |u|_{H^sigma}
      (lhs sums the rescaled lam = 1 quadrature over the modes, rhs takes
      it once: the two agree by scaling);
    * ``alpha``: the order-(alpha+1/2) Sobolev seminorm of the curve equals
      the closed Gamma form times |u|^2_{H^sigma} (rhs by xi-quadrature of
      the transform profile), for alpha in (-1/2, 2s).
    """
    if (alpha is None) == (b is None):
        raise ValueError("pass exactly one of alpha (Sobolev) or b (weighted)")
    if not s > 0:
        raise ValueError("fourier_isometry needs s > 0")
    if u.spectrum.kernel_dim and np.any(u.coeffs[:u.spectrum.kernel_dim]):
        raise ValueError("fourier isometries need zero kernel coefficients")
    norm_sq = sobolev_norm(u, sigma) ** 2

    if b is not None:
        if not -1.0 < b < 1.0:
            raise ValueError("b must lie in (-1, 1)")
        mask = _active_modes(u)
        lam = u.spectrum.eigenvalues[mask]
        profile = _Term(1.0, 0.0, s)
        parts = _term_l2b_sq(profile, lam, b)
        lhs = float(lam ** (sigma + 0.5 * (1.0 + b)) * u.coeffs[mask] ** 2
                    @ parts)
        rhs = _term_l2b_sq(profile, 1.0, b) * norm_sq
        return report_equal(
            f"fourier_weighted_l2(s={s}, b={b}, sigma={sigma})", lhs, rhs, tol)

    if not -0.5 < alpha < 2.0 * s:
        raise ValueError(f"alpha must lie in (-1/2, 2s), got {alpha}")
    lhs = seminorm_sq(s, alpha + 0.5) * norm_sq
    amp = psi_fourier(s, 0.0)
    rhs = 2.0 * amp ** 2 * xi_moment(s, 2.0 * alpha + 1.0) * norm_sq
    return report_equal(
        f"fourier_seminorm(s={s}, alpha={alpha}, sigma={sigma})",
        lhs, rhs, tol)
