"""Weighted half-line quadrature, mode energies, and the identity suite.

All integrals here carry a power weight y^beta with beta > -1; every
profile in scope is even, so integrals over the whole line are twice the
half-line value.  :func:`power_weighted_integral` is the one integrator.
It runs on geometric cells: the first cell [0, a] absorbs y^beta exactly
through a Gauss-Jacobi rule (no sample at y = 0), and the cells growing
geometrically away from it use Gauss-Legendre with the weight evaluated.
The Gauss-Jacobi rule is built by Golub-Welsch (Math. Comp. 23 (1969)):
the eigenvalues and first eigenvector components of the Jacobi matrix, from
``spectral.tridiag_eigh``.  The same builder at beta = 0 gives the
Gauss-Legendre rule of the other cells, built once at import.
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
Fourier isometries) reports results as :class:`CheckReport` records; its
random test profiles are :class:`GaussianBump` sums whose fixed-seed
parameters ``suite`` draws from the standard library's ``random.Random``.

A pure-profile integral with weight y^beta is its lam = 1 value times
lam^{-(beta+1)/2} (z = sqrt(lam) y); integrands that differ between modes
(a fixed test bump) return a (J, N) array on one grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .special import (
    FracParams,
    _check_profile_order,
    _collapse,
    _first_deriv_factors,
    _m_b,
    _psi_l2_sq,
    _whole_order,
    psi,
    psi_fourier,
    seminorm_sq,
    weight_exponent,
)
from .spectral import (
    ModalVector,
    _active_modes,
    _check_kernel_use,
    _require_finite,
    sobolev_norm,
    tridiag_eigh,
)

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


def _gauss_jacobi(p, beta):
    """p-point Gauss rule (t, w) for int_0^1 t^beta f(t) dt, beta > -1.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Jacobi polynomials P_n^(0, beta)(2t - 1), the weights mu_0 v_0^2 with
    v_0 the first eigenvector components and mu_0 = 1/(beta+1).  The matrix
    is taken in t = (1+x)/2 rather than x, so that the node nearest the
    singular end comes out with a small relative error.
    """
    n = np.arange(1, p)
    two = 2.0 * n + beta
    # recurrence on [-1, 1]: a_n = beta^2 / ((2n+beta)(2n+beta+2)), whose
    # n = 0 case is 0/0 at beta = 0, so a_0 = beta/(beta+2) on its own
    a = np.empty(p)
    a[0] = beta / (beta + 2.0)
    a[1:] = beta * beta / (two * (two + 2.0))
    b = 2.0 * n * (n + beta) / (two * np.sqrt((two + 1.0) * (two - 1.0)))
    t, v = tridiag_eigh(0.5 * (1.0 + a), 0.5 * b)
    return t, v[0] ** 2 / (beta + 1.0)


def _gauss_legendre(p):
    """p-point Gauss-Legendre rule (x, w) on [-1, 1]: the beta = 0 Jacobi
    rule mapped by x = 2t - 1, w -> 2w."""
    t, w = _gauss_jacobi(p, 0.0)
    return 2.0 * t - 1.0, 2.0 * w


# the rule of every regular cell, built once
_LEGENDRE_X, _LEGENDRE_W = _gauss_legendre(_POINTS_PER_CELL)


@lru_cache(maxsize=512)
def _cells_geometric(beta, upper, n):
    """Nodes/weights for int_0^upper y^beta f(y) dy on geometric cells."""
    p = _POINTS_PER_CELL
    ncells = max(4, int(math.ceil(n / p)))
    a1 = upper * 1e-6
    ratio = (upper / a1) ** (1.0 / (ncells - 1))
    bounds = a1 * ratio ** np.arange(ncells)
    bounds[-1] = upper

    tj, wj = _gauss_jacobi(p, beta)
    xl, wl = _LEGENDRE_X, _LEGENDRE_W
    # singular cell [0, a1]: Gauss-Jacobi soaks up y^beta exactly, never
    # touching y=0; Gauss-Legendre on the others, one row per cell
    a, cc = bounds[:-1, None], bounds[1:, None]
    mid, hw = 0.5 * (a + cc), 0.5 * (cc - a)
    ys = mid + hw * xl
    nodes = np.concatenate((a1 * tj, ys.ravel()))
    weights = np.concatenate((a1 ** (beta + 1.0) * wj,
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
    xl, wl = _LEGENDRE_X, _LEGENDRE_W
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
    if not -1.0 < beta < math.inf:
        raise ValueError(f"the weight y^beta needs a finite beta > -1, got "
                         f"{beta}; beta <= -1 is not integrable at the origin")
    if not 0.0 < upper < math.inf:
        raise ValueError(f"the upper limit needs 0 < upper < inf, got {upper}")
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
    ``note`` carries free-form metadata and is not serialised; :meth:`at`
    re-decides a finished report at another bound than its builder's.
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

    def at(self, tol: float) -> "CheckReport":
        """A copy decided by ``tol``: pass iff rel_err <= tol."""
        return replace(self, tol=float(tol), passed=self.rel_err <= tol)


def report_equal(name, lhs, rhs, tol=1e-6, abs_tol=1e-12, note=""):
    """Equality check with the absolute fallback when the target is zero.
    The report's ``tol`` is the bound that decided it."""
    lhs = float(lhs)
    rhs = float(rhs)
    if rhs == 0.0:
        rel = abs(lhs)
        tol = abs_tol
    else:
        rel = abs(lhs - rhs) / abs(rhs)
    return CheckReport(name, lhs, rhs, rel, float(tol), rel <= tol, note)


def report_lower_bound(name, lhs, rhs, tol=1e-9):
    """One-sided check lhs >= rhs, with tol of slack relative to |rhs|;
    a NaN on either side is a NaN violation, which fails."""
    lhs = float(lhs)
    rhs = float(rhs)
    scale = max(abs(rhs), 1e-30)
    violation = 0.0 if lhs >= rhs else (rhs - lhs) / scale
    return CheckReport(name, lhs, rhs, violation, float(tol),
                       violation <= tol)


def report_upper_bound(name, lhs, rhs, tol=1e-9):
    """One-sided check lhs <= rhs: ``report_lower_bound`` of the negated
    sides, reported with the sides as given."""
    lhs = float(lhs)
    rhs = float(rhs)
    return replace(report_lower_bound(name, -lhs, -rhs, tol), lhs=lhs,
                   rhs=rhs)


# ---------------------------------------------------------------------------
# profiles


@dataclass(frozen=True)
class PsiProfile:
    """Analytic handle for the Macdonald profile of one order."""

    s: float

    def __post_init__(self):
        FracParams.from_order(self.s)  # validates positivity/non-integrality


class GaussianBump:
    """Even test profile sum_i amp_i exp(-rate_i y^2) with exact
    derivatives; ``GaussianBump(a)`` is exp(-a y^2)."""

    def __init__(self, rates=1.0, amps=1.0):
        rates, amps = np.broadcast_arrays(np.atleast_1d(rates),
                                          np.atleast_1d(amps))
        self.terms = tuple(zip(amps.astype(float).tolist(),
                               rates.astype(float).tolist()))

    def _sum(self, y, factor):
        """sum_i factor(amp_i, rate_i, y) exp(-rate_i y^2)."""
        y = np.asarray(y, dtype=float)
        parts = [factor(amp, rate, y) * np.exp(-rate * y ** 2)
                 for amp, rate in self.terms]
        return sum(parts[1:], parts[0])

    def value(self, y):
        return self._sum(y, lambda amp, rate, y: amp)

    def d1(self, y):
        return self._sum(y, lambda amp, rate, y: -2.0 * amp * rate * y)

    def d1_over_y(self, y):
        return self._sum(y, lambda amp, rate, y: -2.0 * amp * rate)

    def d2(self, y):
        return self._sum(y, lambda amp, rate, y:
                         amp * (4.0 * rate ** 2 * y ** 2 - 2.0 * rate))


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

    support = 1.0  # integrals against the bump end here

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


def _profile_tail(order):
    """Upper limit of the lam = 1 profile integrals: at large order psi
    has not decayed by _TAIL_SCALE (0.08 there at order 199.75), by 4 order
    it has."""
    return max(_TAIL_SCALE, 4.0 * order)


@lru_cache(maxsize=128)
def _profile_l2_sq(order, beta):
    """int_0^inf z^beta psi_order(z)^2 dz, the lam = 1 integral."""
    return power_weighted_integral(lambda z: psi(order, z) ** 2, beta,
                                   _profile_tail(order))


def _term_l2b_sq(coef, expo, order, lam, b):
    """int_R |y|^b |coef y^expo psi_order(sqrt(lam) y)|^2 dy (2x the half
    line) for one eigenvalue lam or an array of them: z = sqrt(lam) y turns
    it into the lam = 1 integral times lam^{-(beta+1)/2}, beta = b + 2 expo."""
    beta = b + 2.0 * expo
    # coef * coef, not coef ** 2: a float power raises OverflowError
    return (2.0 * coef * coef * lam ** (-0.5 * (beta + 1.0))
            * _profile_l2_sq(order, beta))


# ---------------------------------------------------------------------------
# energies


def _energy_parts(s, lam, k, b):
    """The gradient and zero-order parts of |psi_{s,lam}|^2_{lam, H^{k;b}}:
    for odd k, |d/dy (D_b+lam)^{(k-1)/2} psi|^2 and lam |(D_b+lam)^{(k-1)/2}
    psi|^2, for even k, 0 and |(D_b+lam)^{k/2} psi|^2, at the matched b."""
    m = k // 2
    coef = _collapse(s, lam, m)
    zero = _term_l2b_sq(coef, 0.0, s - m, lam, b)
    if k % 2 == 0:
        return 0.0, zero
    # the chain rule on psi(sqrt(lam) y) brings lam^{(1+expo)/2}
    d_coef, expo, order = _first_deriv_factors(s - m)
    grad = _term_l2b_sq(coef * d_coef * lam ** (0.5 * (1.0 + expo)), expo,
                        order, lam, b)
    return grad, lam * zero


def mode_energy(profile, lam, k: int, b: float):
    """Squared weighted energy |profile(sqrt(lam) .)|^2_{lam, H^{k;b}} over R.

    ``profile`` is either a :class:`PsiProfile` (all whole k >= 1 with an
    analytic operator collapse) or any object with ``value``/``d1``
    callables, in which case only k = 1 is available.  ``lam`` is one
    finite eigenvalue (float result) or an array of them (one energy per
    entry, one lam = 1 integral).
    """
    if not np.all(np.greater(lam, 0) & np.isfinite(lam)):
        raise ValueError(f"mode energy needs lam > 0 and finite, "
                         f"got lam={lam}")
    k = _whole_order(k, "energy")
    if k < 1:
        raise ValueError("energy order k must be >= 1")
    if isinstance(profile, PsiProfile):
        s = profile.s
        if k >= 2 and abs(b - weight_exponent(s)) > 1e-12:
            raise ValueError(
                "analytic operator powers need the grid weight matched to "
                f"the order: b={b} vs required {weight_exponent(s)}")
        if k // 2 > math.floor(s):
            raise ValueError(
                f"(D_b+lam)^{k // 2} of the order-{s} profile has no "
                f"analytic collapse (need m <= floor(s))")
        grad, zero = _energy_parts(s, lam, k, b)
        return grad + zero
    if k != 1:
        raise ValueError(
            "sampled profiles only support k = 1; higher orders need the "
            "analytic operator powers of a PsiProfile")
    # z = sqrt(lam) y: the energy is 2 lam^{(1-b)/2} int z^b (f'^2 + f^2) dz
    return 2.0 * lam ** (0.5 * (1.0 - b)) * power_weighted_integral(
        lambda z: profile.d1(z) ** 2 + profile.value(z) ** 2,
        b, _TAIL_SCALE)


def curve_energy(curve) -> float:
    """Total energy of an extension curve: sum of per-mode energies at
    k = ceil(s) and the matched weight exponent b.  Kernel modes ride along
    as constant curves and contribute zero energy.
    """
    params = curve.params
    mask = _active_modes(curve.source)
    energies = mode_energy(PsiProfile(params.s),
                           curve.spectrum.eigenvalues[mask], params.ceil_s,
                           params.b)
    return float(curve.source.coeffs[mask] ** 2 @ energies)


# ---------------------------------------------------------------------------
# the identity suite


def energy_identity(s: float, lam: float) -> CheckReport:
    """Quadrature energy of psi_{s,lam} against the closed form 2 d_s lam^s."""
    params = FracParams.from_order(s)
    name = f"energy_identity(s={s}, lam={lam})"
    # a numpy scalar power overflows to inf where a float power raises
    with np.errstate(over="ignore"):
        lhs = mode_energy(PsiProfile(s), lam, params.ceil_s, params.b)
        rhs = 2.0 * params.d_s * np.float64(lam) ** s
    _require_finite(name, lhs, rhs)
    return report_equal(name, lhs, rhs, 1e-6,
                        note=f"tail truncated at y_max="
                             f"{_profile_tail(s) / math.sqrt(lam):.3g}, "
                             f"{_DEFAULT_NODES} nodes")


def virial_check(s: float):
    """Virial split of the minimal energy, for floor(s) even.

    The zero-order part carries the fraction s/ceil(s) of 2 d_s and the
    gradient part the complementary (ceil(s)-s)/ceil(s); the two reports sum
    back to the total energy.
    """
    params = FracParams.from_order(s)
    if params.floor_s % 2 != 0:
        raise ValueError(f"virial split needs floor(s) even, got s={s}")
    grad_part, zero_part = _energy_parts(s, 1.0, params.ceil_s, params.b)
    total = 2.0 * params.d_s
    return (
        report_equal(f"virial_zero_order(s={s})", zero_part,
                     s / params.ceil_s * total, 1e-6),
        report_equal(f"virial_gradient(s={s})", grad_part,
                     (params.ceil_s - s) / params.ceil_s * total, 1e-6),
    )


def trace_inequality(b: float, profile=None) -> CheckReport:
    """Weighted trace inequality |f|^2_{H^{1;b}} >= m_b |f(0)|^2.

    With the default profile (the Macdonald profile of order (1-b)/2, the
    unique minimiser) the check is equality to 1e-6; any other profile is
    checked one-sidedly.
    """
    if not -1.0 < b < 1.0:
        raise ValueError("b must lie in (-1, 1)")
    m_b = _m_b(b)
    if profile is None:
        s = 0.5 * (1.0 - b)
        lhs = mode_energy(PsiProfile(s), 1.0, 1, b)
        return report_equal(f"trace_equality(b={b})", lhs, m_b, 1e-6)
    lhs = mode_energy(profile, 1.0, 1, b)
    rhs = m_b * float(profile.value(0.0)) ** 2
    return report_lower_bound(f"trace_inequality(b={b})", lhs, rhs)


def parts_check(s: float, eta, b: float | None = None) -> CheckReport:
    """Integration by parts against the Macdonald profile:

        (psi_s', eta')_{L^{2;b}} = (D_b psi_s, eta)_{L^{2;b}} + flux,

    where the origin flux  -2 lim y^b psi_s'(y) eta(y)  vanishes for s > 1
    but equals 2 d_s eta(0) for s < 1 with the matched weight: the profile's
    conormal derivative does not decay, which is precisely the Dirac-type
    trace behaviour of the whole construction.  The psi side is applied
    analytically; ``eta`` supplies ``value``/``d1``, and ``support`` if it
    vanishes beyond that y, where both integrals then end.  For s < 1 the
    weight must match the order (otherwise the flux is 0 or divergent).
    """
    params = FracParams.from_order(s)
    upper = getattr(eta, "support", _TAIL_SCALE)
    if b is None:
        b = params.b
    flux = 0.0
    if s > 1.0:
        # D_b psi_s = c1 psi_{s-1} - psi_s by y psi_v' = 2v (psi_v - psi_{v+1});
        # at the matched weight c1 = floor(s) / (s-1) = d_s / d_{s-1}
        c1 = (2.0 * s - 1.0 + b) / (2.0 * (s - 1.0))
        db_psi = lambda y: c1 * psi(s - 1.0, y) - psi(s, y)
    elif abs(b - params.b) <= 1e-12:
        db_psi = lambda y: -psi(s, y)
        flux = 2.0 * params.d_s * float(eta.value(0.0))
    else:
        raise ValueError(
            "for s < 1 the weighted Laplacian of psi_s is only available "
            "with the matched weight exponent")
    lhs = 2.0 * power_weighted_integral(
        lambda y: db_psi(y) * eta.value(y), b, upper) + flux
    coef, expo, order = _first_deriv_factors(s)
    rhs = 2.0 * power_weighted_integral(
        lambda y: coef * psi(order, y) * eta.d1(y), b + expo, upper)
    return report_equal(f"parts_check(s={s}, b={b})", lhs, rhs, 1e-6,
                        abs_tol=1e-10)


def psi_fourier_numeric(s: float, xi: float) -> float:
    """Fourier transform of psi_s by direct cosine quadrature (oracle path),
    up to the profile's tail.  At large order and xi > 0 the cosine sum
    cancels: the transform is (1 + xi^2)^{-s-1/2} of its xi = 0 value, about
    2e-15 of it at s = 20.5, xi = 2, and the result is off by 8e-2 there."""
    s = _check_profile_order(s)
    if not math.isfinite(xi):
        raise ValueError(f"psi_fourier_numeric requires a finite frequency "
                         f"xi, got {xi}")
    upper = _profile_tail(s)
    # resolve the oscillation: enough cells for a few panels per wavelength,
    # counted as a float, which may be inf, before any int()
    nodes = 24.0 * upper * max(abs(float(xi)), 1.0) / math.pi
    if nodes > 2.0 ** 18:
        raise ValueError(f"psi_fourier_numeric(s={s}, xi={xi}) needs "
                         f"{nodes:.3g} quadrature nodes, above the ceiling "
                         f"of 2^18")
    xi = abs(float(xi))
    n = max(_DEFAULT_NODES, int(nodes))
    return math.sqrt(2.0 / math.pi) * power_weighted_integral(
        lambda y: np.cos(xi * y) * psi(s, y), 0.0, upper, n)


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
                     alpha: float | None = None,
                     b: float | None = None) -> CheckReport:
    """Fourier-side isometries of the extension transform (integer s allowed).

    Exactly one of ``alpha``/``b`` selects the statement:

    * ``b``: the weighted L^2 norm of the curve, measured in the fiber of
      order sigma + (1+b)/2, equals |psi_s|_{L^{2;b}(R)} |u|_{H^sigma}
      (lhs sums the rescaled lam = 1 quadrature over the modes, rhs takes
      the closed form of |psi_s|^2_{L^{2;b}});
    * ``alpha``: the order-(alpha+1/2) Sobolev seminorm of the curve equals
      the closed Gamma form times |u|^2_{H^sigma} (rhs by xi-quadrature of
      the transform profile), for alpha in (-1/2, 2s).
    """
    if (alpha is None) == (b is None):
        raise ValueError("pass exactly one of alpha (Sobolev) or b (weighted)")
    if not 0.0 < s < math.inf:
        raise ValueError(f"fourier_isometry needs s > 0 and finite, got s={s}")
    _check_kernel_use(u, "fourier_isometry")
    norm_sq = sobolev_norm(u, sigma) ** 2

    if b is not None:
        if not -1.0 < b < 1.0:
            raise ValueError("b must lie in (-1, 1)")
        mask = _active_modes(u)
        lam = u.spectrum.eigenvalues[mask]
        parts = _term_l2b_sq(1.0, 0.0, s, lam, b)
        lhs = float(lam ** (sigma + 0.5 * (1.0 + b)) * u.coeffs[mask] ** 2
                    @ parts)
        rhs = 2.0 * _psi_l2_sq(s, b) * norm_sq
        name = f"fourier_weighted_l2(s={s}, b={b}, sigma={sigma})"
    else:
        if not -0.5 < alpha < 2.0 * s:
            raise ValueError(f"alpha must lie in (-1/2, 2s), got {alpha}")
        lhs = seminorm_sq(s, alpha + 0.5) * norm_sq
        amp = psi_fourier(s, 0.0)
        rhs = 2.0 * amp ** 2 * xi_moment(s, 2.0 * alpha + 1.0) * norm_sq
        name = f"fourier_seminorm(s={s}, alpha={alpha}, sigma={sigma})"
    return report_equal(name, lhs, rhs, 1e-7)
