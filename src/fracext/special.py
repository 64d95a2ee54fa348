"""Macdonald-function kernels and their closed-form constants.

The central object of the whole library is the even profile

.. math::

    \\psi_s(y) = c_s\\,|y|^s K_s(|y|), \\qquad c_s = \\frac{2^{1-s}}{\\Gamma(s)},

where :math:`K_s` is the modified Bessel function of the second kind (the
Macdonald function).  ``psi_s`` equals 1 at the origin, is strictly
decreasing on the half line, decays like :math:`e^{-|y|}` and carries, for
non-integer order ``s``, the weight exponent ``b = 1 - 2(s - floor(s))`` and
the trace constant

.. math::

    d_s = 2^{b}\\,\\Gamma\\Big(\\frac{1+b}{2}\\Big)\\,
          \\frac{\\lfloor s\\rfloor!}{\\Gamma(s)} .

Everything here is a pure function of its arguments; no state is shared, so
all routines are safe to call concurrently.

``psi`` evaluates a whole argument array with one call of the exponentially
scaled ``scipy.special.kve``, as ``c_s y^s kve(s, y) e^{-y}``; where a
factor or the product leaves the normal double range it switches to log
space.  At large order near the origin ``K_s`` itself overflows while the
profile is still of order 1; there the profile comes from the upward order
recurrence (DLMF 10.29.1) started at two orders in (0, 2], a sum of positive
terms that keeps full accuracy at any order.  ``psi_series`` evaluates the
ascending series (DLMF 10.25.2 / 10.27.4) as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import kv, kve

__all__ = [
    "FracParams",
    "ProfileConstants",
    "bessel_k",
    "psi",
    "psi_lambda",
    "psi_deriv",
    "psi_series",
    "psi_taylor_remainder",
    "constants",
    "psi_fourier",
    "seminorm_sq",
    "weight_exponent",
    "trace_constant",
    "beta_fn",
]

def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind K_nu(x), x > 0.

    A thin wrapper over ``scipy.special.kv`` (K is even in the order).
    Raises ``ValueError`` for x <= 0 and ``OverflowError`` when the result
    exceeds the double range (small x at large order).
    """
    if x <= 0.0:
        raise ValueError(f"bessel_k requires x > 0, got x={x}")
    # kv gives inf or nan at subnormal orders, where K_nu = K_0 to double
    # precision (K_nu - K_0 = O(nu^2))
    k = float(kv(nu if abs(nu) >= _TINY else 0.0, x))
    if math.isinf(k):
        raise OverflowError(
            f"K_nu({nu}, {x}) exceeds the double-precision range")
    return k


# ---------------------------------------------------------------------------
# order-dependent constants

_LN2 = math.log(2.0)


def _check_noninteger_order(s):
    s = float(s)
    if not math.isfinite(s):
        raise ValueError(f"order s must be finite, got {s}")
    if not s > 0.0:
        raise ValueError(f"order s must be positive, got {s}")
    if s == math.floor(s):
        raise ValueError(f"order s must be non-integer, got {s}")
    return s


def weight_exponent(s: float) -> float:
    """Weight exponent b = 1 - 2(s - floor(s)) in (-1, 1), s non-integer."""
    s = _check_noninteger_order(s)
    return 1.0 - 2.0 * (s - math.floor(s))


def trace_constant(s: float) -> float:
    """Trace normalisation d_s = 2^b Gamma((1+b)/2) floor(s)! / Gamma(s)."""
    b = weight_exponent(s)
    return math.exp(
        b * _LN2
        + math.lgamma(0.5 * (1.0 + b))
        + math.lgamma(math.floor(s) + 1.0)
        - math.lgamma(s)
    )


def _log_c(s):
    """log c_s, the profile normalisation c_s = 2^{1-s} / Gamma(s)."""
    return (1.0 - s) * _LN2 - math.lgamma(s)


def _m_b(b):
    """Best constant m_b = 2^{1+b} Gamma((1+b)/2) / Gamma((1-b)/2) of the
    weighted trace inequality."""
    return math.exp((1.0 + b) * _LN2 + math.lgamma(0.5 * (1.0 + b))
                    - math.lgamma(0.5 * (1.0 - b)))


def _taylor_coeff(s, m):
    """kappa_{s,m}/(2m)! = (-1)^m Gamma(s-m) / (Gamma(s) 2^{2m} m!)."""
    return (-1.0) ** m * math.exp(
        math.lgamma(s - m) - math.lgamma(s)
        - 2.0 * m * _LN2 - math.lgamma(m + 1.0))


def beta_fn(a: float, b: float) -> float:
    """Euler Beta for positive arguments, evaluated in log space."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"beta_fn needs positive arguments, got ({a}, {b})")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


@dataclass(frozen=True)
class FracParams:
    """Parameter bundle attached to a non-integer order s > 0.

    ``b`` is the weight exponent of the degenerate operator, ``c_s`` the
    profile normalisation making psi_s(0) = 1, and ``d_s`` the constant in
    the energy identity ``|psi_{s,lam}|^2 = 2 d_s lam^s``.
    """

    s: float
    floor_s: int
    ceil_s: int
    b: float
    c_s: float
    d_s: float

    @classmethod
    def from_order(cls, s: float) -> "FracParams":
        s = _check_noninteger_order(s)
        fl = math.floor(s)
        return cls(s=s, floor_s=fl, ceil_s=fl + 1, b=weight_exponent(s),
                   c_s=math.exp(_log_c(s)), d_s=trace_constant(s))


# ---------------------------------------------------------------------------
# the profile psi_s and friends

# below this threshold the |y|^s K_s product is numerically indeterminate,
# while the analytic limit is exactly 1
_PSI_ORIGIN_CUTOFF = 1e-8
_TINY = np.finfo(float).tiny
_HUGE = np.finfo(float).max


def _upward(s, z):
    """psi_s(z) by upward order recurrence from two orders in (0, 2].

    K_{v+1} = K_{v-1} + (2v/z) K_v (DLMF 10.29.1) becomes
    psi_{v+1} = psi_v + z^2/(4 v (v-1)) psi_{v-1}.  Every term is positive,
    so rounding errors do not grow, and K stays finite at the starting
    orders for every z above the origin cutoff.
    """
    s0 = s - math.floor(s) or 1.0
    lo, hi = psi(s0, z), psi(s0 + 1.0, z)
    t = 0.25 * z * z
    for v in np.arange(s0 + 1.0, s - 0.5):
        lo, hi = hi, hi + t / (v * (v - 1.0)) * lo
    return hi


def psi(s: float, y):
    """Profile psi_s(y) = c_s |y|^s K_s(|y|); accepts scalars or arrays.

    Exactly 1 at the origin (analytic limit), strictly positive, bounded by
    1, and decaying like e^{-|y|}.  Underflows to 0 for very large |y|.
    """
    s = float(s)
    if not 0.0 < s < math.inf:
        raise ValueError(f"psi requires a finite s > 0, got {s}")
    ay = np.abs(np.asarray(y, dtype=float))
    out = np.ones(ay.shape)
    away = ~(ay < _PSI_ORIGIN_CUTOFF)  # NaN stays on the Bessel route
    z = ay[away]
    # kve gives inf at subnormal orders, where K_s = K_0 to double precision
    k = kve(s if s >= _TINY else 0.0, z)
    log_c = _log_c(s)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        head = math.exp(log_c) * z ** s
        decay = np.exp(-z)
        val = head * k * decay
        # log space wherever a factor or the product left the normal range
        # (an overflowing head overflows val; decay <= 1)
        redo = np.isfinite(k) & ~((np.minimum(head, decay) >= _TINY)
                                  & (val >= _TINY) & (val <= _HUGE))
        if redo.any():
            zr = z[redo]
            val[redo] = np.exp(log_c + s * np.log(zr) + np.log(k[redo]) - zr)
    # K_s overflows at large order near the origin
    over = np.isinf(k)
    if over.any():
        val[over] = _upward(s, z[over])
    out[away] = val
    return float(out) if out.ndim == 0 else out


def psi_lambda(s: float, lam: float, y):
    """Rescaled profile psi_{s,lam}(y) = psi_s(sqrt(lam) |y|), lam > 0."""
    if not lam > 0.0:
        raise ValueError(f"psi_lambda requires lambda > 0, got {lam}")
    return psi(s, math.sqrt(lam) * np.asarray(y, dtype=float))


def _gamma_coeff(s, ell):
    """B(s - ell, 1/2) / B(s, 1/2); exactly 1.0 at ell = 0, where both
    differences vanish."""
    return math.exp(
        (math.lgamma(s - ell) - math.lgamma(s))
        + (math.lgamma(s + 0.5) - math.lgamma(s - ell + 0.5))
    )


def _first_deriv_factors(s):
    """(coef, expo, order) with psi_s'(y) = coef y^expo psi_order(y), y > 0:
    the two closed-form branches around s = 1."""
    if s > 1.0:
        return -1.0 / (2.0 * (s - 1.0)), 1.0, s - 1.0
    return -trace_constant(s), 2.0 * s - 1.0, 1.0 - s


# internal algebra on terms coef * y^expo * psi_order(sqrt(lam) y); coef
# holds one entry per mode when lam is an array of eigenvalues
@dataclass(frozen=True)
class _Term:
    coef: float | np.ndarray
    expo: float
    order: float


def _apply_operator_power(s, lam, b, m):
    """(D_b + lam)^m applied to psi_{s,lam}, as a single analytic term:
    lam^m (d_s / d_{s-m}) psi_{s-m,lam}, for the matched weight b and
    m <= floor(s)."""
    if m == 0:
        return _Term(1.0, 0.0, s)
    if abs(b - weight_exponent(s)) > 1e-12:
        raise ValueError(
            "analytic operator powers need the grid weight matched to the "
            f"order: b={b} vs required {weight_exponent(s)}")
    if m > math.floor(s):
        raise ValueError(
            f"(D_b+lam)^{m} of the order-{s} profile has no analytic "
            f"collapse (need m <= floor(s))")
    coef = lam ** m * trace_constant(s) / trace_constant(s - m)
    return _Term(coef, 0.0, s - m)


def _term_derivative(term, lam):
    """d/dy of an expo-0 term, via the two first-derivative branches."""
    if term.expo != 0.0:
        raise ValueError("derivative only needed for pure profile terms")
    coef, expo, order = _first_deriv_factors(term.order)
    # the chain rule on psi(sqrt(lam) y) brings lam^{(1+expo)/2}
    return _Term(term.coef * coef * lam ** (0.5 * (1.0 + expo)), expo, order)


def _psi_first_deriv(s, y):
    coef, expo, order = _first_deriv_factors(s)
    return coef * y ** expo * psi(order, y)


def psi_deriv(s: float, y, order: int):
    """Exact derivative d^k/dy^k psi_s(y) on y > 0, as one binomial sum.

    On the Fourier side psi_s_hat = sqrt(2) Gamma(s+1/2)/Gamma(s)
    (1+xi^2)^{-(1+2s)/2}, so each factor 1 + xi^2 lowers the order by one:
    (1+xi^2)^l psi_s_hat = g_l psi_{s-l}_hat with g_l = B(s-l, 1/2) /
    B(s, 1/2).  Writing k = 2m + r, r in {0, 1}, and (i xi)^{2m} =
    (1 - (1+xi^2))^m gives

        psi_s^{(k)} = sum_{l=0}^{m} C(m, l) (-1)^l g_l psi_{s-l}^{(r)},

    with the closed-form first derivative for r = 1.  ``y`` may be a scalar
    or an array of positive abscissae; every term is one ``psi`` call on the
    whole array.  Admissible k: 1 always; otherwise m <= floor(s), where the
    top odd order 2 floor(s) + 1 also needs frac(s) >= 1/2.  Beyond that
    range the derivatives are unbounded near the origin.
    """
    s = _check_noninteger_order(s)
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0):
        raise ValueError(f"psi_deriv requires y > 0, got min {np.min(y)}")
    if y.ndim == 0:
        y = float(y)
    order = int(order)
    fl = math.floor(s)
    m, r = divmod(order, 2)
    admissible = order == 1 or (1 < order and m <= fl and not (
        order == 2 * fl + 1 and s - fl < 0.5))
    if not admissible:
        raise ValueError(
            f"derivative order {order} is not admissible at s={s}: need 1, "
            f"or order // 2 <= floor(s) with frac(s) >= 1/2 at order "
            f"2 floor(s) + 1")
    f = _psi_first_deriv if r else psi
    terms = [math.comb(m, ell) * (-1.0) ** ell * _gamma_coeff(s, ell)
             * f(s - ell, y) for ell in range(m + 1)]
    # started at the l = 0 term, so that order 1 keeps the sign of a -0.0
    return sum(terms[1:], terms[0])


def _singular_branch(s, y, n_terms):
    """The y^{2s} branch of the ascending series,

        (Gamma(-s)/Gamma(s)) (|y|/2)^{2s}
            sum_{k<n_terms} (y^2/4)^k / (k! (1+s)_k),

    with the Gamma ratio and the power in log space, so that it stays finite
    where Gamma(s) overflows; sign(Gamma(-s)) = (-1)^{floor(s)+1}.
    """
    if y == 0.0:
        return 0.0
    t = 0.25 * y * y
    term = 1.0
    series = 1.0
    for k in range(1, n_terms):
        term *= t / (k * (k + s))
        series += term
    sign = (-1.0) ** (math.floor(s) + 1)
    return sign * math.exp(math.lgamma(-s) - math.lgamma(s)
                           + 2.0 * s * math.log(0.5 * abs(y))) * series


def psi_series(s: float, y: float, n_terms: int = 18) -> float:
    """psi_s(y) from the ascending power series, independent of bessel_k.

    For non-integer s,

        psi_s(y) = sum_k (y^2/4)^k / (k! (1-s)_k)
                   + (Gamma(-s)/Gamma(s)) (y/2)^{2s}
                     sum_k (y^2/4)^k / (k! (1+s)_k),

    (DLMF 10.25.2 / 10.27.4 folded into the profile normalisation).  Rapidly
    convergent and fully accurate for |y| <= 2; used as an oracle for the
    small-argument behaviour.
    """
    s = _check_noninteger_order(s)
    t = 0.25 * y * y
    term = 1.0
    analytic = 1.0
    for k in range(1, n_terms):
        term *= t / (k * (k - s))
        analytic += term
    return analytic + _singular_branch(s, y, n_terms)


def psi_taylor_remainder(s: float, y: float, k: int) -> float:
    """Stable remainder of the boundary Taylor expansion of psi_s.

        psi_s(y) - sum_{m=0}^{k} kappa_{s,m}/(2m)! y^{2m},
        kappa_{s,m}/(2m)! = (-1)^m Gamma(s-m) / (Gamma(s) 2^{2m} m!),

    evaluated through the ascending series so that the heavy cancellation at
    small y never happens in floating point.  The analytic-series terms of
    order m <= k equal the Taylor terms, since (1-s)_m = (-1)^m Gamma(s) /
    Gamma(s-m), so the remainder is the analytic tail from m = k+1 plus the
    singular branch.  Requires 0 <= k <= floor(s).
    """
    s = _check_noninteger_order(s)
    if not 0 <= k <= math.floor(s):
        raise ValueError(f"remainder order k={k} outside 0..floor(s)")
    t = 0.25 * y * y
    term = 1.0
    total = 0.0
    for m in range(1, k + 20):
        term *= t / (m * (m - s))
        if m > k:
            total += term
    # singular branch y^{2s} (entirely beyond the polynomial part)
    return total + _singular_branch(s, y, 20)


@dataclass(frozen=True)
class ProfileConstants:
    """Closed-form constants attached to one order s.

    m_b       best constant of the weighted trace inequality,
    kappa     limits of the even derivatives of the extension at the origin
              (kappa[m-1] multiplies the m-th operator power, m = 1..floor(s)),
    gamma_coeff   Beta-function ratios B(s-l, 1/2) / B(s, 1/2) of the binomial
                  derivative sum of psi_deriv, l = 0..floor(s).
    """

    m_b: float
    kappa: tuple
    gamma_coeff: tuple


def constants(params: FracParams) -> ProfileConstants:
    """All closed-form constants for the order bundled in ``params``."""
    s = params.s
    kappa = tuple(math.factorial(2 * m) * _taylor_coeff(s, m)
                  for m in range(1, params.floor_s + 1))
    gamma_coeff = tuple(_gamma_coeff(s, ell)
                        for ell in range(params.floor_s + 1))
    return ProfileConstants(m_b=_m_b(params.b), kappa=kappa,
                            gamma_coeff=gamma_coeff)


# ---------------------------------------------------------------------------
# Fourier side

_SQRT2 = math.sqrt(2.0)


def psi_fourier(s: float, xi) -> float:
    """Unitary Fourier transform of psi_s:

    psi_s_hat(xi) = sqrt(2) Gamma(s + 1/2) / Gamma(s) (1 + xi^2)^{-(1+2s)/2}.

    Valid for every s > 0, integer orders included.
    """
    s = float(s)
    if not s > 0.0:
        raise ValueError(f"psi_fourier requires s > 0, got {s}")
    amp = _SQRT2 * math.exp(math.lgamma(s + 0.5) - math.lgamma(s))
    xi = np.asarray(xi, dtype=float)
    out = amp * (1.0 + xi ** 2) ** (-(1.0 + 2.0 * s) / 2.0)
    return float(out) if out.ndim == 0 else out


def seminorm_sq(s: float, alpha: float) -> float:
    """Squared Sobolev seminorm of psi_s of fractional order alpha:

    int |xi|^{2 alpha} |psi_s_hat|^2 dxi
        = Gamma(s+1/2)^2 / (s Gamma(2s) Gamma(s)^2)
          * Gamma(alpha+1/2) Gamma(2s-alpha+1/2),

    finite exactly for alpha in (-1/2, 2s + 1/2).
    """
    s = float(s)
    if not s > 0.0:
        raise ValueError(f"seminorm_sq requires s > 0, got {s}")
    if not (-0.5 < alpha < 2.0 * s + 0.5):
        raise ValueError(
            f"seminorm_sq diverges outside alpha in (-1/2, 2s+1/2); "
            f"got alpha={alpha} for s={s}")
    return math.exp(
        2.0 * math.lgamma(s + 0.5) - math.log(s) - math.lgamma(2.0 * s)
        - 2.0 * math.lgamma(s)
        + math.lgamma(alpha + 0.5) + math.lgamma(2.0 * s - alpha + 0.5)
    )
