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

Every routine's value is a pure function of its arguments.  The one shared
state is a memory of the last companion profile (below), which holds a
read-only array and its own copy of the key, and which returns exactly
what a recomputation would; a call that races another may lose the entry,
never get a wrong one, so all routines are safe to call concurrently.

``psi`` rests on one array kernel in numpy, with no special-function
dependency.  It forms the pair ``(2/Gamma(1+|mu|)) (y/2)^|mu| K_mu`` and
``psi_{mu+1}`` for an order ``mu`` in [-1/2, 0], by one of three routes
chosen per point: Temme's series (J. Comput. Phys. 19 (1975)) for y <= 1,
a trapezoidal rule on
``e^y K_nu(y) = int_0^inf exp(-y (cosh t - 1)) cosh(nu t) dt`` with an
exponentially convergent step (Trefethen & Weideman, SIAM Rev. 56 (2014))
for 1 < y <= 50, and the Hankel expansion (DLMF 10.40.2) above; the last
two carry the factor e^y, the series none.  At ``mu = -1/2`` the Hankel
sum terminates, and one closed form serves every y.  The powers of y are
formed inside the series, so no bare ``K`` overflows near the origin.  One
pair at ``mu = -min(g, 1-g)``, ``g = s - floor(s)``, serves the orders g
and 1 - g: ``psi`` takes the base orders g and g + 1 from it, one step of
a positive sum apart, and climbs to ``s`` by the positive order recurrence
(DLMF 10.29.1), applying ``e^{-y}`` at the end where the pair carried
``e^y``.  It is the library's only route to Macdonald values.  The kernel
is route-major: each route makes its set-up at ``mu`` (Temme's g1, g2 and
coefficient table, the trapezoid ``cosh`` columns, the Hankel rows) once
per call, picks its points of a window of ``_WINDOW`` points by
comparisons, and runs over them in blocks of ``_BLOCK`` points, each block
evaluating the pair, climbing to s and scattering the two outputs; points
past the order's cut take no kernel work.  So the temporaries scale with
the window, not with the number of points, and a point's arithmetic
depends only on its route, that is on y: a value comes out the same bits
in every call.  Each climb also forms the companion, the profile at the
order of ``psi_s'`` (s - 1 above 1, 1 - s below, 0 at s = 1; DLMF
10.29.1), one rung before the top or off the base pair, and ``psi``
remembers the last one, keyed by the profile it holds: its order, the
``mu`` of its kernel pair and the abscissae.  ``psi_s`` is read under
``(s, mu(s))`` and the profile of ``psi_s'`` under the order of
``psi_s'`` and ``mu(s)``, so a curve and its first derivative on one
array make one kernel evaluation and one climb at every order, and
``psi_s'`` keeps psi's rules: the ceiling at s and 0 at +inf.  A hit has
the bits of a cold call, which takes the same pair and the same float
factor on it.
``e^{-y} = 2^{-k} e^{-r}`` is applied with int32 exponents ``k``, which
keep ``np.ldexp`` on its vector loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FracParams",
    "psi",
    "psi_lambda",
    "psi_deriv",
    "psi_taylor_remainder",
    "psi_fourier",
    "seminorm_sq",
    "weight_exponent",
    "trace_constant",
]

# ---------------------------------------------------------------------------
# the Macdonald kernel

_MAX_ORDER = 1e5  # a 10 240-point psi call takes about 2 s there
_LN2 = math.log(2.0)
_LOG_HUGE = math.log(np.finfo(float).max)  # math.exp overflows above it
_TINY = float(np.finfo(float).tiny)
# Cody-Waite split of log 2: k * _LN2_HI is exact for |k| < 2^20
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_SERIES_EPS = 1e-17
_HANKEL_TERMS = 18
# (2k - 1)^2 and 8k, k = 1 .. _HANKEL_TERMS - 1, of the Hankel coefficients
_HANKEL_STEPS = tuple((float((2 * k - 1) ** 2), 8.0 * k)
                      for k in range(1, _HANKEL_TERMS))

# Taylor coefficients of 1/Gamma(1+x) = sum_j _INV_GAMMA[j] x^j, |x| <= 1
# (Abramowitz & Stegun 6.1.34, shifted by one index)
_INV_GAMMA = (
    1.0, 0.5772156649015329, -0.6558780715202538, -0.0420026350340952,
    0.1665386113822915, -0.0421977345555443, -0.0096219715278770,
    0.0072189432466630, -0.0011651675918591, -0.0002152416741149,
    0.0001280502823882, -0.0000201348547807, -0.0000012504934821,
    0.0000011330272320, -0.0000002056338417, 0.0000000061160950,
    0.0000000050020075, -0.0000000011812746, 0.0000000001043427,
    0.0000000000077823, -0.0000000000036968, 0.0000000000005100,
    -0.0000000000000206, -0.0000000000000054, 0.0000000000000014,
    0.0000000000000001,
)


def _trapezoid_nodes(lo, hi):
    """Nodes t, weights and 1 - cosh(t) of the trapezoidal rule for y in
    [lo, hi]: step 0.6 / sqrt(hi), cut where lo (cosh t - 1) > 40."""
    h = 0.6 / math.sqrt(hi)
    t = h * np.arange(math.ceil(math.acosh(1.0 + 40.0 / lo) / h) + 1)
    w = np.full(t.size, h)
    w[0] = 0.5 * h
    return t, w[:, None], -2.0 * np.sinh(0.5 * t) ** 2


# y <= 1: series, without e^y; (1, 8] and (8, 50]: trapezoid buckets;
# above: Hankel; the upper end of each route, the last closed by the cut
_ROUTE_TOPS = (1.0, 8.0, 50.0)

_BUCKETS = (_trapezoid_nodes(1.0, 8.0), _trapezoid_nodes(8.0, 50.0))


def _combine(rows, table):
    """sum_k rows[k] table[k]: (n, N) by (n, ...) to (..., N).

    einsum, not BLAS: a matrix product sums in an order that depends on
    the number of points, and a point must come out the same in every call.
    """
    return np.einsum("kn,k...->...n", rows, table)


def _powers(x, n):
    """Rows x^0 .. x^{n-1} of a 1-d array x."""
    p = np.empty((n, x.size))
    p[0] = 1.0
    for k in range(1, n):
        np.multiply(p[k - 1], x, out=p[k])
    return p


def _temme_table(mu):
    """Temme's series (Numerical Recipes 6.7) from its k = 1 term on.

    f_k, p_k, q_k for k >= 1 are linear in (f_1, p_0, q_0), so the
    coefficient of y^2k in K_mu - f_0 = sum_{k>=1} c_k f_k and in
    (y/2) K_{mu+1} = sum_k c_k (p_k - k f_k), c_k = (y^2/4)^k / k!, splits
    into one scalar per starting value: the returned (n, 2, 3) table, by
    power, sum and starting value, with (1 - mu^2) f_1 in place of f_1.
    Relative to the sums the terms are below k t^(k-|mu|) / k!^2,
    t = y^2/4, which fixes n at the series edge.
    """
    t_max = 0.25 * _ROUTE_TOPS[0] ** 2
    # f_k = (ff, fp, fq), p_k = (0, pp, 0), q_k = (0, 0, qq) in that basis
    ff, fp, fq = 1.0 / (1.0 - mu * mu), 0.0, 0.0
    pp, qq = 1.0 / (1.0 - mu), 1.0 / (1.0 + mu)
    rows = [0.0, 0.0, 0.0, 0.0, 1.0, 0.0]  # one row after the other
    # c = 1 / k! and w = 4^-k / k!, one exact power of two apart
    c, w, k = 1.0, 0.25, 1
    while k * t_max ** (k - abs(mu)) * c * c >= _SERIES_EPS:
        rows += (w * ff, w * fp, w * fq,
                 -w * k * ff, w * (pp - k * fp), -w * k * fq)
        k += 1
        den = k * k - mu * mu
        ff, fp, fq = k * ff / den, (k * fp + pp) / den, (k * fq + qq) / den
        pp /= k - mu
        qq /= k + mu
        c /= k
        w /= 4 * k
    return np.array(rows).reshape(-1, 2, 3)


def _series_route(mu):
    """Temme's series, y <= 1: the mu-dependent set-up, and the function
    that evaluates one block of y to the kernel pair of ``_climb``
    without its factor e^y, (y/2)^|mu| and None for (y/2)^(mu+1)."""
    # g1 and g2 of Temme from the odd and even Taylor coefficients of
    # 1/Gamma(1+x), free of the cancellation in their defining differences
    m2 = mu * mu
    g1 = g2 = 0.0
    for odd, even in zip(_INV_GAMMA[-1::-2], _INV_GAMMA[-2::-2]):
        g1 = g1 * m2 - odd
        g2 = g2 * m2 + even
    small = abs(mu) < 1e-8
    fact = 1.0 if small else math.pi * mu / math.sin(math.pi * mu)
    # start values times 2 / Gamma(1+mu), so that p_0 is (2/y)^mu itself
    # and the K_{mu+1} term comes out as exactly 1 at y -> 0
    ratio = math.gamma(1.0 - mu) / math.gamma(1.0 + mu)
    c0 = 2.0 * fact / math.gamma(1.0 + mu)
    tab = _temme_table(mu)

    def pair(y):
        ell = _LN2 - np.log(y)  # log(2/y) >= log 2, with no rounding of 2/y
        sig = mu * ell
        # ell sinh(sig) / sig, without 0/0 at mu = 0
        ell_sinhc = (ell * (1.0 + sig * sig / 6.0) if small
                     else np.sinh(sig) / mu)
        f0 = c0 * (g1 * np.cosh(sig) + g2 * ell_sinhc)
        # (1 - mu^2) f_1, (2/y)^mu and q_0: the one cancellation of the
        # series happens in the first
        start = np.empty((3, y.size))
        f1, p0, q0 = start
        np.exp(sig, out=p0)
        np.divide(ratio, p0, out=q0)
        np.add(f0, p0, out=f1)
        f1 += q0
        # per point sum_j start[j] s[i, j], in einsum as _combine's sums
        k = np.einsum("jn,ijn->in", start,
                      _combine(_powers(y * y, len(tab)), tab))
        k[0] += f0
        # (y/2)^|mu| = p0 and (y/2)^mu = 1 / p0 from the same exponential;
        # 2 / Gamma(1+|mu|) differs from 2 / Gamma(1+mu) by the factor
        # 1 / ratio
        k[0] *= p0 / ratio
        k[1] /= p0
        return k[0], k[1], p0, None

    return pair


def _trapezoid_columns(mu, bucket, scale):
    """cosh(nu t) w times ``scale`` at nu = (mu, mu + 1) on the nodes t of
    one bucket."""
    t, w, _ = _BUCKETS[bucket]
    cols = np.cosh(np.multiply.outer(t, (mu, mu + 1.0)))
    cols *= w
    cols *= scale
    return cols


def _hankel_rows(mu, scale):
    """Rows (a_k(mu), a_k(mu + 1)) times ``scale`` of the Hankel
    coefficients, a_k(nu) = a_{k-1}(nu) (4 nu^2 - (2k-1)^2) / (8k), a_0 = 1,
    on Python floats."""
    (sa, sb), a, b = scale, 1.0, 1.0
    nu_a, nu_b = 4.0 * mu * mu, 4.0 * (mu + 1.0) * (mu + 1.0)
    rows = [sa, sb]
    for odd2, eight_k in _HANKEL_STEPS:
        a *= (nu_a - odd2) / eight_k
        b *= (nu_b - odd2) / eight_k
        rows += (a * sa, b * sb)
    return np.array(rows).reshape(_HANKEL_TERMS, 2)


def _route(mu, r):
    """Route r of the kernel pair at mu (0 series, 1 and 2 the trapezoid
    buckets, 3 Hankel, and at mu = -1/2 the closed form): its set-up, once
    per profile call, and the function that evaluates one block of y to
    the pair, (y/2)^|mu| and (y/2)^(mu+1), None where it forms no power."""
    if mu == -0.5:  # K_{+-1/2} = sqrt(pi / 2y) e^{-y}: the Hankel sum ends
        return lambda y: (2.0, 1.0, None, None)
    if r == 0:
        return _series_route(mu)
    scale = (2.0 / math.gamma(1.0 - mu), 2.0 / math.gamma(1.0 + mu))
    if r < 3:
        cols = _trapezoid_columns(mu, r - 1, scale)
    else:
        table = _hankel_rows(mu, scale)

    def pair(y):
        if r < 3:
            nodes = np.multiply.outer(_BUCKETS[r - 1][2], y)
            ka, kb = _combine(np.exp(nodes, out=nodes), cols)
        else:
            ka, kb = _combine(_powers(1.0 / y, _HANKEL_TERMS),
                              table) * np.sqrt(0.5 * math.pi / y)
        half = 0.5 * y
        p = half ** -mu  # (y/2)^|mu|, and (y/2)^(mu+1) = (y/2) / p
        hp = half / p
        ka *= p
        kb *= hp
        return ka, kb, p, hp

    return pair


# points per block of a route: each route's temporaries, up to about 30
# rows of one block, stay near 0.5 MB whatever the size of the array
_BLOCK = 2048
# points per window of the array: a route gathers its points of one window
# and scatters its two outputs back, so those copies stay near 0.4 MB
_WINDOW = 8 * _BLOCK


def _exp_neg(y):
    """e^{-y} split as 2^{-k} e^{-r}, r in [0, log 2): (e^{-r}, k).

    k is int32, which keeps ``np.ldexp`` on its vector loop (an int64
    exponent takes a scalar one); |k| stays below 2^19 for every y that
    a profile keeps, 2e5 + 2000 at most."""
    k = np.floor(y * (1.0 / _LN2))
    r = (y - k * _LN2_HI) - k * _LN2_LO
    return np.exp(-r), k.astype(np.int32)


# ---------------------------------------------------------------------------
# order-dependent constants


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


@dataclass(frozen=True)
class FracParams:
    """Parameter bundle attached to a non-integer order s > 0.

    ``b`` is the weight exponent of the degenerate operator, ``c_s`` the
    profile normalisation making psi_s(0) = 1, ``d_s`` the constant in the
    energy identity ``|psi_{s,lam}|^2 = 2 d_s lam^s``, and ``m_b`` the best
    constant of the weighted trace inequality at weight b.
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

    @property
    def m_b(self) -> float:
        # a property, not a field: where b rounds to 1 the formula meets
        # lgamma(0), and from_order must not raise there
        return _m_b(self.b)


# ---------------------------------------------------------------------------
# the profile psi_s and friends

def _check_profile_order(s):
    s = float(s)
    if not 0.0 < s <= _MAX_ORDER:
        raise ValueError(
            f"psi requires a finite order 0 < s <= {_MAX_ORDER:g}, got {s}")
    return s


def _on_abscissae(y, positive, origin=1.0):
    """A profile on y, scalar or array, from ``positive`` on a 1-d array of
    finite y > 0: ``origin`` at the origin, even, 0 at +-inf and NaN at
    NaN."""
    y = np.asarray(y, dtype=float)
    # the common case, every point finite and positive, needs no mask and
    # no |y| copy (a NaN fails the first test)
    if y.size and y.min() > 0.0 and y.max() < math.inf:
        out = positive(y.ravel()).reshape(y.shape)
    else:
        ay = np.abs(y)
        out = np.where(ay == 0.0, origin, np.where(ay > 0.0, 0.0, np.nan))
        pos = (ay > 0.0) & (ay < math.inf)
        if pos.any():
            out[pos] = positive(ay[pos])
    return float(out) if out.ndim == 0 else out


def psi(s: float, y):
    """Profile psi_s(y) = c_s |y|^s K_s(|y|); accepts scalars or arrays.

    Exactly 1 at the origin (analytic limit), strictly positive, bounded by
    1, and decaying like e^{-|y|}.  Underflows to 0 for very large |y|.
    The cost grows with floor(s), one array step of the order recurrence
    per unit of order, so s above 1e5 raises ``ValueError``.
    """
    s = _check_profile_order(s)
    return _on_abscissae(y, lambda ay: _profile(s, ay))


def _base(s):
    """g = s - floor(s) in (0, 1] and the order mu = -min(g, 1 - g) of the
    kernel pair that serves s."""
    g = s - math.floor(s) or 1.0
    return g, -min(g, 1.0 - g)


# the companion of the last climb, (order, mu, abscissae, profile), or
# None before the first climb: the profile at ``order`` from the kernel
# pair at ``mu``.  One entry is enough, as no profile call falls between a
# curve and its derivative
_companion = None


def _profile(s, y, first_deriv=False):
    """psi_s on a 1-d array of finite y > 0, or with ``first_deriv`` the
    profile of psi_s' as the climb to s forms it: a copy of the remembered
    companion, or the companion itself, read-only, where it holds that
    profile, else a climb to s."""
    order = _first_deriv_order(s) if first_deriv else s
    entry = _companion  # one read: another thread may replace the entry
    if entry is not None:
        key = entry[2]
        if (entry[:2] == (order, _base(s)[1]) and key.shape == y.shape
                and (key == y).all()):
            return entry[3] if first_deriv else entry[3].copy()
    return _climb(s, y)[1 if first_deriv else 0]


def _climb(s, y):
    """psi_s on a 1-d array of finite y > 0 and the companion, the profile
    at the order of psi_s' (``_first_deriv_order``): at s = 1 the order
    0, where the profile is 0 (1 / Gamma(0) = 0) and no call reads it.

    The kernel pair at mu = -min(g, 1 - g), g = s - floor(s), is
    ``e^y (2 / Gamma(1+|mu|)) (y/2)^|mu| K_mu(y)`` and ``e^y psi_{mu+1}(y)``.
    The factors 2 / Gamma keep both finite at every mu: toward the origin
    the first tends to 1 / |mu| (about 2 log(2/y) at mu = 0) and the second
    to 1, which the series returns exactly.  At large y the first decays
    like y^(|mu| - 1/2) and the second grows like y^(mu + 1/2) <= sqrt(y),
    so no finite y overflows them.  The series route, y <= 1, leaves out
    the factor e^y.

    The routes run one after the other, each over its own points of a
    window of ``_WINDOW`` points in blocks of ``_BLOCK``: it gathers them,
    evaluates the pair, climbs to s (``_climb_block``) and scatters the two
    outputs.  Points at or past the larger cut take no kernel work.  A
    point's arithmetic depends on its route, that is on y, and on nothing
    else.
    The memory keeps the companion, read-only, with its own copy of y.
    """
    global _companion
    g, mu = _base(s)
    order = _first_deriv_order(s)
    # psi_v(y) <= c_v y^v sqrt(2 pi / y) e^{-y + v^2 / 2y} (cosh t >=
    # 1 + t^2/2 in the integral representation of K_v) rounds to 0 beyond
    # 2v + 2000
    cuts = (2.0 * s + 2000.0, 2.0 * order + 2000.0)
    reach = max(cuts)
    steps = round(s - g)
    if g >= 0.5:  # a carries K_{1-g}
        ratio = math.gamma(2.0 - g) / math.gamma(1.0 + g)
    else:  # b is psi_{1-g}
        ratio = math.gamma(1.0 - g) / math.gamma(1.0 + g)
    plan = (g, steps, ratio)
    # route r takes the points above the top of route r - 1 up to its own;
    # the last one ends below the larger cut, and at mu = -1/2 it serves
    # every y
    routes = list(enumerate(_ROUTE_TOPS + (math.nextafter(reach, 0.0),)))
    if mu == -0.5:
        routes = routes[-1:]
    outs = (np.empty(y.shape), np.empty(y.shape))
    pairs = {}
    for w0 in range(0, y.size, _WINDOW):
        yw = y[w0:w0 + _WINDOW]
        below = None
        for r, top in routes:
            upto = yw <= top
            mask = upto if below is None else upto ^ below
            below = upto
            n = np.count_nonzero(mask)
            if not n:
                continue
            if r not in pairs:
                pairs[r] = _route(mu, r)
            ys = yw[mask]
            rs = (np.empty(n), np.empty(n))
            for b0 in range(0, n, _BLOCK):
                yb = ys[b0:b0 + _BLOCK]
                # every route but the series carries the factor e^y
                _climb_block(plan, yb, *pairs[r](yb), r > 0,
                             [rb[b0:b0 + _BLOCK] for rb in rs])
            for out, rb in zip(outs, rs):
                out[w0:w0 + _WINDOW][mask] = rb
    for out, cut in zip(outs, cuts):
        out[y >= cut] = 0.0
    outs[1].flags.writeable = False
    _companion = (order, mu, y.copy(), outs[1])
    return outs


def _climb_block(plan, y, a, b, p, hp, scaled, outs):
    """psi_s from the kernel pair at mu = -min(g, 1 - g) on one block into
    outs[0], and the profile at the order of psi_s' into outs[1].

    psi_v = (2 / Gamma(v)) (y/2)^v K_v at the base order g is b (g >= 1/2,
    mu = g - 1) or g a (g < 1/2, mu = -g); one step of K_{g+1} = K_{g-1} +
    (2g/y) K_g with K_{g-1} = K_{1-g}, a sum of positive terms, gives
    psi_{g+1}, with (y/2)^{2g} from the route's p = (y/2)^|mu| or hp =
    (y/2) / p, and the positive recurrence psi_{v+1} = psi_v + (y/2)^2 /
    (v (v-1)) psi_{v-1} (DLMF 10.29.1) climbs from there to s.  A scaled
    pair carries the factor e^y, and every value of its climb the factor
    e^y 2^{-e}, with e from a power-of-two rescale every 8 steps; the
    unscaled series pair stays below 1 and needs neither.  The companion
    is psi_{s-1}, the last rung but one, for s > 1, and psi_{1-g} for s <=
    1: the base order of 1 - g, b (g <= 1/2) or (1 - g) a, which is 0 at
    s = 1.  The split of e^{-y} is made once for both.
    """
    g, steps, ratio = plan
    if g >= 0.5:
        lo, other = b, a
    else:
        lo, other = g * a, b
    e = 0
    if steps:
        if g == 0.5:  # the closed-form route forms no power
            w = 0.5 * y
        else:
            w = p * p if g < 0.5 else np.square(
                0.5 * y / p if hp is None else hp)
        hi = ratio * w * other + lo
        q = 0.25 * y * y
        for i in range(1, steps):
            v = g + i
            lo, hi = hi, hi + (1.0 / (v * (v - 1.0))) * q * lo
            if scaled and i % 8 == 0:
                hi, de = np.frexp(hi)
                lo = np.ldexp(lo, -de)
                e = e + de
        lo, hi = hi, lo
    else:
        hi = b if g <= 0.5 else (1.0 - g) * a
    if scaled:
        er, k = _exp_neg(y)
        e = e - k
    for v, out in zip((lo, hi), outs):
        if scaled:
            np.ldexp(np.multiply(v, er, out=out), e, out=out)
        # psi < 1 for y > 0: a rounding above 1 is cut back
        np.minimum(out if scaled else v, 1.0, out=out)


def psi_lambda(s: float, lam: float, y):
    """psi_{s,lam}(y) = psi_s(sqrt(lam) |y|) for a finite lam > 0."""
    if not 0.0 < lam < math.inf:
        raise ValueError(f"psi_lambda requires a finite lambda > 0, "
                         f"got lambda={lam}")
    return psi(s, math.sqrt(lam) * np.asarray(y, dtype=float))


def _gamma_coeff(s, ell):
    """B(s - ell, 1/2) / B(s, 1/2); exactly 1.0 at ell = 0, where both
    differences vanish."""
    return math.exp(
        (math.lgamma(s - ell) - math.lgamma(s))
        + (math.lgamma(s + 0.5) - math.lgamma(s - ell + 0.5))
    )


def _first_deriv_order(s):
    """The order of the profile in psi_s' (DLMF 10.29.1): s - 1 above 1,
    1 - s below."""
    return s - 1.0 if s > 1.0 else 1.0 - s


def _first_deriv_factors(s):
    """(coef, expo, order) with psi_s'(y) = coef y^expo psi_order(y), y > 0:
    the two closed-form branches around s = 1."""
    order = _first_deriv_order(s)
    if s > 1.0:
        return -1.0 / (2.0 * (s - 1.0)), 1.0, order
    return -trace_constant(s), 2.0 * s - 1.0, order


def _collapse(s, lam, m):
    """lam^m d_s / d_{s-m}, exactly 1.0 at m = 0: the coefficient of the
    collapse (D_b + lam)^m psi_{s,lam} = lam^m (d_s / d_{s-m})
    psi_{s-m,lam}, valid at the matched weight b and m <= floor(s), which
    the caller owes.  ``lam`` is one eigenvalue or an array of them."""
    if m == 0:
        return 1.0
    return lam ** m * trace_constant(s) / trace_constant(s - m)


def _psi_first_deriv(s, y):
    """psi_s' on y >= 0, with psi's order ceiling at s and 0 at +inf; at 0
    the right limit, 0 above s = 1/2 and -1 at it (psi_{1/2} = e^{-y})."""
    s = _check_profile_order(s)
    coef, expo, order = _first_deriv_factors(s)
    cut = 2.0 * order + 2000.0  # psi_order is 0 from there (``_climb``)

    def positive(ay):
        # (coef y^expo) psi_order in place, y held at the cut so that no
        # huge y overflows; psi_order comes from the climb to s, so that a
        # curve and its derivative make one climb at every order
        out = np.minimum(ay, cut)
        if expo != 1.0:
            with np.errstate(over="ignore"):
                out **= expo
        out *= coef
        if expo < 0.0:  # y^expo alone can overflow at subnormal y
            big = np.isinf(out)
            with np.errstate(over="ignore"):
                out[big] = -np.exp(math.log(-coef) + expo * np.log(ay[big]))
            if np.isinf(out[big]).any():
                raise ValueError(f"psi_deriv(s={s}, k=1) overflows: the "
                                 f"result must be finite")
        out *= _profile(s, ay, first_deriv=True)
        return out

    return _on_abscissae(y, positive, -1.0 if s == 0.5 else 0.0)


def _whole_order(k, what):
    """k as an int; a ValueError naming it unless it is a whole number."""
    if not float(k).is_integer():
        raise ValueError(f"{what} order k must be a whole number, got k={k}")
    return int(k)


def psi_deriv(s: float, y, order: int):
    """Exact derivative d^k/dy^k psi_s(y) on y > 0, as one binomial sum.

    On the Fourier side psi_s_hat = sqrt(2) Gamma(s+1/2)/Gamma(s)
    (1+xi^2)^{-(1+2s)/2}, so each factor 1 + xi^2 lowers the order by one:
    (1+xi^2)^l psi_s_hat = g_l psi_{s-l}_hat with g_l = B(s-l, 1/2) /
    B(s, 1/2).  Writing k = 2m + r, r in {0, 1}, and (i xi)^{2m} =
    (1 - (1+xi^2))^m gives

        psi_s^{(k)} = sum_{l=0}^{m} C(m, l) (-1)^l g_l psi_{s-l}^{(r)},

    with the closed-form first derivative for r = 1, whose profile comes
    from the climb to s - l.  ``y`` may be a scalar or an array of
    abscissae y >= 0; every term is one profile evaluation on the whole
    array.  At y = 0 the value is the right limit: every psi_v(0) is 1 and
    psi_v'(0+) is 0 for v > 1/2 and -1 at v = 1/2.  Admissible k: 0 and 1
    always; otherwise m <= floor(s), where the top odd order 2 floor(s) + 1
    also needs frac(s) >= 1/2.  Beyond that range the derivatives are
    unbounded near the origin, as psi_s' is for s < 1/2, where y = 0 is
    refused.
    """
    s = _check_noninteger_order(s)
    order = _whole_order(order, "derivative")
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
    low = y.min(initial=math.inf)
    # a NaN minimum hides a negative point and a 0: then the least number
    bottom = low if low == low else np.fmin.reduce(y, None, initial=low)
    if bottom < 0.0:
        raise ValueError(f"psi_deriv requires y >= 0, got min {low}")
    if order == 1 and s < 0.5 and bottom == 0.0:
        raise ValueError(f"psi_deriv(s={s}, k=1) is unbounded at y = 0: "
                         f"psi_s'(y) ~ -d_s y^(2s-1) below s = 1/2")
    if y.ndim == 0:
        y = float(y)
    f = _psi_first_deriv if r else psi
    # the l = 0 term has coefficient 1; the sum starts there, so that order
    # 1 keeps the sign of a -0.0
    total = f(s, y)
    for ell in range(1, m + 1):
        total = total + (math.comb(m, ell) * (-1.0) ** ell
                         * _gamma_coeff(s, ell) * f(s - ell, y))
    return total


def psi_taylor_remainder(s: float, y: float, k: int) -> float:
    """Stable remainder of the boundary Taylor expansion of psi_s.

        psi_s(y) - sum_{m=0}^{k} kappa_{s,m}/(2m)! y^{2m},
        kappa_{s,m}/(2m)! = (-1)^m Gamma(s-m) / (Gamma(s) 2^{2m} m!),

    evaluated through the ascending series so that the heavy cancellation at
    small y never happens in floating point.  The analytic-series terms of
    order m <= k equal the Taylor terms, since (1-s)_m = (-1)^m Gamma(s) /
    Gamma(s-m), so the remainder is the analytic tail from m = k+1 plus the
    singular branch.  Requires psi's orders, a whole 0 <= k <= floor(s) and
    a finite y.
    Away from the origin the series cancel: where the sum of their terms'
    magnitudes exceeds the remainder by more than 1e4 (at s = 2.5, k = 1
    from about y = 10 on) the remainder is a ValueError naming s, y and k.
    """
    s = _check_profile_order(_check_noninteger_order(s))
    k = _whole_order(k, "remainder")
    if not 0 <= k <= math.floor(s):
        raise ValueError(f"remainder order k={k} outside 0..floor(s)")
    if not math.isfinite(y):
        raise ValueError(f"psi_taylor_remainder requires a finite y, "
                         f"got y={y}")
    t = 0.25 * y * y
    total, size = _ascending_tail(t, -s, k + 1)
    if y == 0.0:
        return total
    # the singular branch y^{2s}, entirely beyond the polynomial part:
    # (Gamma(-s)/Gamma(s)) (|y|/2)^{2s} sum_m (y^2/4)^m / (m! (1+s)_m), the
    # Gamma ratio and the power in log space, so that it stays finite where
    # Gamma(s) overflows; sign(Gamma(-s)) = (-1)^{floor(s)+1}
    series, _ = _ascending_tail(t, s, 0)  # positive terms
    sign = (-1.0) ** (math.floor(s) + 1)
    # below the normal range |y|/2 rounds, to 0 at the smallest
    # subnormal, so there the log is log|y| - log 2
    ay = abs(y)
    log_half = math.log(0.5 * ay) if ay >= _TINY else math.log(ay) - _LN2
    log_scale = math.lgamma(-s) - math.lgamma(s) + 2.0 * s * log_half
    scale = math.exp(log_scale) if log_scale < _LOG_HUGE else math.inf
    result = total + sign * scale * series
    if not size + scale * series <= 1e4 * abs(result) < math.inf:
        raise ValueError(f"psi_taylor_remainder(s={s}, y={y}, k={k}) loses "
                         f"more than 4 digits to cancellation between its "
                         f"ascending series")
    return result


def _ascending_tail(t, a, start):
    """sum_{m >= start} t^m / prod_{j <= m} j (j + a), and the sum of the
    terms' magnitudes.

    Summed until a term leaves the sum unchanged and no later term is
    larger: every ratio t / (j (j + a)), j > m, is below 1 once t is below
    (m + 1) times the distance from a to the integers, or, past m = -a,
    once the next ratio is.  A sum that leaves the double range ends there.
    """
    gap = abs(a - round(a))
    term, total, size, m = 1.0, 0.0, 0.0, 0
    while math.isfinite(total):
        if m >= start:
            if total + term == total and (
                    t < (m + 1) * gap or m > -a and t < (m + 1) * (m + 1 + a)):
                break
            total += term
            size += abs(term)
        m += 1
        term *= t / (m * (m + a))
    return total, size


# ---------------------------------------------------------------------------
# Fourier side

_SQRT2 = math.sqrt(2.0)


def psi_fourier(s: float, xi) -> float:
    """Unitary Fourier transform of psi_s:

    psi_s_hat(xi) = sqrt(2) Gamma(s + 1/2) / Gamma(s) (1 + xi^2)^{-(1+2s)/2}.

    Valid for every s > 0, integer orders included.
    """
    s = float(s)
    if not 0.0 < s < math.inf:
        raise ValueError(f"psi_fourier requires s > 0 and finite, got {s}")
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
    if not 0.0 < s < math.inf:
        raise ValueError(f"seminorm_sq requires s > 0 and finite, got {s}")
    if not (-0.5 < alpha < 2.0 * s + 0.5):
        raise ValueError(
            f"seminorm_sq diverges outside alpha in (-1/2, 2s+1/2); "
            f"got alpha={alpha} for s={s}")
    return math.exp(
        2.0 * math.lgamma(s + 0.5) - math.log(s) - math.lgamma(2.0 * s)
        - 2.0 * math.lgamma(s)
        + math.lgamma(alpha + 0.5) + math.lgamma(2.0 * s - alpha + 0.5)
    )


def _psi_l2_sq(s: float, b: float) -> float:
    """int_0^inf y^b psi_s(y)^2 dy, b > -1, in closed form: the Mellin
    transform of K_s^2 (Gradshteyn & Ryzhik 6.576.4 at a = b), 2^b
    Gamma(h) Gamma(h+s)^2 Gamma(h+2s) / (Gamma(s)^2 Gamma(2h+2s)), h = (1+b)/2.
    """
    h = 0.5 * (1.0 + b)
    return math.exp(b * _LN2 + math.lgamma(h) + 2.0 * math.lgamma(h + s)
                    + math.lgamma(h + 2.0 * s) - 2.0 * math.lgamma(s)
                    - math.lgamma(2.0 * h + 2.0 * s))
