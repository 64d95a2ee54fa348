"""Tests for the Macdonald-function layer: K_nu, psi_s, constants, Fourier."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracext.numdiff import central_derivative
from fracext.special import (
    FracParams,
    bessel_k,
    beta_fn,
    constants,
    psi,
    psi_deriv,
    psi_fourier,
    psi_lambda,
    psi_series,
    psi_taylor_remainder,
    seminorm_sq,
    trace_constant,
    weight_exponent,
)

# reference values computed with mpmath at 30 significant digits
K_TABLE = [
    (0.0, 0.5, 0.924419071227665862),
    (0.3, 0.01, 6.89010263829276954),
    (0.5, 1.0, 0.461068504447894558),
    (1.0, 1e-4, 9999.99950868640448),
    (2.5, 1.3, 1.52269140073989554),
    (0.5, 1.3, 0.299574908876650007),
    (1.5, 1.3, 0.530017146474073082),
    (3.7, 8.0, 0.000325215061111724302),
    (7.3, 2.5, 97.8258450669898423),
    (15.2, 30.0, 8.78652089873673268e-13),
    (33.0, 40.0, 3.1492013553450442e-13),
    (60.0, 120.0, 2.0254030216751996e-47),
    (0.25, 650.0, 2.51262358820502304e-284),
]


@pytest.mark.parametrize("nu,x,ref", K_TABLE)
def test_bessel_k_reference_values(nu, x, ref):
    assert bessel_k(nu, x) == pytest.approx(ref, rel=1e-12)


def test_bessel_k_half_integer_closed_form():
    # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
    for x in (0.1, 1.0, 5.0, 50.0):
        exact = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
        assert bessel_k(0.5, x) == pytest.approx(exact, rel=1e-13)
    assert bessel_k(0.5, 1.0) == pytest.approx(0.46106850, rel=1e-7)


def test_bessel_k_small_argument_asymptote():
    # x K_1(x) -> 1 as x -> 0
    assert 1e-4 * bessel_k(1.0, 1e-4) == pytest.approx(1.0, abs=1e-6)


def test_bessel_k_order_recurrence_against_quadrature():
    # K_{a}(y) - K_{a-2}(y) = 2(a-1)/y K_{a-1}(y); each factor independently
    # checked against the integral representation
    from scipy.integrate import quad

    def k_int(nu, x):
        val, err = quad(lambda t: math.exp(-x * math.cosh(t))
                        * math.cosh(nu * t), 0.0, 30.0, limit=200)
        assert err < 1e-9 * abs(val)
        return val

    a, y = 2.5, 1.3
    k_hi, k_mid, k_lo = bessel_k(a, y), bessel_k(a - 1, y), bessel_k(a - 2, y)
    for nu, got in ((a, k_hi), (a - 1, k_mid), (a - 2, k_lo)):
        assert got == pytest.approx(k_int(nu, y), rel=1e-9)
    resid = k_hi - k_lo - 2.0 * (a - 1.0) / y * k_mid
    assert abs(resid) <= 1e-9 * abs(k_hi)


@given(st.floats(0.0, 10.0), st.floats(0.05, 300.0))
@example(2.2250738585e-313, 0.5)  # subnormal order
@settings(max_examples=60, deadline=None)
def test_bessel_k_recurrence_property(nu, x):
    lhs = bessel_k(nu + 2, x) - bessel_k(nu, x)
    rhs = 2.0 * (nu + 1.0) / x * bessel_k(nu + 1, x)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-290)


def test_bessel_k_domain_and_overflow():
    with pytest.raises(ValueError):
        bessel_k(1.0, 0.0)
    with pytest.raises(ValueError):
        bessel_k(1.0, -2.0)
    with pytest.raises(OverflowError):
        bessel_k(60.0, 1e-6)


# ---------------------------------------------------------------------------
# the profile


def test_psi_exact_half_integer_profiles():
    y = np.array([0.3, 1.0, 2.0, 5.0])
    assert psi(0.5, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-13)
    np.testing.assert_allclose(psi(0.5, y), np.exp(-y), rtol=1e-13)
    np.testing.assert_allclose(psi(1.5, y), (1 + y) * np.exp(-y), rtol=1e-13)
    np.testing.assert_allclose(psi(2.5, y), (1 + y + y ** 2 / 3) * np.exp(-y),
                               rtol=1e-13)


def test_psi_origin_and_evenness():
    for s in (0.25, 0.5, 1.3, 3.7):
        assert psi(s, 0.0) == 1.0
        assert psi(s, 1e-12) == 1.0  # below the indeterminate-product cutoff
        assert psi(s, -1.7) == psi(s, 1.7)


def test_psi_underflows_to_zero_for_huge_argument():
    assert psi(0.5, 800.0) == 0.0


def psi_mp(s, y):
    """c_s y^s K_s(y) in 30-digit arithmetic, independent of fracext."""
    with mpmath.workdps(30):
        s, y = mpmath.mpf(s), mpmath.mpf(y)
        return float(2 ** (1 - s) / mpmath.gamma(s) * y ** s
                     * mpmath.besselk(s, y))


def test_psi_large_order_flat_region():
    # at large order the profile flattens: K overflows near the origin, yet
    # the profile still sits 4.2e-13 below 1 there, and the ascending series
    # confirms the moderate-argument values
    assert psi(60.5, 1e-5) == pytest.approx(psi_mp(60.5, 1e-5), rel=1e-13)
    assert psi(60.5, 1e-5) < 1.0
    assert psi(60.5, 1.0) == pytest.approx(psi_series(60.5, 1.0), rel=1e-12)
    assert psi(60.5, 1.0) == pytest.approx(1.0 - 1.0 / (4.0 * 59.5), rel=1e-4)


@pytest.mark.parametrize("s", [60.5, 100.5, 200.5])
@pytest.mark.parametrize("y", [0.01, 1.0, 30.0])
def test_psi_large_order_against_mpmath(s, y):
    # covers both routes: K_s overflows at the small arguments (ascending
    # series) and stays finite at y = 30 (kve in log space)
    assert psi(s, y) == pytest.approx(psi_mp(s, y), rel=1e-13)


@pytest.mark.parametrize("s,y", [(60.0, 1e-5), (400.5, 48.0), (700.5, 150.0)])
def test_psi_overflow_route_against_mpmath(s, y):
    # K_s overflows at these points, also where y^2 > 4s and the ascending
    # series would cancel catastrophically; integer orders included
    from scipy.special import kve
    assert math.isinf(kve(s, y))
    assert psi(s, y) == pytest.approx(psi_mp(s, y), rel=1e-13)


def test_psi_random_pairs_against_mpmath():
    rng = np.random.default_rng(20221)
    orders = rng.uniform(0.01, 20.0, 400)
    ys = np.exp(rng.uniform(math.log(1e-5), math.log(300.0), 400))
    for s, y in zip(orders, ys):
        assert psi(s, y) == pytest.approx(psi_mp(s, y), rel=1e-13), (s, y)


def test_psi_array_matches_elementwise():
    ys = np.geomspace(1e-9, 700.0, 60).reshape(6, 10)
    ys[0, :3] = (0.0, -1e-3, -2.0)
    for s in (0.3, 2.5, 100.5):
        vals = psi(s, ys)
        assert vals.shape == ys.shape
        ref = np.array([[psi(s, float(y)) for y in row] for row in ys])
        np.testing.assert_array_equal(vals, ref)


def test_psi_deriv_array_matches_scalar():
    ys = np.geomspace(1e-3, 30.0, 24).reshape(4, 6)
    for s, k in ((0.3, 1), (2.5, 1), (2.5, 2), (2.5, 3), (2.5, 5), (3.7, 6)):
        vals = psi_deriv(s, ys, k)
        ref = np.array([[psi_deriv(s, float(y), k) for y in row]
                        for row in ys])
        np.testing.assert_allclose(vals, ref, rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError):
        psi_deriv(1.5, np.array([1.0, 0.0]), 1)


def _taylor_remainder_mp(s, y, k):
    """psi_s(y) minus its Taylor polynomial of degree 2k, at 60 digits."""
    with mpmath.workdps(60):
        sm, ym = mpmath.mpf(s), mpmath.mpf(y)
        ref = (2 ** (1 - sm) / mpmath.gamma(sm) * ym ** sm
               * mpmath.besselk(sm, ym))
        for m in range(k + 1):
            ref -= ((-1) ** m * mpmath.gamma(sm - m) * ym ** (2 * m)
                    / (mpmath.gamma(sm) * 4 ** m * mpmath.factorial(m)))
        return float(ref)


def test_ascending_series_beyond_gamma_overflow():
    # Gamma(s) overflows above s ~ 171; the singular-branch factor
    # Gamma(-s)/Gamma(s) must still come out finite (here it underflows)
    assert psi_series(200.5, 1.0) == pytest.approx(psi_mp(200.5, 1.0),
                                                   rel=1e-15)
    for s, y, k in ((180.5, 0.5, 1), (200.5, 1.0, 2), (2.5, 2.0 ** -8, 2)):
        assert psi_taylor_remainder(s, y, k) == pytest.approx(
            _taylor_remainder_mp(s, y, k), rel=1e-14, abs=0.0), (s, y, k)


def test_psi_subnormal_order_against_mpmath():
    # kve is inf at a subnormal order; the value must not go to the order
    # recurrence, which would start at the same order again
    assert psi(1e-310, 0.5) == pytest.approx(psi_mp(1e-310, 0.5), rel=1e-12)
    assert math.isfinite(psi(1e-310, 0.5))


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 1.3, 2.5, 3.7])
def test_psi_bounds_and_monotonicity(s):
    ys = np.geomspace(1e-4, 30.0, 120)
    vals = psi(s, ys)
    assert np.all(vals > 0.0)
    assert np.all(vals <= 1.0)
    assert np.all(np.diff(vals) < 0.0)


def test_psi_series_matches_bessel_route():
    for s in (0.3, 0.7, 1.5, 2.5, 3.7):
        for y in (1e-3, 0.1, 0.7, 1.6):
            assert psi_series(s, y) == pytest.approx(psi(s, y), rel=1e-13)


def test_psi_lambda():
    assert psi_lambda(0.5, 4.0, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-13)
    assert psi_lambda(1.3, 1.0, 0.8) == psi(1.3, 0.8)
    assert psi_lambda(2.5, 7.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        psi_lambda(0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        psi_lambda(0.5, -1.0, 1.0)


def test_half_integer_shortcut_only_at_base_order():
    # |y|^k e^{-|y|} / (k+1)! agrees with the profile at k = 0 and provably
    # not beyond: the k = 1 profile is (1+y) e^{-y}, not y e^{-y} / 2
    y = 1.3
    assert psi(0.5, y) == pytest.approx(math.exp(-y), rel=1e-13)
    assert psi(1.5, y) == pytest.approx((1 + y) * math.exp(-y), rel=1e-13)
    assert psi(1.5, y) != pytest.approx(y * math.exp(-y) / 2.0, rel=1e-2)


# ---------------------------------------------------------------------------
# derivatives


def test_psi_deriv_first_order_closed_forms():
    assert psi_deriv(0.5, 1.3, 1) == pytest.approx(-math.exp(-1.3), rel=1e-12)
    # d/dy (1+y)e^{-y} = -y e^{-y}
    assert psi_deriv(1.5, 1.0, 1) == pytest.approx(-math.exp(-1.0), rel=1e-12)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 1.3, 2.5, 3.7])
def test_psi_deriv_first_order_against_richardson_fd(s):
    for y in (0.3, 1.0, 4.0):
        closed = psi_deriv(s, y, 1)
        fd = central_derivative(lambda t: psi(s, t), y)
        assert abs(closed - fd) <= 1e-7 * max(1.0, abs(closed))


def test_psi_deriv_higher_orders_against_fd():
    for s in (1.5, 2.5, 3.7):
        closed = psi_deriv(s, 1.1, 2)
        fd = central_derivative(lambda t: psi(s, t), 1.1, k=2, h=5e-3)
        assert closed == pytest.approx(fd, rel=2e-7, abs=1e-9)
    # third derivative: differentiate the closed second derivative
    closed3 = psi_deriv(2.5, 1.1, 3)
    fd3 = central_derivative(lambda t: psi_deriv(2.5, t, 2), 1.1, k=1, h=5e-3)
    assert closed3 == pytest.approx(fd3, rel=1e-9)
    # top odd order 2 floor(s)+1, admissible since frac(s) >= 1/2
    closed5 = psi_deriv(2.5, 1.1, 5)
    fd5 = central_derivative(lambda t: psi_deriv(2.5, t, 4), 1.1, k=1, h=5e-3)
    assert closed5 == pytest.approx(fd5, rel=1e-9)


def test_psi_deriv_even_profile_odd_derivative_vanishes_at_origin():
    vals = [psi_deriv(1.5, y, 1) for y in (1e-3, 5e-4, 2.5e-4)]
    assert abs(vals[-1]) < 1e-3
    assert abs(vals[-1]) < abs(vals[0])


def _psi_derivs_mp(s, y, n):
    """d^k/dy^k psi_s(y) for k = 0..n by mpmath's numerical
    differentiation at 20 digits (as doubles, equal to 40-digit values)."""
    with mpmath.workdps(20):
        sm = mpmath.mpf(s)
        c = 2 ** (1 - sm) / mpmath.gamma(sm)
        return [float(d) for d in mpmath.diffs(
            lambda t: c * t ** sm * mpmath.besselk(sm, t), mpmath.mpf(y), n)]


# admissible orders k in 1..9: 1 always, then k // 2 <= floor(s), and the
# top odd order 2 floor(s) + 1 only when frac(s) >= 1/2
ADMISSIBLE = {
    0.3: (1,),
    0.7: (1,),
    1.3: (1, 2),
    1.7: (1, 2, 3),
    2.5: (1, 2, 3, 4, 5),
    3.4: (1, 2, 3, 4, 5, 6),
}


@pytest.mark.parametrize("s", sorted(ADMISSIBLE))
def test_psi_deriv_admissible_table(s):
    for k in range(1, 10):
        if k in ADMISSIBLE[s]:
            psi_deriv(s, 1.0, k)
        else:
            with pytest.raises(ValueError):
                psi_deriv(s, 1.0, k)


@pytest.mark.parametrize("s", [0.3, 0.7, 1.3, 2.5, 3.6, 5.25])
def test_psi_deriv_every_admissible_order_against_mpmath(s):
    fl = math.floor(s)
    top = max(1, 2 * fl + 1 if s - fl >= 0.5 else 2 * fl)
    for y in (0.05, 1.0, 7.0):
        ref = _psi_derivs_mp(s, y, top)
        for k in range(1, top + 1):
            assert psi_deriv(s, y, k) == pytest.approx(
                ref[k], rel=1e-11, abs=0.0), (s, k, y)


def test_psi_deriv_admissible_range():
    with pytest.raises(ValueError):
        psi_deriv(1.5, 1.0, 0)
    with pytest.raises(ValueError):
        psi_deriv(0.5, -1.0, 1)
    with pytest.raises(ValueError):
        psi_deriv(1.5, 1.0, 4)  # even order needs floor(s) >= 2
    with pytest.raises(ValueError):
        psi_deriv(1.3, 1.0, 3)  # 2 floor(s)+1 needs frac(s) >= 1/2
    psi_deriv(1.7, 1.0, 3)  # ... and is admissible when it is


# ---------------------------------------------------------------------------
# parameters and constants


def test_frac_params_fields():
    p = FracParams.from_order(2.5)
    assert (p.floor_s, p.ceil_s) == (2, 3)
    assert p.b == pytest.approx(0.0)
    assert p.d_s == pytest.approx(8.0 / 3.0, rel=1e-14)
    assert -1.0 < FracParams.from_order(0.25).b < 1.0
    assert FracParams.from_order(0.25).b == pytest.approx(0.5)
    for bad in (2.0, 0.0, -0.5, 1.0):
        with pytest.raises(ValueError):
            FracParams.from_order(bad)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_order_rejected(bad):
    # from_order(inf) used to raise OverflowError from math.floor, and
    # psi(inf, 1.0) to return nan without complaint
    with pytest.raises(ValueError, match="finite"):
        FracParams.from_order(bad)
    with pytest.raises(ValueError, match="finite"):
        psi(bad, 1.0)


@given(st.floats(0.01, 59.99))
@settings(max_examples=80, deadline=None)
def test_weight_exponent_range(s):
    if s == math.floor(s):
        return
    assert -1.0 < weight_exponent(s) < 1.0
    assert trace_constant(s) > 0.0


def test_trace_constant_two_gamma_expressions_agree_below_one():
    # 2^b Gamma((1+b)/2)/Gamma(s) with b = 1-2s equals 2^{1-2s}Gamma(1-s)/Gamma(s)
    for s in (0.1, 0.25, 0.5, 0.75, 0.9):
        alt = 2.0 ** (1.0 - 2.0 * s) * math.gamma(1.0 - s) / math.gamma(s)
        assert trace_constant(s) == pytest.approx(alt, rel=1e-12)


def test_trace_constant_reference_values():
    assert trace_constant(0.5) == pytest.approx(1.0, rel=1e-14)
    assert trace_constant(1.5) == pytest.approx(2.0, rel=1e-14)
    assert trace_constant(2.5) == pytest.approx(8.0 / 3.0, rel=1e-14)
    assert trace_constant(0.3) == pytest.approx(0.572540458568311751, rel=1e-14)
    assert trace_constant(3.7) == pytest.approx(3.26162737352945926, rel=1e-14)


def test_constants_closed_forms():
    c = constants(FracParams.from_order(2.5))
    assert c.gamma_coeff[0] == 1.0
    # kappa_1 = -1/(2(s-1)) at s = 2.5
    assert c.kappa[0] == pytest.approx(-1.0 / 3.0, rel=1e-13)
    assert c.kappa[1] == pytest.approx(1.0, rel=1e-13)
    m0 = constants(FracParams.from_order(0.5)).m_b
    assert m0 == pytest.approx(2.0, rel=1e-14)


def test_constants_leading_gamma_coeff_is_exactly_one():
    # the log differences cancel pairwise at ell = 0; summed in the other
    # order they left 0.9999999999999999 here
    c = constants(FracParams.from_order(0.5076284947565249))
    assert c.gamma_coeff[0] == 1.0


def test_constants_kappa_matches_binomial_beta_sum():
    # independent route: kappa = sum_l C(m,l) (-1)^l B(s-l,1/2) / B(s,1/2)
    for s in (2.5, 3.7):
        c = constants(FracParams.from_order(s))
        for m in range(1, math.floor(s) + 1):
            total = sum(math.comb(m, ell) * (-1) ** ell
                        * beta_fn(s - ell, 0.5) for ell in range(m + 1))
            assert c.kappa[m - 1] == pytest.approx(total / beta_fn(s, 0.5),
                                                   rel=1e-12)


def test_trace_constant_equals_best_trace_constant():
    # m_b = 2 d_s at s = (1-b)/2: the trace inequality is saturated by psi_s
    for b in (-0.5, 0.0, 0.4):
        m_b = constants(FracParams.from_order(0.5 * (1 - b))).m_b
        assert m_b == pytest.approx(2.0 * trace_constant(0.5 * (1 - b)),
                                    rel=1e-13)


# ---------------------------------------------------------------------------
# Fourier side


def test_psi_fourier_values():
    assert psi_fourier(0.5, 0.0) == pytest.approx(math.sqrt(2.0 / math.pi),
                                                  rel=1e-14)
    # transform of e^{-|y|} is sqrt(2/pi)/(1+xi^2)
    for xi in (0.5, 2.0, 10.0):
        assert psi_fourier(0.5, xi) == pytest.approx(
            math.sqrt(2.0 / math.pi) / (1.0 + xi * xi), rel=1e-14)


def test_seminorm_sq_values_and_domain():
    assert seminorm_sq(0.5, 0.0) == pytest.approx(1.0, rel=1e-13)
    assert seminorm_sq(1.5, 1.0) == pytest.approx(0.5, rel=1e-13)
    assert seminorm_sq(0.5, 0.5) == pytest.approx(2.0 / math.pi, rel=1e-13)
    with pytest.raises(ValueError):
        seminorm_sq(0.5, 1.5)  # alpha >= 2s + 1/2 diverges
    with pytest.raises(ValueError):
        seminorm_sq(0.5, -0.5)


def test_operator_recurrence_lowers_the_order():
    # (D_b + 1) psi_s = (d_s/d_{s-1}) psi_{s-1} with the matched weight,
    # the operator applied purely by finite differences
    from fracext.numdiff import apply_db
    s = 1.3
    b = weight_exponent(s)
    ratio = trace_constant(s) / trace_constant(s - 1.0)
    for y in (0.1, 0.5, 1.0, 4.0, 10.0):
        got = apply_db(lambda t: psi(s, t), y, b, 1.0,
                       h=min(0.01, y / 60.0))
        want = ratio * psi(s - 1.0, y)
        assert got == pytest.approx(want, rel=1e-5)


def test_taylor_remainder_series_route():
    # remainder after the constant term behaves like -d_s/(2s) y^{2s}
    s = 0.3
    for y in (1e-3, 1e-2):
        lead = -trace_constant(s) / (2.0 * s) * y ** (2.0 * s)
        assert psi_taylor_remainder(s, y, 0) == pytest.approx(lead, rel=5e-3)
    with pytest.raises(ValueError):
        psi_taylor_remainder(2.5, 0.1, 3)
