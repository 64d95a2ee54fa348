"""Tests for the Macdonald-function layer: K_nu, psi_s, constants, Fourier."""

import dataclasses
import math
import sys
import threading
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracext import special
from fracext.extension import (
    conormal_trace,
    derivative_curve,
    extend,
    taylor_expand,
)
from fracext.special import (
    FracParams,
    psi,
    psi_deriv,
    psi_fourier,
    psi_lambda,
    psi_taylor_remainder,
    seminorm_sq,
    trace_constant,
    weight_exponent,
)
from fracext.spectral import (
    ModalVector,
    dirichlet_laplacian_1d,
    explicit_spectrum,
)
from finite_differences import central_derivative

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


@pytest.mark.parametrize("nu,x,ref", [row for row in K_TABLE if row[0] > 0])
def test_psi_matches_the_macdonald_reference_values(nu, x, ref):
    # psi_nu(x) = c_nu x^nu K_nu(x), c_nu = 2^(1-nu) / Gamma(nu)
    want = float(mpmath.mpf(ref) * mpmath.mpf(2) ** (1 - nu)
                 * mpmath.mpf(x) ** nu / mpmath.gamma(nu))
    assert psi(nu, x) == pytest.approx(want, rel=1e-14)


def test_kernel_pair_gives_k0_at_the_reference_value():
    # at mu = 0 the first of the pair is 2 K_0(y) on the series route, which
    # leaves out the factor e^y, and (y/2)^|mu| is 1
    (nu, x, ref), = [row for row in K_TABLE if row[0] == 0]
    assert x <= special._ROUTE_TOPS[0]
    a, _, p = special._route(nu, 0)(np.array([x]))
    assert a[0] / 2.0 == pytest.approx(ref, rel=1e-14)
    assert p[0] == 1.0


@pytest.mark.parametrize("s", [0.3, 50.5, 400.5])
def test_psi_zero_beyond_the_cutoff(s):
    # past y = 2s + 2000 the bound c_s y^s sqrt(2 pi / y) e^{-y + s^2 / 2y}
    # on psi_s(y) lies below the smallest double, so the cut loses nothing
    y = 2.0 * s + 2000.0
    assert psi(s, math.nextafter(y, math.inf)) == 0.0
    log_bound = (special._log_c(s) + s * math.log(y)
                 + 0.5 * math.log(2.0 * math.pi / y) - y + s * s / (2.0 * y))
    assert log_bound < math.log(math.ulp(0.0))
    assert 0.0 <= psi(s, y) <= 1e-300


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
        # 1 - psi_s(y) ~ (y/2)^{2 min(s, 1)} is far below an ulp here
        assert psi(s, 1e-300) == pytest.approx(1.0, rel=1e-15, abs=0.0)
        assert psi(s, 1e-300) <= 1.0
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
    assert psi(60.5, 1.0) == pytest.approx(
        1.0 + psi_taylor_remainder(60.5, 1.0, 0), rel=1e-12)
    assert psi(60.5, 1.0) == pytest.approx(1.0 - 1.0 / (4.0 * 59.5), rel=1e-4)


def psi_half_mp(s, y):
    """psi_{n+1/2}(y) = e^{-y} sum_j b_j y^j in 40-digit arithmetic, with
    b_0 = 1 and b_{j+1} / b_j = 2(n-j) / ((2n-j)(j+1)) (DLMF 10.49.12);
    far faster than mpmath's besselk at large order and argument."""
    n = round(s - 0.5)
    assert s == n + 0.5
    with mpmath.workdps(40):
        y = mpmath.mpf(y)
        b, total = mpmath.mpf(1), mpmath.mpf(1)
        for j in range(n):
            b = b * 2 * (n - j) / ((2 * n - j) * (j + 1))
            total += b * y ** (j + 1)
        return float(total * mpmath.exp(-y))


def test_psi_half_mp_matches_besselk():
    for s, y in ((2.5, 1.3), (60.5, 30.0), (400.5, 300.0)):
        assert psi_half_mp(s, y) == pytest.approx(psi_mp(s, y), rel=1e-15)


_LARGE_ORDER_POINTS = [(s, y) for s in (60.5, 100.5, 200.5)
                       for y in (0.01, 1.0, 30.0)] + [(400.5, 300.0),
                                                      (400.5, 1000.0)]


@pytest.mark.parametrize("s,y", [pytest.param(s, y, id=f"{y}-{s}")
                                 for s, y in _LARGE_ORDER_POINTS])
def test_psi_large_order_against_mpmath(s, y):
    # K_s overflows at the small arguments and stays finite at the large
    # ones; a log-space route lost digits here: 7.2e-14 at (100.5, 1),
    # 5.1e-13 at (400.5, 300), 4.5e-13 at (400.5, 1000).  The positive
    # order recurrence keeps them within a few ulp
    assert psi(s, y) == pytest.approx(psi_half_mp(s, y), rel=1e-14, abs=0.0)


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
        assert psi(s, y) == pytest.approx(psi_mp(s, y), rel=1e-14,
                                          abs=0.0), (s, y)


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
    # y = 0 takes the right limit, 0 for psi_{1.5}', and y < 0 is refused
    got = psi_deriv(1.5, np.array([1.0, 0.0]), 1)
    assert _bits(got) == _bits([psi_deriv(1.5, 1.0, 1), 0.0])
    with pytest.raises(ValueError, match=r"requires y >= 0, got min -1\.0"):
        psi_deriv(1.5, np.array([1.0, -1.0]), 1)


def _taylor_remainder_mp(s, y, k):
    """psi_s(y) minus its Taylor polynomial of degree 2k, at 60 digits plus
    the 2 (k + 1) per decade below y = 1 that cancel against psi_s(0) = 1."""
    digits = 60 + 2 * (k + 1) * max(0, -math.floor(math.log10(y)))
    with mpmath.workdps(digits):
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
    assert 1.0 + psi_taylor_remainder(200.5, 1.0, 0) == pytest.approx(
        psi_mp(200.5, 1.0), rel=1e-15)
    for s, y, k in ((180.5, 0.5, 1), (200.5, 1.0, 2), (2.5, 2.0 ** -8, 2)):
        assert psi_taylor_remainder(s, y, k) == pytest.approx(
            _taylor_remainder_mp(s, y, k), rel=1e-14, abs=0.0), (s, y, k)


@pytest.mark.parametrize("s", [0.001, 0.01, 0.1])
@pytest.mark.parametrize("y", [1e-300, 1e-100, 1e-12, 0.99e-8, 1.01e-8])
def test_psi_small_argument_against_mpmath(s, y):
    # 1 - psi_s(y) ~ Gamma(1-s)/Gamma(1+s) (y/2)^{2s} is far from 0 at
    # small s: a fixed cutoff that returned 1 below y = 1e-8 gave
    # psi(0.01, 0.99e-8) = 1 against 0.3099
    assert psi(s, y) == pytest.approx(psi_mp(s, y), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("s", [0.3, 0.77, 1.2, 2.9, 3.7])
@pytest.mark.parametrize("edge", [1.0, 2.0, 8.0, 50.0])
def test_psi_continuous_across_route_switches(s, edge):
    # the kernel switches from Temme's series to the trapezoid buckets and
    # to the Hankel sum at y = 1, 8 and 50 (y = 2 lies inside the first
    # bucket); one ulp either side, the two values differ by the slope
    # times the step and by nothing else
    lo, hi = np.nextafter(edge, 0.0), np.nextafter(edge, 2.0 * edge)
    jump = psi(s, hi) - psi(s, lo) - (hi - lo) * psi_deriv(s, edge, 1)
    assert abs(jump) <= 4e-15 * psi(s, edge)


def test_psi_subnormal_order_against_mpmath():
    # c_s and psi_s(0.5) are subnormal at a subnormal order, where
    # Gamma(s) itself overflows
    assert psi(1e-310, 0.5) == pytest.approx(psi_mp(1e-310, 0.5), rel=1e-12)
    assert math.isfinite(psi(1e-310, 0.5))


_BASE_ORDERS = [1e-3, 0.1, 0.49, 0.5 - 1e-12, 0.5]
_BASE_YS = np.geomspace(1e-8, 200.0, 25)


def _rel_err_mp(got, ref):
    with mpmath.workdps(40):
        return max(float(abs(mpmath.mpf(float(v)) / r - 1))
                   for v, r in zip(got, ref))


@pytest.mark.parametrize("g", _BASE_ORDERS)
def test_base_pair_against_mpmath(g):
    # one kernel pair at mu = -min(g, 1 - g) serves both g and 1 - g: the
    # order below 1/2 is g a, the step to g + 1 a sum of positive terms
    for s in (g, 1.0 - g, g + 1.0):
        with mpmath.workdps(40):
            sm = mpmath.mpf(s)
            ref = [2 ** (1 - sm) / mpmath.gamma(sm) * mpmath.mpf(y) ** sm
                   * mpmath.besselk(sm, mpmath.mpf(y)) for y in _BASE_YS]
        assert _rel_err_mp(psi(s, _BASE_YS), ref) <= 5e-15, s


@pytest.mark.parametrize("s", _BASE_ORDERS + [0.7, 0.999])
def test_first_derivative_below_one_against_mpmath(s):
    # (y^s K_s)' = -y^s K_{s-1} = -y^s K_{1-s} (DLMF 10.29.4)
    with mpmath.workdps(40):
        sm = mpmath.mpf(s)
        ref = [-(2 ** (1 - sm)) / mpmath.gamma(sm) * mpmath.mpf(y) ** sm
               * mpmath.besselk(1 - sm, mpmath.mpf(y)) for y in _BASE_YS]
    assert _rel_err_mp(psi_deriv(s, _BASE_YS, 1), ref) <= 5e-15


# the companion memory of special._climb; the kernel_calls fixture counts
# its evaluations (conftest.py)


@pytest.mark.parametrize("s", [0.3, 0.7, 1.3, 2.6, 3.4])
def test_curve_and_its_derivative_share_one_kernel_evaluation(s,
                                                              kernel_calls):
    # psi_s and the first-derivative profile psi_{s-1} (s > 1) or psi_{1-s}
    # (s < 1) share their kernel pair, also at s = 0.3, where 1 - (1 - s)
    # does not round back to s; the conormal trace between them is a
    # closed form and evaluates no profile
    u = ModalVector(np.random.default_rng(7).normal(size=16),
                    dirichlet_laplacian_1d(2.0, 16))
    curve = extend(u, s)
    conormal_trace(u, s)
    derivative_curve(u, s, 1)
    assert kernel_calls == [curve.values.size]


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def test_psi_does_not_depend_on_earlier_calls(monkeypatch):
    # orders that share one kernel pair, in random call orders: a warm
    # memory gives the bits of a cold one
    ys = np.geomspace(1e-6, 2500.0, 300)
    orders = (0.3, 0.7, 1.3, 2.3, 2.7, 0.5, 1.5)
    cold = {}
    for s in orders:
        monkeypatch.setattr(special, "_companion", None)
        cold[s] = _bits(psi(s, ys))
    climbed = []
    climb = special._climb
    monkeypatch.setattr(special, "_climb",
                        lambda s, y: climbed.append(s) or climb(s, y))
    rng = np.random.default_rng(3)
    for _ in range(6):
        for s in rng.permutation(orders):
            assert _bits(psi(s, ys)) == cold[s], s
    # and the remembered companion is exactly the recomputed one: the
    # companion of a cold climb to the same order in every case, and a
    # cold call at its order where that takes the same kernel pair
    order, mu, key, companion = special._companion
    last = climbed[-1]
    assert (order, mu) == (special._first_deriv_order(last),
                           special._base(last)[1])
    monkeypatch.setattr(special, "_companion", None)
    assert _bits(companion) == _bits(climb(last, key.copy())[1])
    if special._base(order)[1] == mu:
        monkeypatch.setattr(special, "_companion", None)
        assert _bits(companion) == _bits(psi(order, key.copy()))


def test_kernel_memory_is_not_shared_with_the_caller(kernel_calls):
    ys = np.geomspace(1e-3, 60.0, 50)
    kept = ys.copy()
    first = psi(1.3, ys)
    want = _bits(first)
    first[:] = 0.0  # a returned array
    ys *= 2.0  # the caller's abscissae, in place
    assert _bits(psi(1.3, kept)) == want
    assert _bits(psi(1.3, ys)) == _bits(psi(1.3, 2.0 * kept))
    # the remembered companion cannot be written, its key is a copy, and a
    # hit is a copy
    _, _, key, companion = special._companion
    with pytest.raises(ValueError):
        companion[0] = 0.0
    assert not np.shares_memory(key, ys)
    hit = psi(1.3 - 1.0, ys)
    want = _bits(hit)
    hit[:] = 0.0
    assert _bits(psi(1.3 - 1.0, ys)) == want
    assert kernel_calls == [50, 50, 50, 50]


def test_kernel_memory_under_threads(monkeypatch):
    # threads share the memory; each must get the bits of a cold call on
    # either of two arrays, whatever the other threads left behind
    arrays = (np.geomspace(1e-4, 80.0, 400), np.linspace(0.5, 2500.0, 300))
    # with the orders of their first derivatives, which the memory keeps
    orders = (0.3, 0.7, 1.3, 2.7, 1.0 - 0.7, 1.3 - 1.0, 2.7 - 1.0)
    want = {}
    for k, ys in enumerate(arrays):
        for s in orders:
            monkeypatch.setattr(special, "_companion", None)
            want[k, s] = _bits(psi(s, ys))
    wrong = []

    def work(seed):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            k, s = int(rng.integers(2)), float(rng.choice(orders))
            if _bits(psi(s, arrays[k])) != want[k, s]:
                wrong.append((k, s))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []


def _no_climb(*args):
    raise AssertionError("a companion hit climbed")


@given(s=st.floats(0.0, 8.0, exclude_min=True, exclude_max=True))
@example(s=10.3)  # climbs past a power-of-two rescale
@example(s=40.7)
@example(s=400.5)  # live cut 2s + 2000, companion cut 2(s - 1) + 2000
@example(s=0.3)  # g < 1/2, and 1 - (1 - s) != s
@example(s=0.7)  # g > 1/2
@example(s=0.5)  # g = 1/2: psi_{1-s} is psi_s itself
@example(s=1.5)
@example(s=1.0)  # psi_1' has the order-0 profile, 0, which no call reads
@example(s=2.0)
@example(s=3.0)
@settings(max_examples=30, deadline=None)
def test_companion_hit_has_the_bits_of_a_cold_call(s):
    order = s - 1.0 if s > 1.0 else 1.0 - s
    ys = np.concatenate((
        np.geomspace(1e-8, 3000.0, 400),
        2.0 * s + 2000.0 + np.array([-1.0, -0.5, 0.0, 0.5]),
        2.0 * order + 2000.0 + np.array([-0.5, 0.0, 0.5])))
    special._companion = None
    cold = _bits(psi(order, ys)) if order > 0.0 else None
    special._companion = None
    psi(s, ys)
    # the entry is keyed by the profile it holds: its order and the mu of
    # the kernel pair it came from
    held, mu, key, companion = special._companion
    assert (held, mu) == (order, special._base(s)[1])
    assert not companion.flags.writeable
    if order == 0.0:
        # s = 1: psi_1' has the order-0 profile, 0 as 1 / Gamma(0) is, and
        # no call is served it: psi refuses the order 0, psi_deriv the
        # integer order 1
        assert not companion.any()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(special, "_climb", _no_climb)
            with pytest.raises(ValueError, match="order"):
                psi(order, ys)
            with pytest.raises(ValueError, match="non-integer"):
                psi_deriv(s, ys, 1)
        return
    if special._base(order)[1] != mu:
        # 1 - s rounded onto another kernel pair: a direct call there
        # misses, climbs, and gives the bits of a cold call
        assert s < 1.0
        assert _bits(psi(order, ys)) == cold
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(special, "_climb", _no_climb)
        hit = psi(order, ys)
    assert hit.flags.writeable and hit is not companion
    assert _bits(hit) == cold


@given(s=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True))
@example(s=1.3)
@example(s=1.5)  # 2 - s = s - 1 = 1/2
@example(s=1.7)
@example(s=1.01)
@example(s=1.99)
@example(s=1.123456789)
@settings(max_examples=30, deadline=None)
def test_first_derivative_at_two_minus_s_reads_the_climb_to_s(s):
    # psi_{2-s}' has the profile psi_{s-1}, which the climb to s keeps from
    # the same kernel pair: 1 - (2 - s) = s - 1 exactly, and both orders
    # take mu = -min(s - 1, 2 - s)
    ys = np.concatenate((np.geomspace(1e-8, 3000.0, 400),
                         2.0 * s + 2000.0 + np.array([-1.0, 0.0, 1.0])))
    special._companion = None
    cold = _bits(psi_deriv(2.0 - s, ys, 1))
    special._companion = None
    psi(s, ys)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(special, "_climb", _no_climb)
        assert _bits(psi_deriv(2.0 - s, ys, 1)) == cold


def test_exp_neg_scaling_is_exact_up_to_the_largest_cut():
    # v e^{-y} = ldexp(v e^{-r}, e - k) from the int32 split of _exp_neg, as
    # _climb applies it, against math.ldexp on Python integers, for y up to
    # the live cut of the largest order, 2 * 1e5 + 2000
    rng = np.random.default_rng(4)
    ys = np.concatenate(([0.0, 2e5 + 2000.0],
                         rng.uniform(0.0, 2e5 + 2000.0, 3000),
                         rng.uniform(2e5, 2e5 + 2000.0, 500)))
    v = rng.uniform(0.5, 1.0, ys.size)
    k = np.floor(ys * (1.0 / special._LN2))
    er = np.exp(-((ys - k * special._LN2_HI) - k * special._LN2_LO))
    # exponents that put every result below 2^1022, normal, subnormal or
    # zero
    e = (k + rng.integers(-1100, 1022, ys.size)).astype(np.int32)
    want = [math.ldexp(float(x), int(ei) - int(ki))
            for x, ei, ki in zip(v * er, e, k)]
    er32, k32 = special._exp_neg(ys)
    assert k32.dtype == np.int32
    assert _bits(np.ldexp(v * er32, e - k32)) == _bits(want)


def test_int32_exponents_leave_the_largest_order_unchanged():
    # the profile at order 99999.5 comes out as with int64 exponents
    exp_neg = special._exp_neg

    def exp_neg_int64(y):
        er, k = exp_neg(y)
        return er, k.astype(np.int64)

    ys = np.concatenate((np.geomspace(1.0, 3e4, 12), [1.5e5, 2.01e5]))
    got = _bits(psi(99999.5, ys))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(special, "_exp_neg", exp_neg_int64)
        mp.setattr(special, "_companion", None)
        assert got == _bits(psi(99999.5, ys))
    assert np.count_nonzero(psi(99999.5, ys)) >= 10


# the kernel and the climb run in blocks of special._BLOCK points


@given(s=st.floats(0.0, 8.0, exclude_min=True, exclude_max=True),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=10, deadline=None)
def test_block_boundaries_leave_no_trace(s, seed):
    rng = np.random.default_rng(seed)
    n = 3 * special._BLOCK + 5  # 11 * 13 * 43
    # log-uniform over every route, some beyond the live cut 2s + 2000
    ys = np.exp(rng.uniform(math.log(1e-8), math.log(1e4), n))
    whole = psi(s, ys)
    assert np.all((whole >= 0.0) & (whole <= 1.0))
    # unaligned slices, each shorter than one block
    cuts = np.cumsum(rng.integers(1, special._BLOCK, n))
    cuts = np.concatenate(([0], cuts[cuts < n], [n]))
    parts = [psi(s, ys[lo:hi]) for lo, hi in zip(cuts[:-1], cuts[1:])]
    assert _bits(np.concatenate(parts)) == _bits(whole)
    assert _bits(psi(s, ys.reshape(11, -1))) == _bits(whole.reshape(11, -1))
    # 0, -y, +-inf and NaN take the masked path, with the same bits elsewhere
    mixed = ys.copy()
    spots = rng.permutation(n)[:25]
    mixed[spots[:10]] *= -1.0
    mixed[spots[10:13]] = 0.0
    mixed[spots[13:17]] = math.inf
    mixed[spots[17:19]] = -math.inf
    mixed[spots[19:]] = math.nan
    want = whole.copy()
    want[spots[10:13]] = 1.0
    want[spots[13:19]] = 0.0
    want[spots[19:]] = math.nan
    assert _bits(psi(s, mixed)) == _bits(want)


def test_window_boundaries_leave_no_trace():
    # an array longer than two windows, against its pieces: each window
    # routes its own points, and a point's bits do not depend on that
    rng = np.random.default_rng(12)
    n = 2 * special._WINDOW + 7
    ys = np.exp(rng.uniform(math.log(1e-8), math.log(3e3), n))
    for s in (0.3, 0.5, 2.7):
        whole = psi(s, ys)
        parts = [psi(s, ys[lo:lo + 5000]) for lo in range(0, n, 5000)]
        assert _bits(np.concatenate(parts)) == _bits(whole)


@pytest.mark.parametrize("s", [0.1, 0.2, 0.3, 0.45, 0.7, 1.3, 2.7])
def test_first_derivative_does_not_depend_on_earlier_calls(s, monkeypatch):
    # psi_s' takes its profile from the climb to s, remembered after a
    # curve on the same abscissae or climbed afresh: the same bits either
    # way, also where 1 - (1 - s) != s and a cold psi(1 - s) takes another
    # kernel pair
    ys = np.geomspace(1e-6, 2500.0, 300)
    monkeypatch.setattr(special, "_companion", None)
    cold = _bits(psi_deriv(s, ys, 1))
    psi(s, ys)
    with monkeypatch.context() as mp:
        mp.setattr(special, "_climb", _no_climb)
        assert _bits(psi_deriv(s, ys, 1)) == cold
    psi(s + 1.0, ys)
    assert _bits(psi_deriv(s, ys, 1)) == cold


@pytest.mark.parametrize("s", [0.3, 1.3, 3.7])
def test_curve_working_memory_scales_with_the_result(s, monkeypatch):
    # the traced peak of a 4096-mode curve stays within a few copies of the
    # result (4 for extend, 5 for the derivative: 7 and 8 with a
    # whole-array kernel pair), and between calls the one-entry memory
    # holds at most the key copy and the companion, each the size of the
    # result
    u = ModalVector(np.random.default_rng(11).normal(size=4096),
                    dirichlet_laplacian_1d(math.pi, 4096))
    for make in (extend, lambda u, s: derivative_curve(u, s, 1)):
        monkeypatch.setattr(special, "_companion", None)
        tracemalloc.start()
        try:
            values = make(u, s).values
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * values.nbytes
        if make is extend:
            # up to a few hundred bytes of array and tuple headers
            assert current - values.nbytes < 2.01 * values.nbytes


# every positive double, with the largest, the smallest normal and the
# smallest subnormal drawn often, and +inf
_EXTREME_ABSCISSAE = st.one_of(
    st.floats(5e-324, sys.float_info.max),
    st.sampled_from([5e-324, sys.float_info.min, sys.float_info.max,
                     math.inf]))


@given(s=st.floats(0.0, 50.0, exclude_min=True).filter(
           lambda s: s != math.floor(s)),
       ys=st.lists(_EXTREME_ABSCISSAE, min_size=1, max_size=24))
@example(s=0.01, ys=[5e-324, 1.0])
@settings(max_examples=40, deadline=None)
def test_profile_and_first_derivative_on_extreme_abscissae(s, ys):
    # psi lies in [0, 1] on every abscissa, 0 and negatives included, and
    # psi_s' is finite and <= 0 wherever its size fits a double: below
    # s = 1/2 it grows like d_s y^(2s-1) toward the origin, past the
    # double range at the smallest subnormals, where it is a named overflow
    ys = np.array(ys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = psi(s, np.concatenate((ys, -ys, [0.0])))
        if s < 0.5:
            size = math.log(trace_constant(s)) + (2.0 * s - 1.0) * np.log(ys)
            top = math.log(sys.float_info.max)
            for y in ys[size > top + 1.0]:
                with pytest.raises(ValueError, match="overflows"):
                    psi_deriv(s, y, 1)
            ys = ys[size < top - 1.0]
        slopes = psi_deriv(s, ys, 1)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(np.isfinite(slopes) & (slopes <= 0.0))


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 1.3, 2.5, 3.7])
def test_psi_bounds_and_monotonicity(s):
    ys = np.geomspace(1e-4, 30.0, 120)
    vals = psi(s, ys)
    assert np.all(vals > 0.0)
    assert np.all(vals <= 1.0)
    assert np.all(np.diff(vals) < 0.0)


def test_psi_never_rises_near_the_origin():
    # the series route once carried e^y, divided back out by the climb;
    # the round trip left values of 1 - 2^-53 next to 1.0, and psi(2.0, .)
    # rose 44 times on these points
    vals = psi(2.0, np.geomspace(1e-13, 1e-9, 200))
    assert np.all(np.diff(vals) <= 0.0)
    assert np.all(vals <= 1.0)


def test_ascending_series_matches_bessel_route():
    # psi_s = 1 + the remainder of order 0, the whole ascending series
    for s in (0.3, 0.7, 1.5, 2.5, 3.7):
        for y in (1e-3, 0.1, 0.7, 1.6):
            assert 1.0 + psi_taylor_remainder(s, y, 0) == pytest.approx(
                psi(s, y), rel=1e-13)


def test_psi_lambda():
    assert psi_lambda(0.5, 4.0, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-13)
    assert psi_lambda(1.3, 1.0, 0.8) == psi(1.3, 0.8)
    assert psi_lambda(2.5, 7.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        psi_lambda(0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        psi_lambda(0.5, -1.0, 1.0)


@pytest.mark.parametrize("lam", [math.inf, math.nan])
def test_psi_lambda_refuses_non_finite_lambda(lam):
    # at lam = inf sqrt(lam) * 0 used to give nan with a RuntimeWarning
    for y in (0.0, [0.0, 1.0]):
        with pytest.raises(ValueError, match=f"lambda={lam}"):
            psi_lambda(0.5, lam, y)


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


@pytest.mark.parametrize("s", [0.3, 1.3, 2.7])
def test_first_derivative_is_zero_at_infinity(s):
    # psi_s' takes psi's rule at +inf: 0, where coef y^expo psi_order was
    # -inf * 0, a NaN with "invalid value encountered in multiply"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = psi_deriv(s, np.array([1.0, np.inf]), 1)
    assert _bits(got[0]) == _bits(psi_deriv(s, 1.0, 1)) and got[1] == 0.0


@pytest.mark.parametrize("k", [1.5, math.nan, math.inf])
def test_psi_deriv_refuses_an_order_that_is_not_whole(k):
    # int(k) truncated 1.5 to 1
    with pytest.raises(ValueError, match=rf"order k must be a whole number, "
                                         rf"got k={k}"):
        psi_deriv(0.5, 1.0, k)


@pytest.mark.parametrize("s, k, want", [
    (1.3, 2, -1.0 / 0.6),  # 1 - g_1, g_1 = (s - 1/2) / (s - 1)
    (1.5, 3, 2.0),  # -g_1 psi_{1/2}'(0+), psi_{1/2} = e^{-y}
    (0.5, 1, -1.0),
    (2.5, 5, -8.0 / 3.0),  # g_2 psi_{1/2}'(0+)
    (0.7, 1, 0.0),  # psi_v'(0+) = 0 for v > 1/2
    (2.5, 3, 0.0),
    (3.4, 4, 1.0 - 2.0 * 2.9 / 2.4 + 2.9 * 1.9 / (2.4 * 1.4)),
])
def test_psi_deriv_at_the_origin_is_the_right_limit(s, k, want):
    # every y = 0 was refused at k >= 1, also where the limit is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = psi_deriv(s, 0.0, k)
        row = psi_deriv(s, np.array([0.0, 1.0]), k)
    assert got == pytest.approx(want, rel=1e-13, abs=1e-300)
    assert _bits(row) == _bits([got, psi_deriv(s, 1.0, k)])
    # and the derivative tends to it
    assert psi_deriv(s, 1e-300, k) == pytest.approx(want, rel=1e-12,
                                                    abs=1e-100)


@pytest.mark.parametrize("s", [0.3, 0.01, 0.4999999999])
def test_first_derivative_below_one_half_is_unbounded_at_the_origin(s):
    # psi_s' ~ -d_s y^(2s-1) for s < 1/2, the one admissible order without
    # a finite limit at y = 0
    for y in (np.array([1.0, 0.0]), 0.0):
        with pytest.raises(ValueError, match=rf"psi_deriv\(s={s}, k=1\) is "
                                             rf"unbounded at y = 0"):
            psi_deriv(s, y, 1)


def test_psi_deriv_admissible_range():
    # order 0 is psi itself
    y = np.geomspace(1e-3, 60.0, 50)
    assert _bits(psi_deriv(1.5, y, 0)) == _bits(psi(1.5, y))
    with pytest.raises(ValueError):
        psi_deriv(1.5, 1.0, -1)
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


@pytest.mark.parametrize("order", [1e5 + 0.5, 1e9 + 0.5, 1.7e308])
def test_order_above_the_ceiling_fails_fast(order):
    # one recurrence step per unit of order: psi at s = 1e9 + 0.5 ran for
    # minutes; the largest order psi accepts is 1e5
    start = time.perf_counter()
    with pytest.raises(ValueError, match="100000"):
        psi(order, np.linspace(0.1, 10.0, 64))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("s", [1e5 + 0.5, 1e5 + 0.99])
def test_first_derivative_above_the_ceiling_fails_fast(s):
    # psi_s' climbs to s, so it meets psi's ceiling at s, not at the order
    # of its profile: s = 100000.5 once climbed for 0.19 s on two points
    u = ModalVector(np.ones(2), explicit_spectrum([1.0, 4.0]))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="100000"):
        psi_deriv(s, np.array([0.5, 2.0]), 1)
    with pytest.raises(ValueError, match="100000"):
        derivative_curve(u, s, 1)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_order_rejected(bad):
    # from_order(inf) used to raise OverflowError from math.floor, and
    # psi(inf, 1.0) to return nan without complaint
    with pytest.raises(ValueError, match=f"order s must be finite, got {bad}"):
        FracParams.from_order(bad)
    with pytest.raises(ValueError, match=f"psi requires a finite order "
                                         f"0 < s <= 100000, got {bad}"):
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


def _kappa(s, m):
    """kappa_{s,m} through taylor_expand: (2m)! T_m on one mode lam = 1."""
    one = ModalVector(np.ones(1), explicit_spectrum([1.0]))
    return math.factorial(2 * m) * taylor_expand(one, s, m)[m].coeffs[0]


def test_constants_closed_forms():
    assert special._gamma_coeff(2.5, 0) == 1.0
    # kappa_1 = -1/(2(s-1)) at s = 2.5
    assert _kappa(2.5, 1) == pytest.approx(-1.0 / 3.0, rel=1e-13)
    assert _kappa(2.5, 2) == pytest.approx(1.0, rel=1e-13)
    assert FracParams.from_order(0.5).m_b == pytest.approx(2.0, rel=1e-14)


def test_constants_leading_gamma_coeff_is_exactly_one():
    # the log differences cancel pairwise at ell = 0; summed in the other
    # order they left 0.9999999999999999 here
    assert special._gamma_coeff(0.5076284947565249, 0) == 1.0


def test_constants_kappa_matches_binomial_beta_sum():
    # independent route: kappa = sum_l C(m,l) (-1)^l B(s-l,1/2) / B(s,1/2)
    def beta_fn(a, b):  # Euler Beta of positive arguments, in log space
        return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))

    for s in (2.5, 3.7):
        for m in range(1, math.floor(s) + 1):
            total = sum(math.comb(m, ell) * (-1) ** ell
                        * beta_fn(s - ell, 0.5) for ell in range(m + 1))
            assert _kappa(s, m) == pytest.approx(total / beta_fn(s, 0.5),
                                                 rel=1e-12)


def test_trace_constant_equals_best_trace_constant():
    # m_b = 2 d_s at s = (1-b)/2: the trace inequality is saturated by psi_s
    for b in (-0.5, 0.0, 0.4):
        m_b = FracParams.from_order(0.5 * (1 - b)).m_b
        assert m_b == pytest.approx(2.0 * trace_constant(0.5 * (1 - b)),
                                    rel=1e-13)


@given(st.floats(1e-3, 60.0))
@settings(max_examples=80, deadline=None)
@example(5e-324)
@example(2e-300)
def test_best_trace_constant_is_a_read_only_property_of_the_weight(s):
    # an eager field made from_order raise at orders whose b rounds to 1,
    # where the formula meets lgamma(0)
    if s == math.floor(s):
        return
    params = FracParams.from_order(s)
    assert "m_b" not in {f.name for f in dataclasses.fields(params)}
    with pytest.raises(AttributeError):
        params.m_b = 0.0
    if params.b == 1.0:
        return
    assert params.m_b == special._m_b(weight_exponent(s))
    if s < 1.0:
        assert params.m_b == pytest.approx(2.0 * params.d_s, rel=1e-12)


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


def test_taylor_remainder_takes_a_whole_float_order():
    # k = 2.0 raised "TypeError: 'float' object cannot be interpreted as an
    # integer" from range(); it is the order 2, with the same bits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y in (0.0, 0.1, 1.0):
            assert (psi_taylor_remainder(2.5, y, 2.0)
                    == psi_taylor_remainder(2.5, y, 2))


@pytest.mark.parametrize("k", [1.5, math.nan])
def test_taylor_remainder_refuses_an_order_that_is_not_whole(k):
    # 1.5 raised the same TypeError, which named no input
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"remainder order k must be a "
                                             rf"whole number, got k={k}"):
            psi_taylor_remainder(2.5, 0.1, k)


@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
def test_taylor_remainder_refuses_a_non_finite_abscissa(y):
    # returned NaN without a word
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"psi_taylor_remainder requires "
                                             rf"a finite y, got y={y}"):
            psi_taylor_remainder(2.5, y, 1)


@pytest.mark.parametrize("s,k", [(0.3, 0), (1.5, 1), (2.5, 2), (3.7, 0)])
def test_taylor_remainder_vanishes_at_the_origin(s, k):
    # psi_s(0) = 1 is the constant Taylor term: nothing remains at y = 0
    assert psi_taylor_remainder(s, 0.0, k) == 0.0


@given(s=st.floats(0.0, 8.0, exclude_min=True, exclude_max=True).filter(
           lambda s: s != math.floor(s)),
       y=st.floats(1e-6, 20.0), k=st.integers(0, 7))
@settings(max_examples=30, deadline=None)
@example(s=2.5, y=15.0, k=1)
@example(s=2.5, y=10.0, k=1)
def test_taylor_remainder_is_accurate_or_refused(s, y, k):
    # the examples are points where a fixed 20 terms of each series were
    # wrong; below y = 1e-6 the reference would need hundreds more digits
    k = min(k, math.floor(s))
    try:
        got = psi_taylor_remainder(s, y, k)
    except ValueError as err:
        assert f"(s={s}, y={y}, k={k})" in str(err)
        return
    assert got == pytest.approx(_taylor_remainder_mp(s, y, k), rel=1e-10,
                                abs=0.0)
