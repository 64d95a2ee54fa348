"""Tests for extension curves: traces, derivatives, ODE residuals, exports."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracext.extension import (
    ExtensionCurve,
    _geometric_grid,
    conormal_trace,
    curve_to_csv,
    curve_to_json,
    default_grid,
    derivative_curve,
    extend,
    extend_negative,
    ode_residual,
    taylor_expand,
    trace0,
)
from fracext.numdiff import apply_db, power_fit_limit
from fracext.special import (
    FracParams,
    psi,
    psi_deriv,
    psi_taylor_remainder,
    trace_constant,
)
from fracext.spectral import (
    ModalVector,
    apply_power,
    dirichlet_laplacian_1d,
    explicit_spectrum,
    neumann_laplacian_1d,
    sobolev_norm,
)
from fracext.suite import RunConfig, run_checks
from fracext.weighted import curve_energy
from finite_differences import central_derivative


def one_mode(lam=1.0, c=1.0):
    return ModalVector(np.array([c]), explicit_spectrum([lam]))


def test_extend_single_mode_closed_form():
    grid = np.geomspace(1e-4, 10.0, 40)
    curve = extend(one_mode(), 0.5, grid)
    np.testing.assert_allclose(curve.values[0], np.exp(-grid), rtol=1e-12)


def test_extend_zero_vector_gives_zero_curve():
    spec = explicit_spectrum([1.0, 4.0])
    curve = extend(ModalVector(np.zeros(2), spec), 0.5)
    assert np.all(curve.values == 0.0)


def test_extend_kernel_mode_is_constant():
    spec = neumann_laplacian_1d(math.pi, 2)  # eigenvalues {0, 1}
    u = ModalVector(np.array([1.0, 1.0]), spec)
    grid = np.geomspace(1e-4, 10.0, 30)
    curve = extend(u, 0.5, grid)
    np.testing.assert_allclose(curve.values[0], 1.0, rtol=0.0)
    np.testing.assert_allclose(curve.values[1], np.exp(-grid), rtol=1e-12)


def test_extend_is_the_order_zero_derivative_curve():
    # kernel modes carry u_j in the curve and 0 in its derivatives; a zero
    # coefficient is a zero row in both
    spec = explicit_spectrum([0.0, 1.0, 4.0, 9.0])
    u = ModalVector(np.array([2.0, -1.0, 0.0, 0.5]), spec)
    curve = extend(u, 1.3)
    zeroth = derivative_curve(u, 1.3, 0)
    np.testing.assert_array_equal(zeroth.grid, curve.grid)
    np.testing.assert_array_equal(zeroth.values, curve.values)
    assert np.all(curve.values[0] == 2.0) and np.all(curve.values[2] == 0.0)
    assert np.all(derivative_curve(u, 1.3, 1).values[0] == 0.0)


def test_extend_is_u_where_the_abscissa_underflows():
    # sqrt(1e-320) y underflows to 0 on the first points, where psi is 1
    u = ModalVector(np.array([3.0]), explicit_spectrum([1e-320]))
    grid = np.array([1e-300, 1e-200, 0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = extend(u, 0.3, grid).values[0]
    assert values[0] == 3.0
    assert values[2] == 3.0 * psi(0.3, math.sqrt(1e-320) * 0.1)


def test_derivative_curve_is_finite_where_the_abscissa_underflows():
    # psi_deriv refused the y = 0 of sqrt(1e-320) y at every k >= 1, so the
    # derivative curve was refused where extend returns u
    u = ModalVector(np.array([3.0]), explicit_spectrum([1e-320]))
    grid = np.array([1e-300, 1e-200, 0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = derivative_curve(u, 1.3, 1, grid).values[0]
    assert np.all(np.isfinite(values))
    assert values[0] == values[1] == 0.0 and values[2] < 0.0


@pytest.mark.parametrize("s, k", [(1.3, 1), (1.3, 2), (0.5, 1), (1.5, 3),
                                  (2.5, 5)])
def test_derivative_curve_is_the_limit_where_the_abscissa_underflows(s, k):
    # sqrt(1e-100) y underflows to 0 on the first two points, where the
    # curve takes the right limit of psi_s^(k) at 0
    u = ModalVector(np.array([3.0]), explicit_spectrum([1e-100]))
    grid = np.array([1e-300, 1e-290, 0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = derivative_curve(u, s, k, grid).values[0]
    want = 3.0 * 1e-50 ** k * psi_deriv(s, np.array([0.0, 0.0, 1e-51]), k)
    np.testing.assert_allclose(values, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("k", [1.5, math.nan, math.inf])
def test_derivative_curve_refuses_an_order_that_is_not_whole(k):
    # int(k) truncated 1.5 to 1, and the curve came back as psi' scaled by
    # lam^{3/4}: sqrt(2) too large at lam = 4
    u = ModalVector(np.ones(2), explicit_spectrum([1.0, 4.0]))
    with pytest.raises(ValueError, match=rf"order k must be a whole number, "
                                         rf"got k={k}"):
        derivative_curve(u, 0.5, k)


@pytest.mark.parametrize("grid", [[0.1, math.nan, 1.0], [math.nan, 1.0],
                                  [[0.1, 1.0]]],
                         ids=["nan-inside", "nan-first", "2-d"])
@pytest.mark.parametrize("curve", [extend, lambda u, s, grid:
                                   derivative_curve(u, s, 1, grid)],
                         ids=["extend", "derivative_curve"])
def test_curves_reject_a_nan_or_non_1d_grid(curve, grid):
    # a NaN point used to pass every comparison and give a NaN column, and
    # a 2-D grid ended in numpy's "truth value ... is ambiguous"
    with pytest.raises(ValueError, match="grid must be"):
        curve(one_mode(), 0.5, grid)


def test_monotone_decay_along_the_grid():
    spec = explicit_spectrum([1.0, 4.0, 9.0])
    u = ModalVector(np.array([1.0, 2.0, -0.5]), spec)
    curve = extend(u, 1.5)
    for j in range(3):
        col = np.abs(curve.values[j])
        assert np.all(np.diff(col) < 0.0)


def test_trace0_recovers_data():
    spec = explicit_spectrum([1.0, 4.0, 9.0])
    u = ModalVector(np.array([1.0, -0.5, 0.25]), spec)
    for s in (0.3, 0.5, 1.5, 2.5):
        got = trace0(extend(u, s))
        np.testing.assert_allclose(got.coeffs, u.coeffs, rtol=1e-8)


def test_trace0_single_mode_small_order():
    # explicit sequence from the contract: y in {1e-4, 5e-5, 2.5e-5}
    grid = np.array([2.5e-5, 5e-5, 1e-4, 1.0])
    curve = extend(one_mode(), 0.3, grid)
    got = trace0(curve)
    assert got.coeffs[0] == pytest.approx(1.0, abs=1e-6)


def test_trace0_zero_curve():
    curve = extend(one_mode(c=0.0), 0.5)
    assert trace0(curve).coeffs[0] == 0.0


def test_power_fit_limit_exact_on_model_data():
    ys = np.array([1e-3, 5e-4, 2.5e-4])
    vals = 3.0 + 2.0 * ys ** 0.6 - 1.5 * ys ** 2
    assert power_fit_limit(ys, vals, (0.6, 2.0)) == pytest.approx(
        3.0, rel=1e-12)
    with pytest.raises(ValueError):
        power_fit_limit(ys, vals, (0.6,))


# ---------------------------------------------------------------------------
# conormal trace


def test_conormal_trace_hand_values():
    # spectrum {4}, s=1/2: lim y^0 d/dy e^{-2y} = -2 = -d_{1/2} 4^{1/2}
    got = conormal_trace(one_mode(lam=4.0), 0.5)
    assert got.coeffs[0] == pytest.approx(-2.0, rel=1e-6)
    # spectrum {1}, s=3/2: -d_{3/2} = -2
    got = conormal_trace(one_mode(), 1.5)
    assert got.coeffs[0] == pytest.approx(-2.0, rel=1e-6)
    assert np.all(conormal_trace(one_mode(c=0.0), 1.5).coeffs == 0.0)


@pytest.mark.parametrize("s", [0.3, 0.5, 1.5, 2.5])
def test_conormal_trace_matches_fractional_power(s):
    spec = explicit_spectrum([1.0, 4.0])
    u = ModalVector(np.array([1.0, 1.0]), spec)
    got = conormal_trace(u, s)
    want = -trace_constant(s) * apply_power(u, s).coeffs
    np.testing.assert_allclose(got.coeffs, want, rtol=1e-4)


def test_conormal_trace_is_the_closed_form_just_below_an_integer():
    # a fit in y once returned a value 2e-5 off at s = 2 - 1e-12 and 2 %
    # off at 2 - 1.8e-15, and was then refused within 1e-9 of an integer
    u = ModalVector(np.array([1.0, -3.0]), explicit_spectrum([1.0, 4.0]))
    for s in (2.0 - 1e-12, 2.0 - 1.8e-15, 1.0 - 1e-10, 2.0 - 1e-6):
        want = -trace_constant(s) * np.array([1.0, -3.0 * 4.0 ** s])
        np.testing.assert_allclose(conormal_trace(u, s).coeffs, want,
                                   rtol=1e-14)


def test_conormal_trace_cross_check_via_reduced_profile():
    # s = 3/2 reduction: (D_0+1) psi_{3/2} = 2 psi_{1/2}, so the conormal
    # limit is lim_{y->0} d/dy 2 e^{-y} = -2; finite differences on the
    # reduced profile, extrapolated to 0, must agree with the closed route
    got = conormal_trace(one_mode(), 1.5).coeffs[0]
    ys = np.array([4e-3, 2e-3, 1e-3])
    fds = [central_derivative(lambda t: 2.0 * psi(0.5, t), y, k=1, h=2e-4)
           for y in ys]
    fd_limit = power_fit_limit(ys, fds, (1.0, 2.0))
    assert got == pytest.approx(fd_limit, rel=1e-6)


# ---------------------------------------------------------------------------
# derivatives of the curve


@pytest.mark.parametrize("s", [0.75, 1.5, 2.5])
def test_derivative_curve_first_order_matches_fd(s):
    spec = explicit_spectrum([1.0, 4.0])
    u = ModalVector(np.array([1.0, 0.5]), spec)
    grid = np.linspace(0.5, 3.0, 6)
    dc = derivative_curve(u, s, 1, grid)
    for j, lam in enumerate(spec.eigenvalues):
        for i, y in enumerate(grid):
            fd = central_derivative(
                lambda t, lam=lam: psi(s, math.sqrt(lam) * t), y, k=1)
            fd *= u.coeffs[j]
            assert dc.values[j, i] == pytest.approx(fd, rel=1e-5, abs=1e-10)


def test_derivative_curve_single_mode_exponential():
    grid = np.linspace(0.5, 3.0, 5)
    dc = derivative_curve(one_mode(), 0.5, 1, grid)
    np.testing.assert_allclose(dc.values[0], -np.exp(-grid), rtol=1e-12)


def test_second_derivative_limit_is_kappa_lambda():
    # d^2/dy^2 P_s[u](0) = kappa_{s,1} lam u = -lam u / 3 at s = 5/2
    lam = 2.0
    grid = np.array([4e-3, 2e-3, 1e-3])[::-1]
    dc = derivative_curve(one_mode(lam=lam), 2.5, 2, grid)
    limit = power_fit_limit(grid, dc.values[0], (2.0, 5.0 - 2.0))
    assert limit == pytest.approx(-lam / 3.0, rel=1e-8)


def test_odd_derivative_columns_vanish_at_origin():
    grid = np.array([1e-3, 2e-3, 4e-3])
    for s, k in ((1.5, 1), (2.5, 3)):
        dc = derivative_curve(one_mode(), s, k, grid)
        assert abs(dc.values[0, 0]) < 5e-3
        assert abs(dc.values[0, 0]) < abs(dc.values[0, -1])


def test_bounded_derivative_ratio_stable_under_refinement():
    # sup_y |d^k column|_{H^{sigma-k}} / |u|_{H^sigma} stays put when the
    # grid is refined
    spec = explicit_spectrum([1.0, 4.0])
    u = ModalVector(np.array([1.0, 1.0]), spec)
    s, k, sigma = 1.5, 2, 0.0
    sups = []
    for n in (60, 120):
        grid = np.geomspace(1e-3, 20.0, n)
        dc = derivative_curve(u, s, k, grid)
        w = spec.eigenvalues ** (sigma - k)
        norms = np.sqrt(w @ dc.values ** 2)
        sups.append(float(np.max(norms)) / sobolev_norm(u, sigma))
    assert np.isfinite(sups).all()
    assert sups[1] <= sups[0] * 1.05


# ---------------------------------------------------------------------------
# Taylor expansion at the boundary


def test_taylor_first_coefficient_closed_form():
    terms = taylor_expand(one_mode(), 1.5, 1)
    assert terms[0].coeffs[0] == 1.0
    assert terms[1].coeffs[0] == pytest.approx(-0.5, rel=1e-14)


def test_taylor_leading_term_is_the_data():
    spec = explicit_spectrum([1.0, 4.0])
    u = ModalVector(np.array([0.7, -0.2]), spec)
    terms = taylor_expand(u, 2.5, 2)
    np.testing.assert_allclose(terms[0].coeffs, u.coeffs)
    # T_2 = kappa_{s,2}/4! L^2 u with kappa_{2.5,2} = 1
    np.testing.assert_allclose(
        terms[2].coeffs, spec.eigenvalues ** 2 * u.coeffs / 24.0, rtol=1e-13)


def test_taylor_remainder_scaled_ratio_decreases():
    s, k = 2.5, 2
    ratios = [abs(psi_taylor_remainder(s, 2.0 ** (-n), k)) / 2.0 ** (-4 * n)
              for n in range(4, 11)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_taylor_remainder_matches_direct_subtraction_at_moderate_y():
    # away from the origin the naive float subtraction is still accurate
    # enough to confirm the series-route remainder
    s, k = 2.5, 2
    u = one_mode()
    terms = taylor_expand(u, s, k)
    for y in (2.0 ** -4, 2.0 ** -5, 2.0 ** -6):
        direct = psi(s, y) - sum(t.coeffs[0] * y ** (2 * m)
                                 for m, t in enumerate(terms))
        stable = psi_taylor_remainder(s, y, k)
        assert direct == pytest.approx(stable, rel=1e-6)


def test_taylor_expand_takes_a_whole_float_order():
    # k = 2.0 raised "TypeError: 'float' object cannot be interpreted as an
    # integer" from range(); it is the order 2, with the same bits
    u = ModalVector(np.array([0.7, -0.2]), explicit_spectrum([1.0, 4.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = taylor_expand(u, 2.5, 2.0)
    want = taylor_expand(u, 2.5, 2)
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert np.array_equal(g.coeffs, w.coeffs)


# ---------------------------------------------------------------------------
# ODE residual


@pytest.mark.parametrize("k", [1.5, math.nan, math.inf])
def test_taylor_expand_refuses_an_order_that_is_not_whole(k):
    # 1.5 raised the same TypeError, which named no input
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"expansion order k must be a "
                                             rf"whole number, got k={k}"):
            taylor_expand(one_mode(), 2.5, k)


def test_ode_residual_closed_form_cases_vanish():
    for s in (0.5, 1.5):
        worst = max(ode_residual(one_mode(), s, y)
                    for y in (0.2, 0.5, 1.0, 2.0, 5.0))
        assert worst <= 1e-12


def test_ode_residual_general_orders_small():
    spec = explicit_spectrum([1.0, 4.0])
    u = ModalVector(np.array([1.0, 1.0]), spec)
    bound = 1e-4 * sobolev_norm(u, 0.0)
    for s in (0.3, 2.5, 3.7):
        worst = max(ode_residual(u, s, y) for y in np.geomspace(0.2, 5.0, 9))
        assert worst <= bound


def test_ode_residual_zero_data():
    assert ode_residual(one_mode(c=0.0), 1.5, 1.0) == 0.0


def test_ode_residual_fully_numerical_cross_check():
    # (D_b + 1)^{ceil(s)} psi_s = 0 with every power applied by stencils,
    # none collapsed analytically
    for s in (1.5, 2.5):
        params = FracParams.from_order(s)
        m = params.ceil_s
        got = apply_db(lambda t: psi(s, t), 1.0, params.b, 1.0, times=m,
                       h=min(0.05, 1.0 / (4 * m + 2)))
        assert abs(got) < 1e-4


@pytest.mark.parametrize("y", [math.nan, math.inf,
                               np.array([1.0, math.nan])])
def test_ode_residual_refuses_a_point_that_is_not_finite(y):
    # nan <= 0.05 is false, so a NaN point passed the check and was
    # reported as "ode_residual(s=0.3) overflows"
    with pytest.raises(ValueError, match=r"ode_residual needs finite y"):
        ode_residual(one_mode(), 0.3, y)


def test_ode_residual_overflow_is_named_without_a_numpy_warning():
    # lam^1000 of the check's eigenvalue 4 leaves the float range: the
    # named error must come before any numpy warning, which warnings
    # raised as errors would report in its place
    u = ModalVector(np.ones(2), explicit_spectrum([1.0, 4.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match=r"ode_residual\(s=1000\.5\) overflows"):
            ode_residual(u, 1000.5, np.geomspace(0.2, 5.0, 9))
        [failure] = run_checks(["ode"], RunConfig(s_values=(1000.5,)))
    assert failure.error == ("ValueError: ode_residual(s=1000.5) overflows: "
                             "the result must be finite")


def test_conormal_trace_overflow_is_named_without_a_numpy_warning():
    # lam^1000.5 of the check's eigenvalue 4 leaves the float range: the
    # named error must come before any numpy warning, which warnings
    # raised as errors would report in its place
    u = ModalVector(np.ones(2), explicit_spectrum([1.0, 4.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match=r"conormal_trace\(s=1000\.5\) overflows"):
            conormal_trace(u, 1000.5)
        [failure] = run_checks(["dtn"], RunConfig(s_values=(1000.5,)))
    assert failure.error == ("ValueError: conormal_trace(s=1000.5) "
                             "overflows: the result must be finite")


def test_conormal_trace_is_finite_where_the_product_is():
    # lam^{3/2} = 1e375 alone leaves the range, -d_s lam^{3/2} u = -2e175
    # does not; the named overflow used to refuse it
    u = ModalVector(np.array([1.0, 1e-200]), explicit_spectrum([1.0, 1e250]))
    # d_{5/2} u = 2.7e308 is out of range, -d_{5/2} 0.5^{5/2} u is not
    big = ModalVector(np.array([1e308]), explicit_spectrum([0.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = conormal_trace(u, 1.5).coeffs
        edge = conormal_trace(big, 2.5).coeffs
    np.testing.assert_allclose(got, [-2.0, -2e175], rtol=1e-12)
    np.testing.assert_allclose(edge, [-trace_constant(2.5) * 0.5 ** 2.5
                                      * 1e308], rtol=1e-14)


def test_derivative_curve_is_finite_where_the_product_is():
    # lam^{3/2} = 1e375 alone leaves the range, lam^{3/2} u = 1e175 does
    # not: the values near 1e171 used to come back as inf
    u = ModalVector(np.array([1.0, 1e-200]), explicit_spectrum([1.0, 1e250]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = derivative_curve(u, 2.5, 3)
    assert np.all(np.isfinite(got.values))
    want = 1e175 * psi_deriv(2.5, math.sqrt(1e250) * got.grid, 3)
    np.testing.assert_allclose(got.values[1], want, rtol=1e-12)


def test_derivative_curve_is_zero_where_the_abscissa_overflows():
    # sqrt(1e300) y overflows to inf on the default grid's upper points,
    # where the derivative is 0; it was -inf * 0 there, and the curve was
    # refused as "derivative_curve(s=1.3, k=1) overflows"
    u = ModalVector(np.ones(2), explicit_spectrum([1e-320, 1e300]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = derivative_curve(u, 1.3, 1)
    with np.errstate(over="ignore"):
        y = math.sqrt(1e300) * got.grid
    assert got.values.shape == (2, 160) and np.all(np.isfinite(got.values))
    far = np.isinf(y)
    assert far.any() and np.all(got.values[1, far] == 0.0)
    want = math.sqrt(1e300) * psi_deriv(1.3, y[~far], 1)
    np.testing.assert_array_equal(got.values[1, ~far], want)


def _no_profile(t):
    raise AssertionError("a refused stencil evaluated its function")


@pytest.mark.parametrize("times", [0, -1])
def test_apply_db_refuses_a_power_below_one(times):
    with pytest.raises(ValueError, match="times must be >= 1"):
        apply_db(_no_profile, 1.0, 0.0, 1.0, times=times)


@pytest.mark.parametrize("y, h, times", [(0.1, 0.05, 1), (1.0, 0.2, 2),
                                         (np.array([1.0, 0.3]), 0.1, 1)])
def test_apply_db_refuses_a_window_past_the_origin(y, h, times):
    # the window y +- 4 times h must stay on y > 0, where D_b is defined
    with pytest.raises(ValueError, match="leaves the positive half line"):
        apply_db(_no_profile, y, 0.0, 1.0, times=times, h=h)


def test_iterated_db_matches_recurrence():
    # (D_b+1)^m psi_s = (d_s/d_{s-m}) psi_{s-m}, nested finite differences
    s, m = 2.5, 2
    want = trace_constant(s) / trace_constant(s - m) * psi(s - m, 1.3)
    got = apply_db(lambda t: psi(s, t), 1.3, 0.0, 1.0, times=m)
    assert got == pytest.approx(want, rel=1e-6)


_ORDERS = st.floats(0.05, 3.95).filter(lambda s: abs(s - round(s)) > 0.02)


@given(s=_ORDERS,
       lams=st.lists(st.floats(0.1, 30.0), min_size=1, max_size=4),
       coeffs=st.lists(st.sampled_from([0.0, 1.0, -0.7, 2.5]),
                       min_size=4, max_size=4),
       ys=st.lists(st.floats(0.06, 6.0), min_size=1, max_size=5),
       b=st.floats(-0.99, 0.99), times=st.sampled_from([1, 2]))
@settings(max_examples=40, deadline=None)
def test_array_calls_equal_stacked_scalar_calls(s, lams, coeffs, ys, b,
                                                times):
    ys = np.array(ys)
    f = lambda t: psi(s, t)
    stacked = [apply_db(f, y, b, 1.3, times=times) for y in ys]
    assert np.array_equal(apply_db(f, ys, b, 1.3, times=times), stacked)
    spec = explicit_spectrum(sorted(lams))
    u = ModalVector(np.array(coeffs[:spec.size]), spec)
    got = ode_residual(u, s, ys)
    assert got.shape == ys.shape
    assert np.array_equal(got, [ode_residual(u, s, y) for y in ys])
    assert isinstance(ode_residual(u, s, ys[0]), float)


def test_ode_check_makes_one_profile_call_per_order(monkeypatch):
    # the check evaluates 5 orders; one psi call each covers every
    # (mode, point, stencil offset) triple
    import fracext.extension as ext
    calls = []

    def counted(s, y):
        calls.append(s)
        return psi(s, y)

    monkeypatch.setattr(ext, "psi", counted)
    reports = run_checks(["ode"])
    assert all(r.passed for r in reports)
    assert len(calls) == 5


# ---------------------------------------------------------------------------
# negative order


def test_extend_negative_hand_case():
    # spectrum {4}, zeta = 2: L^{-1/2} zeta = 1, curve is e^{-2y}
    zeta = ModalVector(np.array([2.0]), explicit_spectrum([4.0]))
    grid = np.geomspace(1e-4, 5.0, 30)
    curve = extend_negative(zeta, 0.5, grid)
    np.testing.assert_allclose(curve.values[0], np.exp(-2.0 * grid),
                               rtol=1e-12)
    tr = trace0(curve)
    np.testing.assert_allclose(tr.coeffs, apply_power(zeta, -0.5).coeffs,
                               rtol=1e-8)


def test_extend_negative_zero_and_kernel_error():
    zeta = ModalVector(np.zeros(1), explicit_spectrum([4.0]))
    assert np.all(extend_negative(zeta, 0.5).values == 0.0)
    spec = neumann_laplacian_1d(math.pi, 2)
    bad = ModalVector(np.array([1.0, 1.0]), spec)
    with pytest.raises(ValueError, match="kernel"):
        extend_negative(bad, 0.5)


# ---------------------------------------------------------------------------
# curve-level properties


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=15, deadline=None)
def test_nonexpansive_in_every_ladder_norm(seed):
    spec = dirichlet_laplacian_1d(math.pi, 8)
    rng = np.random.default_rng(seed)
    u = ModalVector(rng.standard_normal(8), spec)
    grid = default_grid(spec, 40)
    curve = extend(u, 0.5, grid)
    for sigma in (-1.0, 0.0, 1.0, 0.5):
        ref = sobolev_norm(u, sigma)
        for i in range(grid.size):
            assert sobolev_norm(curve.column(i), sigma) <= ref * (1 + 1e-12)


_SPECTRA = st.lists(st.floats(-2.0, 4.0), min_size=1, max_size=20)
_NONINTEGER_ORDERS = st.floats(0.01, 10.0, exclude_max=True).filter(
    lambda s: s != math.floor(s))


def _random_data(exps, seed):
    """Eigenvalues log-uniform in [1e-2, 1e4], standard-normal data."""
    spec = explicit_spectrum(np.sort(10.0 ** np.array(exps)))
    rng = np.random.default_rng(seed)
    return ModalVector(rng.standard_normal(spec.size), spec)


def _random_trace_cases(test):
    """Random data and non-integer orders, with s = 1 +- 1e-6, 3 +- 1e-6."""
    test = given(exps=_SPECTRA, seed=st.integers(0, 2 ** 32 - 1),
                 s=_NONINTEGER_ORDERS)(test)
    for s in (1.0 - 1e-6, 1.0 + 1e-6, 3.0 - 1e-6, 3.0 + 1e-6):
        test = example(exps=[-2.0, 0.0, 4.0], seed=1, s=s)(test)
    return settings(max_examples=40, deadline=None)(test)


@_random_trace_cases
def test_trace0_of_extension_recovers_random_data(exps, seed, s):
    u = _random_data(exps, seed)
    got = trace0(extend(u, s)).coeffs
    assert np.max(np.abs(got - u.coeffs)) <= 5e-8 * np.max(np.abs(u.coeffs))


@pytest.mark.parametrize("s", [1e-11, 1e-9, 9.9e-7])
def test_trace0_refuses_orders_below_its_floor(s):
    # the error grows like 1e-14/s relative to max|u|: it was 9.7e-4 at
    # s = 1e-11 and 1.0e-5 at s = 1e-9, returned without an error
    u = _random_data([-2.0, 0.0, 4.0], 1)
    with pytest.raises(ValueError, match="below the floor"):
        trace0(extend(u, s))


@given(exps=_SPECTRA, seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_trace0_at_its_order_floor(exps, seed):
    u = _random_data(exps, seed)
    got = trace0(extend(u, 1e-6)).coeffs
    assert np.max(np.abs(got - u.coeffs)) <= 5e-8 * np.max(np.abs(u.coeffs))


@_random_trace_cases
def test_conormal_trace_is_minus_d_s_power_on_random_data(exps, seed, s):
    u = _random_data(exps, seed)
    want = -trace_constant(s) * apply_power(u, s).coeffs
    np.testing.assert_allclose(conormal_trace(u, s).coeffs, want,
                               rtol=1e-14, atol=0.0)


def test_commutation_with_powers():
    spec = dirichlet_laplacian_1d(math.pi, 16)
    rng = np.random.default_rng(5)
    u = ModalVector(rng.standard_normal(16), spec)
    grid = default_grid(spec, 60)
    sigma = 0.7
    left = extend(apply_power(u, sigma), 0.5, grid).values
    right = spec.eigenvalues[:, None] ** sigma * extend(u, 0.5, grid).values
    np.testing.assert_allclose(left, right, rtol=1e-13, atol=1e-300)


def _random_curve_cases(test):
    """Random data and non-integer orders, with s = 1 +- 1e-6, 2 +- 1e-6."""
    test = given(exps=_SPECTRA, seed=st.integers(0, 2 ** 32 - 1),
                 s=_NONINTEGER_ORDERS)(test)
    for s in (1.0 - 1e-6, 1.0 + 1e-6, 2.0 - 1e-6, 2.0 + 1e-6):
        test = example(exps=[-2.0, 0.0, 4.0], seed=1, s=s)(test)
    return settings(max_examples=40, deadline=None)(test)


@_random_curve_cases
def test_curve_isometry_on_random_data(exps, seed, s):
    # |P_s[u]|^2_{H^{ceil(s);b}} = 2 d_s |u|^2_{H^s}; measured at most
    # 9.5e-13 relative, at s = 1 + 1e-6
    u = _random_data(exps, seed)
    norm = sobolev_norm(u, s)
    rhs = 2.0 * trace_constant(s) * norm * norm
    assert curve_energy(extend(u, s)) == pytest.approx(rhs, rel=1e-10,
                                                      abs=0.0)


@_random_curve_cases
def test_extension_commutes_with_powers_on_random_data(exps, seed, s):
    # P_s[L^sigma u] = L^sigma P_s[u] column by column; measured at most
    # 2.6e-16 of the largest entry
    u = _random_data(exps, seed)
    sigma = np.random.default_rng(seed).uniform(-1.0, 1.0)
    grid = default_grid(u.spectrum, 40)
    left = extend(apply_power(u, sigma), s, grid).values
    right = u.spectrum.eigenvalues[:, None] ** sigma * extend(u, s,
                                                              grid).values
    assert np.max(np.abs(left - right)) <= 1e-13 * np.max(np.abs(right))


def test_holder_slope_probe():
    s = 0.3
    ys = np.geomspace(1e-4, 1e-2, 13)
    gap = np.array([abs(psi_taylor_remainder(s, y, 0)) for y in ys])
    slope = np.polyfit(np.log(ys), np.log(gap), 1)[0]
    assert slope == pytest.approx(0.6, abs=0.05)


def test_default_grid_coverage():
    spec = explicit_spectrum([1.0, 100.0])
    grid = default_grid(spec)
    assert grid[0] <= 1e-4 / 10.0 * (1 + 1e-12)
    assert grid[-1] >= 40.0 * (1 - 1e-12)


@pytest.mark.parametrize("lo,hi,n", [(1e-4, 40.0, 160), (1e-150, 1e150, 4),
                                    (2.5e-3, 7.0, 3)])
def test_geometric_grid_keeps_its_bits_where_the_ratio_is_finite(lo, hi, n):
    ratio = (hi / lo) ** (1.0 / (n - 1))
    want = lo * ratio ** np.arange(n)
    assert _geometric_grid(lo, hi, n).tobytes() == want.tobytes()


@pytest.mark.parametrize("lo,hi,n", [(1e-320, 0.1, 3), (1e-300, 1e160, 3),
                                    (1e-160, 1e160, 4), (5e-324, 1.7e308, 200),
                                    (1e-154, 4e161, 160)])
def test_geometric_grid_where_the_ratio_overflows(lo, hi, n):
    # hi / lo overflowed to inf, and the grid to [lo, inf, ...]
    assert hi / lo == math.inf
    grid = _geometric_grid(lo, hi, n)
    assert grid[0] == lo and grid[-1] == hi
    assert np.all(grid[1:] > grid[:-1])
    # equal steps in log y, up to the rounding of subnormal points
    step = (math.log(hi) - math.log(lo)) / (n - 1)
    normal = np.log(grid[grid >= np.finfo(float).tiny])
    np.testing.assert_allclose(np.diff(normal), step, rtol=1e-9)


def test_default_grid_of_a_spectrum_beyond_the_double_range_apart():
    grid = default_grid(explicit_spectrum([1e-320, 1e300]))
    assert grid[0] == 1e-4 / math.sqrt(1e300)
    assert grid[-1] == 40.0 / math.sqrt(1e-320)  # 1e-320 is subnormal
    assert grid.size == 160 and np.all(grid[1:] > grid[:-1])


# 3.5 gave 4 points
@pytest.mark.parametrize("n", [-1, 0, 1, 2, 3.5, math.nan, math.inf])
def test_default_grid_needs_three_points(n):
    with pytest.raises(ValueError, match=rf"n >= 3, got n={n}"):
        default_grid(explicit_spectrum([1.0, 100.0]), n)
    assert default_grid(explicit_spectrum([1.0, 100.0]), 3).size == 3


def test_extend_at_large_order():
    # K_s overflows near the origin at s = 100.5; the curve stays finite,
    # decreasing, bounded by |u_j| and traces back to u
    u = ModalVector(np.array([1.0, -2.0, 0.5]),
                    explicit_spectrum([1.0, 4.0, 9.0]))
    curve = extend(u, 100.5)
    prof = curve.values / u.coeffs[:, None]
    assert np.all(np.isfinite(prof))
    assert np.all((prof > 0.0) & (prof <= 1.0))
    assert np.all(np.diff(prof, axis=1) <= 0.0)
    np.testing.assert_allclose(trace0(curve).coeffs, u.coeffs, rtol=1e-12)


# ---------------------------------------------------------------------------
# batched curve layer against a per-mode loop over the scalar kernels


def _spread_vector():
    rng = np.random.default_rng(64)
    lam = np.concatenate([[0.0], np.geomspace(1e-2, 1e4, 64)])
    coeffs = rng.normal(size=lam.size)
    coeffs[[5, 40]] = 0.0
    return ModalVector(coeffs, explicit_spectrum(lam))


def _loop_profiles(u, fn, grid):
    """fn(sqrt(lambda_j) y) point by point for every mode with a positive
    eigenvalue and a nonzero coefficient; zero rows elsewhere."""
    lam = u.spectrum.eigenvalues
    out = np.zeros((lam.size, grid.size))
    for j in range(lam.size):
        if lam[j] == 0.0 or u.coeffs[j] == 0.0:
            continue
        root = math.sqrt(lam[j])
        out[j] = [fn(root * y) for y in grid]
    return out


def _assert_batched_equal(got, want):
    # below the normal range doubles carry fewer digits: no relative bound
    np.testing.assert_allclose(got, want, rtol=1e-14,
                               atol=np.finfo(float).tiny)


@pytest.mark.parametrize("s", [0.3, 1.3, 2.5, 3.7])
def test_batched_extend_and_trace0_match_per_mode_loop(s):
    u = _spread_vector()
    curve = extend(u, s)
    want = u.coeffs[:, None] * _loop_profiles(u, lambda z: psi(s, z),
                                              curve.grid)
    kernel = u.spectrum.eigenvalues == 0.0
    want[kernel] = u.coeffs[kernel, None]
    _assert_batched_equal(curve.values, want)
    exponents = (2.0 * s, 2.0) if s < 1 else (2.0, 2.0 * s) if s < 2 \
        else (2.0, 4.0)
    want0 = [power_fit_limit(curve.grid[:3], row[:3], exponents)
             for row in want]
    _assert_batched_equal(trace0(curve).coeffs, want0)


@pytest.mark.parametrize("s", [0.3, 1.3, 2.5, 3.7])
def test_batched_conormal_trace_matches_per_mode_loop(s):
    u = _spread_vector()
    d_s = trace_constant(s)
    want = [-d_s * lam ** s * c if lam else 0.0
            for lam, c in zip(u.spectrum.eigenvalues, u.coeffs)]
    _assert_batched_equal(conormal_trace(u, s).coeffs, want)


@pytest.mark.parametrize("s,k", [(0.3, 1), (1.3, 1), (1.3, 2), (2.5, 1),
                                 (2.5, 2)])
def test_batched_derivative_curve_matches_per_mode_loop(s, k):
    u = _spread_vector()
    got = derivative_curve(u, s, k)
    amp = u.coeffs * u.spectrum.eigenvalues ** (0.5 * k)
    want = amp[:, None] * _loop_profiles(u, lambda z: psi_deriv(s, z, k),
                                         got.grid)
    _assert_batched_equal(got.values, want)


# ---------------------------------------------------------------------------
# serialisation


def test_curve_csv_layout():
    grid = np.array([0.5, 1.0])
    spec = explicit_spectrum([1.0, 4.0])
    u = ModalVector(np.array([1.0, 2.0]), spec)
    text = curve_to_csv(extend(u, 1.5, grid))
    lines = text.strip().split("\n")
    assert lines[0].startswith("# s=1.5, b=0, d_s=2")
    assert lines[1] == "y,mode_1,mode_2"
    assert len(lines) == 4
    first = lines[2].split(",")
    assert float(first[0]) == 0.5
    assert float(first[1]) == pytest.approx(psi(1.5, 0.5), rel=1e-15)


@pytest.mark.parametrize("s, negative", [(1.3, False), (0.4, False),
                                         (2.5, True)])
def test_curve_csv_rows_are_17_digit_values(s, negative):
    spec = dirichlet_laplacian_1d(math.pi, 6)
    u = ModalVector(np.array([1.0, -2.0, 0.0, 3.5, 1e-300, -0.0]), spec)
    curve = (extend_negative if negative else extend)(u, s)
    lines = curve_to_csv(curve).split("\n")
    assert lines[-1] == ""
    assert lines[1] == "y,mode_1,mode_2,mode_3,mode_4,mode_5,mode_6"
    want = [",".join(f"{float(v):.17g}"
                     for v in (y, *curve.values[:, i]))
            for i, y in enumerate(curve.grid)]
    assert lines[2:-1] == want


def _json_per_value(curve):
    """The JSON dump with one 17-digit format per value, as a reference."""
    def fmt(x):
        return f"{float(x):.17g}"
    parts = []
    if isinstance(curve, ExtensionCurve):
        parts += [f'"s": {fmt(curve.params.s)}', f'"b": {fmt(curve.params.b)}']
    parts.append('"grid": [' + ", ".join(fmt(y) for y in curve.grid) + "]")
    rows = ", ".join("[" + ", ".join(fmt(v) for v in row) + "]"
                     for row in curve.values)
    parts.append(f'"values": [{rows}]')
    return "{" + ", ".join(parts) + "}"


@pytest.mark.parametrize("bare", [False, True])
def test_curve_json_matches_the_per_value_format(bare):
    spec = dirichlet_laplacian_1d(math.pi, 5)
    u = ModalVector(np.array([1.0, -2.0, 0.0, 3.5, -0.0]), spec)
    curve = derivative_curve(u, 1.3, 1) if bare else extend(u, 1.3)
    values = curve.values.copy()
    values[1, :3] = (-0.0, 5e-324, 1.7e308)
    curve = dataclasses.replace(curve, values=values)
    assert isinstance(curve, ExtensionCurve) != bare
    text = curve_to_json(curve)
    assert text == _json_per_value(curve)
    assert "[-0, 4.9406564584124654e-324, 1.6999999999999999e+308, " in text
    assert json.loads(text)["values"][1][1:3] == [5e-324, 1.7e308]


def test_curve_json_roundtrip():
    grid = np.array([0.5, 1.0, 2.0])
    u = ModalVector(np.array([1.0]), explicit_spectrum([1.0]))
    data = json.loads(curve_to_json(extend(u, 0.5, grid)))
    assert data["s"] == 0.5
    assert data["b"] == 0.0
    np.testing.assert_allclose(data["grid"], grid)
    np.testing.assert_allclose(data["values"][0], np.exp(-grid), rtol=1e-15)
