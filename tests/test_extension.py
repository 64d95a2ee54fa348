"""Tests for extension curves: traces, derivatives, ODE residuals, exports."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracext.extension import (
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
from fracext.numdiff import (
    apply_db,
    central_derivative,
    power_fit_limit,
)
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
from fracext.suite import run_checks


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


def test_extend_rejects_integer_order_and_empty_grid():
    with pytest.raises(ValueError):
        extend(one_mode(), 2.0)
    with pytest.raises(ValueError):
        extend(one_mode(), 0.5, np.array([]))
    with pytest.raises(ValueError):
        extend(one_mode(), 0.5, np.array([0.3, 0.2]))


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


def test_trace0_reports_coarse_grid():
    grid = np.geomspace(0.5, 10.0, 20)
    curve = extend(one_mode(), 0.5, grid)
    with pytest.raises(ValueError, match="too coarse"):
        trace0(curve)


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
    assert got.order == -s


def test_conormal_trace_rejects_order_just_below_an_integer():
    # at s = 2 - 1e-12 the fit used to return a value 2e-5 off, and at
    # 2 - 1.8e-15 one 2 % off, without complaint
    u = one_mode()
    for s in (2.0 - 1e-12, 2.0 - 1.8e-15, 1.0 - 1e-10):
        with pytest.raises(ValueError, match="too close to an integer"):
            conormal_trace(u, s)
    assert conormal_trace(u, 2.0 - 1e-6).coeffs[0] == pytest.approx(
        -trace_constant(2.0 - 1e-6), rel=1e-6)


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


def test_derivative_curve_rejects_out_of_range_order():
    with pytest.raises(ValueError):
        derivative_curve(one_mode(), 1.3, 3, np.array([1.0]))


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


def test_taylor_validation():
    with pytest.raises(ValueError):
        taylor_expand(one_mode(), 0.5, 1)
    with pytest.raises(ValueError):
        taylor_expand(one_mode(), 2.5, 3)


# ---------------------------------------------------------------------------
# ODE residual


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


def test_ode_residual_rejects_near_origin():
    with pytest.raises(ValueError):
        ode_residual(one_mode(), 0.5, 0.01)


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


@_random_trace_cases
def test_conormal_trace_is_minus_d_s_power_on_random_data(exps, seed, s):
    u = _random_data(exps, seed)
    if math.ceil(s) - s < 1e-9:
        with pytest.raises(ValueError, match="too close to an integer"):
            conormal_trace(u, s)
        return
    want = -trace_constant(s) * apply_power(u, s).coeffs
    np.testing.assert_allclose(conormal_trace(u, s).coeffs, want,
                               rtol=2e-6, atol=0.0)


def test_commutation_with_powers():
    spec = dirichlet_laplacian_1d(math.pi, 16)
    rng = np.random.default_rng(5)
    u = ModalVector(rng.standard_normal(16), spec)
    grid = default_grid(spec, 60)
    sigma = 0.7
    left = extend(apply_power(u, sigma), 0.5, grid).values
    right = spec.eigenvalues[:, None] ** sigma * extend(u, 0.5, grid).values
    np.testing.assert_allclose(left, right, rtol=1e-13, atol=1e-300)


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


@pytest.mark.parametrize("n", [-1, 0, 1, 2])
def test_default_grid_needs_three_points(n):
    with pytest.raises(ValueError, match="n >= 3"):
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
    lam = u.spectrum.eigenvalues
    d_s = trace_constant(s)
    s_rem = math.ceil(s) - s
    y0 = 2e-3 / math.sqrt(lam[-1])
    ys = np.array([y0, 0.5 * y0, 0.25 * y0])
    profiles = _loop_profiles(u, lambda z: psi(s_rem, z), ys)
    want = [power_fit_limit(ys, -d_s * lam[j] ** s * u.coeffs[j] * row,
                            (2.0 * s_rem, 2.0)) if row.any() else 0.0
            for j, row in enumerate(profiles)]
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


def test_curve_json_roundtrip():
    grid = np.array([0.5, 1.0, 2.0])
    u = ModalVector(np.array([1.0]), explicit_spectrum([1.0]))
    data = json.loads(curve_to_json(extend(u, 0.5, grid)))
    assert data["s"] == 0.5
    assert data["b"] == 0.0
    np.testing.assert_allclose(data["grid"], grid)
    np.testing.assert_allclose(data["values"][0], np.exp(-grid), rtol=1e-15)
