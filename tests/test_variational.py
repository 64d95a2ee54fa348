"""Tests for the finite-element variational verifier."""

import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracext
from fracext import suite, variational
from fracext.spectral import (
    ModalVector,
    apply_power,
    explicit_spectrum,
    sobolev_norm,
)
from fracext.special import FracParams, psi_lambda
from fracext.variational import (
    _SWEEP_ROWS,
    _assemble,
    _elements,
    _energy,
    _fe_form,
    _solve_unit_datum,
    _unit_minimum,
    graded_mesh,
    minimize_curve,
    minimize_negative,
    minimize_profile,
    orthogonality_check,
)
from fracext.weighted import (
    GaussianBump,
    QuadraticBump,
    power_weighted_integral,
)


def _thomas(diag, off, rhs):
    """Reference: the per-row Thomas sweep, in the dtype of its inputs."""
    n = diag.size
    c = np.empty(n - 1, dtype=diag.dtype)
    d = np.empty(n, dtype=diag.dtype)
    c[0] = off[0] / diag[0]
    d[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - off[i - 1] * c[i - 1]
        if i < n - 1:
            c[i] = off[i] / denom
        d[i] = (rhs[i] - off[i - 1] * d[i - 1]) / denom
    x = np.empty(n, dtype=diag.dtype)
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


def _random_spd(rng, n):
    # |off| < 1 and diag >= 2 make every row strictly diagonally dominant
    diag = 2.0 + rng.uniform(0.0, 1.0, n)
    off = rng.uniform(-1.0, 1.0, n - 1)
    return diag, off, float(rng.standard_normal())


def _unit(n, datum):
    rhs = np.zeros(n)
    rhs[0] = datum
    return rhs


def _dense(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def _geometric_mesh(y_max, n, y_first):
    """Nodes 0, y_first, y_first r, ..., y_max growing geometrically."""
    ratio = (y_max / y_first) ** (1.0 / (n - 2))
    mesh = np.concatenate(([0.0], y_first * ratio ** np.arange(n - 1)))
    mesh[-1] = y_max
    return mesh


@pytest.fixture
def geometric_default_mesh(monkeypatch):
    """Make the default FE mesh geometric, with the first cell at
    y_max 1e-5^max(1, 1/(2s)), but no less than 1e-150 of the range.

    The references below solve the free-trace system, whose computed
    minimum loses digits on the graded default mesh (1.3e-3 at s = 0.1);
    on this mesh it is accurate, and library and reference share it.
    """
    def mesh(y_max, n, s):
        return _geometric_mesh(y_max, n, y_max * max(
            1e-5 ** max(1.0, 0.5 / s), 1e-150))

    # an E cached on the graded mesh at the same (s, n) must not be read
    # under this one, nor one of this mesh by a later test
    _unit_minimum.cache_clear()
    monkeypatch.setattr(variational, "graded_mesh", mesh)
    yield
    _unit_minimum.cache_clear()


@pytest.mark.parametrize("n", sorted(
    set(range(1, 18)) | {_SWEEP_ROWS - 1, _SWEEP_ROWS, _SWEEP_ROWS + 1,
                         2 * _SWEEP_ROWS - 1, 2 * _SWEEP_ROWS,
                         2 * _SWEEP_ROWS + 1, 4000}))
def test_spd_tridiagonal_solve_matches_dense(n):
    # at and around the size where the reduction hands over to the sweep
    diag, off, datum = _random_spd(np.random.default_rng(n), n)
    x = _solve_unit_datum(diag, off, datum)
    want = np.linalg.solve(_dense(diag, off), _unit(n, datum))
    np.testing.assert_allclose(x, want, rtol=0, atol=1e-13)


def test_spd_tridiagonal_solve_is_deterministic():
    diag, off, datum = _random_spd(np.random.default_rng(3), 1000)
    x = _solve_unit_datum(diag, off, datum)
    assert np.array_equal(x, _solve_unit_datum(diag, off, datum))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), st.integers(0, 2 ** 32 - 1),
       st.floats(1e-6, 1e3))
def test_spd_tridiagonal_solve_property(n, seed, margin):
    # diagonally dominant by any margin, with rows of very different scale
    rng = np.random.default_rng(seed)
    off = rng.uniform(-1.0, 1.0, n - 1) * 10.0 ** rng.uniform(-3, 3, n - 1)
    side = np.abs(np.concatenate(([0.0], off))) + np.abs(
        np.concatenate((off, [0.0])))
    diag = side * (1.0 + margin) + margin
    rhs = _unit(n, float(rng.standard_normal()))
    x = _solve_unit_datum(diag, off, rhs[0])
    full = _dense(diag, off)
    scale = np.abs(full) @ np.abs(x) + np.abs(rhs)
    # far from row 0 the solution of a unit datum decays past the smallest
    # normal float, where rounding is absolute
    tiny = np.finfo(float).tiny
    assert np.all(np.abs(full @ x - rhs) <= 1e-13 * scale + tiny)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("n", [1000, 4000, 16000])
@pytest.mark.parametrize("s", [0.05, 0.1, 0.5, 0.95])
def test_minimize_profile_matches_long_double_solve(s, n):
    # the same assembled system solved by a Thomas sweep in long double:
    # measured within 1 ulp at these (s, n), and within 9 ulp over s in
    # [0.01, 0.99], n <= 16000
    params = FracParams.from_order(s)
    _, elements, (diag, off) = _fe_form(params, 1.0, n)
    rhs = np.zeros(diag.size - 2, dtype=np.longdouble)
    rhs[0] = -np.longdouble(off[0])
    x = _thomas(diag[1:-1].astype(np.longdouble),
                off[1:-1].astype(np.longdouble), rhs)
    want = _energy(elements, 1.0,
                   np.concatenate(([1.0], x.astype(float), [0.0])))
    got, _ = minimize_profile(s, 1.0, n_nodes=n)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_fe_path_does_not_load_scipy_linalg():
    # loading scipy.linalg adds over 10 % to the FE path's peak RSS, and
    # scipy.special about 0.3 s of import time; the FE path needs neither
    code = ("import sys, fracext\n"
            "fracext.minimize_profile(0.5, 1.0, n_nodes=200)\n"
            "zeta = fracext.ModalVector([1.0, 2.0],\n"
            "                           fracext.explicit_spectrum([1.0, 4.0]))\n"
            "fracext.minimize_curve(zeta, 0.3, n_nodes=200)\n"
            "fracext.minimize_negative(zeta, 0.3, n_nodes=200)\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "assert 'scipy.special' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(fracext.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=60)


def test_assemble_matches_adaptive_quadrature():
    # the assembled quadratic form evaluates the weighted energy of a
    # piecewise-linear function exactly (moment formulas); compare against
    # per-element adaptive quadrature on a coarse mesh
    from scipy.integrate import quad

    b, lam = -0.4, 2.0
    mesh = _geometric_mesh(6.0, 14, 0.05)
    diag, off = _assemble(_elements(mesh, b), lam)
    f = np.exp(-mesh ** 2)
    quad_form = float(np.sum(diag * f * f)
                      + 2.0 * np.sum(off * f[:-1] * f[1:]))
    direct = 0.0
    for i in range(mesh.size - 1):
        a, c = mesh[i], mesh[i + 1]
        slope = (f[i + 1] - f[i]) / (c - a)

        def integrand(y, a=a, i=i, slope=slope):
            lin = f[i] + slope * (y - a)
            return y ** b * (slope ** 2 + lam * lin ** 2)

        val, _ = quad(integrand, a, c, limit=100)
        direct += val
    assert quad_form == pytest.approx(2.0 * direct, rel=1e-9)


@pytest.mark.parametrize("s", [0.05, 0.4, 0.95])
def test_elements_match_per_cell_moments(s):
    # each node raised once per moment and differenced is the per-cell
    # y1^p - y0^p, bit for bit
    b = FracParams.from_order(s).b
    mesh = graded_mesh(40.0, 4000, s)
    y0, y1 = mesh[:-1], mesh[1:]
    h2 = (y1 - y0) ** 2
    m0, m1, m2 = ((y1 ** (b + k) - y0 ** (b + k)) / (b + k)
                  for k in (1.0, 2.0, 3.0))
    want = (m0 / h2,
            (y1 * y1 * m0 - 2.0 * y1 * m1 + m2) / h2,
            ((y0 + y1) * m1 - y0 * y1 * m0 - m2) / h2,
            (m2 - 2.0 * y0 * m1 + y0 * y0 * m0) / h2)
    for got, ref in zip(_elements(mesh, b), want, strict=True):
        assert np.array_equal(got, ref)


def test_minimize_profile_converges_from_above():
    target = 2.0  # 2 d_{1/2} 1^{1/2}
    prev_gap = None
    for n in (250, 500, 1000, 2000):
        val, prof = minimize_profile(0.5, 1.0, n_nodes=n)
        gap = val - target
        assert gap > 0.0
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap
    assert prev_gap < 1e-5


def test_minimize_profile_pointwise_accuracy():
    _, prof = minimize_profile(0.5, 1.0, n_nodes=2000)
    ys = np.linspace(0.05, 5.0, 40)
    err = np.max(np.abs(prof(ys) - np.exp(-ys)))
    assert err < 1e-3
    assert prof(0.0) == 1.0
    assert abs(prof.values[-1]) <= 1e-12


def test_minimizer_weighted_l2_distance_shrinks():
    s = 0.5
    for n, bound in ((2000, 1e-2), (4000, 5e-3)):
        _, prof = minimize_profile(s, 1.0, n_nodes=n)
        dist = math.sqrt(2.0 * power_weighted_integral(
            lambda y: (prof(y) - psi_lambda(s, 1.0, y)) ** 2, 0.0, 40.0, 2048))
        assert dist < bound


@pytest.mark.parametrize("s", [0.1, 0.2, 0.3])
def test_minimize_profile_small_order_meets_closed_form(s):
    # the first cell's energy scales like delta^{2s}: the order-graded mesh
    # puts its first node at y_max (n-1)^{-2/s}
    target = 2.0 * FracParams.from_order(s).d_s * 2.5 ** s
    val, _ = minimize_profile(s, 2.5, n_nodes=4000)
    assert target <= val <= target * (1.0 + 1e-3)


def test_minimize_profile_lambda_scaling():
    v1, _ = minimize_profile(0.5, 1.0, n_nodes=2000)
    v2, _ = minimize_profile(0.5, 3.0, n_nodes=2000)
    assert v2 / v1 == pytest.approx(3.0 ** 0.5, rel=1e-3)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
def test_minimize_profile_rejects_a_bad_eigenvalue(lam):
    # these raised ZeroDivisionError or "math domain error", or returned NaN
    with pytest.raises(ValueError, match=f"needs a finite eigenvalue lam > 0, "
                                         f"got lam={lam}"):
        minimize_profile(0.5, lam)


def test_zero_trace_constraint_gives_zero_minimum():
    # with f(0) = 0 imposed as well, the quadratic form minimum is 0 at f = 0
    mesh = graded_mesh(40.0, 200, 0.5)
    diag, off = _assemble(_elements(mesh, 0.0), 1.0)
    x = _solve_unit_datum(diag[1:-1], off[1:-1], 0.0)
    assert x.shape == (mesh.size - 2,) and np.all(x == 0.0)


def test_minimize_curve_two_modes():
    spec = explicit_spectrum([1.0, 4.0])
    u = ModalVector(np.array([1.0, 1.0]), spec)
    rep = minimize_curve(u, 0.5, n_nodes=4000)
    assert rep.rhs == pytest.approx(6.0, rel=1e-14)
    assert rep.lhs >= rep.rhs
    assert rep.passed and rep.rel_err <= 1e-3
    # quadratic homogeneity: a single mode scales with the coefficient square
    u1 = ModalVector(np.array([2.0]), explicit_spectrum([1.0]))
    rep1 = minimize_curve(u1, 0.5, n_nodes=1000)
    val, _ = minimize_profile(0.5, 1.0, n_nodes=1000)
    assert rep1.lhs == pytest.approx(4.0 * val, rel=1e-12)
    zero = ModalVector(np.zeros(2), spec)
    rep0 = minimize_curve(zero, 0.5, n_nodes=500)
    assert rep0.lhs == 0.0 and rep0.rhs == 0.0 and rep0.passed


def test_refinement_ratio_at_least_1_7():
    target = 2.0
    errs = [abs(minimize_profile(0.5, 1.0, n_nodes=n)[0] - target)
            for n in (1000, 2000, 4000)]
    assert errs[0] / errs[1] >= 1.7
    assert errs[1] / errs[2] >= 1.7


def test_minimize_negative_single_mode():
    zeta = ModalVector(np.array([1.0]), explicit_spectrum([1.0]))
    rep, trace = minimize_negative(zeta, 0.5, n_nodes=4000)
    assert rep.rhs == pytest.approx(-2.0, rel=1e-14)
    assert rep.lhs >= rep.rhs
    assert rep.passed and rep.rel_err <= 1e-3
    want = apply_power(zeta, -0.5).coeffs
    np.testing.assert_allclose(trace.coeffs, want, rtol=1e-3)
    zero = ModalVector(np.zeros(1), explicit_spectrum([1.0]))
    rep0, _ = minimize_negative(zero, 0.5, n_nodes=500)
    assert rep0.lhs == 0.0 and rep0.passed


@pytest.mark.parametrize("s, n_nodes", [(0.95, 8000), (0.5, 4000)])
def test_minimize_negative_reports_functional_at_its_solution(
        geometric_default_mesh, s, n_nodes):
    # the reference solution comes from a Thomas sweep in long double; the
    # functional is stationary there, so any accurate solve reports the same
    # value, while the shortcut -2 d_s zeta x[0] moved with solver rounding
    params = FracParams.from_order(s)
    zeta = ModalVector(np.array([1.0]), explicit_spectrum([1.0]))
    rep, _ = minimize_negative(zeta, s, n_nodes=n_nodes)
    _, elements, (diag, off) = _fe_form(params, 1.0, n_nodes)
    rhs = np.zeros(n_nodes - 1, dtype=np.longdouble)
    rhs[0] = 2.0 * params.d_s
    x = _thomas(diag[:-1].astype(np.longdouble),
                off[:-1].astype(np.longdouble), rhs)
    ref = (_energy(elements, 1.0, np.append(x, 0.0))
           - 4.0 * params.d_s * float(x[0]))
    assert rep.lhs == pytest.approx(ref, rel=1e-12, abs=0.0)
    # Galerkin bound of the dual problem
    assert rep.lhs >= -2.0 * params.d_s


@pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.75, 0.95])
def test_minimize_negative_is_the_dual_of_the_constrained_minimum(s):
    # the free-trace minimiser is c f_h, f_h the unit-trace Dirichlet
    # minimiser with energy E: c^2 E - 4 d_s c is least at c = 2 d_s / E
    d_s = FracParams.from_order(s).d_s
    n = 4000
    unit, _ = minimize_profile(s, 1.0, n_nodes=n)
    zeta = ModalVector(np.array([0.0, 2.0, -3.0, 0.5, 0.0, 1e-3]),
                       explicit_spectrum([0.0, 0.3, 1.0, 4.0, 50.0, 2e3]))
    rep, trace = minimize_negative(zeta, s, n_nodes=n)
    norm = sobolev_norm(zeta, -s)
    assert rep.lhs == pytest.approx(-4.0 * d_s ** 2 * norm ** 2 / unit,
                                    rel=1e-14, abs=0.0)
    np.testing.assert_allclose(
        trace.coeffs, 2.0 * d_s / unit * apply_power(zeta, -s).coeffs,
        rtol=1e-14, atol=0.0)
    assert rep.lhs >= rep.rhs  # Galerkin bound of the dual


@pytest.mark.parametrize("s", [0.015, 0.01, 0.005, 0.001])
def test_minimize_profile_tiny_order_is_finite(s):
    # a first node at y_max 1e-5^{1/(2s)} underflowed to 0 below s = 0.01
    # (ZeroDivisionError), and its h^2 below s = 0.016 (nan); the graded
    # mesh drops every node below 1e-150 of the range instead
    val, prof = minimize_profile(s, 1.0, n_nodes=4000)
    assert math.isfinite(val)
    assert val >= 2.0 * FracParams.from_order(s).d_s
    assert np.all(np.isfinite(prof.values))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("s", [0.75, 0.95])
def test_minimize_negative_trace_matches_long_double_solve(
        geometric_default_mesh, s):
    # reference: the same element arrays assembled and solved in long
    # double.  Rounding the assembled diagonal to double alone moves the
    # trace by about 1e-7, and the solver's x[0] was off by 1.8e-8 (s = 0.95)
    # and 7.7e-8 (s = 0.75); the trace from the functional is within 5e-11
    n = 4000
    params = FracParams.from_order(s)
    mesh, _, _ = _fe_form(params, 1.0, n)
    k_el, m00, m01, m11 = _elements(mesh.astype(np.longdouble),
                                    np.longdouble(params.b))
    diag = np.zeros(n, dtype=np.longdouble)
    diag[:-1] += k_el + m00
    diag[1:] += k_el + m11
    rhs = np.zeros(n - 1, dtype=np.longdouble)
    rhs[0] = params.d_s  # the system halved: 2 d_s against the doubled form
    want = float(_thomas(diag[:-1], (m01 - k_el)[:-1], rhs)[0])
    zeta = ModalVector(np.array([2.0, -3.0]), explicit_spectrum([1.0, 4.0]))
    _, trace = minimize_negative(zeta, s, n_nodes=n)
    np.testing.assert_allclose(trace.coeffs,
                               want * zeta.coeffs * np.array([1.0, 4.0]) ** -s,
                               rtol=1e-9, atol=0.0)


def _spread_spectrum(modes):
    """A kernel mode, then ``modes`` log-spread eigenvalues in [0.3, 3e3],
    one of them with a zero coefficient when there are two or more."""
    rng = np.random.default_rng(modes)
    lam = np.concatenate(([0.0], np.geomspace(0.3, 3e3, modes)))
    coeffs = rng.standard_normal(modes + 1)
    coeffs[0] = 0.0
    if modes > 1:
        coeffs[1 + modes // 2] = 0.0
    return ModalVector(coeffs, explicit_spectrum(lam))


@pytest.mark.parametrize("s", [0.1, 0.5, 0.95])
def test_curve_minima_match_per_mode_solves(geometric_default_mesh, s):
    # the per-mode route: each mode on its own mesh, ending at 40/sqrt(lam);
    # the scaled single solve agrees to rounding (measured 1.4e-12 on the
    # minima; the traces, taken from the functional, 2.2e-12, where x[0] of
    # the ill-conditioned graded solve disagreed by 5.5e-7)
    params = FracParams.from_order(s)
    n = 4000
    u = _spread_spectrum(16)
    lam, c = u.spectrum.eigenvalues, u.coeffs
    active = (lam > 0) & (c != 0)
    want = sum(c[j] ** 2 * minimize_profile(s, lam[j], n_nodes=n)[0]
               for j in np.flatnonzero(active))
    assert minimize_curve(u, s, n_nodes=n).lhs == pytest.approx(
        want, rel=5e-12, abs=0.0)

    want_min = 0.0
    want_trace = np.zeros(lam.size)
    for j in np.flatnonzero(active):
        _, elements, (diag, off) = _fe_form(params, lam[j], n)
        datum = 2.0 * params.d_s * c[j]
        x = _solve_unit_datum(diag[:-1], off[:-1], datum)
        unit = (_energy(elements, lam[j], np.append(x, 0.0))
                - 2.0 * datum * x[0])
        want_min += unit
        want_trace[j] = -unit / datum
    rep, trace = minimize_negative(u, s, n_nodes=n)
    assert rep.lhs == pytest.approx(want_min, rel=5e-12, abs=0.0)
    np.testing.assert_allclose(trace.coeffs, want_trace, rtol=1e-10, atol=0)
    assert np.all(trace.coeffs[~active] == 0.0)


@pytest.fixture
def top_level_solves(monkeypatch):
    """Mesh sizes of the tridiagonal solves, from a cold unit-minimum
    cache."""
    solve = variational._solve_unit_datum
    sizes = []

    def counting(diag, off, datum):
        sizes.append(diag.size + 2)  # plus the two Dirichlet nodes
        return solve(diag, off, datum)

    monkeypatch.setattr(variational, "_solve_unit_datum", counting)
    _unit_minimum.cache_clear()
    yield sizes
    _unit_minimum.cache_clear()


@pytest.mark.parametrize("modes", [1, 8, 64])
def test_curve_minima_make_one_solve(top_level_solves, modes):
    u = _spread_spectrum(modes)
    # the curve minimum and its dual at one (s, n) share one solve
    minimize_curve(u, 0.4, n_nodes=500)
    minimize_negative(u, 0.4, n_nodes=500)
    assert top_level_solves == [500]
    # a new order or mesh size solves again
    minimize_negative(u, 0.3, n_nodes=500)
    minimize_curve(u, 0.3, n_nodes=600)
    assert top_level_solves == [500, 500, 600]
    # and only the last (s, n) is kept
    minimize_curve(u, 0.4, n_nodes=500)
    assert top_level_solves == [500, 500, 600, 500]


def test_minimize_check_solves_once_per_mesh(top_level_solves):
    # the refinement ratio solves at 1000, 2000 and 4000 nodes; both minima
    # read the finest E again
    reports = suite.check_minimize(suite.RunConfig())
    assert all(rep.passed for rep in reports)
    assert top_level_solves == [1000, 2000, 4000]


@pytest.mark.parametrize("s, n", [(0.4, 500), (0.5, 4000), (0.95, 2000)])
def test_unit_minimum_is_the_minimize_profile_value(s, n):
    want = minimize_profile(s, 1.0, n_nodes=n)[0]
    _unit_minimum.cache_clear()
    cold = _unit_minimum(s, n)
    warm = _unit_minimum(s, n)
    assert _unit_minimum.cache_info().hits == 1
    assert cold == want and warm == want


def test_minimize_negative_refuses_a_kernel_coefficient_before_solving(
        monkeypatch):
    # the norm's own kernel check refuses the input, before any FE solve
    def solve(*args):
        raise AssertionError("an FE solve for a refused input")
    monkeypatch.setattr(variational, "_unit_minimum", solve)
    bad = ModalVector(np.array([1.0, 1.0]), explicit_spectrum([0.0, 1.0]))
    with pytest.raises(ValueError, match="kernel mode 0"):
        minimize_negative(bad, 0.5)


def test_orthogonality_check_values():
    one = ModalVector(np.array([1.0]), explicit_spectrum([1.0]))
    r = orthogonality_check(one, 0.5, one, GaussianBump())
    # 2 d_s lam^s u v eta(0) = 2
    assert r.rhs == pytest.approx(2.0, rel=1e-14)
    assert r.passed and r.rel_err <= 1e-5
    r2 = orthogonality_check(one, 1.5, one, GaussianBump())
    assert r2.rhs == pytest.approx(4.0, rel=1e-14)
    assert r2.passed and r2.rel_err <= 1e-5


def test_orthogonality_zero_trace_test_curve():
    one = ModalVector(np.array([1.0]), explicit_spectrum([1.0]))
    for s in (0.5, 1.5):
        r = orthogonality_check(one, s, one, QuadraticBump())
        assert r.rhs == 0.0
        assert abs(r.lhs) <= 1e-6
        assert r.passed


def test_orthogonality_multimode_and_errors():
    spec = explicit_spectrum([1.0, 4.0])
    u = ModalVector(np.array([1.0, 0.5]), spec)
    v = ModalVector(np.array([0.3, 1.0]), spec)
    r = orthogonality_check(u, 1.5, v, GaussianBump())
    assert r.passed
    with pytest.raises(ValueError):
        orthogonality_check(u, 2.5, v, GaussianBump())


def test_graded_mesh_shape():
    mesh = graded_mesh(40.0, 1000, 0.5)
    assert mesh.size == 1000
    assert mesh[0] == 0.0
    assert mesh[-1] == 40.0
    assert np.all(np.diff(mesh) > 0)
    # y_k = y_max (k/(n-1))^{2/s}
    assert mesh[1] == pytest.approx(40.0 * 999.0 ** -4, rel=1e-13)
    # small orders drop the nodes whose h^2 would underflow
    tiny = graded_mesh(40.0, 1000, 0.001)
    assert 3 <= tiny.size < 1000
    assert tiny[0] == 0.0 and tiny[-1] == 40.0
    assert tiny[1] >= 1e-150 * 40.0
    assert np.all(np.diff(tiny) > 0)
    with pytest.raises(ValueError):
        graded_mesh(40.0, 4, 0.5)


@pytest.mark.parametrize("y_max,s,named", [
    (40.0, 0.0, "s=0.0"), (40.0, -0.5, "s=-0.5"), (40.0, math.nan, "s=nan"),
    (40.0, math.inf, "s=inf"), (math.inf, 0.5, "y_max=inf"),
    (0.0, 0.5, "y_max=0.0"), (-1.0, 0.5, "y_max=-1.0"),
    (math.nan, 0.5, "y_max=nan"),
])
def test_graded_mesh_refuses_an_order_or_range_outside_its_domain(
        y_max, s, named):
    # s = 0 warned of an invalid divide, s < 0 and NaN gave the one-node
    # mesh [0.], and y_max = inf, 0 and -1 gave inf, all-zero and negative
    # nodes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{re.escape(named)}$"):
            graded_mesh(y_max, 100, s)


@pytest.mark.parametrize("n_nodes", [4000.5, 9.7, math.nan, math.inf,
                                     -math.inf])
def test_a_node_count_that_is_not_a_whole_number_is_refused(n_nodes):
    # 4000.5 solved on a 4001-node mesh whose last node lay past y_max and
    # passed its check; 9.7 solved on 9 nodes; nan failed inside np.arange
    u = ModalVector(np.array([1.0, 1.0]), explicit_spectrum([1.0, 4.0]))
    solves = (lambda: graded_mesh(40.0, n_nodes, 0.5),
              lambda: minimize_profile(0.5, 1.0, n_nodes=n_nodes),
              lambda: minimize_curve(u, 0.5, n_nodes=n_nodes),
              lambda: minimize_negative(u, 0.5, n_nodes=n_nodes))
    for solve in solves:
        with pytest.raises(ValueError, match=f"whole number of nodes, got "
                                             f"n={n_nodes}$"):
            solve()


def test_a_whole_float_node_count_is_the_integer_count():
    assert np.array_equal(graded_mesh(40.0, 1000.0, 0.5),
                          graded_mesh(40.0, 1000, 0.5))
    assert minimize_profile(0.5, 1.0, n_nodes=500.0)[0] == minimize_profile(
        0.5, 1.0, n_nodes=500)[0]


_CONVERGENCE_NODES = (2000, 4000, 8000, 16000)


@pytest.mark.parametrize("s", [0.05, 0.1, 0.3, 0.5, 0.75, 0.95])
def test_minimize_profile_converges_like_n_squared(s):
    # the order-graded mesh gives O(n^-2) at every order; the geometric
    # mesh with a fixed first cell stalled everywhere but s = 0.5
    target = 2.0 * FracParams.from_order(s).d_s
    errs = []
    for n in _CONVERGENCE_NODES:
        val, _ = minimize_profile(s, 1.0, n_nodes=n)
        assert val >= target  # Galerkin bound
        errs.append((val - target) / target)
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse >= 3.0 * fine



@pytest.mark.parametrize("s", [1e-6, 2e-300, 5e-324])
def test_minimize_profile_rejects_order_that_leaves_too_few_nodes(s):
    # below about s = 3e-6 at 2000 nodes, every node but 0 and y_max lies
    # under 1e-150 of the range; the "minimum" was 1.5e3 times too large
    with pytest.raises(ValueError,
                       match=f"mesh at s={s} keeps 2 of 2000 nodes"):
        minimize_profile(s, 1.0)
