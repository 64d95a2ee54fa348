"""Tests for weighted quadrature, energies, and the identity suite."""

import dataclasses
import json
import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from fracext.spectral import ModalVector, explicit_spectrum, sobolev_norm
from fracext.extension import extend, trace0
from fracext.special import (
    FracParams,
    psi,
    trace_constant,
)
from fracext.weighted import (
    _cells_geometric,
    _cells_log_transformed,
    _gauss_jacobi,
    _LEGENDRE_W,
    _LEGENDRE_X,
    CheckReport,
    CompactBump,
    GaussianBump,
    PsiProfile,
    QuadraticBump,
    curve_energy,
    energy_identity,
    fourier_isometry,
    mode_energy,
    parts_check,
    power_weighted_integral,
    psi_fourier_numeric,
    report_equal,
    report_lower_bound,
    report_upper_bound,
    trace_inequality,
    virial_check,
)


# ---------------------------------------------------------------------------
# quadrature

# (b, n) cases of the moment test; the ids of the n = 1024 cases are the
# bare exponent
_MOMENT_CASES = [pytest.param(b, 1024, id=str(b))
                 for b in (-0.6, -0.5, 0.0, 0.4, 0.9)]
_MOMENT_CASES.append(pytest.param(-0.5, 512, id="-0.5-n512"))


@pytest.mark.parametrize("b, n", _MOMENT_CASES)
@pytest.mark.parametrize("cells", [_cells_geometric, _cells_log_transformed],
                         ids=["geometric", "gauss_transformed"])
def test_gamma_moment_invariant(b, n, cells):
    nodes, weights = cells(b, 45.0, n)
    got = weights @ np.exp(-2.0 * nodes)
    ref = math.gamma(1.0 + b) / 2.0 ** (1.0 + b)
    assert got == pytest.approx(ref, rel=1e-10)
    assert np.all(weights > 0.0)


# beta = 0 exactly is the Legendre rule of the regular cells
_JACOBI_BETAS = np.append(np.linspace(-0.99, 6.0, 141), 0.0)


def test_gauss_jacobi_rule_is_exact_to_degree_31():
    # 16 points integrate (1+x)^k (1+x)^beta over [-1, 1], 1 + x = 2t,
    # exactly for k <= 31: 2^{beta+k+1}/(beta+k+1).  Measured worst 2.5e-14
    # (at k = 31, the rounding of the power and of the eigenvectors)
    for beta in _JACOBI_BETAS:
        t, w = _gauss_jacobi(16, beta)
        assert np.all(np.diff(t) > 0.0) and t[0] > 0.0 and t[-1] < 1.0
        assert np.all(w > 0.0)
        for k in range(32):
            exact = 2.0 ** (beta + k + 1.0) / (beta + k + 1.0)
            got = (2.0 * t) ** k @ (2.0 ** (beta + 1.0) * w)
            assert got == pytest.approx(exact, rel=5e-14)


def test_gauss_jacobi_rule_matches_scipy():
    # scipy's own weights are good to about 1e-11 near beta = -1
    from scipy.special import roots_jacobi

    for beta in _JACOBI_BETAS:
        t, w = _gauss_jacobi(16, beta)
        xs, ws = roots_jacobi(16, 0.0, beta)
        np.testing.assert_allclose(2.0 * t - 1.0, xs, rtol=0.0, atol=4e-15)
        np.testing.assert_allclose(2.0 ** (beta + 1.0) * w, ws, rtol=4e-11)


def test_legendre_rule_matches_numpy():
    # the regular cells' rule is the beta = 0 Jacobi rule mapped to [-1, 1];
    # measured 5.4e-16 on the nodes and 2.5e-14 on the weights
    from numpy.polynomial.legendre import leggauss

    xs, ws = leggauss(16)
    np.testing.assert_allclose(_LEGENDRE_X, xs, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(_LEGENDRE_W, ws, rtol=5e-14)


def test_plain_exponential_moment():
    got = power_weighted_integral(lambda y: np.exp(-2.0 * y), 0.0, 45.0, 512)
    assert got == pytest.approx(0.5, rel=1e-10)


def test_singular_cell_never_samples_origin():
    nodes, _ = _cells_geometric(-0.6, 45.0, 512)
    assert nodes[0] > 0.0
    # integral of y^{-0.6} alone over the leading cell region is finite and
    # the rule reproduces the power-rule antiderivative
    got = power_weighted_integral(lambda y: np.ones_like(y), -0.6, 1.0, 512)
    assert got == pytest.approx(1.0 / 0.4, rel=1e-12)
    with pytest.raises(ValueError, match="not integrable"):
        power_weighted_integral(np.ones_like, -1.0, 1.0)


@pytest.mark.parametrize("beta", [math.nan, math.inf])
def test_power_weighted_integral_refuses_a_bad_exponent(beta):
    # NaN reached the Gauss-Jacobi eigensolver, which did not converge
    with pytest.raises(ValueError, match=f"beta > -1, got {beta}"):
        power_weighted_integral(np.ones_like, beta, 1.0)


@pytest.mark.parametrize("upper", [0.0, -1.0, math.inf, math.nan])
def test_power_weighted_integral_refuses_a_bad_upper_limit(upper):
    # 0 divided by zero in the cell ratio; inf and NaN gave a NaN integral
    with pytest.raises(ValueError, match=f"upper < inf, got {upper}"):
        power_weighted_integral(np.ones_like, 0.0, upper)


@pytest.mark.parametrize("profile", [PsiProfile(0.3), GaussianBump()],
                         ids=["psi", "sampled"])
def test_mode_energy_refuses_a_nan_weight(profile):
    with pytest.raises(ValueError, match="finite beta > -1, got nan"):
        mode_energy(profile, 1.0, 1, math.nan)


def test_grid_doubling_stability():
    for b in (-0.5, 0.4):
        a, c = (power_weighted_integral(lambda y: np.exp(-2.0 * y), b, 45.0, n)
                for n in (1024, 2048))
        assert abs(a - c) <= 1e-8 * abs(c)


# ---------------------------------------------------------------------------
# energies


def test_mode_energy_hand_values():
    # int_R (psi'^2 + psi^2) for e^{-|y|} is 2; the order-3/2 energy is 4
    assert mode_energy(PsiProfile(0.5), 1.0, 1, 0.0) == pytest.approx(
        2.0, rel=1e-12)
    assert mode_energy(PsiProfile(1.5), 1.0, 2, 0.0) == pytest.approx(
        4.0, rel=1e-12)


def test_mode_energy_scaling_law():
    # |f(. sqrt(lam))|^2_{lam,k;b} = lam^{k-(1+b)/2} |f|^2_{1,k;b}
    prof = GaussianBump(0.8)
    for k, b, lam in [(1, 0.4, 3.0), (1, -0.5, 2.0), (1, 0.0, 10.0)]:
        left = mode_energy(prof, lam, k, b)
        right = lam ** (k - 0.5 * (1 + b)) * mode_energy(prof, 1.0, k, b)
        assert left == pytest.approx(right, rel=1e-8)
    for k, b, lam in [(2, 0.0, 3.0), (3, 0.0, 3.0), (2, -0.5, 4.0),
                      (3, 0.4, 2.0)]:
        prof = PsiProfile(3.5 + 0.5 * (1 - b) - 0.5)  # order with matching b
        s = prof.s
        assert abs((1 - 2 * (s - math.floor(s))) - b) < 1e-12
        left = mode_energy(prof, lam, k, b)
        right = lam ** (k - 0.5 * (1 + b)) * mode_energy(prof, 1.0, k, b)
        assert left == pytest.approx(right, rel=1e-8)


def test_mode_energy_ordering_in_k():
    # |f|^2_{lam,k} >= lam^{k-j} |f|^2_{lam,j}
    s = 3.5
    for lam in (1.0, 2.5):
        vals = {k: mode_energy(PsiProfile(s), lam, k, 0.0)
                for k in (1, 2, 3, 4)}
        for k in (2, 3, 4):
            for j in range(1, k):
                assert vals[k] >= lam ** (k - j) * vals[j] * (1 - 1e-12)


@pytest.mark.parametrize("k", [1.5, math.nan, math.inf])
def test_mode_energy_refuses_an_order_that_is_not_whole(k):
    # 1.5 % 2 is odd and 1.5 // 2 is 0: the k = 1 energy, 2.0
    with pytest.raises(ValueError, match=rf"order k must be a whole number, "
                                         rf"got k={k}"):
        mode_energy(PsiProfile(0.5), 1.0, k, 0.0)


@pytest.mark.parametrize("lam", [math.inf, np.array([1.0, math.inf])])
def test_mode_energy_refuses_an_infinite_eigenvalue(lam):
    # lam = inf gave NaN
    with pytest.raises(ValueError, match=r"lam > 0 and finite, got lam=.*inf"):
        mode_energy(PsiProfile(0.5), lam, 1, 0.0)


def test_curve_energy_single_mode_reduces_to_mode_energy():
    u = ModalVector(np.array([2.0]), explicit_spectrum([1.0]))
    curve = extend(u, 0.5)
    assert curve_energy(curve) == pytest.approx(
        4.0 * mode_energy(PsiProfile(0.5), 1.0, 1, 0.0), rel=1e-12)


def test_curve_energy_isometry():
    spec = explicit_spectrum([1.0, 4.0, 9.0])
    u = ModalVector(np.ones(3), spec)
    for s in (0.5, 1.5):
        curve = extend(u, s)
        rhs = 2.0 * trace_constant(s) * sobolev_norm(u, s) ** 2
        assert curve_energy(curve) == pytest.approx(rhs, rel=1e-6)


def test_curve_energy_embedding_ordering():
    spec = explicit_spectrum([1.0, 4.0])
    u = ModalVector(np.array([1.0, 0.5]), spec)
    lam1 = 1.0

    def energy(k):  # the curve energy of extend(u, 2.5) at order k, b = 0
        return float(u.coeffs ** 2
                     @ mode_energy(PsiProfile(2.5), spec.eigenvalues, k, 0.0))

    for k in (2, 3):
        for j in range(1, k):
            assert energy(k) >= lam1 ** (k - j) * energy(j) * (1 - 1e-12)


def test_curve_energy_trace_continuity():
    # m_b |U(0)|^2_{H^{k-(1+b)/2}} <= |U|^2_{H^{k;b}}
    spec = explicit_spectrum([1.0, 4.0])
    u = ModalVector(np.array([1.0, 0.5]), spec)
    for s in (0.5, 1.5):
        params = FracParams.from_order(s)
        curve = extend(u, s)
        tr = trace0(curve)
        lhs = params.m_b * sobolev_norm(tr, params.ceil_s - 0.5 * (1 + params.b)) ** 2
        assert lhs <= curve_energy(curve) * (1 + 1e-9)


def test_kernel_modes_carry_zero_energy():
    spec = explicit_spectrum([0.0, 1.0])
    u = ModalVector(np.array([1.0, 1.0]), spec)
    curve = extend(u, 0.5)
    only_positive = ModalVector(np.array([0.0, 1.0]), spec)
    assert curve_energy(curve) == pytest.approx(
        curve_energy(extend(only_positive, 0.5)), rel=1e-13)


# ---------------------------------------------------------------------------
# batched mode integrals against sums of single-mode calls


def _spread_modes():
    """16 log-spread eigenvalues with a kernel mode, coefficients u and v
    with one zero each, and u0 with the kernel coefficient zeroed too."""
    rng = np.random.default_rng(16)
    lam = np.concatenate([[0.0], np.geomspace(1e-2, 1e4, 15)])
    u, v = rng.normal(size=(2, lam.size))
    u[6] = 0.0
    v[11] = 0.0
    u0 = u.copy()
    u0[0] = 0.0
    return lam, u, v, u0


def _on(lam, coeffs):
    return ModalVector(np.asarray(coeffs, dtype=float),
                       explicit_spectrum(lam))


def test_batched_mode_integrals_equal_single_mode_sums():
    from fracext.variational import (
        minimize_curve,
        minimize_negative,
        orthogonality_check,
    )
    lam, u, v, u0 = _spread_modes()

    def single_sum(fn, *coeffs):
        # the per-mode loop: one call per mode on a one-mode spectrum
        return sum(fn(*(_on([lam[j]], [c[j]]) for c in coeffs))
                   for j in range(lam.size))

    def close(got, want):
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    for s in (0.4, 1.6):
        close(curve_energy(extend(_on(lam, u), s)),
              single_sum(lambda w: curve_energy(extend(w, s)), u))
        close(fourier_isometry(_on(lam, u0), s, sigma=0.3, b=-0.2).lhs,
              single_sum(lambda w: fourier_isometry(
                  w, s, sigma=0.3, b=-0.2).lhs, u0))
        eta = GaussianBump()
        close(orthogonality_check(_on(lam, u), s, _on(lam, v), eta).lhs,
              single_sum(lambda a, b: orthogonality_check(a, s, b, eta).lhs,
                         u, v))
    s, nodes = 0.4, 400
    close(minimize_curve(_on(lam, u0), s, n_nodes=nodes).lhs,
          single_sum(lambda w: minimize_curve(w, s, n_nodes=nodes).lhs, u0))
    rep, trace = minimize_negative(_on(lam, u0), s, n_nodes=nodes)
    singles = [minimize_negative(_on([lam[j]], [u0[j]]), s, n_nodes=nodes)
               for j in range(lam.size)]
    close(rep.lhs, sum(r.lhs for r, _ in singles))
    np.testing.assert_allclose(
        trace.coeffs, [t.coeffs[0] for _, t in singles], rtol=1e-13, atol=0)


# ---------------------------------------------------------------------------
# scaled lam = 1 integrals against each mode's own grid


def _l2b_sq_on_mode_grid(coef, expo, order, lam, b, n):
    """The per-mode route: int_R |y|^b |coef y^expo psi_order(sqrt(lam) y)|^2
    on the grid of [0, 45/sqrt(lam)]."""
    root = math.sqrt(lam)
    nodes, weights = _cells_geometric(b + 2.0 * expo, 45.0 / root, n)
    return 2.0 * coef ** 2 * float(weights @ psi(order, root * nodes) ** 2)


def _energy_on_mode_grid(profile, lam, k, b, n=1024):
    if isinstance(profile, PsiProfile):
        # the closed forms written out: (D_b + lam)^m psi_{s,lam} =
        # lam^m (d_s / d_{s-m}) psi_{s-m,lam}, and psi_v' = -y psi_{v-1} /
        # (2(v-1)) above v = 1, -d_v y^{2v-1} psi_{1-v} below
        m = k // 2
        v = profile.s - m
        coef = lam ** m * trace_constant(profile.s) / trace_constant(v)
        zero = _l2b_sq_on_mode_grid(coef, 0.0, v, lam, b, n)
        if k % 2 == 0:
            return zero
        if v > 1.0:
            slope, expo, order = -1.0 / (2.0 * (v - 1.0)), 1.0, v - 1.0
        else:
            slope, expo, order = -trace_constant(v), 2.0 * v - 1.0, 1.0 - v
        # the chain rule on psi(sqrt(lam) y) brings lam^{(1+expo)/2}
        grad = coef * slope * lam ** (0.5 * (1.0 + expo))
        return _l2b_sq_on_mode_grid(grad, expo, order, lam, b, n) + lam * zero
    root = math.sqrt(lam)
    nodes, weights = _cells_geometric(b, 45.0 / root, n)
    z = root * nodes
    return 2.0 * lam * float(
        weights @ (profile.d1(z) ** 2 + profile.value(z) ** 2))


def test_scaled_integrals_match_per_mode_grids():
    # measured agreement 5.6e-16: the mode grids are the lam = 1 grid
    # divided by sqrt(lam), up to rounding
    lam, u, _, u0 = _spread_modes()
    positive = lam[1:]

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    for s in (0.25, 0.5, 1.5, 2.5, 3.5):
        params = FracParams.from_order(s)
        for k in range(1, params.ceil_s + 1):
            close(mode_energy(PsiProfile(s), positive, k, params.b),
                  [_energy_on_mode_grid(PsiProfile(s), x, k, params.b)
                   for x in positive])
        active = (lam > 0) & (u != 0)
        close(curve_energy(extend(_on(lam, u), s)),
              sum(u[j] ** 2 * _energy_on_mode_grid(
                  PsiProfile(s), lam[j], params.ceil_s, params.b)
                  for j in np.flatnonzero(active)))
        for b in (-0.5, 0.0, 0.6):
            sigma = 0.3
            close(fourier_isometry(_on(lam, u0), s, sigma=sigma, b=b).lhs,
                  sum(lam[j] ** (sigma + 0.5 * (1.0 + b)) * u0[j] ** 2
                      * _l2b_sq_on_mode_grid(1.0, 0.0, s, lam[j], b, 1024)
                      for j in np.flatnonzero(active)))
    for b in (-0.5, 0.0, 0.4):
        close(mode_energy(GaussianBump(0.7), positive, 1, b),
              [_energy_on_mode_grid(GaussianBump(0.7), x, 1, b)
               for x in positive])
        close(mode_energy(GaussianBump(0.7), 2.5, 1, b),
              _energy_on_mode_grid(GaussianBump(0.7), 2.5, 1, b))


# ---------------------------------------------------------------------------
# identity suite


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 1.5, 2.5, 3.5])
@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0, 10.0])
def test_energy_identity_matrix(s, lam):
    assert energy_identity(s, lam).passed


@pytest.mark.parametrize("lam", [1.0, 4.0])
def test_energy_identity_at_large_order(lam):
    # psi at order 199.75 is still 0.08 at y = 45, so the lam = 1 integrals
    # must reach past it; a cut at 45 gives 1.5e-3 at s = 400.5
    assert energy_identity(400.5, lam).rel_err <= 1e-12


def test_energy_identity_hand_values():
    r1 = energy_identity(0.5, 1.0)
    assert r1.lhs == pytest.approx(2.0, rel=1e-8)
    r2 = energy_identity(1.5, 1.0)
    assert r2.lhs == pytest.approx(4.0, rel=1e-8)
    r3 = energy_identity(0.3, 2.0)
    assert r3.rhs == pytest.approx(
        2.0 * trace_constant(0.3) * 2.0 ** 0.3, rel=1e-14)
    assert r3.rel_err <= 1e-6


def test_virial_identities():
    r1, r2 = virial_check(0.5)
    assert r1.lhs == pytest.approx(1.0, rel=1e-6)
    assert r2.lhs == pytest.approx(1.0, rel=1e-6)
    r1, r2 = virial_check(2.5)
    assert r1.lhs == pytest.approx(40.0 / 9.0, rel=1e-6)
    assert r2.lhs == pytest.approx(8.0 / 9.0, rel=1e-6)
    # the two parts always sum back to the total minimal energy
    assert r1.lhs + r2.lhs == pytest.approx(2.0 * trace_constant(2.5),
                                            rel=1e-8)
    with pytest.raises(ValueError):
        virial_check(1.5)


@pytest.mark.parametrize("b", [1.0, -1.0, math.nan])
def test_trace_inequality_refuses_a_weight_outside_its_range(b):
    with pytest.raises(ValueError, match=r"b must lie in \(-1, 1\)"):
        trace_inequality(b)


@pytest.mark.parametrize("eigenvalues, s, b, named", [
    ([1.0, 4.0], 0.0, 0.0, "needs s > 0"),
    ([1.0, 4.0], 0.5, 1.5, r"b must lie in \(-1, 1\)"),
    ([0.0, 1.0], 0.5, 0.0, "zero kernel coefficients"),
    # an infinite order reached the quadrature, which named its upper limit
    ([1.0, 4.0], math.inf, 0.0, r"needs s > 0 and finite, got s=inf"),
    ([1.0, 4.0], math.nan, 0.0, r"needs s > 0 and finite, got s=nan"),
], ids=["order", "weight", "kernel", "infinite order", "nan order"])
def test_fourier_isometry_refusals(eigenvalues, s, b, named):
    u = ModalVector(np.array([1.0, 1.0]), explicit_spectrum(eigenvalues))
    with pytest.raises(ValueError, match=named):
        fourier_isometry(u, s, b=b)


def test_trace_inequality_equality_and_strictness():
    for b in (-0.5, 0.0, 0.4):
        assert trace_inequality(b).passed
    # b = 0 equality: energy 2 against m_0 = 2
    r = trace_inequality(0.0)
    assert r.lhs == pytest.approx(2.0, rel=1e-8)
    # a Gaussian is not the minimiser: strict inequality
    r = trace_inequality(0.0, profile=GaussianBump())
    assert r.passed and r.lhs > r.rhs * (1 + 1e-3)
    # zero-trace profile: bound trivially holds
    r = trace_inequality(0.0, profile=QuadraticBump())
    assert r.passed and r.rhs == 0.0


def test_parts_check_all_regimes():
    assert parts_check(0.7, CompactBump()).passed
    assert parts_check(1.5, GaussianBump()).passed
    assert parts_check(2.5, GaussianBump(), b=0.3).passed
    # matched and unmatched analytic routes agree for s > 1
    a = parts_check(2.5, GaussianBump())
    b = parts_check(2.5, GaussianBump(), b=FracParams.from_order(2.5).b)
    assert a.lhs == pytest.approx(b.lhs, rel=1e-12)
    with pytest.raises(ValueError):
        parts_check(0.7, GaussianBump(), b=0.3)


def test_parts_check_integrates_compact_bump_over_its_support():
    # over [0, 45] the bump's edge at y = 1 was under-resolved: rel_err
    # 4.1e-7 against the tolerance 1e-6; over [0, 1] it is 5.9e-9
    assert parts_check(0.7, CompactBump()).rel_err <= 1e-8


class _ZeroEta:
    def value(self, y):
        return np.zeros_like(np.asarray(y, dtype=float))

    def d1(self, y):
        return np.zeros_like(np.asarray(y, dtype=float))


def test_parts_check_vanishing_test_function():
    r = parts_check(0.7, _ZeroEta())
    assert r.lhs == 0.0 and r.rhs == 0.0 and r.passed


def test_fourier_isometry_weighted_and_seminorm():
    u = ModalVector(np.array([1.0, 1.0]), explicit_spectrum([1.0, 4.0]))
    r1 = fourier_isometry(u, 0.5, sigma=0.0, b=0.0)
    assert r1.passed
    # hand value: |e^{-|y|}|_{L^2}^2 |u|^2 = 1 * 2
    assert r1.lhs == pytest.approx(2.0, rel=1e-9)
    r2 = fourier_isometry(u, 0.5, sigma=0.5, alpha=0.5)
    assert r2.passed
    assert r2.lhs == pytest.approx(sobolev_norm(u, 0.5) ** 2, rel=1e-12)
    # single unit mode: the H^1 seminorm of the s=1/2 curve is exactly 1
    one = ModalVector(np.array([1.0]), explicit_spectrum([1.0]))
    r_one = fourier_isometry(one, 0.5, sigma=0.5, alpha=0.5)
    assert r_one.lhs == pytest.approx(1.0, rel=1e-12)
    assert r_one.rhs == pytest.approx(1.0, rel=1e-9)
    # integer order is allowed on the Fourier side
    r3 = fourier_isometry(u, 1.0, sigma=0.0, alpha=0.7)
    assert r3.passed
    zero = ModalVector(np.zeros(2), explicit_spectrum([1.0, 4.0]))
    assert fourier_isometry(zero, 0.5, sigma=0.0, alpha=0.5).passed
    with pytest.raises(ValueError):
        fourier_isometry(u, 0.5, sigma=0.0)
    with pytest.raises(ValueError):
        fourier_isometry(u, 0.5, sigma=0.0, alpha=1.2)  # alpha >= 2s


@pytest.mark.parametrize("s, b", [(0.25, -0.5), (1.5, 0.6)])
def test_fourier_weighted_l2_rhs_is_the_closed_form(s, b):
    # rhs = |psi_s|^2_{L^{2;b}(R)} |u|^2_{H^0}, the weighted integral here by
    # mpmath at 30 digits; it must not be the lam = 1 quadrature of the lhs,
    # which is 8.9e-8 low at (0.25, -0.5)
    with mpmath.workdps(30):
        s_mp, b_mp = mpmath.mpf(s), mpmath.mpf(b)
        half_line = mpmath.quad(
            lambda y: y ** b_mp * (2 ** (1 - s_mp) / mpmath.gamma(s_mp)
                                   * y ** s_mp * mpmath.besselk(s_mp, y)) ** 2,
            [0, 1, mpmath.inf])
    u = ModalVector(np.array([1.0, 1.0]), explicit_spectrum([1.0, 4.0]))
    rep = fourier_isometry(u, s, sigma=0.0, b=b)
    assert rep.passed
    assert rep.rhs == pytest.approx(4.0 * float(half_line), rel=1e-14)


def test_curve_sobolev_values_at_matched_orders():
    # two elegant special values of the frequency-side isometries: measuring
    # the s-order data in the (s+1/2)-order curve spaces gives pure Gamma
    # ratios of s alone
    from fracext.special import seminorm_sq
    for s in (0.5, 1.5, 2.2):
        base = math.exp(2 * math.lgamma(s + 0.5) - math.log(s)
                        - math.lgamma(2 * s) - 2 * math.lgamma(s))
        assert seminorm_sq(s, 0.0) == pytest.approx(
            math.sqrt(math.pi) * math.gamma(2 * s + 0.5) * base, rel=1e-12)
        assert seminorm_sq(s, s + 0.5) == pytest.approx(
            math.gamma(s + 0.5) ** 2 / math.gamma(2 * s), rel=1e-12)


def test_psi_fourier_numeric_matches_closed_form():
    from fracext.special import psi_fourier
    for s in (0.5, 1.5):
        for xi in (0.0, 0.5, 2.0, 10.0):
            assert psi_fourier_numeric(s, xi) == pytest.approx(
                psi_fourier(s, xi), rel=1e-7, abs=1e-12)


@pytest.mark.parametrize("s, xi, named", [
    (math.inf, 1.0, r"order 0 < s <= 100000, got inf"),
    (0.5, math.inf, r"finite frequency xi, got inf"),
    (0.5, -math.inf, r"finite frequency xi, got -inf"),
    (0.5, math.nan, r"finite frequency xi, got nan"),
])
def test_psi_fourier_numeric_refuses_a_non_finite_order_or_frequency(s, xi,
                                                                     named):
    # the node count int(24 upper xi / pi) raised a bare OverflowError or
    # "cannot convert float NaN to integer", naming neither input
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=named):
            psi_fourier_numeric(s, xi)


@pytest.mark.parametrize("xi, nodes", [(1e6, "3.44e+08"), (-1e6, "3.44e+08"),
                                       (1e307, "inf")])
def test_psi_fourier_numeric_refuses_a_frequency_past_its_node_ceiling(
        monkeypatch, xi, nodes):
    # int(24 upper xi / pi) asked for 3.4e8 nodes at xi = 1e6, gigabytes of
    # temporaries, and raised a bare OverflowError at xi = 1e307; the
    # quadrature must not be reached
    def unreachable(*args, **kwargs):
        raise AssertionError("the quadrature ran")

    monkeypatch.setattr("fracext.weighted.power_weighted_integral",
                        unreachable)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(
                f"s=0.5, xi={xi!r}) needs {nodes} quadrature nodes, above "
                f"the ceiling of 2^18")):
            psi_fourier_numeric(0.5, xi)


def test_psi_fourier_numeric_below_its_node_ceiling_reaches_the_quadrature(
        monkeypatch):
    # at upper = 45 the ceiling of 2^18 nodes admits xi up to about 762
    asked = []

    def stub(g, beta, upper, n):
        asked.append((upper, n))
        return 0.0

    monkeypatch.setattr("fracext.weighted.power_weighted_integral", stub)
    assert psi_fourier_numeric(0.5, 700.0) == 0.0
    assert asked == [(45.0, int(24 * 45.0 * 700.0 / math.pi))]
    assert asked[0][1] <= 2 ** 18


@pytest.mark.parametrize("s", [20.5, 100.5, 200.5])
def test_psi_fourier_numeric_at_large_order_runs_to_the_profile_tail(s):
    # ended at y = 45, where psi_s has not decayed: 1.9e-9 at s = 20.5,
    # 1.7e-3 at 100.5 and 2.5e-2 at 200.5
    from fracext.special import psi_fourier
    assert psi_fourier_numeric(s, 0.0) == pytest.approx(
        psi_fourier(s, 0.0), rel=1e-12)


# ---------------------------------------------------------------------------
# reports


def test_check_report_json_shape():
    r = report_equal("demo", 1.0, 2.0, 0.1)
    data = json.loads(r.to_json())
    assert list(data.keys()) == ["name", "lhs", "rhs", "rel_err", "tol",
                                 "pass"]
    assert data["pass"] is False
    assert data["rel_err"] == pytest.approx(0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["lhs", "rhs", "rel_err", "tol"])
def test_check_report_json_rejects_non_finite(name, bad):
    # JSON has no NaN or Infinity token: fail like allow_nan=False
    report = dataclasses.replace(CheckReport("x", 1.0, 1.0, 0.0, 1e-6, True),
                                 **{name: bad})
    with pytest.raises(ValueError, match="non-finite"):
        report.to_json()


@pytest.mark.parametrize("lhs, rhs", [(math.nan, 1.0), (1.0, math.nan)],
                         ids=["lhs", "rhs"])
def test_one_sided_report_fails_on_nan(lhs, rhs):
    # max(0.0, nan) is 0.0: the violation read 0.0 and the report passed
    report = report_lower_bound("x", lhs, rhs)
    assert math.isnan(report.rel_err)
    assert not report.passed


def test_one_sided_report_on_finite_inputs():
    assert report_lower_bound("x", 2.0, 1.0).rel_err == 0.0
    assert report_lower_bound("x", 1.0, 1.0).passed
    report = report_lower_bound("x", 1.0, 2.0)
    assert report.rel_err == 0.5 and not report.passed


def test_upper_bound_report_mirrors_the_lower_bound():
    assert report_upper_bound("x", 1.0, 2.0).rel_err == 0.0
    assert report_upper_bound("x", 1.0, 1.0).passed
    report = report_upper_bound("x", 3.0, 2.0)
    assert (report.lhs, report.rhs) == (3.0, 2.0)
    assert report.rel_err == 0.5 and not report.passed
    for lhs, rhs in ((math.nan, 1.0), (1.0, math.nan)):
        report = report_upper_bound("x", lhs, rhs)
        assert math.isnan(report.rel_err) and not report.passed


def test_trace_inequality_fails_on_a_nan_energy():
    report = trace_inequality(0.0, profile=GaussianBump(1.0, math.nan))
    assert not report.passed


def test_check_report_zero_target_fallback():
    assert report_equal("zero", 1e-13, 0.0, 1e-6).passed
    assert not report_equal("zero", 1e-3, 0.0, 1e-6).passed
    assert report_equal("zero", 5e-7, 0.0, 1e-6, abs_tol=1e-6).passed


def test_check_report_pass_iff_within_tolerance():
    assert report_equal("ok", 1.0 + 1e-8, 1.0, 1e-6).passed
    assert not report_equal("bad", 1.01, 1.0, 1e-6).passed
    r = CheckReport("x", 1.0, 1.0, 0.0, 1e-6, True)
    assert "true" in r.to_json()


def test_check_report_at_re_decides_a_copy():
    r = report_equal("r", 1.0 + 1e-4, 1.0, 1e-6)
    wide = r.at(1e-3)
    assert (wide.tol, wide.passed) == (1e-3, True)
    assert (r.tol, r.passed) == (1e-6, False)
    assert not r.at(1e-5).passed
    # a zero-target report is re-decided on its absolute error
    zero = report_equal("zero", 1e-13, 0.0, 0.0, abs_tol=1e-12)
    assert not zero.at(1e-14).passed
    # a NaN error passes at no bound
    assert not report_equal("nan", math.nan, 1.0).at(1.0).passed
