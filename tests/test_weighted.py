"""Tests for weighted quadrature, energies, and the identity suite."""

import dataclasses
import json
import math

import numpy as np
import pytest

from fracext.spectral import ModalVector, explicit_spectrum, sobolev_norm
from fracext.extension import extend, trace0
from fracext.special import (
    FracParams,
    _apply_operator_power,
    _Term,
    _term_derivative,
    constants,
    psi,
    trace_constant,
)
from fracext.weighted import (
    _cells_geometric,
    _cells_log_transformed,
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


def test_mode_energy_errors():
    with pytest.raises(ValueError):
        mode_energy(PsiProfile(0.5), 1.0, 0, 0.0)
    with pytest.raises(ValueError):
        mode_energy(PsiProfile(0.5), -1.0, 1, 0.0)
    with pytest.raises(ValueError):
        mode_energy(GaussianBump(), 1.0, 2, 0.0)  # sampled profile, k >= 2
    with pytest.raises(ValueError):
        mode_energy(PsiProfile(2.5), 1.0, 2, 0.3)  # mismatched weight
    with pytest.raises(ValueError):
        mode_energy(PsiProfile(2.5), 1.0, 7, 0.0)  # too many powers


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
    curve = extend(u, 2.5)
    lam1 = 1.0
    for k in (2, 3):
        for j in range(1, k):
            assert curve_energy(curve, k, 0.0) >= \
                lam1 ** (k - j) * curve_energy(curve, j, 0.0) * (1 - 1e-12)


def test_curve_energy_trace_continuity():
    # m_b |U(0)|^2_{H^{k-(1+b)/2}} <= |U|^2_{H^{k;b}}
    spec = explicit_spectrum([1.0, 4.0])
    u = ModalVector(np.array([1.0, 0.5]), spec)
    for s in (0.5, 1.5):
        params = FracParams.from_order(s)
        curve = extend(u, s)
        m_b = constants(params).m_b
        tr = trace0(curve)
        lhs = m_b * sobolev_norm(tr, params.ceil_s - 0.5 * (1 + params.b)) ** 2
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


def _l2b_sq_on_mode_grid(term, lam, b, n):
    """The per-mode route: int_R |y|^b |term|^2 on the grid of
    [0, 45/sqrt(lam)]."""
    root = math.sqrt(lam)
    nodes, weights = _cells_geometric(b + 2.0 * term.expo, 45.0 / root, n)
    return 2.0 * term.coef ** 2 * float(
        weights @ psi(term.order, root * nodes) ** 2)


def _energy_on_mode_grid(profile, lam, k, b, n=1024):
    if isinstance(profile, PsiProfile):
        t = _apply_operator_power(profile.s, lam, b, k // 2)
        if k % 2 == 0:
            return _l2b_sq_on_mode_grid(t, lam, b, n)
        return (_l2b_sq_on_mode_grid(_term_derivative(t, lam), lam, b, n)
                + lam * _l2b_sq_on_mode_grid(t, lam, b, n))
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
                      * _l2b_sq_on_mode_grid(_Term(1.0, 0.0, s), lam[j], b,
                                             1024)
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


def test_check_report_json_of_nan_comparison():
    with pytest.raises(ValueError):
        report_equal("x", math.nan, 1.0).to_json()


def test_check_report_zero_target_fallback():
    assert report_equal("zero", 1e-13, 0.0, 1e-6).passed
    assert not report_equal("zero", 1e-3, 0.0, 1e-6).passed
    assert report_equal("zero", 5e-7, 0.0, 1e-6, abs_tol=1e-6).passed


def test_check_report_pass_iff_within_tolerance():
    assert report_equal("ok", 1.0 + 1e-8, 1.0, 1e-6).passed
    assert not report_equal("bad", 1.01, 1.0, 1e-6).passed
    r = CheckReport("x", 1.0, 1.0, 0.0, 1e-6, True)
    assert "true" in r.to_json()
