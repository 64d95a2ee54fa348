"""Acceptance suite: the contract-level identities at their pinned tolerances.

Every criterion prints one PASS/FAIL line (visible under ``pytest -s``) and
asserts.  All tolerances are fixed here, not tuned at run time.
"""

import math
import time

import numpy as np

from fracext.extension import (
    conormal_trace,
    default_grid,
    extend,
    ode_residual,
    taylor_expand,
)
from fracext.numdiff import apply_db
from fracext.special import (
    FracParams,
    psi,
    psi_fourier,
    psi_taylor_remainder,
    seminorm_sq,
    trace_constant,
)
from fracext.spectral import (
    ModalVector,
    apply_power,
    dirichlet_laplacian_1d,
    explicit_spectrum,
    sobolev_norm,
)
from fracext.variational import (
    minimize_negative,
    minimize_profile,
    orthogonality_check,
)
from fracext.weighted import (
    GaussianBump,
    QuadraticBump,
    energy_identity,
    fourier_isometry,
    psi_fourier_numeric,
    trace_inequality,
    virial_check,
    xi_moment,
)


def report(num, ok, text):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_energy_isometry():
    worst = 0.0
    for s in (0.25, 0.5, 0.75, 1.5, 2.5, 3.5):
        for lam in (0.5, 1.0, 4.0, 10.0):
            r = energy_identity(s, lam, tol=1e-6)
            worst = max(worst, r.rel_err)
            assert r.passed
    hand1 = energy_identity(0.5, 1.0)
    hand2 = energy_identity(1.5, 1.0)
    exact = (abs(hand1.lhs - 2.0) <= 1e-8 * 2.0
             and abs(hand2.lhs - 4.0) <= 1e-8 * 4.0)
    report(1, worst <= 1e-6 and exact,
           f"energy of psi_(s,lam) = 2 d_s lam^s on the 6x4 matrix "
           f"(worst rel err {worst:.2e}); hand values 2 and 4 to 1e-8")


def test_criterion_02_curve_isometry():
    from fracext.weighted import curve_energy
    spec = explicit_spectrum([1.0, 4.0, 9.0])
    u = ModalVector(np.ones(3), spec)
    worst = 0.0
    for s in (0.5, 1.5):
        lhs = curve_energy(extend(u, s))
        rhs = 2.0 * trace_constant(s) * sobolev_norm(u, s) ** 2
        worst = max(worst, abs(lhs - rhs) / rhs)
    report(2, worst <= 1e-6,
           f"curve energy = 2 d_s |u|^2_s on spectrum (1,4,9) "
           f"(worst rel err {worst:.2e})")


def test_criterion_03_dirichlet_to_neumann():
    spec = explicit_spectrum([1.0, 4.0])
    u = ModalVector(np.array([1.0, 1.0]), spec)
    worst = 0.0
    for s in (0.3, 0.5, 1.5, 2.5):
        got = conormal_trace(u, s).coeffs
        want = -trace_constant(s) * apply_power(u, s).coeffs
        worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    report(3, worst <= 1e-4,
           f"conormal trace = -d_s L^s u per mode (worst rel err {worst:.2e})")


def test_criterion_04_ode_residual():
    one = ModalVector(np.array([1.0]), explicit_spectrum([1.0]))
    ys = (0.2, 0.5, 1.0, 2.0, 5.0)
    closed = max(ode_residual(one, s, y) for s in (0.5, 1.5) for y in ys)
    spec = explicit_spectrum([1.0, 4.0])
    u = ModalVector(np.array([1.0, 1.0]), spec)
    bound = 1e-4 * sobolev_norm(u, 0.0)
    general = max(ode_residual(u, s, y)
                  for s in (0.3, 2.5, 3.7)
                  for y in np.geomspace(0.2, 5.0, 9))
    report(4, closed <= 1e-12 and general <= bound,
           f"extension ODE residual: closed-form cases {closed:.2e} <= 1e-12, "
           f"general orders {general:.2e} <= 1e-4 |u|")


def test_criterion_05_operator_recurrence():
    # (D_b + 1)^m psi_s = (d_s / d_{s-m}) psi_{s-m}: each operator rung is
    # applied by high-order finite differences and compared on y in [0.1, 10];
    # the full m-fold composition is additionally applied by nested stencils
    # where that is well conditioned (y >= 1)
    ys = np.geomspace(0.1, 10.0, 12)
    worst = 0.0
    for s in (1.5, 2.5, 3.7):
        b = FracParams.from_order(s).b
        for m in range(1, math.floor(s) + 1):
            hi, lo = s - m + 1.0, s - m
            ratio = trace_constant(hi) / trace_constant(lo)
            for y in ys:
                h = (min(0.01, y / 60.0)
                     if abs(hi - math.floor(hi) - 0.5) > 1e-12
                     else min(0.04, y / 4.2))
                got = apply_db(lambda t, hi=hi: psi(hi, t), y, b, 1.0, h=h)
                want = ratio * psi(lo, y)
                worst = max(worst, abs(got - want) / abs(want))
    # the nested composition carries FD noise proportional to the (larger)
    # input profile, so it is checked where input and target scales match
    nested_worst = 0.0
    for s in (2.5, 3.7):
        b = FracParams.from_order(s).b
        m = math.floor(s)
        ratio = trace_constant(s) / trace_constant(s - m)
        for y in (1.0, 2.0, 3.0):
            got = apply_db(lambda t, s=s: psi(s, t), y, b, 1.0, times=m)
            want = ratio * psi(s - m, y)
            nested_worst = max(nested_worst, abs(got - want) / abs(want))
    report(5, worst <= 1e-5 and nested_worst <= 1e-5,
           f"operator recurrence to lower orders: rung-wise {worst:.2e}, "
           f"nested m-fold {nested_worst:.2e} (both <= 1e-5)")


def test_criterion_06_virial_identities():
    r1, r2 = virial_check(0.5, tol=1e-6)
    r3, r4 = virial_check(2.5, tol=1e-6)
    vals_ok = (abs(r1.lhs - 1.0) <= 1e-6 and abs(r2.lhs - 1.0) <= 1e-6
               and abs(r3.lhs - 40.0 / 9.0) <= 1e-6 * 40.0 / 9.0
               and abs(r4.lhs - 8.0 / 9.0) <= 1e-6 * 8.0 / 9.0)
    report(6, vals_ok and all(r.passed for r in (r1, r2, r3, r4)),
           f"virial split: s=0.5 -> ({r1.lhs:.8f}, {r2.lhs:.8f}), "
           f"s=2.5 -> ({r3.lhs:.8f}, {r4.lhs:.8f}) = (40/9, 8/9)")


class _Mix:
    def __init__(self, amps, rates):
        self.amps, self.rates = amps, rates

    def value(self, y):
        y = np.asarray(y, dtype=float)
        out = sum(a * np.exp(-c * y ** 2)
                  for a, c in zip(self.amps, self.rates))
        return float(out) if out.ndim == 0 else out

    def d1(self, y):
        y = np.asarray(y, dtype=float)
        out = sum(-2 * a * c * y * np.exp(-c * y ** 2)
                  for a, c in zip(self.amps, self.rates))
        return float(out) if out.ndim == 0 else out


def test_criterion_07_trace_inequality_sharpness():
    rng = np.random.default_rng(20240817)
    ok = True
    worst_eq = 0.0
    for b in (-0.5, 0.0, 0.4):
        eq = trace_inequality(b, tol=1e-6)
        worst_eq = max(worst_eq, eq.rel_err)
        ok = ok and eq.passed
        done = 0
        while done < 20:
            amps = rng.uniform(-1.0, 1.0, 3)
            rates = rng.uniform(0.3, 3.0, 3)
            if abs(amps.sum()) < 0.3:
                continue
            prof = _Mix(amps, rates)
            r = trace_inequality(b, profile=prof)
            ok = ok and r.passed
            done += 1
    report(7, ok,
           f"trace inequality on 20 random profiles x 3 weights; equality at "
           f"the minimiser (worst rel err {worst_eq:.2e})")


def test_criterion_08_variational_minimum():
    t0 = time.time()
    target = 6.0
    spec = explicit_spectrum([1.0, 4.0])
    u = ModalVector(np.array([1.0, 1.0]), spec)
    from fracext.variational import minimize_curve
    rep = minimize_curve(u, 0.5, n_nodes=4000, tol=1e-3)
    above = rep.lhs >= target * (1 - 1e-14)
    errs = [abs(minimize_profile(0.5, 1.0, n_nodes=n)[0] - 2.0)
            for n in (1000, 2000, 4000)]
    ratios = (errs[0] / errs[1], errs[1] / errs[2])
    elapsed = time.time() - t0
    report(8, rep.passed and above and min(ratios) >= 1.7 and elapsed < 30.0,
           f"FE minimum {rep.lhs:.6f} >= 6 within 1e-3 at 4000 nodes; "
           f"refinement ratios {ratios[0]:.2f}, {ratios[1]:.2f} >= 1.7; "
           f"{elapsed:.1f}s")


def test_criterion_09_negative_order_minimum():
    zeta = ModalVector(np.array([1.0]), explicit_spectrum([1.0]))
    rep, trace = minimize_negative(zeta, 0.5, n_nodes=4000, tol=1e-3)
    trace_err = abs(trace.coeffs[0] - 1.0)
    report(9, rep.passed and trace_err <= 1e-3,
           f"dual minimum {rep.lhs:.6f} -> -2 within 1e-3; minimiser trace "
           f"err {trace_err:.2e} <= 1e-3")


def test_criterion_10_orthogonality():
    one = ModalVector(np.array([1.0]), explicit_spectrum([1.0]))
    worst = 0.0
    zero_worst = 0.0
    for s in (0.5, 1.5):
        r = orthogonality_check(one, s, one, GaussianBump(), tol=1e-5)
        worst = max(worst, r.rel_err)
        rz = orthogonality_check(one, s, one, QuadraticBump())
        zero_worst = max(zero_worst, abs(rz.lhs))
    report(10, worst <= 1e-5 and zero_worst <= 1e-8,
           f"weak-form orthogonality: rel err {worst:.2e} <= 1e-5; "
           f"V(0)=0 case {zero_worst:.2e} <= 1e-8 absolute")


def test_criterion_11_taylor_expansion():
    one = ModalVector(np.array([1.0]), explicit_spectrum([1.0]))
    coeff = taylor_expand(one, 1.5, 1)[1].coeffs[0]
    coeff_ok = abs(coeff + 0.5) <= 1e-13
    ratios = [abs(psi_taylor_remainder(2.5, 2.0 ** (-n), 2)) / 2.0 ** (-4 * n)
              for n in range(4, 11)]
    monotone = all(b < a for a, b in zip(ratios, ratios[1:]))
    report(11, coeff_ok and monotone,
           f"Taylor data: curvature coefficient {coeff} = -1/2; "
           f"remainder/y^4 decreases monotonically over y = 2^-4..2^-10")


def test_criterion_12_fourier_identities():
    worst = 0.0
    # closed Gamma seminorms against direct frequency quadrature
    for s, alpha in ((0.5, 0.5), (1.5, 1.0), (2.5, 2.0)):
        amp = psi_fourier(s, 0.0)
        direct = 2.0 * amp ** 2 * xi_moment(s, 2.0 * alpha)
        worst = max(worst, abs(seminorm_sq(s, alpha) - direct) / direct)
    # closed transform against direct cosine quadrature
    for s, xi in ((0.5, 2.0), (1.5, 0.5)):
        got = psi_fourier_numeric(s, xi)
        worst = max(worst, abs(got - psi_fourier(s, xi)) / psi_fourier(s, xi))
    u = ModalVector(np.array([1.0, 1.0]), explicit_spectrum([1.0, 4.0]))
    h1 = seminorm_sq(0.5, 1.0) * sobolev_norm(u, 0.5) ** 2
    h_half = sobolev_norm(u, 0.5) ** 2
    value_err = abs(h1 - h_half) / h_half
    quad_rep = fourier_isometry(u, 0.5, sigma=0.5, alpha=0.5, tol=1e-7)
    report(12, worst <= 1e-7 and value_err <= 1e-7 and quad_rep.passed,
           f"Fourier identities: Gamma vs quadrature {worst:.2e} <= 1e-7; "
           f"s=1/2 curve H^1 seminorm = |u|^2_(1/2) ({value_err:.2e})")


def test_criterion_13_nonexpansive_and_commutation():
    spec = dirichlet_laplacian_1d(math.pi, 16)
    grid = default_grid(spec, 120)
    rng = np.random.default_rng(7)
    s = 0.5
    psi_mat = np.vstack([psi(s, math.sqrt(lam) * grid)
                         for lam in spec.eigenvalues])
    excess = -np.inf
    commute_err = 0.0
    for _ in range(10):
        u = ModalVector(rng.standard_normal(16), spec)
        cols = psi_mat * u.coeffs[:, None]
        for sigma in (-1.0, 0.0, 1.0, s):
            w = spec.eigenvalues ** sigma
            norms = np.sqrt(w @ cols ** 2)
            ref = math.sqrt(float(w @ u.coeffs ** 2))
            excess = max(excess, (float(np.max(norms)) - ref) / ref)
        sigma = 0.7
        left = (spec.eigenvalues ** sigma * u.coeffs)[:, None] * psi_mat
        right = spec.eigenvalues[:, None] ** sigma * cols
        commute_err = max(commute_err,
                          float(np.max(np.abs(left - right)))
                          / float(np.max(np.abs(right))))
    report(13, excess <= 1e-12 and commute_err <= 1e-12,
           f"nonexpansiveness (max excess {excess:.2e}) and commutation "
           f"(max dev {commute_err:.2e}) hold with 1e-12 slack")


def test_criterion_14_holder_slope():
    ys = np.geomspace(1e-4, 1e-2, 13)
    gap = np.array([abs(psi_taylor_remainder(0.3, y, 0)) for y in ys])
    slope = float(np.polyfit(np.log(ys), np.log(gap), 1)[0])
    report(14, abs(slope - 0.6) <= 0.05,
           f"Holder probe at s=0.3: fitted slope {slope:.4f} within "
           f"0.6 +/- 0.05")
