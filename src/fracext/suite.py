"""The named verification checks behind ``fracext verify``.

Each check is a pure function producing a list of :class:`CheckReport`
records; the registry fixes the execution and report order, so repeated
runs with the same configuration are byte-identical.  Checks accept an
optional restriction of the default (s, lambda) matrix and a tolerance
override.
"""

from __future__ import annotations

import json
import math
import traceback
from dataclasses import dataclass, field

import numpy as np

from .extension import (
    conormal_trace,
    default_grid,
    extend,
    ode_residual,
    taylor_expand,
)
from .special import (
    psi,
    psi_fourier,
    psi_taylor_remainder,
    seminorm_sq,
    trace_constant,
)
from .spectral import (
    ModalVector,
    apply_power,
    dirichlet_laplacian_1d,
    explicit_spectrum,
    sobolev_norm,
)
from .variational import minimize_curve, minimize_negative, minimize_profile
from .weighted import (
    CheckReport,
    CompactBump,
    GaussianBump,
    QuadraticBump,
    curve_energy,
    energy_identity,
    fourier_isometry,
    parts_check,
    psi_fourier_numeric,
    report_equal,
    report_lower_bound,
    trace_inequality,
    virial_check,
    xi_moment,
)

__all__ = ["RunConfig", "CheckFailure", "CHECK_NAMES", "run_checks"]

_S_MATRIX = (0.25, 0.5, 0.75, 1.5, 2.5, 3.5)
_LAM_MATRIX = (0.5, 1.0, 4.0, 10.0)
_SEED = 1234  # random test profiles and vectors
_FE_NODES = 4000  # finest mesh of the minimize check


@dataclass
class RunConfig:
    """Knobs shared by the verification checks.

    ``s_values``/``lam_values`` restrict the default matrices (checks skip
    values they cannot handle); ``tol`` overrides every tolerance at once.
    """

    s_values: tuple = ()
    lam_values: tuple = ()
    tol: float | None = None

    def pick_s(self, default):
        if not self.s_values:
            return tuple(default)
        return tuple(self.s_values)

    def pick_lam(self, default):
        if not self.lam_values:
            return tuple(default)
        return tuple(self.lam_values)

    def tolerance(self, default):
        return default if self.tol is None else self.tol


@dataclass(frozen=True)
class CheckFailure:
    """A check that raised, or a report that cannot be serialised: one
    failed record naming it and the error.  ``detail`` holds the traceback
    and is not serialised."""

    name: str
    error: str
    detail: str = field(default="", compare=False)
    passed = False

    def to_json(self) -> str:
        return json.dumps({"name": self.name, "error": self.error,
                           "pass": False})


def _two_mode(u=(1.0, 1.0)):
    return ModalVector(np.asarray(u, dtype=float),
                       explicit_spectrum([1.0, 4.0]))


def check_energy(cfg: RunConfig):
    tol = cfg.tolerance(1e-6)
    out = []
    for s in cfg.pick_s(_S_MATRIX):
        for lam in cfg.pick_lam(_LAM_MATRIX):
            out.append(energy_identity(s, lam, tol=tol))
    return out


def check_virial(cfg: RunConfig):
    tol = cfg.tolerance(1e-6)
    out = []
    for s in cfg.pick_s((0.5, 2.5)):
        if math.floor(s) % 2 != 0:
            continue
        out.extend(virial_check(s, tol=tol))
    return out


def check_dtn(cfg: RunConfig):
    """Conormal trace against -d_s L^s u, mode by mode."""
    tol = cfg.tolerance(1e-4)
    u = _two_mode()
    out = []
    for s in cfg.pick_s((0.3, 0.5, 1.5, 2.5)):
        got = conormal_trace(u, s)
        want = apply_power(u, s)
        d = trace_constant(s)
        for j in range(len(u)):
            out.append(report_equal(
                f"dtn(s={s}, mode={j + 1})",
                got.coeffs[j], -d * want.coeffs[j], tol))
    return out


def check_taylor(cfg: RunConfig):
    out = []
    # closed form (1+y)e^{-y} = 1 - y^2/2 + ...: first curvature coefficient
    u1 = ModalVector(np.array([1.0]), explicit_spectrum([1.0]))
    t = taylor_expand(u1, 1.5, 1)
    out.append(report_equal("taylor_coefficient(s=1.5)",
                            t[1].coeffs[0], -0.5, cfg.tolerance(1e-13)))
    # remainder of the order-2 expansion shrinks monotonically under y -> y/2
    s, k = 2.5, 2
    ratios = [abs(psi_taylor_remainder(s, 2.0 ** (-n), k)) / 2.0 ** (-4 * n)
              for n in range(4, 11)]
    worst = max(ratios[i + 1] - ratios[i] for i in range(len(ratios) - 1))
    out.append(CheckReport(
        name=f"taylor_remainder_decreasing(s={s}, k={k})",
        lhs=worst, rhs=0.0, rel_err=max(0.0, worst), tol=0.0,
        passed=worst <= 0.0))
    return out


def check_ode(cfg: RunConfig):
    out = []
    one_mode = ModalVector(np.array([1.0]), explicit_spectrum([1.0]))
    ys = np.array([0.2, 0.5, 1.0, 2.0, 5.0])
    # the machine-zero assertion applies only to the elementary half-integer
    # profiles, whatever restriction was requested
    for s in (s for s in cfg.pick_s((0.5, 1.5)) if s in (0.5, 1.5)):
        worst = float(np.max(ode_residual(one_mode, s, ys)))
        out.append(report_equal(f"ode_residual_closed_form(s={s})",
                                worst, 0.0, 0.0, abs_tol=1e-12))
    u = _two_mode()
    bound = 1e-4 * sobolev_norm(u, 0.0)
    for s in cfg.pick_s((0.3, 2.5, 3.7)):
        worst = float(np.max(ode_residual(u, s, np.geomspace(0.2, 5.0, 9))))
        out.append(report_equal(f"ode_residual(s={s})", worst, 0.0, 0.0,
                                abs_tol=cfg.tolerance(bound)))
    return out


class _GaussianMix:
    """Random even H^{1;b} test profile: small mixture of Gaussians."""

    def __init__(self, amps, rates):
        self.amps = tuple(float(a) for a in amps)
        self.rates = tuple(float(c) for c in rates)

    def value(self, y):
        y = np.asarray(y, dtype=float)
        out = sum(a * np.exp(-c * y ** 2)
                  for a, c in zip(self.amps, self.rates))
        return float(out) if out.ndim == 0 else out

    def d1(self, y):
        y = np.asarray(y, dtype=float)
        out = sum(-2.0 * a * c * y * np.exp(-c * y ** 2)
                  for a, c in zip(self.amps, self.rates))
        return float(out) if out.ndim == 0 else out


def _random_profiles(seed, count):
    rng = np.random.default_rng(seed)
    profiles = []
    while len(profiles) < count:
        amps = rng.uniform(-1.0, 1.0, size=3)
        rates = rng.uniform(0.3, 3.0, size=3)
        if abs(np.sum(amps)) < 0.3:
            continue  # keep the trace away from 0 so ratios are meaningful
        profiles.append(_GaussianMix(amps, rates))
    return profiles


def check_trace_ineq(cfg: RunConfig):
    tol = cfg.tolerance(1e-6)
    out = []
    for b in (-0.5, 0.0, 0.4):
        out.append(trace_inequality(b, tol=tol))
        worst = math.inf
        for prof in _random_profiles(_SEED, 20):
            r = trace_inequality(b, profile=prof)
            worst = min(worst, r.lhs / r.rhs)
        out.append(report_lower_bound(
            f"trace_inequality_random(b={b})", worst, 1.0))
    return out


def check_parts(cfg: RunConfig):
    tol = cfg.tolerance(1e-6)
    return [
        parts_check(0.7, CompactBump(), tol=tol),
        parts_check(1.5, GaussianBump(), tol=tol),
        parts_check(2.5, GaussianBump(), b=0.3, tol=tol),
    ]


def check_fourier(cfg: RunConfig):
    tol = cfg.tolerance(1e-7)
    out = []
    for s, xi in ((0.5, 2.0), (1.5, 0.0), (1.5, 0.5), (1.5, 2.0), (1.5, 10.0)):
        out.append(report_equal(
            f"psi_fourier(s={s}, xi={xi})",
            psi_fourier_numeric(s, xi), psi_fourier(s, xi), tol))
    # closed Gamma seminorm against direct frequency-side quadrature
    s, alpha = 1.5, 1.0
    amp = psi_fourier(s, 0.0)
    direct = 2.0 * amp ** 2 * xi_moment(s, 2.0 * alpha)
    out.append(report_equal(f"seminorm_quadrature(s={s}, alpha={alpha})",
                            seminorm_sq(s, alpha), direct,
                            cfg.tolerance(1e-8)))
    u = _two_mode()
    out.append(fourier_isometry(u, 0.5, sigma=0.0, b=0.0, tol=tol))
    out.append(fourier_isometry(u, 0.5, sigma=0.5, alpha=0.5, tol=tol))
    # at s = 1/2 the H^1 seminorm of the curve IS the H^{1/2} norm of the data
    lhs = seminorm_sq(0.5, 1.0) * sobolev_norm(u, 0.5) ** 2
    out.append(report_equal("fourier_h1_matches_h_half(s=0.5)",
                            lhs, sobolev_norm(u, 0.5) ** 2, tol))
    return out


def check_minimize(cfg: RunConfig):
    tol = cfg.tolerance(1e-3)
    out = []
    u = _two_mode()
    out.append(minimize_curve(u, 0.5, n_nodes=_FE_NODES, tol=tol))
    # empirical convergence: the gap to the closed form shrinks by >= 1.7x
    # per refinement for s >= 1/2
    target = 2.0 * trace_constant(0.5)
    errs = [abs(minimize_profile(0.5, 1.0, n_nodes=n)[0] - target)
            for n in (_FE_NODES // 4, _FE_NODES // 2, _FE_NODES)]
    ratio = min(errs[0] / errs[1], errs[1] / errs[2])
    out.append(report_lower_bound("minimize_refinement_ratio(s=0.5)",
                                  ratio, 1.7))
    zeta = ModalVector(np.array([1.0]), explicit_spectrum([1.0]))
    rep, tr = minimize_negative(zeta, 0.5, n_nodes=_FE_NODES, tol=tol)
    out.append(rep)
    want = apply_power(zeta, -0.5)
    out.append(report_equal("minimize_negative_trace(s=0.5)",
                            tr.coeffs[0], want.coeffs[0], tol))
    return out


def check_orthogonality(cfg: RunConfig):
    tol = cfg.tolerance(1e-5)
    out = []
    one = ModalVector(np.array([1.0]), explicit_spectrum([1.0]))
    from .variational import orthogonality_check
    for s in cfg.pick_s((0.5, 1.5)):
        out.append(orthogonality_check(one, s, one, GaussianBump(), tol=tol))
        zero_trace = orthogonality_check(one, s, one, QuadraticBump(),
                                         tol=tol)
        zero_trace.name += "[V(0)=0]"
        out.append(zero_trace)
    return out


def _random_vectors(spectrum, seed, count):
    rng = np.random.default_rng(seed)
    return [ModalVector(rng.standard_normal(spectrum.size), spectrum)
            for _ in range(count)]


def check_nonexpansive(cfg: RunConfig):
    """Per-column norms of the curve never exceed the data norm."""
    spec = dirichlet_laplacian_1d(math.pi, 16)
    grid = default_grid(spec, 120)
    out = []
    for s in cfg.pick_s((0.5, 1.5)):
        psi_mat = psi(s, np.sqrt(spec.eigenvalues)[:, None] * grid)
        excess = -math.inf
        for u in _random_vectors(spec, _SEED, 10):
            cols = psi_mat * u.coeffs[:, None]
            for sigma in (-1.0, 0.0, 1.0, s):
                w = spec.eigenvalues ** sigma
                norms = np.sqrt(w @ cols ** 2)
                ref = math.sqrt(float(w @ u.coeffs ** 2))
                excess = max(excess, float(np.max(norms) - ref) / ref)
        out.append(report_equal(f"nonexpansive(s={s})",
                                max(excess, 0.0), 0.0, 0.0,
                                abs_tol=cfg.tolerance(1e-12)))
    return out


def check_commute(cfg: RunConfig):
    """extend(L^sigma u) equals L^sigma applied column-wise to extend(u)."""
    spec = dirichlet_laplacian_1d(math.pi, 16)
    grid = default_grid(spec, 80)
    sigma = 0.7
    out = []
    for s in cfg.pick_s((0.5, 1.5)):
        worst = 0.0
        for u in _random_vectors(spec, _SEED + 1, 10):
            left = extend(apply_power(u, sigma), s, grid).values
            right = spec.eigenvalues[:, None] ** sigma \
                * extend(u, s, grid).values
            scale = np.max(np.abs(right))
            worst = max(worst, float(np.max(np.abs(left - right))) / scale)
        out.append(report_equal(f"commute(s={s}, sigma={sigma})",
                                worst, 0.0, 0.0,
                                abs_tol=cfg.tolerance(1e-13)))
    return out


def check_holder_slope(cfg: RunConfig):
    """log-log slope of |P_s[u](y) - u| near 0 equals 2s for 2s < 1."""
    s = 0.3
    ys = np.geomspace(1e-4, 1e-2, 13)
    gap = np.array([abs(psi_taylor_remainder(s, y, 0)) for y in ys])
    slope = float(np.polyfit(np.log(ys), np.log(gap), 1)[0])
    return [report_equal("holder_slope(s=0.3)", slope, 2.0 * s,
                         cfg.tolerance(0.05 / 0.6))]


def check_isometry(cfg: RunConfig):
    """Curve-level energy isometry on a 3-mode spectrum (both regimes of s)."""
    tol = cfg.tolerance(1e-6)
    spec = explicit_spectrum([1.0, 4.0, 9.0])
    u = ModalVector(np.ones(3), spec)
    out = []
    for s in cfg.pick_s((0.5, 1.5)):
        curve = extend(u, s)
        lhs = curve_energy(curve)
        rhs = 2.0 * trace_constant(s) * sobolev_norm(u, s) ** 2
        out.append(report_equal(f"curve_isometry(s={s})", lhs, rhs, tol))
    return out


def check_trace0(cfg: RunConfig):
    """Dirichlet trace of the curve returns the data."""
    from .extension import trace0
    tol = cfg.tolerance(1e-8)
    spec = explicit_spectrum([1.0, 4.0, 9.0])
    u = ModalVector(np.array([1.0, -0.5, 0.25]), spec)
    out = []
    for s in cfg.pick_s((0.3, 0.5, 1.5, 2.5)):
        got = trace0(extend(u, s))
        worst = float(np.max(np.abs(got.coeffs - u.coeffs))
                      / np.max(np.abs(u.coeffs)))
        out.append(report_equal(f"trace0(s={s})", worst, 0.0, 0.0,
                                abs_tol=tol))
    return out


# fixed registry: selection, execution, and report order all follow this
_REGISTRY = (
    ("energy", check_energy),
    ("isometry", check_isometry),
    ("virial", check_virial),
    ("dtn", check_dtn),
    ("trace0", check_trace0),
    ("taylor", check_taylor),
    ("ode", check_ode),
    ("trace_ineq", check_trace_ineq),
    ("parts", check_parts),
    ("fourier", check_fourier),
    ("minimize", check_minimize),
    ("orthogonality", check_orthogonality),
    ("nonexpansive", check_nonexpansive),
    ("commute", check_commute),
    ("holder_slope", check_holder_slope),
)

CHECK_NAMES = tuple(name for name, _ in _REGISTRY)


def run_checks(names=None, cfg: RunConfig | None = None):
    """Run the selected checks and return reports in registry order.

    Unknown names raise ValueError listing the valid ones.  A check that
    raises yields one :class:`CheckFailure` in its place, and the other
    checks still run.
    """
    cfg = cfg or RunConfig()
    if names is None or not names:
        selected = list(_REGISTRY)
    else:
        lookup = dict(_REGISTRY)
        bad = [n for n in names if n not in lookup]
        if bad:
            raise ValueError(
                f"unknown check name(s) {bad}; valid names: "
                f"{', '.join(CHECK_NAMES)}")
        order = {name: i for i, (name, _) in enumerate(_REGISTRY)}
        selected = sorted(((n, lookup[n]) for n in set(names)),
                          key=lambda kv: order[kv[0]])
    reports = []
    for name, fn in selected:
        try:
            reports.extend(fn(cfg))
        except Exception as err:  # one broken check must not hide the rest
            reports.append(CheckFailure(name, f"{type(err).__name__}: {err}",
                                        detail=traceback.format_exc()))
    return reports
