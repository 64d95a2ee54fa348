"""The named verification checks behind ``fracext verify``.

Each check is a body for one order, registered by :func:`_orders` with the
orders it runs by default and the domain where its identity is defined.
A run restricted to ``RunConfig.s_values`` runs each check at the requested
orders inside its domain and nowhere else; ``fourier``, whose fixed
(s, xi) pairs span two orders, runs at none.  The registry fixes the
execution and report order, so repeated runs with the same configuration
are byte-identical.  The random test profiles and vectors come from the
standard library's ``random.Random`` with fixed seeds, so the suite needs
nothing beyond numpy core.
"""

from __future__ import annotations

import json
import math
import random
import traceback
from dataclasses import dataclass, field
from functools import wraps

import numpy as np

from .extension import (
    conormal_trace,
    default_grid,
    extend,
    ode_residual,
    taylor_expand,
    trace0,
)
from .numdiff import power_fit_limit
from .special import (
    _collapse,
    psi,
    psi_fourier,
    psi_taylor_remainder,
    seminorm_sq,
    trace_constant,
)
from .spectral import (
    ModalVector,
    _require_finite,
    apply_power,
    dirichlet_laplacian_1d,
    explicit_spectrum,
    sobolev_norm,
)
from .variational import (
    _unit_minimum,
    minimize_curve,
    minimize_negative,
    orthogonality_check,
)
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
    report_upper_bound,
    trace_inequality,
    virial_check,
    xi_moment,
)

__all__ = ["RunConfig", "CheckFailure", "CHECK_NAMES", "run_checks"]

_LAM_MATRIX = (0.5, 1.0, 4.0, 10.0)
_SEED = 1234  # random test profiles and vectors
_FE_NODES = 4000  # finest mesh of the minimize check


@dataclass
class RunConfig:
    """Knobs shared by the verification checks.

    ``s_values`` replaces the default orders of every check, inside its
    domain; ``lam_values`` replaces the eigenvalues of ``energy``.  ``tol``
    re-decides every finished report at that bound (``CheckReport.at``).
    """

    s_values: tuple = ()
    lam_values: tuple = ()
    tol: float | None = None


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


def _orders(defaults, domain=lambda s: True):
    """Make a check of ``body(s, cfg)``: run at each default order, or at
    each order of ``cfg.s_values`` inside ``domain`` and nowhere else."""
    def register(body):
        @wraps(body)
        def check(cfg: RunConfig):
            orders = ([s for s in cfg.s_values if domain(s)]
                      if cfg.s_values else defaults)
            return [rep for s in orders for rep in body(s, cfg)]
        return check
    return register


def _two_mode():
    return ModalVector(np.ones(2), explicit_spectrum([1.0, 4.0]))


def _one_mode():
    return ModalVector(np.array([1.0]), explicit_spectrum([1.0]))


@_orders((0.25, 0.5, 0.75, 1.5, 2.5, 3.5))
def check_energy(s, cfg):
    return [energy_identity(s, lam) for lam in cfg.lam_values or _LAM_MATRIX]


@_orders((0.5, 2.5), lambda s: math.floor(s) % 2 == 0)
def check_virial(s, cfg):
    return virial_check(s)


@_orders((0.3, 0.5, 1.5, 2.5))
def check_dtn(s, cfg):
    """The conormal limit measured on the profile against conormal_trace.

    (psi_g(sqrt(lam) y) - 1) / y^{2g} = A lam^g + B lam y^{2-2g} + O(y^2),
    g = s - floor(s), is fitted at three small y; 2g A lam^g is the order-g
    limit, and the collapse lam^{floor(s)} d_s / d_g lifts it to order s.
    """
    u = _two_mode()
    want = conormal_trace(u, s).coeffs  # a named overflow comes first
    g = s - math.floor(s)
    lam = u.spectrum.eigenvalues
    ys = np.array([1e-3, 5e-4, 2.5e-4])
    vals = (psi(g, np.sqrt(lam)[:, None] * ys) - 1.0) / ys ** (2.0 * g)
    limit = 2.0 * g * power_fit_limit(ys, vals.T, (2.0 - 2.0 * g, 2.0))
    got = _collapse(s, lam, math.floor(s)) * limit * u.coeffs
    return [report_equal(f"dtn(s={s}, mode={j + 1})", got[j], want[j], 1e-4)
            for j in range(len(u))]


@_orders((1.5, 2.5), lambda s: s > 1)
def check_taylor(s, cfg):
    """The first Taylor coefficient below s = 2, the decay of the order-2
    remainder above."""
    if s < 2:
        # kappa_{s,1}/2 = -Gamma(s-1)/(4 Gamma(s)); at s = 1.5 the closed
        # form (1+y)e^{-y} = 1 - y^2/2 + ...
        t = taylor_expand(_one_mode(), s, 1)
        return [report_equal(f"taylor_coefficient(s={s})", t[1].coeffs[0],
                             -0.25 / (s - 1.0), 1e-13)]
    # remainder of the order-2 expansion shrinks monotonically under y -> y/2
    ratios = [abs(psi_taylor_remainder(s, 2.0 ** (-n), 2)) / 2.0 ** (-4 * n)
              for n in range(4, 11)]
    worst = max(b - a for a, b in zip(ratios, ratios[1:]))
    return [CheckReport(f"taylor_remainder_decreasing(s={s}, k=2)", lhs=worst,
                        rhs=0.0, rel_err=0.0 if worst <= 0.0 else worst,
                        tol=0.0, passed=worst <= 0.0)]


@_orders((0.5, 1.5, 0.3, 2.5, 3.7))
def check_ode(s, cfg):
    if s in (0.5, 1.5):
        # the machine-zero assertion applies only to the elementary
        # half-integer profiles
        ys = np.array([0.2, 0.5, 1.0, 2.0, 5.0])
        worst = float(np.max(ode_residual(_one_mode(), s, ys)))
        return [report_equal(f"ode_residual_closed_form(s={s})",
                             worst, 0.0, 0.0, abs_tol=1e-12)]
    u = _two_mode()
    worst = float(np.max(ode_residual(u, s, np.geomspace(0.2, 5.0, 9))))
    return [report_equal(f"ode_residual(s={s})", worst, 0.0, 0.0,
                         abs_tol=1e-4 * sobolev_norm(u, 0.0))]


def _random_profiles(seed, count):
    rng = random.Random(seed)
    profiles = []
    while len(profiles) < count:
        amps = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        rates = [rng.uniform(0.3, 3.0) for _ in range(3)]
        if abs(sum(amps)) < 0.3:
            continue  # keep the trace away from 0 so ratios are meaningful
        profiles.append(GaussianBump(rates, amps))
    return profiles


@_orders((0.75, 0.5, 0.3), lambda s: 0 < s < 1)
def check_trace_ineq(s, cfg):
    """The weighted trace inequality at b = 1 - 2s, whose minimiser is
    psi_s: equality there, and a lower bound for random profiles."""
    b = 1.0 - 2.0 * s
    randoms = [trace_inequality(b, profile=prof)
               for prof in _random_profiles(_SEED, 20)]
    worst = min(r.lhs / r.rhs for r in randoms)
    return [trace_inequality(b),
            report_lower_bound(f"trace_inequality_random(b={b})", worst, 1.0)]


@_orders((0.7, 1.5, 2.5))
def check_parts(s, cfg):
    """Below s = 1 the flux needs a compact bump and the matched weight;
    above s = 2 an unmatched weight is tested too."""
    eta = CompactBump() if s < 1 else GaussianBump()
    return [parts_check(s, eta, b=0.3 if s > 2 else None)]


# fixed (s, xi) pairs over two orders, interleaved: runs at no requested order
@_orders((None,), lambda s: False)
def check_fourier(_, cfg):
    tol = 1e-7
    out = [report_equal(f"psi_fourier(s={s}, xi={xi})",
                        psi_fourier_numeric(s, xi), psi_fourier(s, xi), tol)
           for s, xi in ((0.5, 2.0), (1.5, 0.0), (1.5, 0.5), (1.5, 2.0),
                         (1.5, 10.0))]
    # closed Gamma seminorm against direct frequency-side quadrature
    direct = 2.0 * psi_fourier(1.5, 0.0) ** 2 * xi_moment(1.5, 2.0)
    u = _two_mode()
    # at s = 1/2 the H^1 seminorm of the curve IS the H^{1/2} norm of the data
    lhs = seminorm_sq(0.5, 1.0) * sobolev_norm(u, 0.5) ** 2
    return out + [
        report_equal("seminorm_quadrature(s=1.5, alpha=1.0)",
                     seminorm_sq(1.5, 1.0), direct, 1e-8),
        fourier_isometry(u, 0.5, sigma=0.0, b=0.0),
        fourier_isometry(u, 0.5, sigma=0.5, alpha=0.5),
        report_equal("fourier_h1_matches_h_half(s=0.5)",
                     lhs, sobolev_norm(u, 0.5) ** 2, tol)]


@_orders((0.5,), lambda s: 0 < s < 1)
def check_minimize(s, cfg):
    # empirical convergence: the gap to the closed form shrinks by about 4x
    # per doubling on the order-graded mesh (O(n^-2)); 1.7 is the bound.
    # A gap below one ulp of the target is rounding, so it counts as one ulp.
    # The finest solve comes last, so the two minima below read its E
    target = 2.0 * trace_constant(s)
    errs = [max(abs(_unit_minimum(s, n) - target), math.ulp(target))
            for n in (_FE_NODES // 4, _FE_NODES // 2, _FE_NODES)]
    ratio = min(errs[0] / errs[1], errs[1] / errs[2])
    zeta = _one_mode()
    negative, trace = minimize_negative(zeta, s, n_nodes=_FE_NODES)
    return [minimize_curve(_two_mode(), s, n_nodes=_FE_NODES),
            report_lower_bound(f"minimize_refinement_ratio(s={s})", ratio,
                               1.7),
            negative,
            report_equal(f"minimize_negative_trace(s={s})", trace.coeffs[0],
                         apply_power(zeta, -s).coeffs[0], negative.tol)]


@_orders((0.5, 1.5), lambda s: math.ceil(s) <= 2)
def check_orthogonality(s, cfg):
    one = _one_mode()
    zero_trace = orthogonality_check(one, s, one, QuadraticBump())
    zero_trace.name += "[V(0)=0]"
    return [orthogonality_check(one, s, one, GaussianBump()),
            zero_trace]


def _random_vectors(spectrum, seed, count):
    rng = random.Random(seed)
    return [ModalVector(np.array([rng.gauss(0.0, 1.0)
                                  for _ in range(spectrum.size)]), spectrum)
            for _ in range(count)]


def _unit_curve(s, n):
    """extend of the all-ones vector on the 16-mode Dirichlet spectrum of
    (0, pi), on its n-point default grid: the profiles psi_s(sqrt(lam_j) y),
    which a vector's coefficients scale row by row into its own curve."""
    spec = dirichlet_laplacian_1d(math.pi, 16)
    return extend(ModalVector(np.ones(spec.size), spec), s,
                  default_grid(spec, n))


@_orders((0.5, 1.5))
def check_nonexpansive(s, cfg):
    """Per-column norms of the curve never exceed the data norm: the lhs
    is the largest ratio of a column norm to the data norm, bounded by 1
    with 1e-12 of slack.  The weights are (lam/lam_max)^sigma, which leave
    each ratio as it is and cannot overflow; a NaN ratio fails."""
    unit = _unit_curve(s, 120)
    spec = unit.spectrum
    ratios = []
    for u in _random_vectors(spec, _SEED, 10):
        cols = unit.values * u.coeffs[:, None]
        for sigma in (-1.0, 0.0, 1.0, s):
            w = (spec.eigenvalues / spec.eigenvalues[-1]) ** sigma
            norms = np.sqrt(w @ cols ** 2)
            ref = math.sqrt(float(w @ u.coeffs ** 2))
            ratios.append(float(np.max(norms)) / ref)
    return [report_upper_bound(f"nonexpansive(s={s})", np.max(ratios), 1.0,
                               1e-12)]


@_orders((0.5, 1.5))
def check_commute(s, cfg):
    """extend(L^sigma u) equals L^sigma applied column-wise to extend(u).
    Both curves scale the unit curve by their coefficients, as extend forms
    a curve, so one profile evaluation serves every vector."""
    unit = _unit_curve(s, 80)
    sigma = 0.7
    worst = 0.0
    for u in _random_vectors(unit.spectrum, _SEED + 1, 10):
        left = apply_power(u, sigma).coeffs[:, None] * unit.values
        right = (unit.spectrum.eigenvalues[:, None] ** sigma
                 * (u.coeffs[:, None] * unit.values))
        scale = np.max(np.abs(right))
        worst = max(worst, float(np.max(np.abs(left - right))) / scale)
    return [report_equal(f"commute(s={s}, sigma={sigma})", worst, 0.0, 0.0,
                         abs_tol=1e-13)]


@_orders((0.3,), lambda s: s < 0.5)
def check_holder_slope(s, cfg):
    """log-log slope of |P_s[u](y) - u| near 0 equals 2s for 2s < 1."""
    ys = np.geomspace(1e-4, 1e-2, 13)
    gap = np.array([abs(psi_taylor_remainder(s, y, 0)) for y in ys])
    slope = float(np.polyfit(np.log(ys), np.log(gap), 1)[0])
    return [report_equal(f"holder_slope(s={s})", slope, 2.0 * s,
                         0.05 / (2.0 * s))]


@_orders((0.5, 1.5))
def check_isometry(s, cfg):
    """Curve-level energy isometry on a 3-mode spectrum (both regimes of s)."""
    u = ModalVector(np.ones(3), explicit_spectrum([1.0, 4.0, 9.0]))
    with np.errstate(over="ignore"):
        lhs = curve_energy(extend(u, s))
    # norm * norm, not norm ** 2: a float power raises OverflowError
    norm = sobolev_norm(u, s)
    rhs = 2.0 * trace_constant(s) * norm * norm
    _require_finite(f"curve_isometry(s={s})", lhs, rhs)
    return [report_equal(f"curve_isometry(s={s})", lhs, rhs, 1e-6)]


@_orders((0.3, 0.5, 1.5, 2.5))
def check_trace0(s, cfg):
    """Dirichlet trace of the curve returns the data."""
    u = ModalVector(np.array([1.0, -0.5, 0.25]),
                    explicit_spectrum([1.0, 4.0, 9.0]))
    got = trace0(extend(u, s))
    worst = float(np.max(np.abs(got.coeffs - u.coeffs))
                  / np.max(np.abs(u.coeffs)))
    return [report_equal(f"trace0(s={s})", worst, 0.0, 0.0,
                         abs_tol=1e-8)]


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
    checks still run.  Under ``cfg.tol`` every report is re-decided at it.
    """
    cfg = cfg or RunConfig()
    bad = [n for n in names or () if n not in CHECK_NAMES]
    if bad:
        raise ValueError(f"unknown check name(s) {bad}; valid names: "
                         f"{', '.join(CHECK_NAMES)}")
    reports = []
    for name, fn in _REGISTRY:
        if names and name not in names:
            continue
        try:
            got = fn(cfg)
            reports.extend(got if cfg.tol is None
                           else [rep.at(cfg.tol) for rep in got])
        except Exception as err:  # one broken check must not hide the rest
            reports.append(CheckFailure(name, f"{type(err).__name__}: {err}",
                                        detail=traceback.format_exc()))
    return reports
