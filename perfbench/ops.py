"""Workload inputs, operations and the checks on their outputs.

Inputs of operation ``i`` come from ``numpy.random.default_rng([seed, 1, i])``
(the warm-up operation draws from ``[seed, 0, 0]``), so they depend only on
the seed and the position in the sequence, and no two operations share an
input.

The checks never call fracext.  Closed forms are evaluated here with
``math.lgamma``; the Macdonald function comes from mpmath; eigenvalues and
the default grid are rebuilt from their definitions.
"""

from __future__ import annotations

import json
import math
import re

import mpmath
import numpy as np

CURVE_MODES = 64
CURVE_GRID = 160
FE_MODES = 8
FE_NODES = 4000
SAMPLES = 6  # mpmath-checked entries per curve and per derivative curve
SAMPLE_Z_MAX = 50.0  # sampled entries stay where psi_s is far from underflow

CURVE_KINDS = ("dirichlet", "neumann", "explicit")
FE_KINDS = ("dirichlet", "explicit", "probe")
# the one operation that fails every time: at s = 0.95 on 8000 nodes the FE
# minimum comes out as 20.23046875, below the closed form 2 d_s = 20.2311...
FE_PROBE = {"kind": "explicit", "values": [1.0], "lam": np.array([1.0]),
            "s": 0.95, "u": np.array([1.0]), "zeta": np.array([1.0]),
            "n_nodes": 8000, "probe": True}

# tolerances of the checks
TRACE0_TOL = 1e-8
DTN_TOL = 1e-4
SAMPLE_TOL = 1e-9
ROW_SLACK = 1e-12
FE_TOL = 1e-3
FE_ROUNDOFF = 1e-9


def _rng(seed, index, warmup):
    return np.random.default_rng([seed, 0 if warmup else 1, index])


def trace_constant(s):
    """d_s = 2^b Gamma((1+b)/2) floor(s)! / Gamma(s), b = 1 - 2 frac(s)."""
    fl = math.floor(s)
    b = 1.0 - 2.0 * (s - fl)
    return math.exp(b * math.log(2.0) + math.lgamma(0.5 * (1.0 + b))
                    + math.lgamma(fl + 1.0) - math.lgamma(s))


def _eigenvalues(kind, length, values, modes):
    if kind == "dirichlet":
        return (np.arange(1, modes + 1) * math.pi / length) ** 2
    if kind == "neumann":
        return (np.arange(0, modes) * math.pi / length) ** 2
    return np.asarray(values, dtype=float)


def _spread_spectrum(rng, modes, lo_exp, hi_exp):
    """Sorted log-uniform eigenvalues with both ends of the range pinned."""
    inner = 10.0 ** rng.uniform(lo_exp, hi_exp, modes - 2)
    return np.sort(np.concatenate([[10.0 ** lo_exp, 10.0 ** hi_exp], inner]))


def _operator(rng, kind, modes):
    length = float(rng.uniform(1.0, 4.0))
    values = _spread_spectrum(rng, modes, -2, 4) if kind == "explicit" else None
    return {"kind": kind, "length": length, "values": values,
            "lam": _eigenvalues(kind, length, values, modes)}


def _spectrum(fx, inp, modes):
    if inp["kind"] == "dirichlet":
        return fx.dirichlet_laplacian_1d(inp["length"], modes)
    if inp["kind"] == "neumann":
        return fx.neumann_laplacian_1d(inp["length"], modes)
    return fx.explicit_spectrum(inp["values"])


def _default_grid(lam, n=CURVE_GRID):
    pos = lam[lam > 0]
    lo = 1e-4 / math.sqrt(pos.max())
    hi = 40.0 / math.sqrt(pos.min())
    return lo * (hi / lo) ** (np.arange(n) / (n - 1))


def _profile(s, z, order):
    """c_s z^s K_order(z) at 30 digits, c_s = 2^(1-s) / Gamma(s)."""
    with mpmath.workdps(30):
        s, z = mpmath.mpf(s), mpmath.mpf(z)
        return float(2 ** (1 - s) / mpmath.gamma(s) * z ** s
                     * mpmath.besselk(order, z))


def _rel(got, want):
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------------------
# curve_batch


def curve_input(seed, index, warmup=False):
    """64-mode operator (Dirichlet, Neumann or spread explicit, by index),
    fresh coefficients, fresh order s = k + f, k in 0..3, f in [0.05, 0.95]."""
    rng = _rng(seed, index, warmup)
    inp = _operator(rng, CURVE_KINDS[index % len(CURVE_KINDS)], CURVE_MODES)
    inp["s"] = float(rng.integers(0, 4) + rng.uniform(0.05, 0.95))
    inp["u"] = rng.standard_normal(CURVE_MODES)
    grid = _default_grid(inp["lam"])
    samples = []
    for _ in range(SAMPLES):
        j = int(rng.integers(CURVE_MODES))
        reach = np.searchsorted(math.sqrt(inp["lam"][j]) * grid, SAMPLE_Z_MAX,
                                side="right")
        samples.append((j, int(rng.integers(max(reach, 1)))))
    inp["samples"] = samples
    return inp


def curve_op(fx, inp):
    """extend on the default grid, trace0, conormal_trace, derivative_curve."""
    spec = _spectrum(fx, inp, CURVE_MODES)
    u = fx.ModalVector(inp["u"], spec)
    s = inp["s"]
    curve = fx.extend(u, s)
    trace = fx.trace0(curve)
    conormal = fx.conormal_trace(u, s)
    deriv = fx.derivative_curve(u, s, 1)
    return {"lam": spec.eigenvalues, "grid": curve.grid, "values": curve.values,
            "trace": trace.coeffs, "conormal": conormal.coeffs,
            "deriv_grid": deriv.grid, "deriv": deriv.values}


def curve_check(inp, out):
    """Names of the properties the curve output violates (empty when right)."""
    errs = []
    lam, u, s = inp["lam"], inp["u"], inp["s"]
    shape = (CURVE_MODES, CURVE_GRID)
    if out["values"].shape != shape or out["deriv"].shape != shape:
        return ["shape"]
    if np.max(np.abs(out["lam"] - lam) / np.maximum(lam, 1e-300)) > 1e-13:
        errs.append("eigenvalues")
    grid = _default_grid(lam)
    for key in ("grid", "deriv_grid"):
        if np.max(np.abs(out[key] - grid) / grid) > 1e-12:
            errs.append(key)
    if np.max(np.abs(out["trace"] - u)) > TRACE0_TOL * np.max(np.abs(u)):
        errs.append("trace0")
    want = -trace_constant(s) * lam ** s * u
    pos = lam > 0
    if (np.any(np.abs(out["conormal"][pos] - want[pos])
               > DTN_TOL * np.abs(want[pos]))
            or np.any(out["conormal"][~pos] != 0.0)):
        errs.append("conormal_trace")
    rows = np.abs(out["values"])
    scale = np.abs(u)[:, None]
    if np.any(rows > scale * (1.0 + ROW_SLACK)):
        errs.append("row_bound")
    if np.any(np.diff(rows, axis=1) > ROW_SLACK * scale):
        errs.append("row_monotone")
    for j, i in inp["samples"]:
        root = math.sqrt(lam[j])
        z = root * grid[i]
        if lam[j] == 0.0:
            want_v, want_d = u[j], 0.0
        else:
            want_v = u[j] * _profile(s, z, s)
            want_d = -u[j] * root * _profile(s, z, s - 1.0)
        if _rel(out["values"][j, i], want_v) > SAMPLE_TOL:
            errs.append(f"extend[{j},{i}]")
        if want_d == 0.0:
            if out["deriv"][j, i] != 0.0:
                errs.append(f"derivative_curve[{j},{i}]")
        elif _rel(out["deriv"][j, i], want_d) > SAMPLE_TOL:
            errs.append(f"derivative_curve[{j},{i}]")
    return errs


# ---------------------------------------------------------------------------
# fe_batch


def fe_input(seed, index, warmup=False):
    """8-mode Dirichlet or spread explicit operator, fresh data u and zeta,
    fresh order s in [0.35, 0.45]; every third operation is the fixed probe.

    Toward s = 0.3 the FE minimum misses the closed form by more than the
    1e-3 tolerance (1.4e-3 at s = 0.3, 3.6e-4 at s = 0.35).  Above s = 0.45
    the rounding error of the FE quadratic form, next to the shrinking
    discretisation error, puts the computed minimum below the closed form
    on some inputs (for s in [0.4, 0.8] on 1 of 180 operations).  The probe
    shows that fault on a fixed input, so it fails in every round.
    """
    if FE_KINDS[index % len(FE_KINDS)] == "probe":
        return dict(FE_PROBE)
    rng = _rng(seed, index, warmup)
    inp = _operator(rng, FE_KINDS[index % len(FE_KINDS)], FE_MODES)
    inp["s"] = float(rng.uniform(0.35, 0.45))
    inp["u"] = rng.standard_normal(FE_MODES)
    inp["zeta"] = rng.standard_normal(FE_MODES)
    inp["n_nodes"] = FE_NODES
    return inp


def fe_op(fx, inp):
    """minimize_curve and minimize_negative on the input's mesh size."""
    spec = _spectrum(fx, inp, len(inp["lam"]))
    s, n = inp["s"], inp["n_nodes"]
    rep = fx.minimize_curve(fx.ModalVector(inp["u"], spec), s, n_nodes=n)
    neg, trace = fx.minimize_negative(fx.ModalVector(inp["zeta"], spec), s,
                                      n_nodes=n)
    return {"lam": spec.eigenvalues, "min": rep.lhs, "min_pass": rep.passed,
            "neg_min": neg.lhs, "neg_pass": neg.passed, "trace": trace.coeffs}


def fe_check(inp, out):
    errs = []
    lam, s, u, zeta = inp["lam"], inp["s"], inp["u"], inp["zeta"]
    if np.max(np.abs(out["lam"] - lam) / lam) > 1e-13:
        errs.append("eigenvalues")
    d_s = trace_constant(s)
    for key, got, want in (
            ("minimize_curve", out["min"], 2.0 * d_s * np.sum(lam ** s * u ** 2)),
            ("minimize_negative", out["neg_min"],
             -2.0 * d_s * np.sum(lam ** -s * zeta ** 2))):
        gap = (got - want) / abs(want)
        if abs(gap) > FE_TOL:
            errs.append(key)
        if gap < -FE_ROUNDOFF:  # a Galerkin minimum never undercuts the closed form
            errs.append(key + "_below_closed_form")
    if not (out["min_pass"] and out["neg_pass"]):
        errs.append("report_pass")
    want = lam ** -s * zeta
    if np.any(np.abs(out["trace"] - want) > FE_TOL * np.abs(want)):
        errs.append("minimize_negative_trace")
    return errs


# ---------------------------------------------------------------------------
# verify_cli

_ENERGY = re.compile(r"energy_identity\(s=([^,]+), lam=([^)]+)\)$")
_DTN = re.compile(r"dtn\(s=([^,]+), mode=(\d+)\)$")
_TAYLOR = re.compile(r"taylor_coefficient\(s=([^)]+)\)$")
_FOURIER = re.compile(r"psi_fourier\(s=([^,]+), xi=([^)]+)\)$")
_DTN_SPECTRUM = (1.0, 4.0)  # the two-mode operator of the dtn check, u = (1, 1)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def closed_form_rhs(name):
    """Closed-form rhs of a verify report, or None for reports not covered."""
    m = _ENERGY.match(name)
    if m:
        s, lam = float(m[1]), float(m[2])
        return 2.0 * trace_constant(s) * lam ** s
    m = _DTN.match(name)
    if m:
        s = float(m[1])
        return -trace_constant(s) * _DTN_SPECTRUM[int(m[2]) - 1] ** s
    m = _TAYLOR.match(name)
    if m:  # T_1 = -Gamma(s-1) / (4 Gamma(s)) for u = 1 on the eigenvalue 1
        s = float(m[1])
        return -math.exp(math.lgamma(s - 1.0) - math.lgamma(s)) / 4.0
    m = _FOURIER.match(name)
    if m:
        s, xi = float(m[1]), float(m[2])
        return (math.sqrt(2.0) * math.exp(math.lgamma(s + 0.5) - math.lgamma(s))
                * (1.0 + xi * xi) ** (-(1.0 + 2.0 * s) / 2.0))
    return None


def verify_check(returncode, stdout, expected_names, reference=None):
    """Check one `fracext verify` run; returns the violated properties."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    errs = []
    lines = stdout.decode("utf-8", "replace").splitlines()
    if not lines:
        return ["empty output"]
    *report_lines, summary = lines
    names = []
    for line in report_lines:
        try:
            rep = json.loads(line, parse_constant=_reject_constant)
        except ValueError as err:
            errs.append(f"not strict JSON: {err}")
            continue
        names.append(rep.get("name"))
        if rep.get("pass") is not True:
            errs.append(f"{rep.get('name')}: pass is not true")
        want = closed_form_rhs(rep["name"])
        if want is not None:
            if abs(rep["lhs"] - want) > rep["tol"] * abs(want):
                errs.append(f"{rep['name']}: lhs off the closed form")
            if abs(rep["rhs"] - want) > 1e-12 * abs(want):
                errs.append(f"{rep['name']}: rhs off the closed form")
    n = len(report_lines)
    if summary != f"# {n}/{n} checks passed":
        errs.append(f"summary {summary!r} for {n} reports")
    if names != list(expected_names):
        errs.append("report names differ from the expected list")
    if reference is not None and stdout != reference:
        errs.append("stdout differs from the first run")
    return errs


WARM = {
    "curve_batch": (curve_input, curve_op, curve_check, len(CURVE_KINDS)),
    "fe_batch": (fe_input, fe_op, fe_check, len(FE_KINDS)),
}
