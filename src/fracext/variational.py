"""Independent variational verification by weighted P1 finite elements.

For s in (0, 1) the minimal weighted energy over even profiles with unit
trace,

    min { 2 int_0^inf y^b (|f'|^2 + lam f^2) dy : f(0) = 1 },  b = 1 - 2s,

equals 2 d_s lam^s and is attained by the Macdonald profile.  This module
rebuilds that minimum from scratch: piecewise-linear elements on a mesh
graded from the order, element integrals of the weight computed from exact
power moments (never sampling y = 0), a direct tridiagonal solve by
odd-even cyclic reduction finished by a Thomas sweep, and a far-field
cutoff f(y_max) = 0 whose error is exponentially small.  Because the
discrete space is a subspace, the discrete minimum sits on or above the
closed form and converges to it like n^-2 at every s in (0, 1): an oracle
that knows nothing about Bessel functions.

Verification of higher orders goes through the energy identities and ODE
residuals instead; conforming weighted elements for k >= 2 are deliberately
out of scope (their approximation theory is unsettled for b != 0), which is
why the constrained solves here stop at ceil(s) = 1 and only the
orthogonality check accepts ceil(s) = 2.

Every mode is the lam = 1 problem rescaled by z = sqrt(lam) y, so the
lam = 1 constrained minimum E is the only quantity solved for: one
tridiagonal solve per (s, n), kept for the last (s, n) asked and shared
by ``minimize_curve``, ``minimize_negative`` and the minimize check.  The
trace datum is its only right-hand side, T x = c e_0, so the reduction
carries the matrix alone: about log2(n / 24) vectorised levels down to 24
rows, then a Thomas sweep over Python floats.  The curve minimum is
E |u|^2_{H^s}.  The dual problem of negative orders, with the trace free,
is least at a multiple of the constrained minimiser, so its minimum
-4 d_s^2 |zeta|^2_{H^{-s}} / E and its trace (2 d_s / E) L^{-s} zeta follow
in closed form.  The eigenvalue weights come from ``sobolev_norm`` and
``apply_power`` of the spectral layer.  The orthogonality check integrates
all modes at once, as one (J, N) integrand: its test bump is not rescaled
with the mode.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .special import FracParams, _collapse, _first_deriv_factors, psi
from .spectral import (
    ModalVector,
    _active_modes,
    _check_kernel_use,
    _check_same_spectrum,
    _require_finite,
    apply_power,
    sobolev_norm,
)
from .weighted import (
    _TAIL_SCALE,
    CheckReport,
    power_weighted_integral,
    report_equal,
)

__all__ = [
    "ProfileFE",
    "graded_mesh",
    "minimize_profile",
    "minimize_curve",
    "minimize_negative",
    "orthogonality_check",
]

_FE_TOL = 1e-3  # bound of the FE minima against their closed forms
# quadrature nodes of the orthogonality check: its (J, N) integrand holds a
# fixed bump against profiles of every mode, finer than the default rule
_ORTHOGONALITY_NODES = 4096


@dataclass(frozen=True)
class ProfileFE:
    """Piecewise-linear minimiser on a graded mesh for one mode."""

    grid: np.ndarray
    values: np.ndarray

    def __call__(self, y):
        return np.interp(y, self.grid, self.values, right=0.0)


def graded_mesh(y_max: float, n: int, s: float) -> np.ndarray:
    """Nodes 0 and y_max (k/(n-1))^{2/s}, k = 1..n-1: a grading above 3/(2s)
    converges like n^-2 (Nochetto, Otarola & Salgado, Found. Comput. Math.
    15 (2015)); 2/s measured best above s = 1/2.  Nodes below 1e-150 y_max,
    where h^2 underflows, are dropped: s < 2 log10(n-1)/150 keeps fewer."""
    if not (math.isfinite(n) and n == math.floor(n)):
        raise ValueError(f"the mesh needs a whole number of nodes, got n={n}")
    if n < 8:
        raise ValueError("mesh needs at least 8 nodes")
    if not 0.0 < s < math.inf:
        raise ValueError(f"graded_mesh needs a finite order s > 0, got s={s}")
    if not 0.0 < y_max < math.inf:
        raise ValueError(f"graded_mesh needs a finite y_max > 0, "
                         f"got y_max={y_max}")
    expo = np.log(np.arange(1, n) / (n - 1))  # in log space
    expo = expo[expo >= 0.5 * s * math.log(1e-150)]
    return np.concatenate(([0.0], y_max * np.exp(expo * 2.0 / s)))


def _elements(mesh, b):
    """Per-element stiffness k_el and mass entries (m00, m01, m11) of
    int y^b (f'g' + f g) on each cell.

    Element integrals use the exact moments int y^{b+k} dy, k = 0,1,2, so
    the singular weight never gets sampled; the leading cell is exact for
    linears despite b < 0.  Built in place, in the operation order of
    the per-cell formulas, so the bits are theirs.
    """
    y0 = mesh[:-1]
    y1 = mesh[1:]
    h2 = y1 - y0
    h2 *= h2
    moments = []
    for p in (b + 1.0, b + 2.0, b + 3.0):
        power = mesh ** p  # each node raised once, shared by its two cells
        moment = power[1:] - power[:-1]
        moment /= p
        moments.append(moment)
    m0, m1, m2 = moments
    # (y1 y1 m0 - 2 y1 m1 + m2) / h2
    mass00 = y1 * y1
    mass00 *= m0
    tmp = 2.0 * y1
    tmp *= m1
    mass00 -= tmp
    mass00 += m2
    mass00 /= h2
    # ((y0 + y1) m1 - y0 y1 m0 - m2) / h2
    mass01 = y0 + y1
    mass01 *= m1
    np.multiply(y0, y1, out=tmp)
    tmp *= m0
    mass01 -= tmp
    mass01 -= m2
    mass01 /= h2
    # (m2 - 2 y0 m1 + y0 y0 m0) / h2, in the buffer of m2
    mass11 = m2
    np.multiply(2.0, y0, out=tmp)
    tmp *= m1
    mass11 -= tmp
    np.multiply(y0, y0, out=tmp)
    tmp *= m0
    mass11 += tmp
    mass11 /= h2
    k_el = m0  # m0 / h2, in its own buffer
    k_el /= h2
    return k_el, mass00, mass01, mass11


def _assemble(elements, lam):
    """Tridiagonal arrays of the form 2*int y^b (f'g' + lam f g), built from
    the element arrays of :func:`_elements`."""
    k_el, mass00, mass01, mass11 = elements
    diag = np.empty(k_el.size + 1)
    diag[-1] = 0.0
    # each node gets the (k_el + lam m00) of the cell above it, then the
    # (k_el + lam m11) of the cell below it
    np.multiply(lam, mass00, out=diag[:-1])
    diag[:-1] += k_el
    below = lam * mass11
    below += k_el
    diag[1:] += below
    off = lam * mass01
    off -= k_el
    diag *= 2.0  # doubled: integrals over R of even profiles
    off *= 2.0
    return diag, off


_SWEEP_ROWS = 24  # systems up to this size finish with a scalar sweep


def _sweep_unit_datum(diag, couple, datum):
    """Solve T x = datum e_0 for a short SPD tridiagonal T, with main
    diagonal ``diag`` and off-diagonals ``-couple``, by a Thomas sweep on
    Python floats.  Elimination from the top turns row i into
    x_i = r_i + c_i x_{i+1}, with c_i = couple_i / pivot_i,
    r_0 = datum / pivot_0 and r_i = couple_{i-1} r_{i-1} / pivot_i; x is
    then read from the last row up."""
    diag = diag.tolist()
    couple = couple.tolist()
    pivot = diag[0]
    r = [datum / pivot]
    c = []
    for d, q in zip(diag[1:], couple):
        c.append(q / pivot)
        pivot = d - q * c[-1]
        r.append(q * r[-1] / pivot)
    x = [r.pop()]
    while r:
        x.append(r.pop() + c.pop() * x[-1])
    x.reverse()
    return np.array(x)


def _solve_unit_datum(diag, off, datum):
    """Solve T x = datum e_0 for the SPD tridiagonal T with main diagonal
    ``diag`` and both off-diagonals ``off``, by odd-even cyclic reduction.

    Each level eliminates the odd rows, leaving an SPD tridiagonal system in
    the even rows: Gaussian elimination on an odd-even permutation of T,
    which is SPD too, so no pivoting is needed.  Row 0 is even and the odd
    rows of datum e_0 are zero, so the right-hand side stays datum e_0 on
    every level and only the matrix is reduced.  Once the even rows are
    solved, each odd row is its two multipliers times its even neighbours.
    Levels stop at :data:`_SWEEP_ROWS` rows, which a scalar Thomas sweep
    solves: about log2(n / _SWEEP_ROWS) levels of slice arithmetic.  The
    levels carry the couplings -off, whose signs then drop out.
    """
    couple = -off
    levels = []
    while diag.size > _SWEEP_ROWS:
        inv = 1.0 / diag[1::2]
        # odd row 2k+1 couples to row 2k through couple[2k], to row 2k+2
        # through couple[2k+1]
        q_lo = couple[::2]
        q_hi = couple[1::2]
        lo = q_lo * inv
        hi = q_hi * inv[:q_hi.size]
        even = diag[::2].copy()
        even[:lo.size] -= q_lo * lo
        even[1:] -= q_hi * hi
        couple = lo[:q_hi.size] * q_hi
        diag = even
        levels.append((lo, hi))
    x = _sweep_unit_datum(diag, couple, datum)
    for lo, hi in reversed(levels):
        full = np.empty(x.size + lo.size)
        full[::2] = x
        odd = full[1::2]
        np.multiply(lo, x[:lo.size], out=odd)
        odd[:hi.size] += hi * x[1:]
        x = full
    return x


def _energy(elements, lam, f):
    """2 int y^b (|f'|^2 + lam f^2) of the P1 function with nodal values f.

    Summed element by element, each term nonnegative, so no cancellation
    between the large diagonal and off-diagonal entries of the assembled
    form can push the discrete minimum below the closed form.
    """
    k_el, mass00, mass01, mass11 = elements
    f0 = f[:-1]
    f1 = f[1:]
    # k_el (f1 - f0)^2 + lam (m00 f0 f0 + 2 m01 f0 f1 + m11 f1 f1), in place
    mass = mass00 * f0
    mass *= f0
    tmp = 2.0 * mass01
    tmp *= f0
    tmp *= f1
    mass += tmp
    np.multiply(mass11, f1, out=tmp)
    tmp *= f1
    mass += tmp
    mass *= lam
    np.subtract(f1, f0, out=tmp)
    np.square(tmp, out=tmp)
    tmp *= k_el
    tmp += mass
    return 2.0 * float(np.sum(tmp))


def _fe_form(params, lam, n_nodes):
    """Mesh, element arrays and assembled form of one mode, on the
    :func:`graded_mesh` of the order ending at 40/sqrt(lam)."""
    mesh = graded_mesh(40.0 / math.sqrt(lam), n_nodes, params.s)
    # the trace datum sits at the first node, the cutoff at the last
    if mesh.size < 3:
        raise ValueError(
            f"the graded FE mesh at s={params.s} keeps {mesh.size} of "
            f"{n_nodes} nodes, fewer than the 3 a solve needs: it drops every "
            f"node below 1e-150 of its range")
    elements = _elements(mesh, params.b)
    return mesh, elements, _assemble(elements, lam)


def minimize_profile(s: float, lam: float, n_nodes: int = 2000):
    """Discrete constrained minimum for one mode, s in (0, 1).

    Returns ``(min_value, ProfileFE)`` with the value doubled to the whole
    line.  The discrete minimum is >= 2 d_s lam^s (Galerkin subspace) and
    approaches it from above under mesh refinement.
    """
    params = FracParams.from_order(s)
    if params.ceil_s != 1:
        raise ValueError(
            f"constrained minimisation is implemented for s in (0,1); "
            f"got s={s}")
    if not 0.0 < lam < math.inf:
        raise ValueError(f"minimize_profile needs a finite eigenvalue "
                         f"lam > 0, got lam={lam}")
    mesh, elements, (diag, off) = _fe_form(params, lam, n_nodes)
    # Dirichlet data: f(0) = 1, f(y_max) = 0; unknowns are the interior
    # nodes, and the trace moves -off[0] to the first of their rows
    inner = _solve_unit_datum(diag[1:-1], off[1:-1], -off[0])
    full = np.concatenate(([1.0], inner, [0.0]))
    value = _energy(elements, lam, full)
    return value, ProfileFE(grid=mesh, values=full)


@functools.lru_cache(maxsize=1)
def _unit_minimum(s, n_nodes):
    """The lam = 1 minimum E of :func:`minimize_profile`, solved once for
    the last (s, n_nodes) asked: the curve minimum and its dual read the
    same E back to back.  Only the float is kept; the profile's arrays are
    mutable."""
    return minimize_profile(s, 1.0, n_nodes=n_nodes)[0]


def minimize_curve(u: ModalVector, s: float,
                   n_nodes: int = 2000) -> CheckReport:
    """Curve-level minimality: the discrete minimum at lam = 1 times
    |u|^2_{H^s}, against 2 d_s |u|^2_{H^s}.  It sits above the closed form
    and closes in under refinement."""
    params = FracParams.from_order(s)
    _check_kernel_use(u, "minimize_curve")
    unit = _unit_minimum(params.s, n_nodes)
    norm = sobolev_norm(u, s)
    # norm * norm, not norm ** 2: a float power raises OverflowError
    total = unit * norm * norm
    _require_finite(f"minimize_curve(s={s})", total)
    rhs = 2.0 * params.d_s * norm * norm
    return report_equal(f"minimize_curve(s={s})", total, rhs, _FE_TOL)


def minimize_negative(zeta: ModalVector, s: float, n_nodes: int = 2000):
    """Unconstrained dual minimisation for negative orders, by duality.

    Per mode, the dual functional  |f|^2_{lam,H^{1;b}} - 4 d_s zeta_j f(0)
    over the discrete space (trace value free) is least at a multiple c f_h
    of the constrained minimiser f_h with unit trace, where it reads
    c^2 E_j - 4 d_s zeta_j c, E_j = E lam_j^s the constrained minimum.  So
    c = 2 d_s zeta_j / E_j, the minimum is -4 d_s^2 |zeta|^2_{H^{-s}} / E,
    which converges from above to -2 d_s |zeta|^2_{H^{-s}}, and the trace
    is (2 d_s / E) L^{-s} zeta.  E is the lam = 1 minimum of
    :func:`minimize_profile`, shared with :func:`minimize_curve` at the
    same (s, n_nodes).  Returns ``(report, trace_vector)``.
    """
    params = FracParams.from_order(s)
    # first, so that a kernel coefficient is refused before the FE solve
    norm = sobolev_norm(zeta, -s)
    unit = _unit_minimum(params.s, n_nodes)
    unit_trace = 2.0 * params.d_s / unit
    total = -2.0 * params.d_s * unit_trace * norm * norm
    trace = unit_trace * apply_power(zeta, -s).coeffs
    _require_finite(f"minimize_negative(s={s})", total, trace)
    rhs = -2.0 * params.d_s * norm * norm
    report = report_equal(f"minimize_negative(s={s})", total, rhs, _FE_TOL)
    return report, ModalVector(trace, zeta.spectrum)


def orthogonality_check(u: ModalVector, s: float, v: ModalVector,
                        eta) -> CheckReport:
    """Weak-form identity of the extension against a factored test curve.

    With V_j = v_j eta(y), eta a fixed C^2 even bump, the weighted inner
    product of the extension with V must equal

        2 d_s sum_j lambda_j^s u_j v_j eta(0).

    Implemented for ceil(s) in {1, 2}: the profile side of the form is
    collapsed analytically, the eta side uses the bump's exact derivatives.
    """
    params = FracParams.from_order(s)
    if params.ceil_s > 2:
        raise ValueError("orthogonality check implemented for ceil(s) <= 2")
    _check_same_spectrum("orthogonality_check", u, v)
    mask = _active_modes(u, v)
    lam = u.spectrum.eigenvalues[mask][:, None]
    root = np.sqrt(lam)
    b = params.b
    n = _ORTHOGONALITY_NODES
    # the profile side collapsed to floor(s) in {0, 1} operator powers
    if params.ceil_s == 1:
        # gradient part: y^b psi' eta' has the weight exactly cancelled;
        # the chain rule on psi(sqrt(lam) y) brings lam^{(1+expo)/2}
        coef, expo, order = _first_deriv_factors(s)
        coef = coef * lam ** (0.5 * (1.0 + expo))
        grad_part = power_weighted_integral(
            lambda y: coef * psi(order, root * y) * eta.d1(y),
            b + expo, _TAIL_SCALE, n)
        mass = power_weighted_integral(
            lambda y: psi(s, root * y) * eta.value(y), b, _TAIL_SCALE, n)
        per_mode = 2.0 * (grad_part + lam[:, 0] * mass)
    else:
        coef = _collapse(s, lam, 1)
        per_mode = 2.0 * power_weighted_integral(
            lambda y: coef * psi(s - 1.0, root * y)
            * (-eta.d2(y) - b * eta.d1_over_y(y) + lam * eta.value(y)),
            b, _TAIL_SCALE, n)
    lhs = float(u.coeffs[mask] * v.coeffs[mask] @ per_mode)
    eta0 = float(eta.value(0.0))
    # kernel eigenvalues contribute nothing: 0^s = 0 for s > 0
    rhs = 2.0 * params.d_s * eta0 * float(
        np.sum(u.spectrum.eigenvalues ** s * u.coeffs * v.coeffs))
    return report_equal(f"orthogonality(s={s})", lhs, rhs, 1e-5, abs_tol=1e-8)
