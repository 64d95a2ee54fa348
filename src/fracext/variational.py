"""Independent variational verification by weighted P1 finite elements.

For s in (0, 1) the minimal weighted energy over even profiles with unit
trace,

    min { 2 int_0^inf y^b (|f'|^2 + lam f^2) dy : f(0) = 1 },  b = 1 - 2s,

equals 2 d_s lam^s and is attained by the Macdonald profile.  This module
rebuilds that minimum from scratch: piecewise-linear elements on a graded
mesh, element integrals of the weight computed from exact power moments
(never sampling y = 0), a direct tridiagonal solve by odd-even cyclic
reduction, and a far-field cutoff f(y_max) = 0 whose committed error is
exponentially small.  Because the discrete space is a subspace, the
discrete minimum always sits on or above the closed form and converges to
it under refinement — an oracle that knows nothing about Bessel functions.

Verification of higher orders goes through the energy identities and ODE
residuals instead; conforming weighted elements for k >= 2 are deliberately
out of scope (their approximation theory is unsettled for b != 0), which is
why the constrained solves here stop at ceil(s) = 1 and only the
orthogonality check accepts ceil(s) = 2.

Every mode is the lam = 1 problem rescaled by z = sqrt(lam) y, so the
curve-level minima make one tridiagonal solve (about log2(n) vectorised
levels) and weigh it with exact powers of the eigenvalues.  The
orthogonality check integrates all modes at once, as one (J, N) integrand:
its test bump is not rescaled with the mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import FracParams, _apply_operator_power, _term_derivative, psi
from .spectral import (
    ModalVector,
    _active_modes,
    _require_finite,
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

# quadrature nodes of the orthogonality check: its (J, N) integrand holds a
# fixed bump against profiles of every mode, finer than the default rule
_ORTHOGONALITY_NODES = 4096


@dataclass(frozen=True)
class ProfileFE:
    """Piecewise-linear minimiser on a graded mesh for one mode."""

    grid: np.ndarray
    values: np.ndarray
    b: float
    lam: float

    def __call__(self, y):
        return np.interp(y, self.grid, self.values, right=0.0)


def graded_mesh(y_max: float, n: int, y_first: float | None = None) -> np.ndarray:
    """Nodes 0, delta, delta*r, ..., y_max growing geometrically."""
    if n < 8:
        raise ValueError("mesh needs at least 8 nodes")
    if y_first is None:
        y_first = 1e-5 * y_max
    ratio = (y_max / y_first) ** (1.0 / (n - 2))
    mesh = np.empty(n)
    mesh[0] = 0.0
    mesh[1:] = y_first * ratio ** np.arange(n - 1)
    mesh[-1] = y_max
    return mesh


def _elements(mesh, b):
    """Per-element stiffness k_el and mass entries (m00, m01, m11) of
    int y^b (f'g' + f g) on each cell.

    Element integrals use the exact moments int y^{b+k} dy, k = 0,1,2, so
    the singular weight never gets sampled; the leading cell is exact for
    linears despite b < 0.
    """
    y0 = mesh[:-1]
    y1 = mesh[1:]
    h = y1 - y0
    m0 = (y1 ** (b + 1.0) - y0 ** (b + 1.0)) / (b + 1.0)
    m1 = (y1 ** (b + 2.0) - y0 ** (b + 2.0)) / (b + 2.0)
    m2 = (y1 ** (b + 3.0) - y0 ** (b + 3.0)) / (b + 3.0)
    h2 = h * h
    k_el = m0 / h2
    mass00 = (y1 * y1 * m0 - 2.0 * y1 * m1 + m2) / h2
    mass01 = ((y0 + y1) * m1 - y0 * y1 * m0 - m2) / h2
    mass11 = (m2 - 2.0 * y0 * m1 + y0 * y0 * m0) / h2
    return k_el, mass00, mass01, mass11


def _assemble(elements, lam):
    """Tridiagonal arrays of the form 2*int y^b (f'g' + lam f g), built from
    the element arrays of :func:`_elements`."""
    k_el, mass00, mass01, mass11 = elements
    n = k_el.size + 1
    diag = np.zeros(n)
    off = np.zeros(n - 1)
    diag[:-1] += k_el + lam * mass00
    diag[1:] += k_el + lam * mass11
    off[:] = -k_el + lam * mass01
    return 2.0 * diag, 2.0 * off  # doubled: integrals over R of even profiles


# plain numpy: importing scipy.linalg adds over 10 % to the FE path's peak RSS
def _solve_spd_tridiagonal(diag, off, rhs):
    """Solve T x = rhs for the SPD tridiagonal T with main diagonal ``diag``
    and both off-diagonals ``off``, by odd-even cyclic reduction.

    Each level eliminates the odd rows, leaving an SPD tridiagonal system in
    the even rows, and fills the odd rows back in once that is solved: about
    log2(n) levels of slice arithmetic and no loop over rows.  This is
    Gaussian elimination on an odd-even permutation of T, which is SPD too,
    so no pivoting is needed.  Leading axes of the arguments are a batch of
    independent systems.
    """
    n = diag.shape[-1]
    if n == 1:
        return rhs / diag
    m = n // 2  # odd rows, eliminated at this level
    h = n - 1 - m  # odd rows with an even row below them
    inv = 1.0 / diag[..., 1::2]
    # row 2k+1 couples to row 2k through off[2k], to row 2k+2 through off[2k+1]
    lo = off[..., ::2] * inv
    hi = off[..., 1::2] * inv[..., :h]
    diag_even = diag[..., ::2].copy()
    diag_even[..., :m] -= off[..., ::2] * lo
    diag_even[..., 1:] -= off[..., 1::2] * hi
    rhs_odd = rhs[..., 1::2]
    rhs_even = rhs[..., ::2].copy()
    rhs_even[..., :m] -= lo * rhs_odd
    rhs_even[..., 1:] -= hi * rhs_odd[..., :h]
    x_even = _solve_spd_tridiagonal(
        diag_even, -lo[..., :h] * off[..., 1::2], rhs_even)
    x = np.empty(rhs.shape, dtype=x_even.dtype)
    x[..., ::2] = x_even
    x_odd = rhs_odd * inv - lo * x_even[..., :m]
    x_odd[..., :h] -= hi * x_even[..., 1:]
    x[..., 1::2] = x_odd
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
    mass = mass00 * f0 * f0 + 2.0 * mass01 * f0 * f1 + mass11 * f1 * f1
    return 2.0 * float(np.sum(k_el * (f1 - f0) ** 2 + lam * mass))


def _fe_form(params, lam, n_nodes, mesh=None):
    """Mesh, element arrays and assembled form of one mode.  The default
    mesh ends at 40/sqrt(lam); its first cell's energy scales like
    delta^{2s}, so delta is 1e-5^{max(1, 1/(2s))} of the range."""
    if mesh is None:
        y_max = 40.0 / math.sqrt(lam)
        mesh = graded_mesh(y_max, n_nodes,
                           y_max * 1e-5 ** max(1.0, 0.5 / params.s))
    else:
        mesh = np.asarray(mesh, dtype=float)
        # the trace datum sits at the first node, the cutoff at the last
        if (mesh.ndim != 1 or mesh.size < 3 or mesh[0] != 0.0
                or not np.all(np.diff(mesh) > 0.0)
                or not math.isfinite(mesh[-1])):
            raise ValueError("an FE mesh needs at least 3 finite, strictly "
                             "increasing nodes, the first at y = 0")
    elements = _elements(mesh, params.b)
    return mesh, elements, _assemble(elements, lam)


def minimize_profile(s: float, lam: float, mesh=None, n_nodes: int = 2000):
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
    mesh, elements, (diag, off) = _fe_form(params, lam, n_nodes, mesh)
    # Dirichlet data: f(0) = 1, f(y_max) = 0; unknowns are the interior nodes
    rhs = np.zeros(mesh.size - 2)
    rhs[0] = -off[0]
    inner = _solve_spd_tridiagonal(diag[1:-1], off[1:-1], rhs)
    full = np.concatenate(([1.0], inner, [0.0]))
    value = _energy(elements, lam, full)
    return value, ProfileFE(grid=mesh, values=full, b=params.b, lam=lam)


def minimize_curve(u: ModalVector, s: float, n_nodes: int = 2000,
                   tol: float = 1e-3) -> CheckReport:
    """Curve-level minimality: the discrete minimum at lam = 1 times
    sum_j u_j^2 lam_j^s, against 2 d_s |u|^2_{H^s}.  It sits above the
    closed form and closes in under refinement."""
    params = FracParams.from_order(s)
    if u.spectrum.kernel_dim and np.any(u.coeffs[:u.spectrum.kernel_dim]):
        raise ValueError("minimize_curve needs zero kernel coefficients")
    unit, _ = minimize_profile(s, 1.0, n_nodes=n_nodes)
    mask = _active_modes(u)
    lam = u.spectrum.eigenvalues[mask]
    with np.errstate(over="ignore", invalid="ignore"):
        total = unit * float(u.coeffs[mask] ** 2 @ lam ** s)
    # checked before the norm, whose square would raise OverflowError
    _require_finite(f"minimize_curve(s={s})", total)
    rhs = 2.0 * params.d_s * sobolev_norm(u, s) ** 2
    return report_equal(f"minimize_curve(s={s})", total, rhs, tol)


def minimize_negative(zeta: ModalVector, s: float, n_nodes: int = 2000,
                      tol: float = 1e-3):
    """Unconstrained dual minimisation for negative orders.

    Per mode, minimises  |f|^2_{lam,H^{1;b}} - 4 d_s zeta_j f(0)  over the
    discrete space (trace value free), which converges from above to
    -2 d_s |zeta|^2_{H^{-s}}; the minimiser's trace converges to the
    (-s)-power of zeta.  Mode j's minimiser is zeta_j lam_j^{-s} times the
    unit-data minimiser at lam = 1.  Returns ``(report, trace_vector)``.
    """
    params = FracParams.from_order(s)
    if params.ceil_s != 1:
        raise ValueError("negative-order minimisation needs s in (0,1)")
    kd = zeta.spectrum.kernel_dim
    if kd and np.any(zeta.coeffs[:kd]):
        raise ValueError("minimize_negative needs zero kernel coefficients")
    mesh, elements, (diag, off) = _fe_form(params, 1.0, n_nodes)
    # unit data; far-field f(y_max) = 0 only, node 0 is a genuine unknown
    rhs = np.zeros(mesh.size - 1)
    rhs[0] = 2.0 * params.d_s
    x = _solve_spd_tridiagonal(diag[:-1], off[:-1], rhs)
    # the functional at the computed x, not its value at the exact discrete
    # optimum (-rhs[0] x[0]), which moves with solver rounding
    unit = _energy(elements, 1.0, np.append(x, 0.0)) - 2.0 * rhs[0] * x[0]
    mask = _active_modes(zeta)
    trace = np.zeros(zeta.spectrum.size)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = zeta.coeffs[mask] * zeta.spectrum.eigenvalues[mask] ** -s
        total = unit * float(zeta.coeffs[mask] @ scaled)
        trace[mask] = scaled * x[0]
    _require_finite(f"minimize_negative(s={s})", total, trace)
    rhs_val = -2.0 * params.d_s * sobolev_norm(zeta, -s) ** 2
    report = report_equal(f"minimize_negative(s={s})", total, rhs_val, tol)
    return report, ModalVector(trace, zeta.spectrum, order=s)


def orthogonality_check(u: ModalVector, s: float, v: ModalVector, eta,
                        tol: float = 1e-5) -> CheckReport:
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
    if len(u) != len(v):
        raise ValueError("u and v need matching spectra")
    mask = _active_modes(u, v)
    lam = u.spectrum.eigenvalues[mask][:, None]
    root = np.sqrt(lam)
    b = params.b
    n = _ORTHOGONALITY_NODES
    # the profile side collapsed to floor(s) in {0, 1} operator powers
    t = _apply_operator_power(s, lam, b, params.floor_s)
    if params.ceil_s == 1:
        # gradient part: y^b psi' eta' has the weight exactly cancelled
        grad = _term_derivative(t, lam)
        grad_part = power_weighted_integral(
            lambda y: grad.coef * psi(grad.order, root * y) * eta.d1(y),
            b + grad.expo, _TAIL_SCALE, n)
        mass = power_weighted_integral(
            lambda y: psi(s, root * y) * eta.value(y), b, _TAIL_SCALE, n)
        per_mode = 2.0 * (grad_part + lam[:, 0] * mass)
    else:
        per_mode = 2.0 * power_weighted_integral(
            lambda y: t.coef * psi(t.order, root * y)
            * (-eta.d2(y) - b * eta.d1_over_y(y) + lam * eta.value(y)),
            b, _TAIL_SCALE, n)
    lhs = float(u.coeffs[mask] * v.coeffs[mask] @ per_mode)
    eta0 = float(eta.value(0.0))
    # kernel eigenvalues contribute nothing: 0^s = 0 for s > 0
    rhs = 2.0 * params.d_s * eta0 * float(
        np.sum(u.spectrum.eigenvalues ** s * u.coeffs * v.coeffs))
    return report_equal(f"orthogonality(s={s})", lhs, rhs, tol, abs_tol=1e-8)
