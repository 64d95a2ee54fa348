"""Discrete spectral model: eigendata, Sobolev scale, fractional powers.

A positive (or nonnegative) self-adjoint operator with discrete spectrum is
represented purely through its eigenvalues; vectors live in the eigenbasis
as coefficient arrays.  Fractional powers act diagonally,

    (L^t u)_j = lambda_j^t u_j,

and the sigma-order Sobolev norm is (sum_j lambda_j^sigma u_j^2)^{1/2} over
the non-kernel modes.  Operators with a kernel are handled by splitting off
the zero modes; negative powers touching a nonzero kernel coefficient are a
hard error rather than a NaN.

Spectra and modal vectors are immutable after construction and all
operations are read-only, so everything here is thread-safe.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Spectrum",
    "ModalVector",
    "EigenBasis",
    "dirichlet_laplacian_1d",
    "neumann_laplacian_1d",
    "explicit_spectrum",
    "tridiagonal_spectrum",
    "build_operator",
    "sobolev_norm",
    "apply_power",
    "kernel_split",
    "duality_pairing",
    "tridiag_eigh",
]


@dataclass(frozen=True)
class Spectrum:
    """Nondecreasing eigenvalues of a nonnegative operator.

    ``kernel_dim``, derived from them, counts the leading zero eigenvalues
    (0 for positive definite operators).
    """

    eigenvalues: np.ndarray
    kernel_dim: int = field(init=False)

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", vals)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("spectrum needs at least one eigenvalue")
        if not np.all(np.isfinite(vals)):
            raise ValueError("eigenvalues must be finite")
        if np.any(np.diff(vals) < 0):
            raise ValueError("eigenvalues must be nondecreasing")
        if vals[0] < 0:
            raise ValueError("eigenvalues must be nonnegative")
        # nondecreasing and nonnegative: the zeros lead, the rest is positive
        object.__setattr__(self, "kernel_dim",
                           int(np.count_nonzero(vals == 0.0)))

    @property
    def size(self):
        return self.eigenvalues.size

    @property
    def positive(self):
        """Eigenvalues with the kernel stripped."""
        return self.eigenvalues[self.kernel_dim:]

    def to_json(self) -> str:
        return json.dumps({"kind": "explicit_eigenvalues",
                           "values": self.eigenvalues.tolist()})


@dataclass(frozen=True)
class ModalVector:
    """Coefficients of a vector in the eigenbasis of a given spectrum."""

    coeffs: np.ndarray
    spectrum: Spectrum

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", c)
        if c.shape != (self.spectrum.size,):
            raise ValueError(
                f"coefficient length {c.shape} does not match spectrum size "
                f"{self.spectrum.size}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")

    def __len__(self):
        return self.coeffs.size


@dataclass(frozen=True)
class EigenBasis:
    """Orthonormal eigenvectors of a matrix-backed operator (column j <-> lambda_j)."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           np.asarray(self.matrix, dtype=float))

    def gram_residual(self):
        m = self.matrix
        return float(np.max(np.abs(m.T @ m - np.eye(m.shape[1]))))

    def to_modal(self, spectrum: Spectrum, values) -> ModalVector:
        """Expand physical-coordinate values in the eigenbasis."""
        coeffs = self.matrix.T @ np.asarray(values, dtype=float)
        return ModalVector(coeffs, spectrum)


# ---------------------------------------------------------------------------
# builders


_TINY = np.finfo(float).tiny
_HUGE = np.finfo(float).max


def _laplacian_1d(length, modes, first):
    """Eigenvalues (j pi / L)^2, j = first .. first + modes - 1, of
    -d^2/dx^2 on (0, L).  A length that is not finite and positive, or that
    puts a positive eigenvalue outside the normal double range, is refused:
    it would turn modes into kernel modes or overflow."""
    if not 0.0 < length < math.inf:
        raise ValueError(f"interval length must be positive and finite, "
                         f"got length {length!r}")
    if modes < 1 or modes != int(modes):
        raise ValueError(f"need a whole number of modes >= 1, got {modes}")
    last = first + int(modes) - 1
    # the extreme positive eigenvalues on Python floats, rounded as the
    # array rounds them and with no warning (x * x, as x ** 2 raises)
    lo, hi = max(first, 1) * math.pi / length, last * math.pi / length
    if last and not (_TINY <= lo * lo and hi * hi <= _HUGE):
        raise ValueError(f"interval length must leave the eigenvalues "
                         f"(j pi / L)^2 in [{_TINY:g}, {_HUGE:g}], got "
                         f"length {length!r}")
    j = np.arange(first, last + 1)
    return Spectrum((j * math.pi / length) ** 2)


def dirichlet_laplacian_1d(length: float, modes: int) -> Spectrum:
    """Eigenvalues (j pi / L)^2, j = 1..modes, of -d^2/dx^2 with zero BCs."""
    return _laplacian_1d(length, modes, 1)


def neumann_laplacian_1d(length: float, modes: int) -> Spectrum:
    """Eigenvalues 0, (pi/L)^2, (2 pi/L)^2, ... with the constant mode first."""
    return _laplacian_1d(length, modes, 0)


def explicit_spectrum(values) -> Spectrum:
    """Spectrum of nondecreasing eigenvalues; unsorted input is rejected,
    as sorting would detach them from the coefficients paired with them."""
    return Spectrum(values)


def tridiag_eigh(diag, off):
    """Eigen-decomposition of a symmetric tridiagonal matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` in ascending order and
    orthonormal eigenvectors in the columns of ``v``, from
    ``numpy.linalg.eigh`` on the dense matrix.
    """
    d = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    if off.shape != (max(d.size - 1, 0),):
        raise ValueError("off-diagonal must have length n - 1")
    return np.linalg.eigh(np.diag(d) + np.diag(off, 1) + np.diag(off, -1))


def tridiagonal_spectrum(diag, off):
    """Spectrum plus eigenbasis of a symmetric tridiagonal operator."""
    w, v = tridiag_eigh(diag, off)
    if w[0] < -1e-12 * max(1.0, abs(w[-1])):
        raise ValueError("tridiagonal operator is not nonnegative")
    w = np.maximum(w, 0.0)
    return Spectrum(w), EigenBasis(v)


# descriptor kind -> (fields, builder of a Spectrum or (Spectrum, EigenBasis))
_BUILDERS = {
    "dirichlet_laplacian_1d": (("length", "modes"), dirichlet_laplacian_1d),
    "neumann_laplacian_1d": (("length", "modes"), neumann_laplacian_1d),
    "tridiagonal": (("diag", "off"), tridiagonal_spectrum),
    "explicit_eigenvalues": (("values",), explicit_spectrum),
}


def build_operator(kind: str, **params):
    """Dispatch on the operator descriptor kind.

    Returns ``(Spectrum, EigenBasis | None)``; only the matrix-backed
    ``tridiagonal`` kind carries a basis.  An unknown kind is a ValueError;
    a missing or unknown field is a TypeError, as for a call with the wrong
    keyword arguments.
    """
    if kind not in _BUILDERS:
        raise ValueError(f"unknown operator kind {kind!r}; expected one of "
                         f"{tuple(_BUILDERS)}")
    fields, builder = _BUILDERS[kind]
    if sorted(params) != sorted(fields):
        raise TypeError(f"operator kind {kind!r} takes the fields "
                        f"{fields}, got {tuple(params)}")
    built = builder(**params)
    return built if isinstance(built, tuple) else (built, None)


# ---------------------------------------------------------------------------
# fractional calculus on modal vectors


def _check_kernel_use(u: ModalVector, what: str):
    """Refuse a nonzero coefficient on a kernel mode, where negative
    powers and the identities that leave the kernel out are undefined."""
    bad = np.flatnonzero(u.coeffs[:u.spectrum.kernel_dim])
    if bad.size:
        raise ValueError(
            f"{what} needs zero kernel coefficients: kernel mode {bad[0]} "
            f"(zero eigenvalue) has a nonzero coefficient")


def _check_same_spectrum(what: str, u: ModalVector, v: ModalVector):
    if not np.array_equal(u.spectrum.eigenvalues, v.spectrum.eigenvalues):
        raise ValueError(f"{what} needs vectors on matching spectra: equal "
                         f"eigenvalues, mode by mode")


def _active_modes(u: ModalVector, *others: ModalVector) -> np.ndarray:
    """Mask of the modes with a positive eigenvalue and a nonzero
    coefficient in u and in every further vector on its spectrum."""
    mask = u.spectrum.eigenvalues != 0.0
    for v in (u,) + others:
        mask &= v.coeffs != 0.0
    return mask


def _require_finite(what, *values):
    """ValueError naming the overflow when a value computed under
    ``np.errstate(over="ignore")`` left the floating-point range."""
    if not all(np.all(np.isfinite(v)) for v in values):
        raise ValueError(f"{what} overflows: the result must be finite")


def _scaled_power(lam, t, c):
    """lam^t c per mode (lam > 0, c != 0).  Where lam^t alone leaves the
    normal double range, the product comes from sign(c) exp(t log lam +
    log|c|), which stays finite wherever the product is."""
    with np.errstate(over="ignore", under="ignore"):
        w = lam ** t
        out = w * c
        far = ~((w >= _TINY) & (w <= _HUGE))
        if far.any():
            out[far] = np.sign(c[far]) * np.exp(
                t * np.log(lam[far]) + np.log(np.abs(c[far])))
    return out


def sobolev_norm(u: ModalVector, sigma: float) -> float:
    """Norm of u in the sigma-order ladder space of its spectrum.

    sigma = 0 is the plain Euclidean norm (kernel mass included); for
    sigma != 0 the kernel modes contribute nothing when sigma > 0 and make
    negative orders undefined unless their coefficients vanish.  A norm
    beyond the double range comes back as inf.
    """
    if not math.isfinite(sigma):
        raise ValueError(
            f"sobolev_norm needs a finite order sigma, got {sigma}")
    if sigma < 0.0:
        _check_kernel_use(u, "sobolev_norm with a negative power")
    mask = u.coeffs != 0.0 if sigma == 0.0 else _active_modes(u)
    if not np.any(mask):
        return 0.0
    # the per-mode magnitudes lambda^{sigma/2} |u_j|, not the weights
    # lambda^sigma, which can overflow where the norm is finite
    mag = _scaled_power(u.spectrum.eigenvalues[mask], 0.5 * sigma,
                        np.abs(u.coeffs[mask]))
    # a power-of-two scale is exact: it keeps the squares of magnitudes
    # below about 1e-154 from underflowing, and with 2^(e-1) <= peak the
    # scale itself stays finite up to the largest double
    scale = math.ldexp(1.0, math.frexp(float(np.max(mag)))[1] - 1)
    with np.errstate(over="ignore"):  # only an inf peak (scale 1/2) overflows
        sq = float(np.sum((mag / scale) ** 2))
    return scale * math.sqrt(sq)


def apply_power(u: ModalVector, t: float) -> ModalVector:
    """Coefficient-wise fractional power: (L^t u)_j = lambda_j^t u_j.

    t = 0 is the identity; kernel modes are annihilated for t > 0 and
    rejected (if populated) for t < 0.
    """
    if not math.isfinite(t):
        raise ValueError(f"apply_power needs a finite power t, got {t}")
    if t == 0.0:
        return ModalVector(u.coeffs.copy(), u.spectrum)
    if t < 0.0:
        _check_kernel_use(u, "apply_power with a negative power")
    # a zero coefficient stays 0 even where lambda^t overflows
    mask = _active_modes(u)
    out = np.zeros_like(u.coeffs)
    out[mask] = _scaled_power(u.spectrum.eigenvalues[mask], t, u.coeffs[mask])
    _require_finite(f"L^{t} u", out)
    return ModalVector(out, u.spectrum)


def kernel_split(u: ModalVector):
    """Orthogonal split u = Pi u + u_perp along the kernel of the operator."""
    kd = u.spectrum.kernel_dim
    pi_u = np.zeros_like(u.coeffs)
    pi_u[:kd] = u.coeffs[:kd]
    perp = u.coeffs - pi_u
    return ModalVector(pi_u, u.spectrum), ModalVector(perp, u.spectrum)


def duality_pairing(zeta: ModalVector, v: ModalVector) -> float:
    """Dual pairing <zeta, v> = sum_j zeta_j v_j on one spectrum."""
    _check_same_spectrum("duality_pairing", zeta, v)
    return float(np.dot(zeta.coeffs, v.coeffs))
