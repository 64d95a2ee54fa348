"""Tests for the discrete spectral model and fractional powers."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracext.spectral import (
    ModalVector,
    Spectrum,
    apply_power,
    build_operator,
    dirichlet_laplacian_1d,
    duality_pairing,
    explicit_spectrum,
    kernel_split,
    neumann_laplacian_1d,
    operator_from_json,
    sobolev_norm,
    tridiag_eigh,
    tridiagonal_spectrum,
)


def test_dirichlet_eigenvalues():
    spec = dirichlet_laplacian_1d(math.pi, 3)
    np.testing.assert_allclose(spec.eigenvalues, [1.0, 4.0, 9.0], rtol=1e-15)
    assert spec.kernel_dim == 0


def test_neumann_eigenvalues_and_kernel():
    spec = neumann_laplacian_1d(math.pi, 3)
    np.testing.assert_allclose(spec.eigenvalues, [0.0, 1.0, 4.0], rtol=1e-15)
    assert spec.kernel_dim == 1


def test_builder_validation():
    with pytest.raises(ValueError):
        dirichlet_laplacian_1d(-1.0, 3)
    with pytest.raises(ValueError):
        dirichlet_laplacian_1d(math.pi, 0)
    with pytest.raises(ValueError):
        explicit_spectrum([1.0, -2.0])
    with pytest.raises(ValueError):
        build_operator("banded", length=1.0, modes=2)


@pytest.mark.parametrize("builder", [dirichlet_laplacian_1d,
                                     neumann_laplacian_1d])
def test_laplacian_rejects_non_integral_mode_count(builder):
    # 2.5 modes used to build 3
    with pytest.raises(ValueError, match="whole number"):
        builder(math.pi, 2.5)
    assert builder(math.pi, 3.0).size == 3


@pytest.mark.parametrize("fields", [{"length": 1.0},
                                    {"length": 1.0, "modes": 2, "extra": 1}],
                         ids=["missing", "unknown"])
def test_build_operator_rejects_missing_and_unknown_fields(fields):
    with pytest.raises(TypeError, match="takes the fields"):
        build_operator("dirichlet_laplacian_1d", **fields)


def test_tridiagonal_two_by_two_by_hand():
    spec, basis = tridiagonal_spectrum([2.0, 2.0], [-1.0])
    np.testing.assert_allclose(spec.eigenvalues, [1.0, 3.0], atol=1e-14)
    assert basis.gram_residual() < 1e-12


@pytest.mark.parametrize("n,seed", [(8, 0), (24, 1), (40, 2)])
def test_ql_against_dense_eigensolver(n, seed):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    w, v = tridiag_eigh(d, e)
    full = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    np.testing.assert_allclose(w, np.linalg.eigvalsh(full),
                               rtol=1e-12, atol=1e-12)
    # columns orthonormal, reconstruction exact
    assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-10
    assert np.max(np.abs(v @ np.diag(w) @ v.T - full)) < 1e-9


@pytest.mark.parametrize("d,e,want", [([3.5], [], [3.5]),
                                     ([2.0, 2.0], [0.0], [2.0, 2.0])])
def test_tridiag_eigh_single_entry_and_exact_tie(d, e, want):
    w, v = tridiag_eigh(d, e)
    np.testing.assert_array_equal(w, want)
    n = len(d)
    full = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-15
    assert np.max(np.abs(v @ np.diag(w) @ v.T - full)) < 1e-15
    with pytest.raises(ValueError):
        tridiag_eigh(d, e + [1.0])


def test_eigenbasis_expands_physical_vectors():
    spec, basis = tridiagonal_spectrum([2.0, 2.0, 2.0], [-1.0, -1.0])
    x = np.array([1.0, 0.5, -0.25])
    u = basis.to_modal(spec, x)
    np.testing.assert_allclose(basis.matrix @ u.coeffs, x, atol=1e-12)


def test_sobolev_norm_hand_values():
    u = ModalVector(np.array([1.0, 0.0, 1.0]), explicit_spectrum([1, 4, 9]))
    assert sobolev_norm(u, 1.0) == pytest.approx(math.sqrt(10.0), rel=1e-15)
    assert sobolev_norm(u, 0.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    v = ModalVector(np.array([0.0, 1.0]), explicit_spectrum([1, 4]))
    assert sobolev_norm(v, -1.0) == pytest.approx(0.5, rel=1e-15)


def test_apply_power_hand_values():
    u = ModalVector(np.array([1.0, 0.0, 1.0]), explicit_spectrum([1, 4, 9]))
    np.testing.assert_allclose(apply_power(u, 0.5).coeffs, [1.0, 0.0, 3.0])
    np.testing.assert_allclose(apply_power(u, 0.0).coeffs, u.coeffs)
    w = ModalVector(np.array([1.0]), explicit_spectrum([4.0]))
    assert apply_power(w, -0.5).coeffs[0] == pytest.approx(0.5)


def test_apply_power_zero_coefficient_on_overflowing_mode():
    # lambda^t = inf times a zero coefficient used to give nan
    u = ModalVector(np.array([1.0, 0.0]), explicit_spectrum([1.0, 1e300]))
    assert apply_power(u, 2.0).coeffs.tolist() == [1.0, 0.0]


def test_sobolev_norm_near_the_largest_double():
    # the power-of-two scale 2^1024 of the peak used to overflow
    u = ModalVector(np.array([1.7e308, 1.0]), explicit_spectrum([1.0, 2.0]))
    assert sobolev_norm(u, 0.0) == pytest.approx(1.7e308, rel=1e-15)
    assert sobolev_norm(u, 1.0) == pytest.approx(1.7e308, rel=1e-15)


def test_apply_power_kernel_semantics():
    spec = neumann_laplacian_1d(math.pi, 3)
    u = ModalVector(np.array([3.0, 1.0, 2.0]), spec)
    assert apply_power(u, 0.5).coeffs[0] == 0.0
    with pytest.raises(ValueError, match="kernel mode"):
        apply_power(u, -0.5)
    with pytest.raises(ValueError, match="kernel mode"):
        sobolev_norm(u, -1.0)
    # zero kernel coefficient makes negative powers fine
    v = ModalVector(np.array([0.0, 1.0, 2.0]), spec)
    apply_power(v, -0.5)


def test_kernel_split():
    spec = neumann_laplacian_1d(math.pi, 3)
    u = ModalVector(np.array([3.0, 1.0, 2.0]), spec)
    pi_u, perp = kernel_split(u)
    np.testing.assert_allclose(pi_u.coeffs, [3.0, 0.0, 0.0])
    np.testing.assert_allclose(perp.coeffs, [0.0, 1.0, 2.0])
    np.testing.assert_allclose(pi_u.coeffs + perp.coeffs, u.coeffs)
    assert duality_pairing(pi_u, perp) == 0.0
    # trivial kernel: projection is zero
    w = ModalVector(np.ones(2), explicit_spectrum([1.0, 2.0]))
    assert np.all(kernel_split(w)[0].coeffs == 0.0)


def test_duality_pairing():
    spec = explicit_spectrum([1.0, 4.0])
    u = ModalVector(np.array([1.0, 1.0]), spec)
    zeta = apply_power(u, 0.5)
    assert duality_pairing(zeta, u) == pytest.approx(3.0, rel=1e-15)
    zero = ModalVector(np.zeros(2), spec)
    assert duality_pairing(zeta, zero) == 0.0
    # <L^s u, u> = |u|^2_{H^s}
    assert duality_pairing(zeta, u) == pytest.approx(
        sobolev_norm(u, 0.5) ** 2, rel=1e-12)
    with pytest.raises(ValueError):
        duality_pairing(zeta, ModalVector(np.ones(3),
                                          explicit_spectrum([1, 2, 3])))


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=6),
       st.floats(-1.5, 1.5), st.floats(-1.0, 1.0))
@example([1.6713442725241844e-162, 0.0], -1.0, 0.0)  # squares underflow
@settings(max_examples=60, deadline=None)
def test_power_shifts_the_sobolev_ladder(coeffs, t, sigma):
    lam = np.linspace(0.5, 3.0, len(coeffs))
    u = ModalVector(np.array(coeffs), explicit_spectrum(lam))
    lhs = sobolev_norm(apply_power(u, t), sigma)
    rhs = sobolev_norm(u, sigma + 2.0 * t)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=6), st.floats(-1, 1))
@settings(max_examples=60, deadline=None)
def test_power_roundtrip_identity(coeffs, t):
    lam = np.linspace(0.7, 4.0, len(coeffs))
    u = ModalVector(np.array(coeffs), explicit_spectrum(lam))
    back = apply_power(apply_power(u, t), -t)
    np.testing.assert_allclose(back.coeffs, u.coeffs, rtol=1e-12, atol=1e-14)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(np.array([2.0, 1.0]))  # not sorted
    with pytest.raises(ValueError):
        Spectrum(np.array([-1.0, 1.0]))
    with pytest.raises(ValueError):
        Spectrum(np.array([]))
    with pytest.raises(ValueError):
        ModalVector(np.ones(3), explicit_spectrum([1.0, 2.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_spectrum_and_coefficients_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        explicit_spectrum([1.0, bad])
    with pytest.raises(ValueError, match="finite"):
        Spectrum(np.array([bad]))
    with pytest.raises(ValueError, match="finite"):
        ModalVector(np.array([bad, 1.0]), explicit_spectrum([1.0, 2.0]))
    # a power that overflows cannot hand on an infinite vector either
    with pytest.raises(ValueError, match="finite"):
        apply_power(ModalVector(np.ones(1), explicit_spectrum([1e300])), 2.0)


def test_json_descriptors():
    spec, basis = operator_from_json(
        '{"kind":"dirichlet_laplacian_1d","length":3.141592653589793,'
        '"modes":64}')
    assert basis is None
    assert spec.size == 64
    assert spec.eigenvalues[0] == pytest.approx(1.0, rel=1e-12)
    spec2, _ = operator_from_json('{"kind":"explicit_eigenvalues",'
                                  '"values":[1.0,4.0]}')
    np.testing.assert_allclose(spec2.eigenvalues, [1.0, 4.0])
    spec3, basis3 = operator_from_json(
        json.dumps({"kind": "tridiagonal", "diag": [2.0, 2.0],
                    "off": [-1.0]}))
    assert basis3 is not None
    # a descriptor without a kind used to die with a bare KeyError
    with pytest.raises(ValueError, match="'kind' field"):
        operator_from_json('{"length": 1, "modes": 2}')
    # spectra serialise back to explicit descriptors
    desc = json.loads(spec2.to_json())
    assert desc["kind"] == "explicit_eigenvalues"
    np.testing.assert_allclose(desc["values"], [1.0, 4.0])
