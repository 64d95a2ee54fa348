"""Tests for the discrete spectral model and fractional powers."""

import json
import math
import re
import warnings

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
    sobolev_norm,
    tridiag_eigh,
    tridiagonal_spectrum,
)
from fracext.suite import RunConfig, run_checks


def test_dirichlet_eigenvalues():
    spec = dirichlet_laplacian_1d(math.pi, 3)
    np.testing.assert_allclose(spec.eigenvalues, [1.0, 4.0, 9.0], rtol=1e-15)
    assert spec.kernel_dim == 0


def test_neumann_eigenvalues_and_kernel():
    spec = neumann_laplacian_1d(math.pi, 3)
    np.testing.assert_allclose(spec.eigenvalues, [0.0, 1.0, 4.0], rtol=1e-15)
    assert spec.kernel_dim == 1


@pytest.mark.parametrize("builder", [dirichlet_laplacian_1d,
                                     neumann_laplacian_1d])
def test_laplacian_rejects_non_integral_mode_count(builder):
    # 2.5 modes used to build 3
    with pytest.raises(ValueError, match="whole number"):
        builder(math.pi, 2.5)
    assert builder(math.pi, 3.0).size == 3


_NORMAL_RANGE = (np.finfo(float).tiny, np.finfo(float).max)


@pytest.mark.parametrize("builder", [dirichlet_laplacian_1d,
                                     neumann_laplacian_1d])
@pytest.mark.parametrize("length,modes", [
    (math.inf, 3), (math.nan, 3), (0.0, 3), (-1.0, 3),
    (1e308, 2), (1e200, 3), (1e160, 2), (1e-300, 2),
], ids=["inf", "nan", "zero", "negative", "underflow-1e308", "underflow-1e200",
        "subnormal-1e160", "overflow-1e-300"])
def test_laplacian_refuses_a_length_outside_the_double_range(
        builder, length, modes):
    # inf gave three zero eigenvalues (kernel_dim 3), 1e308 and 1e200 all
    # kernel modes, 1e160 subnormal eigenvalues, and 1e-300 warned of an
    # overflow in square
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"length {length!r}")):
            builder(length, modes)


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-200, 1e200), st.integers(1, 64))
@example(1.4e-154 * 64 * math.pi, 64)  # the largest eigenvalue near the top
@example(math.pi / 1.5e-154, 2)  # the smallest eigenvalue near the bottom
def test_laplacian_kernel_is_fixed_by_the_boundary_condition(length, modes):
    # a length either is refused, or leaves every positive eigenvalue a
    # normal double: no kernel for Dirichlet, one mode for Neumann
    for builder, kernel in ((dirichlet_laplacian_1d, 0),
                            (neumann_laplacian_1d, 1)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                spec = builder(length, modes)
            except ValueError as err:
                assert f"length {length!r}" in str(err)
                continue
        assert spec.kernel_dim == min(kernel, modes)
        lo, hi = _NORMAL_RANGE
        assert np.all((spec.positive >= lo) & (spec.positive <= hi))


@pytest.mark.parametrize("fields", [{"length": 1.0},
                                    {"length": 1.0, "modes": 2, "extra": 1}],
                         ids=["missing", "unknown"])
def test_build_operator_rejects_missing_and_unknown_fields(fields):
    with pytest.raises(TypeError,
                       match=r"takes the fields \('length', 'modes'\)"):
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


def test_sobolev_norm_with_weights_beyond_the_largest_double():
    # the weight 1.7e308^1 fits, but the sum of the weighted squares used to
    # be formed as lambda^sigma (u/scale)^2 and overflowed to inf
    u = ModalVector(np.array([1.0, 1.0]), explicit_spectrum([1e308, 1.7e308]))
    assert sobolev_norm(u, 1.0) == pytest.approx(math.sqrt(2.7) * 1e154,
                                                 rel=1e-15)
    assert sobolev_norm(u, 1.5) == pytest.approx(
        1e231 * math.sqrt(1.0 + 1.7 ** 1.5), rel=1e-15)
    assert sobolev_norm(u, 2.0) == math.inf  # 1.97e308
    assert sobolev_norm(u, -1.0) == pytest.approx(
        1e-154 * math.sqrt(1.0 + 1.0 / 1.7), rel=1e-15)


def test_sobolev_norm_overflow_comes_back_as_inf_without_a_warning():
    # at sigma = 1000.5 the magnitude 9^500.25 is inf and 4^500.25 about
    # 1e301, whose square overflowed outside np.errstate; the norm is
    # documented to come back as inf, and the isometry check names it
    u = ModalVector(np.ones(3), explicit_spectrum([1.0, 4.0, 9.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sobolev_norm(u, 1000.5) == math.inf
        [failure] = run_checks(["isometry"], RunConfig(s_values=(1000.5,)))
    assert failure.error == ("ValueError: curve_isometry(s=1000.5) "
                             "overflows: the result must be finite")


def test_power_beyond_the_double_range_with_a_finite_product():
    # lambda^t alone over- or underflows, lambda^t u_j does not: the
    # products used to come back as inf (or raise) and as 0
    big = ModalVector(np.array([1e-200]), explicit_spectrum([1e300]))
    assert sobolev_norm(big, 3.0) == pytest.approx(1e250, rel=1e-13)
    assert apply_power(big, 1.5).coeffs[0] == pytest.approx(1e250, rel=1e-13)
    tiny = ModalVector(np.array([-1e300]), explicit_spectrum([1e-200]))
    assert sobolev_norm(tiny, 3.0) == pytest.approx(1e0, rel=1e-13)
    assert apply_power(tiny, 2.0).coeffs[0] == pytest.approx(-1e-100,
                                                             rel=1e-13)
    # the products themselves still leave the range
    assert sobolev_norm(big, 5.0) == math.inf
    with pytest.raises(ValueError, match="finite"):
        apply_power(big, 2.0)


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
    # equal length is not enough: the eigenvalues must match
    with pytest.raises(ValueError, match="matching spectra"):
        duality_pairing(zeta, ModalVector(np.ones(2),
                                          explicit_spectrum([1.0, 2.0])))


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_spectrum_and_coefficients_rejected(bad):
    with pytest.raises(ValueError, match="eigenvalues must be finite"):
        explicit_spectrum([1.0, bad])
    with pytest.raises(ValueError, match="eigenvalues must be finite"):
        Spectrum(np.array([bad]))
    with pytest.raises(ValueError, match="coefficients must be finite"):
        ModalVector(np.array([bad, 1.0]), explicit_spectrum([1.0, 2.0]))
    # a power that overflows cannot hand on an infinite vector either
    with pytest.raises(ValueError, match=r"L\^2\.0 u overflows: the result "
                                         r"must be finite"):
        apply_power(ModalVector(np.ones(1), explicit_spectrum([1e300])), 2.0)
    # nor can a non-finite order of the norm or the power
    u = ModalVector(np.array([1.0, 2.0]), explicit_spectrum([1.0, 4.0]))
    with pytest.raises(ValueError, match=f"sigma, got {bad}"):
        sobolev_norm(u, bad)
    with pytest.raises(ValueError, match=f"power t, got {bad}"):
        apply_power(u, bad)


def test_json_descriptors():
    # a parsed descriptor is build_operator's keywords; malformed ones are
    # the CLI reader's usage errors (tests/test_cli.py)
    spec, basis = build_operator(**json.loads(
        '{"kind":"dirichlet_laplacian_1d","length":3.141592653589793,'
        '"modes":64}'))
    assert basis is None
    assert spec.size == 64
    assert spec.eigenvalues[0] == pytest.approx(1.0, rel=1e-12)
    spec2, _ = build_operator(**json.loads('{"kind":"explicit_eigenvalues",'
                                           '"values":[1.0,4.0]}'))
    np.testing.assert_allclose(spec2.eigenvalues, [1.0, 4.0])
    spec3, basis3 = build_operator(**json.loads(
        json.dumps({"kind": "tridiagonal", "diag": [2.0, 2.0],
                    "off": [-1.0]})))
    assert basis3 is not None
    # spectra serialise back to explicit descriptors
    desc = json.loads(spec2.to_json())
    assert desc["kind"] == "explicit_eigenvalues"
    np.testing.assert_allclose(desc["values"], [1.0, 4.0])
