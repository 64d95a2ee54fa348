"""The one-off named refusals of the library and the command line, one row
each.

A library row is ``(id, call, exception, match)``: ``call()`` raises
``exception`` with a message that ``match`` searches.  A CLI row is
``(id, argv, exit_code, named)`` for ``refusal.assert_cli_refusal``:
``cli.main(argv)`` returns ``exit_code``, prints nothing on stdout and one
line on stderr, which starts with ``usage error`` (exit 2) or ``domain
error`` (exit 3) and contains ``named``.  Warnings are errors in every test
(pyproject.toml), so a numpy warning ahead of a refusal fails its row.

Refusals that are already a parametrized table of one kind of input stay
in the module of the code they test, under their own names; the CLI ones
run through the same ``assert_cli_refusal``.  So do refusals whose tests
assert more (a time bound, a solve that must not run, a file written under
tmp_path, a value next to the refusal).
"""

import math

import numpy as np
import pytest

from fracext.extension import (
    derivative_curve,
    extend,
    ode_residual,
    taylor_expand,
    trace0,
)
from fracext.special import (
    psi_deriv,
    psi_fourier,
    psi_taylor_remainder,
    seminorm_sq,
)
from fracext.spectral import (
    ModalVector,
    Spectrum,
    build_operator,
    dirichlet_laplacian_1d,
    explicit_spectrum,
)
from fracext.variational import (
    minimize_curve,
    minimize_negative,
    minimize_profile,
    orthogonality_check,
)
from fracext.weighted import (
    GaussianBump,
    PsiProfile,
    mode_energy,
    power_weighted_integral,
    report_equal,
    xi_moment,
)
from refusal import assert_cli_refusal


def _u(eigenvalues=(1.0, 4.0), coeffs=None):
    """Data on an explicit spectrum, all ones unless ``coeffs`` is given."""
    coeffs = np.ones(len(eigenvalues)) if coeffs is None else coeffs
    return ModalVector(np.array(coeffs, dtype=float),
                       explicit_spectrum(eigenvalues))


LIBRARY = [
    # extension
    ("extend-integer-order", lambda: extend(_u([1.0]), 2.0), ValueError,
     r"order s must be non-integer, got 2\.0"),
    ("extend-empty-grid", lambda: extend(_u([1.0]), 0.5, np.array([])),
     ValueError, r"non-empty 1-D array, got shape \(0,\)"),
    ("extend-decreasing-grid",
     lambda: extend(_u([1.0]), 0.5, np.array([0.3, 0.2])), ValueError,
     "grid must be strictly increasing and positive"),
    ("derivative_curve-inadmissible-order",
     lambda: derivative_curve(_u([1.0]), 1.3, 3, np.array([1.0])), ValueError,
     r"derivative order 3 is not admissible at s=1\.3"),
    ("derivative_curve-overflow",
     lambda: derivative_curve(_u([1.0, 1e200]), 2.5, 4), ValueError,
     r"derivative_curve\(s=2\.5, k=4\) overflows"),
    ("trace0-bare-samples", lambda: trace0(derivative_curve(
        _u([1.0]), 0.3, 1, np.geomspace(1e-5, 1, 20))), TypeError,
     "ExtensionCurve"),
    ("trace0-two-points",
     lambda: trace0(extend(_u([1.0]), 0.5, np.array([1e-5, 1e-4]))),
     ValueError, "at least three points"),
    ("trace0-coarse-grid",
     lambda: trace0(extend(_u([1.0]), 0.5, np.geomspace(0.5, 10.0, 20))),
     ValueError, r"grid too coarse near 0 .* first point 5\.000e-01"),
    # (y/y0)^p of the fit leaves the double range: no numpy warning first
    *[(f"trace0-abscissae-too-far-apart-{case}",
       lambda s=s, grid=grid: trace0(extend(_u([1.0]), s, np.array(grid))),
       ValueError, r"power_fit_limit: the abscissae \[.*\] lie too far apart")
      for case, s, grid in (("power", 2.5, [1e-100, 1e-10, 1.0]),
                            ("ratio", 1.7, [5e-324, 1e-10, 1.0]))],
    ("taylor_expand-order-below-one", lambda: taylor_expand(_u([1.0]), 0.5, 1),
     ValueError, r"taylor_expand needs s > 1, got s=0\.5"),
    ("taylor_expand-k-above-floor",
     lambda: taylor_expand(_u([1.0]), 2.5, 3), ValueError,
     r"expansion order k=3 outside 1\.\.floor\(s\)"),
    ("ode_residual-near-origin", lambda: ode_residual(_u([1.0]), 0.5, 0.01),
     ValueError, r"ode_residual needs finite y > 0\.05, got y=0\.01"),

    # special
    *[(f"psi_deriv-overflow-{case}", lambda y=y: psi_deriv(0.01, y, 1),
       ValueError, r"psi_deriv\(s=0\.01, k=1\) overflows")
      for case, y in (("scalar", 5e-324), ("array", np.array([1.0, 5e-324])))],
    ("psi_fourier-negative-order", lambda: psi_fourier(-1, 0), ValueError,
     "psi_fourier requires s > 0"),
    ("seminorm_sq-zero-order", lambda: seminorm_sq(0, 0.1), ValueError,
     "seminorm_sq requires s > 0"),
    ("psi_fourier-infinite-order", lambda: psi_fourier(math.inf, 1.0),
     ValueError, "psi_fourier requires s > 0.*inf"),
    ("seminorm_sq-infinite-order", lambda: seminorm_sq(math.inf, 0.0),
     ValueError, "seminorm_sq requires s > 0.*inf"),
    ("psi_taylor_remainder-cancellation",
     lambda: psi_taylor_remainder(2.5, 20.0, 1), ValueError,
     r"psi_taylor_remainder\(s=2\.5, y=20\.0, k=1\) loses more than 4 "
     r"digits to cancellation"),
    ("psi_taylor_remainder-above-the-ceiling",
     lambda: psi_taylor_remainder(1e5 + 0.5, 0.1, 0), ValueError,
     r"0 < s <= 100000, got 100000\.5"),

    # spectral
    ("dirichlet_laplacian_1d-no-mode",
     lambda: dirichlet_laplacian_1d(math.pi, 0),
     ValueError, "need a whole number of modes >= 1, got 0"),
    ("explicit_spectrum-negative", lambda: explicit_spectrum([1.0, -2.0]),
     ValueError, "eigenvalues must be nondecreasing"),
    ("build_operator-unknown-kind",
     lambda: build_operator("banded", length=1.0, modes=2), ValueError,
     "unknown operator kind 'banded'"),
    ("spectrum-unsorted", lambda: Spectrum(np.array([2.0, 1.0])), ValueError,
     "eigenvalues must be nondecreasing"),
    ("spectrum-negative", lambda: Spectrum(np.array([-1.0, 1.0])),
     ValueError, "eigenvalues must be nonnegative"),
    ("spectrum-empty", lambda: Spectrum(np.array([])), ValueError,
     "spectrum needs at least one eigenvalue"),
    ("modal-vector-length", lambda: ModalVector(np.ones(3),
                                                explicit_spectrum([1.0, 2.0])),
     ValueError, r"coefficient length \(3,\) does not match spectrum size 2"),

    # variational
    ("minimize_profile-order-above-one", lambda: minimize_profile(1.5, 1.0),
     ValueError, r"implemented for s in \(0,1\); got s=1\.5"),
    ("minimize_curve-kernel-coefficient",
     lambda: minimize_curve(_u([0.0, 1.0]), 0.5, n_nodes=200), ValueError,
     "zero kernel coefficients"),
    ("minimize_negative-kernel-coefficient",
     lambda: minimize_negative(_u([0.0, 1.0]), 0.5), ValueError,
     "kernel mode 0"),
    ("orthogonality_check-sizes", lambda: orthogonality_check(
        _u(), 0.5, _u([1.0]), GaussianBump()), ValueError, "matching spectra"),
    ("orthogonality_check-spectra", lambda: orthogonality_check(
        _u([1.0, 4.0, 9.0]), 0.5, _u([1.0, 2.0, 3.0]), GaussianBump()),
     ValueError, "matching spectra"),

    # weighted
    ("mode_energy-k=0", lambda: mode_energy(PsiProfile(0.5), 1.0, 0, 0.0),
     ValueError, "energy order k must be >= 1"),
    ("mode_energy-negative-lam",
     lambda: mode_energy(PsiProfile(0.5), -1.0, 1, 0.0), ValueError,
     r"lam > 0 and finite, got lam=-1\.0"),
    ("mode_energy-sampled-k=2",
     lambda: mode_energy(GaussianBump(), 1.0, 2, 0.0), ValueError,
     "sampled profiles only support k = 1"),
    ("mode_energy-mismatched-weight",
     lambda: mode_energy(PsiProfile(2.5), 1.0, 2, 0.3), ValueError,
     r"grid weight matched to the order: b=0\.3 vs required 0\.0"),
    ("mode_energy-too-many-powers",
     lambda: mode_energy(PsiProfile(2.5), 1.0, 7, 0.0), ValueError,
     r"\(D_b\+lam\)\^3 of the order-2\.5 profile has no analytic collapse"),
    *[(f"power_weighted_integral-node-count-{n}",
       lambda n=n: power_weighted_integral(lambda y: y, 0.0, 1.0, n),
       ValueError, rf"whole number of nodes, got n={n}")
      for n in (math.inf, math.nan, 2.5)],
    # the moment is finite for q in (-1, 4s + 1) only
    ("xi_moment-divergent", lambda: xi_moment(0.5, 5.0), ValueError,
     "diverges"),
    # JSON has no NaN or Infinity token: fail like allow_nan=False
    ("to_json-nan-comparison",
     lambda: report_equal("x", math.nan, 1.0).to_json(), ValueError,
     "non-finite"),
]


@pytest.mark.parametrize("call, exception, match",
                         [row[1:] for row in LIBRARY],
                         ids=[row[0] for row in LIBRARY])
def test_library_refusal(call, exception, match):
    with pytest.raises(exception, match=match):
        call()


_EXTEND = ("extend", "--op", "explicit:1", "--u", "1", "--s", "0.5")

CLI = [
    ("apply-missing-u", ("apply", "--op", "explicit:1"), 2, "missing --u"),
    ("extend-grid-order", (*_EXTEND, "--grid", "2:1:0"), 2,
     "bad grid spec '2:1:0': need 0 < y_min < y_max finite"),
    # default_grid needs n >= 3; the CLI grid follows the same rule
    ("extend-two-point-grid", (*_EXTEND, "--grid", "0.001:1:2"), 2,
     "n >= 3"),
    ("apply-unread-flags",
     ("apply", "--op", "explicit:1,4", "--u", "1,1", "--s", "0.5",
      "--sigma", "banana", "--tol", "nan"), 2,
     "unrecognized arguments: --sigma banana --tol nan"),
    ("verify-operand-flags",
     ("verify", "--checks", "holder_slope", "--op", "banana", "--u",
      "1,2,3"), 2, "unrecognized arguments: --op banana --u 1,2,3"),
    ("verify-unknown-check", ("verify", "--checks", "bogus"), 2,
     "unknown check name(s) ['bogus']; valid names: energy, isometry, "
     "virial, dtn, trace0, taylor, ode, trace_ineq, parts, fourier, "
     "minimize, orthogonality, nonexpansive, commute, holder_slope"),
    # the virial split needs floor(s) even
    ("verify-no-check-left", ("verify", "--checks", "virial", "--s", "1.5"),
     2, "leave no check to run"),
    # its fixed (s, xi) pairs span two orders, so it runs at no requested one
    ("verify-fourier-at-an-order",
     ("verify", "--checks", "fourier", "--s", "0.5"), 2,
     "leave no check to run"),
    ("operator-unknown-kind",
     ("apply", "--op", '{"kind":"banded","values":[1.0,4.0]}', "--u", "1,1",
      "--s", "0.5"), 2, "unknown operator kind 'banded'"),
    ("apply-negative-power-on-kernel",
     ("apply", "--op", "neumann:pi:3", "--u", "1,1,1", "--s", "-0.5"), 3,
     "kernel mode 0"),
    ("extend-integer-order", ("extend", "--op", "explicit:1", "--u", "1",
                              "--s", "2"), 3,
     "order s must be non-integer, got 2.0"),
    # sorting the eigenvalues would pair u = (1, 0) with (1, 4), not (4, 1)
    ("apply-unsorted-spectrum",
     ("apply", "--op", "explicit:4,1", "--u", "1,0", "--s", "1"), 3,
     "eigenvalues must be nondecreasing"),
    ("operator-non-integral-modes",
     ("apply", "--op",
      '{"kind":"dirichlet_laplacian_1d","length":3,"modes":2.5}', "--u",
      "1,1,1", "--s", "0.5"), 3, "need a whole number of modes >= 1, got 2.5"),
    # a descriptor field of the wrong JSON type is named before any build
    *[(f"operator-field-type-{field}", ("apply", "--op", desc, "--u", u,
                                        "--s", "0.5"), 2,
       f"field {field!r} must be {want}, got {got}")
      for field, desc, u, want, got in (
          ("length", '{"kind":"dirichlet_laplacian_1d","length":"pi",'
                     '"modes":2}', "1,1", "a number", "'pi'"),
          ("modes", '{"kind":"dirichlet_laplacian_1d","length":3,'
                    '"modes":true}', "1", "a number", "True"),
          ("diag", '{"kind":"tridiagonal","diag":[2,"x"],"off":[-1]}', "1,1",
           "a list of numbers", "[2, 'x']"),
          ("values", '{"kind":"explicit_eigenvalues","values":[[1,2]]}',
           "1,1", "a list of numbers", "[[1, 2]]"))],
    ("minimize-too-few-mesh-nodes",
     ("minimize", "--op", "explicit:1", "--u", "1", "--s", "1e-6"), 3,
     "the graded FE mesh at s=1e-06 keeps 2 of 2000 nodes, fewer than the 3 "
     "a solve needs: it drops every node below 1e-150 of its range"),
]


@pytest.mark.parametrize("argv, exit_code, named", [row[1:] for row in CLI],
                         ids=[row[0] for row in CLI])
def test_cli_refusal(capsys, argv, exit_code, named):
    assert_cli_refusal(capsys, argv, exit_code, named)
