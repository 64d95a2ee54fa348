"""Tests for the order rule of the verification suite: every check runs at
its default orders, or at the requested orders inside its domain."""

import math
import warnings

import numpy as np
import pytest

from fracext import special, suite
from fracext.special import trace_constant
from fracext.spectral import ModalVector, apply_power
from fracext.suite import CheckFailure, RunConfig, run_checks
from fracext.weighted import CheckReport


def _restricted(x, names=None):
    return run_checks(names, RunConfig(s_values=(x,)))


def _at_order(report, x):
    # trace_ineq names its reports by the matched weight b = 1 - 2s
    return f"s={x}" in report.name or f"b={1 - 2 * x}" in report.name


@pytest.mark.parametrize("x", [0.05, 0.3, 0.75, 1.25, 2.5, 3.5])
def test_restricted_run_reports_only_at_the_requested_order(x):
    reports = _restricted(x)
    assert reports
    assert not [r for r in reports if isinstance(r, CheckFailure)]
    assert [r.name for r in reports if not _at_order(r, x)] == []


@pytest.mark.parametrize("name,x", [
    ("fourier", 0.5),
    ("virial", 1.5),
    ("orthogonality", 2.5),
    ("minimize", 1.5),
    ("trace_ineq", 1.25),
    ("holder_slope", 0.75),
    ("taylor", 0.5),
])
def test_check_outside_its_domain_runs_nothing(name, x):
    assert _restricted(x, [name]) == []


@pytest.mark.parametrize("name,x,count", [
    ("virial", 0.3, 2),
    ("orthogonality", 1.25, 2),
    ("minimize", 0.05, 4),
    ("trace_ineq", 0.05, 2),
    ("holder_slope", 0.45, 1),
    ("taylor", 1.25, 1),
    ("taylor", 3.5, 1),
    ("parts", 0.05, 1),
])
def test_check_inside_its_domain_runs_at_that_order(name, x, count):
    reports = _restricted(x, [name])
    assert len(reports) == count
    assert all(isinstance(r, CheckReport) and r.passed and _at_order(r, x)
               for r in reports)


def test_minimize_rounding_level_gap_is_a_failed_ratio():
    # close to s = 1 the minimum is about 1e10 and the FE gaps are rounding,
    # one of them exactly 0: the ratio fails, the other reports stand
    x = 0.9999999999
    reports = _restricted(x, ["minimize"])
    assert [r.name for r in reports] == [
        f"minimize_curve(s={x})", f"minimize_refinement_ratio(s={x})",
        f"minimize_negative(s={x})", f"minimize_negative_trace(s={x})"]
    assert all(isinstance(r, CheckReport) for r in reports)
    assert reports[1].passed is False
    assert reports[1].lhs < reports[1].rhs


def test_energy_overflow_names_the_quantity_and_order():
    energy, isometry = _restricted(400.5, ["energy", "isometry"])
    assert energy.error == ("ValueError: energy_identity(s=400.5, lam=10.0) "
                            "overflows: the result must be finite")
    assert isometry.error == ("ValueError: curve_isometry(s=400.5) "
                              "overflows: the result must be finite")


@pytest.mark.parametrize("name,x,limit", [
    ("trace0", 1e-7, "below the floor 1e-06"),
])
def test_library_refusal_is_a_failed_record_naming_its_limit(name, x, limit):
    (record,) = _restricted(x, [name])
    assert isinstance(record, CheckFailure)
    assert record.name == name and limit in record.error


def test_dtn_fails_a_conormal_trace_off_the_measured_limit(monkeypatch):
    # the measured side does not come from conormal_trace: 1e-3 off the
    # closed form, every default report fails
    def off(u, s):
        exact = -trace_constant(s) * apply_power(u, s).coeffs
        return ModalVector(exact * (1.0 + 1e-3), u.spectrum)

    monkeypatch.setattr(suite, "conormal_trace", off)
    reports = run_checks(["dtn"])
    assert len(reports) == 8
    assert not any(r.passed for r in reports)


@pytest.mark.parametrize("x", [0.01, 0.05, 0.9999999999, 1.0000001,
                               2.9999999, 10.3, 100.5, 400.5])
def test_dtn_measures_the_limit_at_every_order(x):
    # within 1e-9 below an integer the conormal trace used to be refused
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = _restricted(x, ["dtn"])
    assert len(reports) == 2
    assert all(isinstance(r, CheckReport) and r.passed for r in reports)


@pytest.mark.parametrize("x", [400.5, 3000.5])
def test_nonexpansive_at_large_order_is_decided_without_overflow(x):
    # the weight lam^sigma overflowed at sigma = s, and the NaN excess it
    # left was dropped, so the report passed on lhs 0 by accident
    (report,) = _restricted(x, ["nonexpansive"])
    assert isinstance(report, CheckReport)
    assert report.passed


@pytest.mark.parametrize("x", [0.5, 1.5])
def test_nonexpansive_reports_the_largest_ratio_of_norms(x):
    # an excess list that started at 0.0 read lhs 0 whenever every column
    # norm stayed below the data norm, and so showed no margin
    (report,) = _restricted(x, ["nonexpansive"])
    assert report.passed and report.rhs == 1.0 and report.rel_err == 0.0
    assert 0.9 < report.lhs < 1.0


def test_nonexpansive_fails_on_a_column_above_the_data_norm(monkeypatch):
    # the fault goes into the profile that the curve builder reads
    monkeypatch.setattr(special, "psi",
                        lambda s, y: np.full(np.shape(y), 1.0 + 1e-9))
    (report,) = _restricted(0.5, ["nonexpansive"])
    assert not report.passed
    assert report.lhs == pytest.approx(1.0 + 1e-9, rel=1e-12)
    assert report.rel_err == pytest.approx(1e-9, rel=1e-3)


@pytest.mark.parametrize("name", ["commute", "nonexpansive"])
def test_curve_checks_make_one_kernel_evaluation_per_order(kernel_calls,
                                                           name):
    # commute extended its data twice for each of 10 vectors, 20 kernel
    # evaluations at s = 1.5; both checks now scale one extend per order
    reports = run_checks([name])
    assert len(reports) == 2 and all(r.passed for r in reports)
    assert len(kernel_calls) == 2


def test_default_run_makes_at_most_37_kernel_evaluations(kernel_calls):
    # 56 before nonexpansive and commute shared one extend per order; a
    # memory keyed by the climbed order alone, which direct calls at the
    # first-derivative order miss, made 45.  The memory is keyed by the
    # order and kernel pair of the profile it holds: the run's 8 hits are
    # psi calls at s = 1/2, the companion of the climb to 1/2
    reports = run_checks()
    assert len(reports) == 80 and all(r.passed for r in reports)
    assert len(kernel_calls) <= 37


def test_taylor_remainder_of_nan_fails_with_a_nan_error(monkeypatch):
    # max(0.0, nan) reported rel_err 0.0 for a NaN remainder
    monkeypatch.setattr(suite, "psi_taylor_remainder",
                        lambda s, y, k: math.nan)
    [report] = _restricted(2.5, ["taylor"])
    assert not report.passed
    assert math.isnan(report.rel_err)
