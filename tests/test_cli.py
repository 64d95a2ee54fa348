"""Exit-code and output-format tests for the command line front end."""

import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import fracext
from fracext import cli
from fracext.cli import main
from fracext.special import psi_lambda
from fracext.variational import minimize_profile
from refusal import assert_cli_refusal

# the names and order of the default `verify` reports, one a line
VERIFY_NAMES = (Path(__file__).resolve().parents[1]
                / "perfbench" / "verify_names.txt")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# no entry point loads scipy, numpy.random or numpy.polynomial: the library
# needs only numpy core (its fixed-seed data come from the standard library's
# random, its Gauss rules from one Golub-Welsch builder), and scipy and
# numpy.polynomial are test-only oracles
_CLI = "from fracext.cli import main; main({})"
_FOOTPRINT_CASES = {
    "import": "",
    "apply": _CLI.format(["apply", "--op", "dirichlet:pi:3", "--u", "1,0,1",
                          "--s", "0.5"]),
    "minimize": _CLI.format(["minimize", "--op", "explicit:1,4", "--u", "1,1",
                             "--s", "0.5", "--nodes", "200"]),
    "extend": _CLI.format(["extend", "--op", "explicit:1,4", "--u", "1,1",
                           "--s", "1.3"]),
    "psi": "fracext.psi(1.3, 0.5)",
    "run_checks": "fracext.run_checks()",
}


@pytest.mark.parametrize("case", list(_FOOTPRINT_CASES))
def test_import_footprint(case):
    code = ("import sys, fracext\n"
            f"{_FOOTPRINT_CASES[case]}\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "    or m.startswith(('numpy.random', 'numpy.polynomial'))]\n"
            "assert not loaded, loaded\n")
    src = os.path.dirname(os.path.dirname(fracext.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_apply_square_roots(capsys):
    code, out, _ = run_cli(capsys, "apply", "--op", "dirichlet:pi:3",
                           "--u", "1,0,1", "--s", "0.5")
    assert code == 0
    lines = out.strip().split("\n")
    np.testing.assert_allclose(json.loads(lines[0]), [1.0, 0.0, 3.0],
                               rtol=1e-12)
    norms = json.loads(lines[1])
    assert norms["norm_source_hs"] == pytest.approx(norms["norm_result_dual"])
    assert norms["norm_source_hs"] == pytest.approx(2.0, rel=1e-12)


def test_apply_zero_power_is_identity(capsys):
    code, out, _ = run_cli(capsys, "apply", "--op", "explicit:1,4",
                           "--u", "0.5,-2", "--s", "0")
    assert code == 0
    np.testing.assert_allclose(json.loads(out.strip().split("\n")[0]),
                               [0.5, -2.0])


def test_extend_single_mode_csv(capsys):
    code, out, _ = run_cli(capsys, "extend", "--op", "explicit:1",
                           "--u", "1", "--s", "0.5", "--grid", "0.5:4:6")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# s=0.5")
    assert lines[1] == "y,mode_1"
    for row in lines[2:]:
        y, v = (float(t) for t in row.split(","))
        assert v == pytest.approx(math.exp(-y), rel=1e-12)


def test_extend_json_format(capsys):
    code, out, _ = run_cli(capsys, "extend", "--op", "explicit:1",
                           "--u", "1", "--s", "0.5", "--grid", "0.5:4:4",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["s"] == 0.5
    assert len(data["values"][0]) == 4
    # 64 modes on the default grid: a CSV comment, header and 160 rows, and
    # JSON without a NaN or Infinity token
    argv = ("extend", "--op", "dirichlet:pi:64", "--u", ",".join("1" * 64),
            "--s", "1.3")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and len(out.splitlines()) == 162
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    data = json.loads(out, parse_constant=pytest.fail)
    assert code == 0 and len(data["grid"]) == 160
    assert [len(row) for row in data["values"]] == [160] * 64


def test_extend_negative_order_dispatch(capsys):
    code, out, _ = run_cli(capsys, "extend", "--op", "explicit:4",
                           "--u", "2", "--s", "0.5", "--grid", "0.5:2:3",
                           "--negative-order")
    assert code == 0
    rows = out.strip().split("\n")[2:]
    for row in rows:
        y, v = (float(t) for t in row.split(","))
        assert v == pytest.approx(math.exp(-2.0 * y), rel=1e-12)


@pytest.mark.parametrize("argv,ends", [
    (("--op", "explicit:1", "--u=1", "--s=0.3", "--grid=1e-320:0.1:3"),
     (1e-320, 0.1)),
    (("--op", "explicit:1", "--u=1", "--s=0.3", "--grid=1e-300:1e160:3"),
     (1e-300, 1e160)),
    # the default grid, from 1e-4 / sqrt(1e300) to 40 / sqrt(1e-320)
    (("--op", "explicit:1e-320,1e300", "--u", "1,1", "--s", "0.5"),
     (1e-4 / math.sqrt(1e300), 40.0 / math.sqrt(1e-320))),
], ids=["subnormal-end", "wide-spec", "default-grid"])
def test_extend_grid_with_ends_beyond_the_double_range_apart(capsys, argv,
                                                              ends):
    # hi / lo overflowed in the geometric grid, which became [lo, inf, inf];
    # np.diff then warned of inf - inf, and the domain error blamed a grid
    # the spec never asked for
    code, out, err = run_cli(capsys, "extend", *argv)
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[2:]]
    ys = np.array([float(row[0]) for row in rows])
    values = np.array([[float(v) for v in row[1:]] for row in rows])
    assert np.all(np.isfinite(ys)) and np.all(ys[1:] > ys[:-1])
    assert ys[0] == pytest.approx(ends[0], rel=1e-12)
    assert ys[-1] == pytest.approx(ends[1], rel=1e-12)
    assert np.all(np.isfinite(values))
    assert np.all((values >= 0.0) & (values <= 1.0))


@pytest.mark.parametrize("argv", [
    ("apply", "--op", "explicit:1,4", "--u", "nan,1", "--s", "0.5"),
    ("apply", "--op", "explicit:1,inf", "--u", "1,1", "--s", "0.5"),
    ("apply", "--op", "explicit:1,4", "--u", "1,1", "--s", "nan"),
    ("apply", "--op", '{"kind":"explicit_eigenvalues","values":[1,NaN]}',
     "--u", "1,1", "--s", "0.5"),
    ("verify", "--checks", "energy", "--s", "1.5", "--lambda", "1",
     "--tol", "nan"),
    ("minimize", "--op", "explicit:1", "--u", "1", "--s", "0.5",
     "--tol", "nan"),
], ids=["u", "eigenvalue", "order", "json-eigenvalue", "verify-tol",
        "minimize-tol"])
def test_non_finite_input_is_usage_error(capsys, argv):
    assert_cli_refusal(capsys, argv, 2, "must be finite")


@pytest.mark.parametrize("argv", [
    ("verify", "--checks", "virial", "--tol", "-1"),
    ("minimize", "--op", "explicit:1", "--u", "1", "--s", "0.5",
     "--tol", "-0.5"),
], ids=["verify", "minimize"])
def test_negative_tol_is_usage_error(capsys, argv):
    # no report can pass a negative tolerance: the flag is at fault, not
    # the identities, so it exits 2 before any report
    assert_cli_refusal(capsys, argv, 2,
                       f"tolerance must not be negative, got '{argv[-1]}'")


@pytest.mark.parametrize("nodes", ["abc", "2.5"])
def test_minimize_non_integer_nodes_is_usage_error(capsys, nodes):
    assert_cli_refusal(capsys, ("minimize", "--op", "explicit:1", "--u", "1",
                                "--s", "0.5", "--nodes", nodes), 2,
                       f"bad node count '{nodes}'")


def test_verify_single_energy_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "--checks", "energy",
                           "--s", "1.5", "--lambda", "1")
    assert code == 0
    lines = out.strip().split("\n")
    report = json.loads(lines[0])
    assert report["lhs"] == pytest.approx(4.0, rel=1e-8)
    assert report["rhs"] == pytest.approx(4.0, rel=1e-14)
    assert report["pass"] is True
    assert lines[-1] == "# 1/1 checks passed"


def test_verify_ode_restricted_to_general_order(capsys):
    # restricting to a non-elementary order must not route it through the
    # machine-zero closed-form assertion
    code, out, _ = run_cli(capsys, "verify", "--checks", "ode", "--s", "2.5")
    assert code == 0
    reports = [json.loads(t) for t in out.strip().split("\n")
               if t.startswith("{")]
    assert all(r["pass"] for r in reports)
    assert all("closed_form" not in r["name"] for r in reports)


def test_verify_order_above_two_runs_only_checks_defined_there(capsys):
    # orthogonality stops at ceil(s) = 2; it used to raise here and exit 1
    code, out, _ = run_cli(capsys, "verify", "--s", "3.5")
    assert code == 0
    names = [json.loads(t)["name"] for t in out.strip().split("\n")[:-1]]
    assert all("s=3.5" in n for n in names)
    assert not any(n.startswith("orthogonality") for n in names)


def test_verify_minimize_at_the_requested_order(capsys):
    code, out, _ = run_cli(capsys, "verify", "--checks", "minimize",
                           "--s", "0.05")
    assert code == 0
    lines = out.strip().split("\n")
    assert [json.loads(t)["name"] for t in lines[:-1]] == [
        "minimize_curve(s=0.05)", "minimize_refinement_ratio(s=0.05)",
        "minimize_negative(s=0.05)", "minimize_negative_trace(s=0.05)"]
    assert lines[-1] == "# 4/4 checks passed"


@pytest.mark.parametrize("argv, named", [
    (("--s", "-1"), "order s must be positive, got -1.0"),
    (("--s", "2"), "order s must be non-integer, got 2.0"),
    (("--lambda", "0"), "--lambda must be positive, got 0"),
    (("--lambda", "-3"), "--lambda must be positive, got -3"),
], ids=["negative-order", "integer-order", "zero-lambda", "negative-lambda"])
def test_verify_order_and_eigenvalue_are_checked_before_any_check(
        capsys, argv, named):
    # these used to print one failed record and traceback per check, or a
    # failed energy record, and exit 1
    assert_cli_refusal(capsys, ("verify", "--checks", "energy,dtn", *argv), 3,
                       named)


@pytest.mark.parametrize("argv, named", [
    (("apply", "--op", "explicit:1", "--u", "1", "--s", "abc"),
     "bad order 'abc'"),
    (("apply", "--u", "1", "--s", "0.5"), "missing --op"),
    (("apply", "--op", "explicit:1", "--u", "1"), "missing --s"),
    (("apply", "--op", "explicit:1,4", "--u", "1,1,1", "--s", "0.5"),
     "vector has 3 entries but the operator has 2 modes"),
    (("extend", "--op", "explicit:1", "--u", "1", "--s", "0.5",
      "--grid", "1:2"), "bad grid spec '1:2'"),
], ids=["order", "missing-op", "missing-s", "vector-length", "grid-fields"])
def test_malformed_arguments_are_usage_errors(capsys, argv, named):
    assert_cli_refusal(capsys, argv, 2, named)


@pytest.mark.parametrize("argv, named", [
    (("apply", "--op", "neumann:0:3", "--u", "1,1,1", "--s", "0.5"),
     "interval length must be positive"),
    (("apply", "--op", '{"kind":"tridiagonal","diag":[-1,-1],"off":[0]}',
      "--u", "1,1", "--s", "0.5"), "not nonnegative"),
], ids=["zero-length", "negative-tridiagonal"])
def test_operator_outside_its_domain_is_domain_error(capsys, argv, named):
    assert_cli_refusal(capsys, argv, 3, named)


@pytest.mark.parametrize("argv", [
    ("apply", "--op", "dirichlet:1e308:2", "--u", "1,1", "--s", "0.5"),
    ("apply", "--op", "dirichlet:1e-300:2", "--u", "1,1", "--s", "0.5"),
    ("extend", "--op", "neumann:1e200:3", "--u", "1,1,1", "--s", "0.5"),
], ids=["underflow", "overflow", "all-kernel"])
def test_laplacian_length_outside_the_double_range_is_domain_error(
        capsys, argv):
    # these printed [0, 0] and constant curves with exit 0, and an overflow
    # warning that -W error turned into a traceback
    assert_cli_refusal(capsys, argv, 3,
                       f"length {float(argv[2].split(':')[1])!r}")


def test_verify_large_order_runs_as_before(capsys):
    code, out, _ = run_cli(capsys, "verify", "--checks", "dtn",
                           "--s", "400.5")
    assert code == 0
    assert out.endswith("# 2/2 checks passed\n")


def test_verify_overflowing_energies_say_so(capsys):
    code, out, _ = run_cli(capsys, "verify", "--checks",
                           "energy,isometry,ode", "--s", "400.5")
    assert code == 1
    errors = [json.loads(t)["error"] for t in out.strip().split("\n")[:-1]]
    assert errors == [
        "ValueError: energy_identity(s=400.5, lam=10.0) overflows: the "
        "result must be finite",
        "ValueError: curve_isometry(s=400.5) overflows: the result must be "
        "finite",
        "ValueError: ode_residual(s=400.5) overflows: the result must be "
        "finite"]


def test_verify_overtight_tolerance_fails_with_exit_1(capsys):
    code, out, _ = run_cli(capsys, "verify", "--checks", "energy",
                           "--s", "2.5", "--lambda", "4", "--tol", "1e-16")
    assert code == 1
    report = json.loads(out.strip().split("\n")[0])
    assert report["pass"] is False
    assert report["rel_err"] > 1e-16


def _patched_check(monkeypatch, name, fn):
    from fracext import suite
    registry = tuple((n, fn if n == name else f) for n, f in suite._REGISTRY)
    monkeypatch.setattr(suite, "_REGISTRY", registry)


def test_verify_raising_check_is_one_failed_record(capsys, monkeypatch):
    def broken(cfg):
        raise RuntimeError("boom")

    code, want, _ = run_cli(capsys, "verify", "--checks", "holder_slope")
    assert code == 0
    _patched_check(monkeypatch, "taylor", broken)
    code, out, err = run_cli(capsys, "verify", "--checks",
                             "taylor,holder_slope")
    assert code == 1
    lines = out.strip().split("\n")
    assert json.loads(lines[0]) == {"name": "taylor",
                                    "error": "RuntimeError: boom",
                                    "pass": False}
    # the other checks still run, and print as before
    assert lines[1] == want.split("\n")[0]
    assert lines[2] == "# 1/2 checks passed"
    assert "boom" in err and "Traceback" in err


def test_verify_non_finite_report_is_one_failed_record(capsys, monkeypatch):
    from fracext.weighted import report_equal
    _patched_check(monkeypatch, "taylor",
                   lambda cfg: [report_equal("nan_report", math.nan, 1.0)])
    code, out, _ = run_cli(capsys, "verify", "--checks",
                           "taylor,holder_slope")
    assert code == 1
    lines = out.strip().split("\n")
    record = json.loads(lines[0])
    assert record["name"] == "nan_report" and record["pass"] is False
    assert "non-finite" in record["error"]
    assert json.loads(lines[1])["pass"] is True
    assert lines[2] == "# 1/2 checks passed"


@pytest.mark.parametrize("argv, named", [
    (("apply", "--op", "explicit:1e300", "--u", "1", "--s", "2"),
     "L^2.0 u overflows"),
    (("minimize", "--op", "explicit:1e300", "--u", "1e200", "--s", "0.5",
      "--nodes", "200"), "minimize_curve(s=0.5) overflows"),
], ids=["apply", "minimize"])
def test_overflow_is_domain_error(capsys, argv, named):
    # used to print inf/Infinity/NaN tokens and exit 0 or 1, and later a
    # numpy RuntimeWarning ahead of the error
    assert_cli_refusal(capsys, argv, 3, named)


@pytest.mark.parametrize("s", ["0.015", "0.01", "0.005", "0.001"])
def test_minimize_tiny_order_exits_cleanly(capsys, s):
    # s = 0.005 raised ZeroDivisionError from the mesh, and s = 0.01 was a
    # nan minimum reported as an overflow (exit 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "minimize", "--op", "explicit:1",
                                 "--u", "1", "--s", s)
    assert code in (0, 1)
    assert err == ""
    report = json.loads(out)
    assert report["lhs"] >= report["rhs"] > 0.0


def test_order_above_the_profile_ceiling_fails_fast(capsys):
    # s = 1e9 + 0.5 took one recurrence step per unit of order and never
    # returned; verify then ran every check into the ceiling, printing one
    # failed record and traceback each, and exited 1
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "extend", "--op", "explicit:1",
                             "--u", "1", "--s", "1000000000.5",
                             "--grid", "0.1:1:3")
    assert code == 3
    assert out == ""
    assert err.startswith("domain error") and "100000" in err
    for checks, s in (("energy", "1000000000.5"),
                      ("energy,dtn", "200000.5")):
        code, out, err = run_cli(capsys, "verify", "--checks", checks,
                                 "--s", s)
        assert code == 3
        assert out == ""
        assert err.startswith("domain error") and err.count("\n") == 1
        assert "100000" in err and s in err
    assert time.perf_counter() - start < 1.0


def test_apply_norms_near_the_largest_double(capsys):
    # L u and both norms are finite; the weights lambda^sigma of the norms
    # used to overflow, and the run exited 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, "apply", "--op",
                               "explicit:1e308,1.7e308", "--u", "1,1",
                               "--s", "1")
    assert code == 0
    coeffs, norms = out.strip().split("\n")
    assert json.loads(coeffs) == [1e308, 1.7e308]
    want = math.sqrt(2.7) * 1e154
    assert json.loads(norms) == pytest.approx(
        {"norm_source_hs": want, "norm_result_dual": want}, rel=1e-15)


def test_apply_power_beyond_the_double_range_with_a_finite_product(capsys):
    # lambda^2 = 1e400 overflows, L^2 u = 1e100 does not; this exited 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, "apply", "--op", "explicit:1e200",
                               "--u", "1e-300", "--s", "2")
    assert code == 0
    coeffs, norms = out.strip().split("\n")
    assert json.loads(coeffs) == [pytest.approx(1e100, rel=1e-13)]
    assert json.loads(norms) == pytest.approx(
        {"norm_source_hs": 1e-100, "norm_result_dual": 1e-100}, rel=1e-13)


def test_apply_zero_coefficient_on_overflowing_mode(capsys):
    # L^2 u = (1, 0): the overflowing lambda^2 meets a zero coefficient
    code, out, _ = run_cli(capsys, "apply", "--op", "explicit:1,1e300",
                           "--u", "1,0", "--s", "2")
    assert code == 0
    assert json.loads(out.split("\n")[0]) == [1.0, 0.0]


def test_verify_output_is_reproducible(tmp_path, capsys):
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    for path in (out_a, out_b):
        code, _, _ = run_cli(capsys, "verify", "--checks", "virial,holder_slope",
                             "--out", str(path))
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_verify_default_suite_all_pass(tmp_path, capsys):
    out = tmp_path / "all.jsonl"
    code, _, _ = run_cli(capsys, "verify", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    reports = [json.loads(t) for t in lines if not t.startswith("#")]
    names = VERIFY_NAMES.read_text().splitlines()
    assert [r["name"] for r in reports] == names
    assert all(r["pass"] for r in reports)
    assert lines[-1].endswith("checks passed")


def test_verify_repeated_run_is_byte_identical(tmp_path, capsys):
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    args = ("verify", "--checks", "energy,virial,holder_slope")
    for path in (first, second):
        code, _, _ = run_cli(capsys, *args, "--out", str(path))
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_verify_report_key_order(capsys):
    code, out, _ = run_cli(capsys, "verify", "--checks", "holder_slope")
    assert code == 0
    report = json.loads(out.strip().split("\n")[0])
    assert list(report.keys()) == ["name", "lhs", "rhs", "rel_err", "tol",
                                   "pass"]


def test_every_report_prints_the_bound_that_decided_it(capsys):
    # zero-target reports passed on a hidden abs_tol and printed "tol": 0,
    # or the relative tol they never used
    for extra in ((), ("--tol", "1e-3")):
        code, out, _ = run_cli(capsys, "verify", *extra)
        assert code == 0
        reports = [json.loads(line) for line in out.strip().split("\n")[:-1]]
        assert len(reports) == 80
        for report in reports:
            assert report["pass"] == (report["rel_err"] <= report["tol"]), \
                report["name"]
        moved = [r["tol"] for r in reports if r["name"].startswith(
            ("trace0", "ode_residual(", "nonexpansive", "commute"))]
        assert len(moved) == 11
        assert all(tol == 1e-3 if extra else tol > 0.0 for tol in moved)
        # --tol re-decides every report, the fixed bounds included
        if extra:
            assert {r["tol"] for r in reports} == {1e-3}


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"op": "explicit:1,4", "u": "1,0",
                               "s": 0.5}))
    code, out, _ = run_cli(capsys, "apply", "--config", str(cfg))
    assert code == 0
    np.testing.assert_allclose(json.loads(out.strip().split("\n")[0]),
                               [1.0, 0.0])
    # the explicit flag beats the file value
    code, out, _ = run_cli(capsys, "apply", "--config", str(cfg),
                           "--u", "0,1")
    np.testing.assert_allclose(json.loads(out.strip().split("\n")[0]),
                               [0.0, 2.0])


def test_config_parse_failure_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code, _, err = run_cli(capsys, "apply", "--config", str(cfg))
    assert code == 2
    assert "config" in err


def test_config_that_is_not_an_object_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    code, out, err = run_cli(capsys, "apply", "--op", "explicit:1",
                             "--u", "1", "--s", "0.5", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("usage error") and "JSON object" in err


def run_config(tmp_path, capsys, entries, *argv):
    """Run ``argv --config FILE`` with the JSON object ``entries`` in FILE."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(entries))
    return run_cli(capsys, *argv, "--config", str(cfg))


_EXTEND = ("extend", "--op", "explicit:4", "--u", "2", "--s", "0.5",
           "--grid", "0.5:2:3")
_MINIMIZE = ("minimize", "--op", "explicit:1,4", "--u", "1,1", "--s", "0.5",
             "--nodes", "200")


@pytest.mark.parametrize("key", ["lambda", "lam"])
def test_config_lambda_key_restricts_the_eigenvalue(tmp_path, capsys, key):
    # "lambda" names --lambda; it used to be looked up as the dest "lam"
    # and ignored, while "lam" stays a unique prefix of --lambda
    code, out, _ = run_config(tmp_path, capsys, {key: 4, "s": 1.5},
                              "verify", "--checks", "energy")
    assert code == 0
    assert [json.loads(t)["name"] for t in out.strip().split("\n")[:-1]] == [
        "energy_identity(s=1.5, lam=4.0)"]


@pytest.mark.parametrize("argv", [_EXTEND, _MINIMIZE], ids=["extend",
                                                             "minimize"])
@pytest.mark.parametrize("key", ["negative-order", "negative_order"])
def test_config_negative_order_key(tmp_path, capsys, argv, key):
    code, want, _ = run_cli(capsys, *argv, "--negative-order")
    assert code == 0
    code, out, _ = run_config(tmp_path, capsys, {key: True}, *argv)
    assert code == 0
    assert out == want


@pytest.mark.parametrize("key", ["dump-profile", "dump_profile"])
def test_config_dump_profile_key(tmp_path, capsys, key):
    dump = tmp_path / "profile.csv"
    code, _, _ = run_config(tmp_path, capsys, {key: str(dump)}, *_MINIMIZE)
    assert code == 0
    assert dump.read_text().startswith("y,fe_minimizer,profile\n")


@pytest.mark.parametrize("entries, argv, named", [
    # a string is not a switch: "false" used to select the negative order
    ({"negative_order": "false"}, _EXTEND, "--negative-order"),
    # --s takes a value: true used to read as the order 1
    ({"s": True}, ("apply", "--op", "explicit:1,4", "--u", "1,1"), "--s"),
    # a choice outside (csv, json) used to write CSV
    ({"format": "xml"}, _EXTEND, "xml"),
    # a number used to end in a TypeError traceback with exit 1
    ({"checks": 5}, ("verify",), "unknown check name"),
    ({"checks": ["energy"]}, ("verify",), "want a string"),
    # a key the subcommand does not take used to be ignored
    ({"lambda": 4}, _EXTEND, "--lambda=4"),
    ({"nodes": 200}, _EXTEND, "--nodes=200"),
    ({"config": "other.json"}, _EXTEND, "names --config"),
    ({"conf": "other.json"}, _EXTEND, "names --config"),
], ids=["string-switch", "bare-valued-flag", "bad-choice", "number-checks",
        "list-value", "lambda-in-extend", "nodes-in-extend", "config",
        "config-prefix"])
def test_config_entry_a_flag_would_refuse_is_usage_error(
        tmp_path, capsys, entries, argv, named):
    code, out, err = run_config(tmp_path, capsys, entries, *argv)
    assert code == 2
    assert out == ""
    assert named in err
    assert "Traceback" not in err


def test_explicit_flags_beat_the_config_file(tmp_path, capsys):
    for entries, flags in (({"format": "json"}, ("--format", "csv")),
                           ({"negative_order": False}, ("--negative-order",))):
        _, want, _ = run_cli(capsys, *_EXTEND, *flags)
        code, out, _ = run_config(tmp_path, capsys, entries, *_EXTEND, *flags)
        assert code == 0 and out == want


def test_operator_inline_json(capsys):
    op = '{"kind":"explicit_eigenvalues","values":[1.0,4.0]}'
    code, out, _ = run_cli(capsys, "apply", "--op", op, "--u", "1,1",
                           "--s", "0.5")
    assert code == 0
    np.testing.assert_allclose(json.loads(out.strip().split("\n")[0]),
                               [1.0, 2.0])


def test_operator_descriptor_file_matches_inline_json(tmp_path, capsys):
    op = '{"kind":"dirichlet_laplacian_1d","length":3.0,"modes":3}'
    path = tmp_path / "op.json"
    path.write_text(op)
    argv = ("--u", "1,0,1", "--s", "0.5")
    code, inline, _ = run_cli(capsys, "apply", "--op", op, *argv)
    assert code == 0
    code, from_file, _ = run_cli(capsys, "apply", "--op", str(path), *argv)
    assert code == 0
    assert from_file == inline


def test_operator_descriptor_file_with_nan_is_usage_error(tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text('{"kind":"explicit_eigenvalues","values":[1,NaN]}')
    code, out, err = run_cli(capsys, "apply", "--op", str(path),
                             "--u", "1,1", "--s", "0.5")
    assert code == 2
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize("text,in_file", [
    ("[1, 2]", True),
    ('"kind"', True),
    ('{"kind": [1]}', False),
    ('{"kind": 3}', True),
    ('{"length": 1, "modes": 2}', False),
], ids=["file-list", "file-string", "inline-list-kind", "file-number-kind",
        "inline-no-kind"])
def test_operator_descriptor_not_an_object_with_string_kind_is_usage_error(
        tmp_path, capsys, text, in_file):
    # these died with a TypeError or AttributeError traceback
    op = text
    if in_file:
        op = str(tmp_path / "op.json")
        (tmp_path / "op.json").write_text(text)
    code, out, err = run_cli(capsys, "apply", "--op", op, "--u", "1",
                             "--s", "0.5")
    assert code == 2
    assert out == ""
    assert "JSON object with a string 'kind' field" in err


@pytest.mark.parametrize("op", ["dirichlet:pi:3:9", "dirichlet:pi"],
                         ids=["extra-field", "missing-field"])
def test_operator_shorthand_field_count_is_usage_error(capsys, op):
    # an extra field used to be dropped silently, a missing one to fail
    # with "list index out of range"
    assert_cli_refusal(capsys, ("apply", "--op", op, "--u", "1,1,1", "--s",
                                "0.5"), 2,
                       f"cannot parse operator '{op}': expected dirichlet:L:J")


@pytest.mark.parametrize("op", [
    '{"kind":"dirichlet_laplacian_1d","length":3}',
    '{"kind":"dirichlet_laplacian_1d","length":3,"modes":1,"extra":1}',
], ids=["missing", "unknown"])
def test_operator_descriptor_field_errors_are_usage_errors(capsys, op):
    # a missing field used to raise KeyError (exit 1), an unknown one was
    # silently ignored
    assert_cli_refusal(capsys, ("apply", "--op", op, "--u", "1", "--s", "0.5"),
                       2, "takes the fields ('length', 'modes')")


def test_minimize_subcommand(capsys):
    code, out, _ = run_cli(capsys, "minimize", "--op", "explicit:1,4",
                           "--u", "1,1", "--s", "0.5", "--nodes", "2000")
    assert code == 0
    report = json.loads(out.strip().split("\n")[0])
    assert report["rhs"] == pytest.approx(6.0, rel=1e-12)
    assert report["pass"] is True


def test_minimize_tol_re_decides_the_report(capsys):
    argv = ("minimize", "--op", "explicit:1,4", "--u", "1,1", "--s", "0.5",
            "--nodes", "500")
    _, out, _ = run_cli(capsys, *argv)
    default = json.loads(out.strip().split("\n")[0])
    assert default["tol"] == 1e-3 and default["pass"] is True
    # --tol 0 is valid: it passes only an exact result
    for tol, code_want in ((1e-9, 1), (0.5, 0), (0.0, 1)):
        code, out, _ = run_cli(capsys, *argv, "--negative-order",
                               "--tol", str(tol))
        report = json.loads(out.strip().split("\n")[0])
        assert code == code_want
        assert report["tol"] == tol
        assert report["pass"] is (report["rel_err"] <= tol)


def test_minimize_stays_above_closed_form_at_fine_mesh(capsys):
    # Galerkin bound: the discrete minimum never undercuts 2 d_s lam^s; an
    # energy summed from the assembled form lost this to cancellation here
    code, out, _ = run_cli(capsys, "minimize", "--op", "explicit:1",
                           "--u", "1", "--s", "0.95", "--nodes", "8000")
    assert code == 0
    report = json.loads(out.strip().split("\n")[0])
    d_s = 2.0 ** (1.0 - 1.9) * math.gamma(0.05) / math.gamma(0.95)
    assert report["rhs"] == pytest.approx(2.0 * d_s, rel=1e-12)
    assert report["lhs"] >= 2.0 * d_s
    assert report["lhs"] - 2.0 * d_s < 1e-5 * d_s
    # and the dual minimum of the negative order passes there too
    code, out, _ = run_cli(capsys, "minimize", "--op", "explicit:1",
                           "--u", "1", "--s", "0.95", "--nodes", "8000",
                           "--negative-order")
    assert code == 0 and json.loads(out.split("\n")[0])["pass"] is True


def test_minimize_small_order_meets_closed_form(capsys):
    # at s = 0.2 the first mesh cell must shrink with the order: the graded
    # mesh puts it at y_max (n-1)^{-2/s}
    code, out, _ = run_cli(capsys, "minimize", "--op", "explicit:1",
                           "--u", "1", "--s", "0.2", "--nodes", "4000")
    assert code == 0
    report = json.loads(out.strip().split("\n")[0])
    assert report["lhs"] >= report["rhs"]
    assert report["pass"] is True


def test_minimize_negative_subcommand(capsys):
    code, out, _ = run_cli(capsys, "minimize", "--op", "explicit:1",
                           "--u", "1", "--s", "0.5", "--nodes", "2000",
                           "--negative-order")
    assert code == 0
    lines = out.strip().split("\n")
    report = json.loads(lines[0])
    assert report["rhs"] == pytest.approx(-2.0, rel=1e-12)
    trace = json.loads(lines[1])
    assert trace[0] == pytest.approx(1.0, rel=1e-3)


def test_minimize_profile_dump_needs_a_positive_eigenvalue(tmp_path,
                                                           capsys):
    # a one-mode Neumann operator has only the zero eigenvalue; the dump
    # died with an IndexError traceback (exit 1, "check failed")
    dump = tmp_path / "profile.csv"
    code, out, err = run_cli(capsys, "minimize", "--op", "neumann:pi:1",
                             "--u", "0", "--s", "0.5",
                             "--dump-profile", str(dump))
    assert code == 3
    assert out == ""
    assert err.startswith("domain error") and "positive eigenvalue" in err
    assert not dump.exists()


@pytest.mark.parametrize("via", ["flags", "config"])
def test_minimize_negative_order_with_a_profile_dump_is_usage_error(
        tmp_path, capsys, monkeypatch, via):
    # the dump belongs to the positive-order problem: the pair used to
    # write nothing and exit 0; it is refused before any FE solve
    def unreachable(*args, **kwargs):
        raise AssertionError("an FE solve ran")

    for name in ("minimize_curve", "minimize_negative", "minimize_profile"):
        monkeypatch.setattr(cli, name, unreachable)
    dump = tmp_path / "profile.csv"
    argv = ("minimize", "--op", "dirichlet:pi:3", "--u", "1,1,1", "--s", "0.5")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if via == "flags":
            code, out, err = run_cli(capsys, *argv, "--negative-order",
                                     "--dump-profile", str(dump))
        else:
            code, out, err = run_config(
                tmp_path, capsys,
                {"negative-order": True, "dump-profile": str(dump)}, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error") and err.count("\n") == 1
    assert "--negative-order" in err and "--dump-profile" in err
    assert not dump.exists()


def test_minimize_profile_dump_evaluates_the_profile_once(
        tmp_path, capsys, monkeypatch):
    # the closed-form column is one array call, not one call per mesh node
    calls = []

    def counted(s, lam, y):
        calls.append(np.shape(y))
        return psi_lambda(s, lam, y)

    monkeypatch.setattr(cli, "psi_lambda", counted)
    dump = tmp_path / "profile.csv"
    code, _, _ = run_cli(capsys, "minimize", "--op", "explicit:1",
                         "--u", "1", "--s", "0.5", "--nodes", "500",
                         "--dump-profile", str(dump))
    assert code == 0
    assert calls == [(500,)]
    assert len(dump.read_text().split("\n")) == 502


def test_minimize_profile_dump_rows_are_17_digit_values(tmp_path, capsys):
    dump = tmp_path / "profile.csv"
    code, _, _ = run_cli(capsys, "minimize", "--op", "explicit:2.5,4",
                         "--u", "1,1", "--s", "0.3", "--nodes", "300",
                         "--dump-profile", str(dump))
    assert code == 0
    _, prof = minimize_profile(0.3, 2.5, n_nodes=300)
    want = ["y,fe_minimizer,profile"] + [
        ",".join(f"{float(x):.17g}" for x in (y, v, psi_lambda(0.3, 2.5, y)))
        for y, v in zip(prof.grid, prof.values)]
    assert dump.read_text() == "\n".join(want) + "\n"


def test_minimize_profile_dump(tmp_path, capsys):
    dump = tmp_path / "profile.csv"
    code, _, _ = run_cli(capsys, "minimize", "--op", "explicit:1",
                         "--u", "1", "--s", "0.5", "--nodes", "500",
                         "--dump-profile", str(dump))
    assert code == 0
    lines = dump.read_text().strip().split("\n")
    assert lines[0] == "y,fe_minimizer,profile"
    y, fe, prof = (float(t) for t in lines[10].split(","))
    assert fe == pytest.approx(prof, abs=5e-3)
    # two modes at 4000 nodes: the header and one row per node of mode 1
    code, _, _ = run_cli(capsys, "minimize", "--op", "explicit:1,4",
                         "--u", "1,1", "--s", "0.5", "--nodes", "4000",
                         "--dump-profile", str(dump))
    lines = dump.read_text().splitlines()
    assert code == 0 and lines[0] == "y,fe_minimizer,profile"
    assert len(lines) == 4001
