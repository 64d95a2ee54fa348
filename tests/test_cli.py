"""Exit-code and output-format tests for the command line front end."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from fracext.cli import main

# the names and order of the default `verify` reports, one a line
VERIFY_NAMES = (Path(__file__).resolve().parents[1]
                / "perfbench" / "verify_names.txt")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_apply_negative_power_on_kernel_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "apply", "--op", "neumann:pi:3",
                           "--u", "1,1,1", "--s", "-0.5")
    assert code == 3
    assert "kernel mode 0" in err


def test_apply_missing_option_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "apply", "--op", "explicit:1")
    assert code == 2
    assert "--u" in err


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


def test_extend_negative_order_dispatch(capsys):
    code, out, _ = run_cli(capsys, "extend", "--op", "explicit:4",
                           "--u", "2", "--s", "0.5", "--grid", "0.5:2:3",
                           "--negative-order")
    assert code == 0
    rows = out.strip().split("\n")[2:]
    for row in rows:
        y, v = (float(t) for t in row.split(","))
        assert v == pytest.approx(math.exp(-2.0 * y), rel=1e-12)


def test_extend_bad_grid_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "extend", "--op", "explicit:1",
                           "--u", "1", "--s", "0.5", "--grid", "2:1:0")
    assert code == 2
    assert "grid" in err


def test_extend_two_point_grid_is_usage_error(capsys):
    # default_grid needs n >= 3; the CLI grid follows the same rule
    code, out, err = run_cli(capsys, "extend", "--op", "explicit:1",
                             "--u", "1", "--s", "0.5",
                             "--grid", "0.001:1:2")
    assert code == 2
    assert out == ""
    assert "n >= 3" in err


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
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize("nodes", ["abc", "2.5"])
def test_minimize_non_integer_nodes_is_usage_error(capsys, nodes):
    code, out, err = run_cli(capsys, "minimize", "--op", "explicit:1",
                             "--u", "1", "--s", "0.5", "--nodes", nodes)
    assert code == 2
    assert out == ""
    assert "node count" in err


def test_extend_integer_order_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "extend", "--op", "explicit:1",
                           "--u", "1", "--s", "2")
    assert code == 3
    assert "non-integer" in err


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


def test_verify_unknown_check_lists_names(capsys):
    code, _, err = run_cli(capsys, "verify", "--checks", "bogus")
    assert code == 2
    assert "energy" in err and "holder_slope" in err


def test_verify_selection_without_reports_is_usage_error(capsys):
    # the virial split needs floor(s) even: restricted to s = 1.5 it runs no
    # check, and a vacuous "0/0 passed" must not exit 0
    code, out, err = run_cli(capsys, "verify", "--checks", "virial",
                             "--s", "1.5")
    assert code == 2
    assert out == ""
    assert "no check" in err


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


@pytest.mark.parametrize("argv", [
    ("apply", "--op", "explicit:1e300", "--u", "1", "--s", "2"),
    ("minimize", "--op", "explicit:1e300", "--u", "1e200", "--s", "0.5",
     "--nodes", "200"),
    # L u is finite, but the weights of its H^-1 norm overflow
    ("apply", "--op", "explicit:1e308,1.7e308", "--u", "1,1", "--s", "1"),
], ids=["apply", "minimize", "apply_norm"])
def test_overflow_is_domain_error(capsys, argv):
    # used to print inf/Infinity/NaN tokens and exit 0 or 1, and later a
    # numpy RuntimeWarning ahead of the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("domain error")
    assert "overflow" in err


def test_apply_zero_coefficient_on_overflowing_mode(capsys):
    # L^2 u = (1, 0): the overflowing lambda^2 meets a zero coefficient
    code, out, _ = run_cli(capsys, "apply", "--op", "explicit:1,1e300",
                           "--u", "1,0", "--s", "2")
    assert code == 0
    assert json.loads(out.split("\n")[0]) == [1.0, 0.0]


def test_flags_no_subcommand_reads_are_usage_errors(capsys):
    # --sigma was accepted by every subcommand and --tol by apply, and
    # neither value was read, so this used to exit 0
    with pytest.raises(SystemExit) as exc:
        main(["apply", "--op", "explicit:1,4", "--u", "1,1", "--s", "0.5",
              "--sigma", "banana", "--tol", "nan"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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


def test_verify_threading_is_deterministic(tmp_path, capsys, monkeypatch):
    serial = tmp_path / "serial.jsonl"
    threaded = tmp_path / "threaded.jsonl"
    args = ("verify", "--checks", "energy,virial,holder_slope")
    code, _, _ = run_cli(capsys, *args, "--out", str(serial))
    assert code == 0
    monkeypatch.setenv("FRACEXT_THREADS", "4")
    code, _, _ = run_cli(capsys, *args, "--out", str(threaded))
    assert code == 0
    assert serial.read_bytes() == threaded.read_bytes()


def test_verify_report_key_order(capsys):
    code, out, _ = run_cli(capsys, "verify", "--checks", "holder_slope")
    assert code == 0
    report = json.loads(out.strip().split("\n")[0])
    assert list(report.keys()) == ["name", "lhs", "rhs", "rel_err", "tol",
                                   "pass"]


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


def test_operator_inline_json(capsys):
    op = '{"kind":"explicit_eigenvalues","values":[1.0,4.0]}'
    code, out, _ = run_cli(capsys, "apply", "--op", op, "--u", "1,1",
                           "--s", "0.5")
    assert code == 0
    np.testing.assert_allclose(json.loads(out.strip().split("\n")[0]),
                               [1.0, 2.0])


def test_apply_unsorted_explicit_spectrum_is_domain_error(capsys):
    # sorting the eigenvalues would pair u = (1, 0) with (1, 4), not (4, 1)
    code, out, err = run_cli(capsys, "apply", "--op", "explicit:4,1",
                             "--u", "1,0", "--s", "1")
    assert code == 3
    assert out == ""
    assert "nondecreasing" in err


def test_operator_unknown_kind_is_usage_error(capsys):
    op = '{"kind":"banded","values":[1.0,4.0]}'
    code, _, err = run_cli(capsys, "apply", "--op", op, "--u", "1,1",
                           "--s", "0.5")
    assert code == 2
    assert "unknown operator kind 'banded'" in err


@pytest.mark.parametrize("op", [
    '{"kind":"dirichlet_laplacian_1d","length":3}',
    '{"kind":"dirichlet_laplacian_1d","length":3,"modes":1,"extra":1}',
], ids=["missing", "unknown"])
def test_operator_descriptor_field_errors_are_usage_errors(capsys, op):
    # a missing field used to raise KeyError (exit 1), an unknown one was
    # silently ignored
    code, out, err = run_cli(capsys, "apply", "--op", op, "--u", "1",
                             "--s", "0.5")
    assert code == 2
    assert out == ""
    assert "takes the fields ('length', 'modes')" in err


def test_operator_non_integral_mode_count_is_domain_error(capsys):
    op = '{"kind":"dirichlet_laplacian_1d","length":3,"modes":2.5}'
    code, out, err = run_cli(capsys, "apply", "--op", op, "--u", "1,1,1",
                             "--s", "0.5")
    assert code == 3
    assert out == ""
    assert "whole number" in err


def test_minimize_subcommand(capsys):
    code, out, _ = run_cli(capsys, "minimize", "--op", "explicit:1,4",
                           "--u", "1,1", "--s", "0.5", "--nodes", "2000")
    assert code == 0
    report = json.loads(out.strip().split("\n")[0])
    assert report["rhs"] == pytest.approx(6.0, rel=1e-12)
    assert report["pass"] is True


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


def test_minimize_small_order_meets_closed_form(capsys):
    # at s = 0.2 the first mesh cell must shrink like 1e-5^{1/(2s)}
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
