"""Command line front end.

Subcommands::

    fracext apply    --op OP --u 1,0,1 --s 0.5 [--out FILE]
    fracext extend   --op OP --u 1,1 --s 0.5 [--grid a:b:n] [--negative-order]
    fracext verify   [--checks energy,virial,...] [--s 1.5] [--lambda 1]
                     [--tol T]
    fracext minimize --op OP --u 1,1 --s 0.5 [--negative-order] [--nodes N]
                     [--tol T]

Operator descriptors accept three spellings: a shorthand
``dirichlet:pi:3`` / ``neumann:2.0:5`` / ``explicit:1,4,9``, an inline JSON
object like ``{"kind":"dirichlet_laplacian_1d","length":3.14,"modes":64}``,
or a path to a JSON file with the same content.  A ``--config FILE`` may
hold any of the long options as JSON keys; explicit flags win.

Exit codes: 0 all good, 1 at least one verification check failed (a check
that raises, or whose report holds a NaN or infinity, prints a record with
an ``"error"`` field and counts as failed), 2 usage or configuration error,
3 domain error (invalid mathematical input).
Outputs are byte-identical across runs with the same configuration.  Checks
run sequentially; the environment variable FRACEXT_THREADS is accepted for
compatibility and has no effect.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .extension import curve_to_csv, curve_to_json, extend, extend_negative
from .spectral import (
    _BUILDERS,
    ModalVector,
    _require_finite,
    apply_power,
    build_operator,
    sobolev_norm,
)
from .suite import CHECK_NAMES, CheckFailure, RunConfig, run_checks
from .variational import minimize_curve, minimize_negative, minimize_profile

_USAGE_ERROR = 2
_DOMAIN_ERROR = 3


class UsageError(Exception):
    """Configuration or argument problem: maps to exit code 2."""


def _parse_number(text, what):
    """A finite float from a flag, a config value or a descriptor field;
    ``pi`` is accepted.  Anything else is a usage error."""
    if str(text).strip().lower() in ("pi", "+pi"):
        return math.pi
    try:
        value = float(text)
    except (TypeError, ValueError) as err:
        raise UsageError(f"bad {what} {text!r}") from err
    if not math.isfinite(value):
        raise UsageError(f"{what} must be finite, got {text!r}")
    return value


def _parse_count(text, what):
    try:
        return int(str(text))
    except ValueError as err:
        raise UsageError(f"bad {what} {text!r}: want an integer") from err


def _finite_json(token):
    """json hook for float literals and NaN/Infinity: only finite numbers."""
    return _parse_number(token, "number in operator descriptor")


def _parse_operator(text):
    """Operator from shorthand, inline JSON, or a JSON file path.

    Parse-level failures raise UsageError; mathematically invalid but
    well-formed descriptors (negative eigenvalues etc.) raise ValueError.
    """
    if text is None:
        raise UsageError("missing --op")
    text = str(text).strip()
    try:
        if text.startswith("{"):
            desc = json.loads(text, parse_float=_finite_json,
                              parse_constant=_finite_json)
        elif os.path.exists(text):
            with open(text) as fh:
                desc = json.load(fh, parse_float=_finite_json,
                                 parse_constant=_finite_json)
        else:
            parts = text.split(":")
            kind = parts[0].lower()
            if kind in ("dirichlet", "dirichlet_laplacian_1d"):
                desc = {"kind": "dirichlet_laplacian_1d",
                        "length": _parse_number(parts[1], "length"),
                        "modes": _parse_count(parts[2], "mode count")}
            elif kind in ("neumann", "neumann_laplacian_1d"):
                desc = {"kind": "neumann_laplacian_1d",
                        "length": _parse_number(parts[1], "length"),
                        "modes": _parse_count(parts[2], "mode count")}
            elif kind in ("explicit", "explicit_eigenvalues"):
                desc = {"kind": "explicit_eigenvalues",
                        "values": [_parse_number(v, "eigenvalue")
                                   for v in parts[1].split(",")]}
            else:
                raise UsageError(
                    f"cannot parse operator {text!r}: expected "
                    f"dirichlet:L:J, neumann:L:J, explicit:v1,v2,..., "
                    f"inline JSON, or a file path")
        kind = desc.pop("kind")
    except UsageError:
        raise
    except (json.JSONDecodeError, IndexError, KeyError) as err:
        raise UsageError(f"bad operator descriptor {text!r}: {err}") from err
    if kind not in _BUILDERS:
        raise UsageError(f"unknown operator kind {kind!r}")
    try:
        return build_operator(kind, **desc)
    except TypeError as err:  # a missing or unknown descriptor field
        raise UsageError(f"bad operator descriptor {text!r}: {err}") from err


def _parse_vector(text, spectrum):
    if text is None:
        raise UsageError("missing --u")
    coeffs = np.array([_parse_number(v, "coefficient")
                       for v in str(text).split(",")])
    if coeffs.size != spectrum.size:
        raise UsageError(
            f"vector has {coeffs.size} entries but the operator has "
            f"{spectrum.size} modes")
    return ModalVector(coeffs, spectrum)


def _parse_order(text):
    if text is None:
        raise UsageError("missing --s")
    return _parse_number(text, "order")


def _parse_grid(text):
    try:
        lo, hi, n = str(text).split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as err:
        raise UsageError(f"bad grid spec {text!r} (want y_min:y_max:n)") from err
    if n < 3 or not 0 < lo < hi < math.inf:
        raise UsageError(
            f"bad grid spec {text!r}: need 0 < y_min < y_max finite and "
            f"n >= 3")
    ratio = (hi / lo) ** (1.0 / (n - 1))
    return lo * ratio ** np.arange(n)


def _fmt(x):
    return f"{float(x):.17g}"


def _merged(args, key, default=None):
    """Explicit CLI flag wins over the config file, which wins over default."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if args.config_data and key in args.config_data:
        return args.config_data[key]
    return default


def _write(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_apply(args):
    spectrum, _ = _parse_operator(_merged(args, "op"))
    u = _parse_vector(_merged(args, "u"), spectrum)
    s = _parse_order(_merged(args, "s"))
    result = apply_power(u, s)
    norms = {"norm_source_hs": sobolev_norm(u, s),
             "norm_result_dual": sobolev_norm(result, -s)}
    _require_finite(f"a norm of u or L^{s} u", *norms.values())
    lines = [
        "[" + ", ".join(_fmt(c) for c in result.coeffs) + "]",
        json.dumps(norms),
    ]
    _write("\n".join(lines) + "\n", _merged(args, "out"))
    return 0


def _cmd_extend(args):
    spectrum, _ = _parse_operator(_merged(args, "op"))
    u = _parse_vector(_merged(args, "u"), spectrum)
    s = _parse_order(_merged(args, "s"))
    grid_spec = _merged(args, "grid")
    grid = _parse_grid(grid_spec) if grid_spec else None
    if _merged(args, "negative_order", False):
        curve = extend_negative(u, s, grid)
    else:
        curve = extend(u, s, grid)
    fmt = _merged(args, "format", "csv")
    text = curve_to_json(curve) + "\n" if fmt == "json" else curve_to_csv(curve)
    _write(text, _merged(args, "out"))
    return 0


def _cmd_verify(args):
    checks = _merged(args, "checks")
    if isinstance(checks, str):
        checks = [c.strip() for c in checks.split(",") if c.strip()]
    cfg = RunConfig()
    s_val = _merged(args, "s")
    if s_val is not None:
        cfg.s_values = (_parse_order(s_val),)
    lam = _merged(args, "lam")
    if lam is not None:
        cfg.lam_values = (_parse_number(lam, "eigenvalue"),)
    tol = _merged(args, "tol")
    if tol is not None:
        cfg.tol = _parse_number(tol, "tolerance")
    try:
        reports = run_checks(checks, cfg)
    except ValueError as err:
        if "unknown check name" in str(err):
            raise UsageError(str(err)) from err
        raise
    if not reports:
        # a selection the checks skip entirely would pass vacuously
        raise UsageError("the check selection and restrictions leave no "
                         "check to run")
    lines, n_pass = [], 0
    for report in reports:
        try:
            line = report.to_json()
        except ValueError as err:  # a NaN or infinite field
            report = CheckFailure(report.name, str(err))
            line = report.to_json()
        if isinstance(report, CheckFailure):
            print(f"check {report.name} failed: {report.error}\n"
                  f"{report.detail}", file=sys.stderr, end="")
        lines.append(line)
        n_pass += report.passed
    summary = f"# {n_pass}/{len(reports)} checks passed"
    _write("\n".join(lines + [summary]) + "\n", _merged(args, "out"))
    if _merged(args, "out"):
        print(summary)
    return 0 if n_pass == len(reports) else 1


def _cmd_minimize(args):
    spectrum, _ = _parse_operator(_merged(args, "op"))
    u = _parse_vector(_merged(args, "u"), spectrum)
    s = _parse_order(_merged(args, "s"))
    nodes = _parse_count(_merged(args, "nodes", 2000), "node count")
    tol = _parse_number(_merged(args, "tol", 1e-3), "tolerance")
    if _merged(args, "negative_order", False):
        report, trace = minimize_negative(u, s, n_nodes=nodes, tol=tol)
        lines = [report.to_json(),
                 "[" + ", ".join(_fmt(c) for c in trace.coeffs) + "]"]
    else:
        report = minimize_curve(u, s, n_nodes=nodes, tol=tol)
        lines = [report.to_json()]
        dump = _merged(args, "dump_profile")
        if dump:
            from .special import psi_lambda
            lam = float(spectrum.positive[0])
            _, prof = minimize_profile(s, lam, n_nodes=nodes)
            with open(dump, "w") as fh:
                fh.write("y,fe_minimizer,profile\n")
                for y, v in zip(prof.grid, prof.values):
                    fh.write(f"{_fmt(y)},{_fmt(v)},"
                             f"{_fmt(psi_lambda(s, lam, y))}\n")
    _write("\n".join(lines) + "\n", _merged(args, "out"))
    return 0 if report.passed else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fracext",
        description="Fractional operator powers via Bessel-kernel extension "
                    "curves: transforms and identity verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--op", help="operator descriptor (shorthand, JSON, or file)")
        p.add_argument("--u", help="comma-separated modal coefficients")
        p.add_argument("--s", help="fractional order")
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--config", help="JSON file with default options")

    p_apply = sub.add_parser("apply", help="apply a fractional power to a vector")
    common(p_apply)

    p_ext = sub.add_parser("extend", help="sample the extension curve")
    common(p_ext)
    p_ext.add_argument("--grid", help="geometric grid spec y_min:y_max:n")
    p_ext.add_argument("--format", choices=("csv", "json"))
    p_ext.add_argument("--negative-order", action="store_true", default=None,
                       help="treat --u as an order -s functional")

    p_ver = sub.add_parser("verify", help="run the identity verification suite")
    common(p_ver)
    p_ver.add_argument("--tol", help="tolerance override for every check")
    p_ver.add_argument("--checks",
                       help=f"comma-separated subset of: {', '.join(CHECK_NAMES)}")
    p_ver.add_argument("--lambda", dest="lam", help="eigenvalue restriction")

    p_min = sub.add_parser("minimize", help="variational verification by finite elements")
    common(p_min)
    p_min.add_argument("--tol", help="relative tolerance of the minima")
    p_min.add_argument("--nodes", help="mesh nodes per mode")
    p_min.add_argument("--negative-order", action="store_true", default=None)
    p_min.add_argument("--dump-profile",
                       help="CSV dump of (grid, minimiser, closed form) for mode 1")
    return parser


_COMMANDS = {
    "apply": _cmd_apply,
    "extend": _cmd_extend,
    "verify": _cmd_verify,
    "minimize": _cmd_minimize,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            with open(args.config) as fh:
                args.config_data = json.load(fh)
            if not isinstance(args.config_data, dict):
                raise ValueError("config file must hold a JSON object")
        except (OSError, ValueError) as err:
            print(f"config error: {err}", file=sys.stderr)
            return _USAGE_ERROR
    else:
        args.config_data = {}
    try:
        return _COMMANDS[args.command](args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return _USAGE_ERROR
    except (ValueError, OverflowError) as err:
        print(f"domain error: {err}", file=sys.stderr)
        return _DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
