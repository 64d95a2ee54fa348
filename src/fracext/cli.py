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
or a path to a JSON file with the same content.  A ``--config FILE`` holds
a JSON object of flags, parsed in front of the command line's, which win: a
key is a long option, a string or number its value, ``true`` the bare flag.
``verify --s x`` runs each check at x if its identity is defined there, and
``fourier`` at no requested order.

Exit codes: 0 all good, 1 at least one verification check failed (a check
that raises, or whose report holds a NaN or infinity, prints a record with
an ``"error"`` field and counts as failed), 2 usage or configuration error,
3 domain error (invalid mathematical input, ``verify --s 2`` included).
Outputs are byte-identical across runs with the same configuration.  Checks
run sequentially.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .extension import (
    _fmt,
    _geometric_grid,
    curve_to_csv,
    curve_to_json,
    extend,
    extend_negative,
)
from .special import FracParams, _check_profile_order, psi_lambda
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


class _Parser(argparse.ArgumentParser):
    """argparse's own refusals are usage errors too: one line, exit 2."""

    def error(self, message):
        raise UsageError(message)


def _parse_number(text, what):
    """A finite float from a flag or a descriptor field; ``pi`` is
    accepted.  Anything else is a usage error."""
    if text.strip().lower() in ("pi", "+pi"):
        return math.pi
    try:
        value = float(text)
    except ValueError as err:
        raise UsageError(f"bad {what} {text!r}") from err
    if not math.isfinite(value):
        raise UsageError(f"{what} must be finite, got {text!r}")
    return value


def _parse_count(text, what):
    try:
        return int(text)
    except ValueError as err:
        raise UsageError(f"bad {what} {text!r}: want an integer") from err


def _finite_json(token):
    """json hook for float literals and NaN/Infinity: only finite numbers."""
    return _parse_number(token, "number in operator descriptor")


_SHORTHAND = {"dirichlet": "dirichlet_laplacian_1d",
              "neumann": "neumann_laplacian_1d",
              "explicit": "explicit_eigenvalues"}


def _split_descriptor(desc):
    """``(kind, fields)`` of a parsed descriptor, which must be a JSON
    object with a string kind; anything else is a ValueError."""
    if not isinstance(desc, dict) or not isinstance(desc.get("kind"), str):
        raise ValueError(f"an operator descriptor is a JSON object with a "
                         f"string 'kind' field, one of {tuple(_BUILDERS)}")
    fields = dict(desc)
    return fields.pop("kind"), fields


def _parse_operator(text):
    """Operator from shorthand, inline JSON, or a JSON file path.

    Parse-level failures raise UsageError; mathematically invalid but
    well-formed descriptors (negative eigenvalues etc.) raise ValueError.
    """
    if text is None:
        raise UsageError("missing --op")
    text = text.strip()
    try:
        if text.startswith("{"):
            desc = json.loads(text, parse_float=_finite_json,
                              parse_constant=_finite_json)
        elif os.path.exists(text):
            with open(text) as fh:
                desc = json.load(fh, parse_float=_finite_json,
                                 parse_constant=_finite_json)
        else:
            name, *fields = text.split(":")
            kind = _SHORTHAND.get(name.lower(), name.lower())
            if kind.endswith("_laplacian_1d") and len(fields) == 2:
                desc = {"kind": kind,
                        "length": _parse_number(fields[0], "length"),
                        "modes": _parse_count(fields[1], "mode count")}
            elif kind == "explicit_eigenvalues" and len(fields) == 1:
                desc = {"kind": kind,
                        "values": [_parse_number(v, "eigenvalue")
                                   for v in fields[0].split(",")]}
            else:
                raise UsageError(
                    f"cannot parse operator {text!r}: expected "
                    f"dirichlet:L:J, neumann:L:J, explicit:v1,v2,..., "
                    f"inline JSON, or a file path")
        kind, fields = _split_descriptor(desc)
    except UsageError:
        raise
    except ValueError as err:  # not JSON, or no object with a string kind
        raise UsageError(f"bad operator descriptor {text!r}: {err}") from err
    if kind not in _BUILDERS:
        raise UsageError(f"unknown operator kind {kind!r}")
    try:
        return build_operator(kind, **fields)
    except TypeError as err:  # a missing or unknown descriptor field
        raise UsageError(f"bad operator descriptor {text!r}: {err}") from err


def _parse_vector(text, spectrum):
    if text is None:
        raise UsageError("missing --u")
    coeffs = np.array([_parse_number(v, "coefficient")
                       for v in text.split(",")])
    if coeffs.size != spectrum.size:
        raise UsageError(
            f"vector has {coeffs.size} entries but the operator has "
            f"{spectrum.size} modes")
    return ModalVector(coeffs, spectrum)


def _parse_order(text):
    if text is None:
        raise UsageError("missing --s")
    return _parse_number(text, "order")


def _parse_tol(text):
    if text is None:
        return None
    tol = _parse_number(text, "tolerance")
    if tol < 0.0:  # no report could pass it: a bad flag, not a failed check
        raise UsageError(f"tolerance must not be negative, got {text!r}")
    return tol


def _parse_grid(text):
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as err:
        raise UsageError(f"bad grid spec {text!r} (want y_min:y_max:n)") from err
    if n < 3 or not 0 < lo < hi < math.inf:
        raise UsageError(
            f"bad grid spec {text!r}: need 0 < y_min < y_max finite and "
            f"n >= 3")
    return _geometric_grid(lo, hi, n)


def _write(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_apply(args):
    spectrum, _ = _parse_operator(args.op)
    u = _parse_vector(args.u, spectrum)
    s = _parse_order(args.s)
    result = apply_power(u, s)
    norms = {"norm_source_hs": sobolev_norm(u, s),
             "norm_result_dual": sobolev_norm(result, -s)}
    _require_finite(f"a norm of u or L^{s} u", *norms.values())
    lines = [
        "[" + ", ".join(_fmt(c) for c in result.coeffs) + "]",
        json.dumps(norms),
    ]
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_extend(args):
    spectrum, _ = _parse_operator(args.op)
    u = _parse_vector(args.u, spectrum)
    s = _parse_order(args.s)
    grid = _parse_grid(args.grid) if args.grid else None
    curve = (extend_negative if args.negative_order else extend)(u, s, grid)
    text = (curve_to_json(curve) + "\n" if args.format == "json"
            else curve_to_csv(curve))
    _write(text, args.out)
    return 0


def _cmd_verify(args):
    cfg = RunConfig(tol=_parse_tol(args.tol))
    # the order and eigenvalue are checked here, before any check runs
    if args.s is not None:
        # every check would meet the profile's ceiling
        s = _check_profile_order(FracParams.from_order(_parse_order(args.s)).s)
        cfg.s_values = (s,)
    if args.lam is not None:
        lam = _parse_number(args.lam, "eigenvalue")
        if not lam > 0.0:
            raise ValueError(f"--lambda must be positive, got {args.lam}")
        cfg.lam_values = (lam,)
    try:
        reports = run_checks(args.checks, cfg)
    except ValueError as err:  # an unknown check name
        raise UsageError(str(err)) from err
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
    _write("\n".join(lines + [summary]) + "\n", args.out)
    if args.out:
        print(summary)
    return 0 if n_pass == len(reports) else 1


def _cmd_minimize(args):
    if args.negative_order and args.dump_profile:
        raise UsageError("--dump-profile writes the positive-order minimiser "
                         "and does not combine with --negative-order")
    spectrum, _ = _parse_operator(args.op)
    u = _parse_vector(args.u, spectrum)
    s = _parse_order(args.s)
    nodes = _parse_count(args.nodes, "node count")
    tol = _parse_tol(args.tol)
    if args.negative_order:
        report, trace = minimize_negative(u, s, n_nodes=nodes)
        lines = ["[" + ", ".join(_fmt(c) for c in trace.coeffs) + "]"]
    else:
        report = minimize_curve(u, s, n_nodes=nodes)
        lines = []
        if args.dump_profile:
            if not spectrum.positive.size:
                raise ValueError("--dump-profile needs a positive eigenvalue")
            lam = float(spectrum.positive[0])
            _, prof = minimize_profile(s, lam, n_nodes=nodes)
            closed = psi_lambda(s, lam, prof.grid)
            np.savetxt(args.dump_profile,
                       np.column_stack((prof.grid, prof.values, closed)),
                       fmt="%.17g", delimiter=",",
                       header="y,fe_minimizer,profile", comments="")
    if tol is not None:
        report = report.at(tol)
    _write("\n".join([report.to_json()] + lines) + "\n", args.out)
    return 0 if report.passed else 1


def _build_parser():
    parser = _Parser(
        prog="fracext",
        description="Fractional operator powers via Bessel-kernel extension "
                    "curves: transforms and identity verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, operand=True):
        if operand:  # verify reads no operator and no vector
            p.add_argument("--op", help="operator descriptor (shorthand, JSON, or file)")
            p.add_argument("--u", help="comma-separated modal coefficients")
        p.add_argument("--s", help="fractional order")
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--config", help="JSON file with default options")

    p_apply = sub.add_parser("apply", help="apply a fractional power to a vector")
    common(p_apply)
    p_apply.set_defaults(run=_cmd_apply)

    p_ext = sub.add_parser("extend", help="sample the extension curve")
    common(p_ext)
    p_ext.add_argument("--grid", help="geometric grid spec y_min:y_max:n")
    p_ext.add_argument("--format", choices=("csv", "json"), default="csv")
    p_ext.add_argument("--negative-order", action="store_true",
                       help="treat --u as an order -s functional")
    p_ext.set_defaults(run=_cmd_extend)

    p_ver = sub.add_parser("verify", help="run the identity verification suite")
    common(p_ver, operand=False)
    p_ver.add_argument("--tol", help="tolerance override for every check")
    p_ver.add_argument("--checks",
                       type=lambda text: [c.strip() for c in text.split(",")
                                          if c.strip()],
                       help=f"comma-separated subset of: {', '.join(CHECK_NAMES)}")
    p_ver.add_argument("--lambda", dest="lam", help="eigenvalue restriction")
    p_ver.set_defaults(run=_cmd_verify)

    p_min = sub.add_parser("minimize", help="variational verification by finite elements")
    common(p_min)
    p_min.add_argument("--tol", help="relative tolerance of the minima")
    p_min.add_argument("--nodes", default=2000, help="mesh nodes per mode")
    p_min.add_argument("--negative-order", action="store_true")
    p_min.add_argument("--dump-profile",
                       help="CSV dump of (grid, minimiser, closed form) for mode 1")
    p_min.set_defaults(run=_cmd_minimize)
    return parser


def _with_config(argv, args):
    """``argv`` with the ``--config`` entries as flag tokens in front of the
    subcommand's own arguments, which win by coming later."""
    try:
        with open(args.config) as fh:
            entries = json.load(fh)
        if not isinstance(entries, dict):
            raise ValueError("it must hold a JSON object")
    except (OSError, ValueError) as err:
        raise UsageError(f"cannot read config {args.config!r}: {err}") from err
    tokens = []
    for key, value in entries.items():
        flag = "--" + key.replace("_", "-")
        if "--config".startswith(flag):  # names --config, or is ambiguous
            raise UsageError(f"config key {key!r} names --config")
        if value is False or value is None:
            continue
        if not isinstance(value, (str, int, float)):
            raise UsageError(f"config key {key!r}: want a string, a number, "
                             f"true, false or null")
        tokens.append(flag if value is True else f"{flag}={value}")
    # the top-level parser takes no option, so argv[0] is the subcommand
    return argv[:1] + tokens + argv[1:]


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args(_with_config(argv, args))
        return args.run(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return _USAGE_ERROR
    except (ValueError, OverflowError) as err:
        print(f"domain error: {err}", file=sys.stderr)
        return _DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
