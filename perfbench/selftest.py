"""Quick self-test of the benchmark (about a minute):

    python3 perfbench/selftest.py

1. Each workload runs end to end for one second through run.py, and its
   result line is well formed, correct, and has the expected failure share.
2. The checks catch wrong outputs: in each workload one output coefficient
   is scaled by 1.01 and the operation must come out as failed.
3. The metric names printed by run.py are those of BENCHMARK.json, and the
   per-check metrics cover every check of `fracext verify`.
Exits 1 and names each failed expectation otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import fracext  # noqa: E402
import ops  # noqa: E402
import tracer  # noqa: E402
from run import child_env  # noqa: E402
from worker import _run_checked  # noqa: E402

FAILURES = []
PERTURB = 1.01


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(spec):
    names = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    probe_share = {"fe_batch": 1 / len(ops.FE_KINDS)}
    for workload in ("verify_cli", "curve_batch", "fe_batch"):
        for trace in (0, 1):
            res = run_bench(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(res is not None, f"{label} exits 0 with a result")
            if res is None:
                continue
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                   f"{label} result has exactly the four keys")
            expect(res["correct"] is True, f"{label} outputs are correct")
            share = res["failed"] / res["attempted"]
            expect(share == probe_share.get(workload, 0.0),
                   f"{label} failed share {share} is the probe share")
            expect(list(res["metrics"]) == names[trace],
                   f"{label} prints the BENCHMARK.json metrics in order")


def perturbed(run, key, index):
    def wrong(fx, inp):
        out = run(fx, inp)
        out[key] = out[key].copy()
        out[key][index] *= PERTURB
        return out
    return wrong


def negative_cases():
    inp = ops.curve_input(7, 0)
    for key, index in (("trace", 3), ("conormal", 5)):
        _, errs = _run_checked(fracext, perturbed(ops.curve_op, key, index),
                               ops.curve_check, inp)
        expect(bool(errs), f"curve_batch flags a scaled {key} coefficient: {errs}")
    j, i = inp["samples"][0]
    _, errs = _run_checked(fracext, perturbed(ops.curve_op, "values", (j, i)),
                           ops.curve_check, inp)
    expect(bool(errs), f"curve_batch flags a scaled extend entry: {errs}")

    inp = ops.fe_input(7, 0)
    _, errs = _run_checked(fracext, perturbed(ops.fe_op, "trace", 2),
                           ops.fe_check, inp)
    expect(bool(errs), f"fe_batch flags a scaled trace coefficient: {errs}")
    _, errs = _run_checked(fracext, ops.fe_op, ops.fe_check, ops.fe_input(7, 2))
    expect(errs == ["minimize_curve_below_closed_form"],
           f"fe_batch probe shows the FE cancellation fault: {errs}")

    proc = subprocess.run([sys.executable, "-m", "fracext.cli", "verify"],
                          cwd=ROOT, env=child_env(), capture_output=True)
    with open(os.path.join(HERE, "verify_names.txt")) as fh:
        names = fh.read().splitlines()
    expect(ops.verify_check(proc.returncode, proc.stdout, names,
                            proc.stdout) == [], "verify output passes its checks")
    lines = proc.stdout.decode().splitlines()
    rep = json.loads(lines[0])
    lines[0] = json.dumps(dict(rep, lhs=rep["lhs"] * PERTURB))
    bad = ("\n".join(lines) + "\n").encode()
    errs = ops.verify_check(0, bad, names)
    expect(bool(errs), f"verify_cli flags a scaled energy lhs: {errs}")
    expect(sum(ops.closed_form_rhs(n) is not None for n in names) == 38,
           "verify_cli recomputes 38 reports from closed forms")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expect(tuple(tracer.CHECK_NAMES) == tuple(fracext.suite.CHECK_NAMES),
           "tracer.CHECK_NAMES matches fracext.suite.CHECK_NAMES")
    negative_cases()
    end_to_end(spec)
    print(f"{len(FAILURES)} failed expectation(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
