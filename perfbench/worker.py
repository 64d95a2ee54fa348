"""One warm process of the curve_batch or fe_batch workload.

Started by run.py, never by hand.  The worker imports fracext from the
checkout, runs one untimed warm-up operation, and prints a first JSON line
(``ready``).  With ``--role setup`` it stops there: run.py times several such
set-ups.  With ``--role measure`` it then runs whole rounds of operations
until ``--seconds`` have passed and prints a second JSON line with the
operation times (each bracketed by speed samples) and the failures.  With
``--trace 1`` every
round runs twice on the same inputs, untraced and then traced, and the
spans go to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import speed


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _import_fracext():
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import fracext
    import_ms = (time.perf_counter() - t0) * 1e3
    where = os.path.realpath(fracext.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"fracext imported from {where}, not from the checkout")
    return fracext, import_ms


def _run_checked(fx, run, check, inp, tracer=None, index=0):
    """(seconds, errors); a raising operation counts as failed, not as wrong."""
    try:
        if tracer is None:
            t0 = time.perf_counter()
            out = run(fx, inp)
            elapsed = time.perf_counter() - t0
        else:
            out, elapsed = tracer.run_op(index, run, fx, inp)
    except Exception as err:  # the operation failed; the run goes on
        return None, [f"raised {type(err).__name__}: {err}"]
    return elapsed, check(inp, out)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=("curve_batch", "fe_batch"),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    fx, import_ms = _import_fracext()
    import ops
    make_input, run, check, round_size = ops.WARM[args.workload]
    warm = make_input(args.seed, 0, warmup=True)
    _, warm_errors = _run_checked(fx, run, check, warm)
    print(json.dumps({"ready": True, "warmup_errors": warm_errors}),
          flush=True)
    if args.role == "setup":
        return

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    times, traced_times, raw_times, errors = [], [], [], []
    last = speed.sample()
    attempted = failed = wrong = 0
    index = 0
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        inputs = [make_input(args.seed, index + k) for k in range(round_size)]
        passes = [(None, times)] + ([(tracer, traced_times)] if tracer else [])
        for tr, sink in passes:
            for k, inp in enumerate(inputs):
                elapsed, errs = _run_checked(fx, run, check, inp, tr, index + k)
                now = speed.sample()
                attempted += 1
                if errs:
                    failed += 1
                    wrong += elapsed is not None and not inp.get("probe")
                    errors.append(f"op {index + k}: {'; '.join(errs)}")
                elif not inp.get("probe"):
                    sink.append(speed.adjust(elapsed, (last + now) / 2))
                    if tr is None:
                        raw_times.append(elapsed)
                last = now
        index += round_size

    result = {"attempted": attempted, "failed": failed, "wrong": wrong,
              "errors": errors[:20], "op_s": times, "traced_op_s": traced_times,
              "raw_op_s": raw_times, "import_ms": import_ms}
    if tracer is not None:
        tracer.spans().save(args.spans, meta={"counts": tracer.counters()})
        result["traced_ops"] = attempted // 2
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
