#!/usr/bin/env python3
"""Benchmark of fracext: three workloads behind one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``verify_cli``, ``curve_batch`` or ``fe_batch`` (see README.md).
fracext is imported from ``src/`` of the checkout that holds this file;
without it the command exits 2 and prints no result.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Details of every run (each operation
time, set-up samples, errors, spans) go to ``perfbench-out/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time

import ops
import speed
from tracer import CHECK_NAMES, SpanSet, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, "perfbench-out")
WORKLOADS = ("verify_cli", "curve_batch", "fe_batch")
SETUPS = 3  # set-up is repeated and its median reported
DEADLINE_S = 170  # a run that is not done by then is killed
SAMPLE_EVERY_S = 0.1  # speed sampling interval while a timed child runs


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _on_signal(signum, frame):
    """Stop the run; the running child is killed on the way out."""
    if signum == signal.SIGALRM:
        raise BenchError(f"run exceeded {DEADLINE_S} s")
    raise BenchError(f"stopped by signal {signum}")


def child_env():
    """Environment of every process that runs fracext: one BLAS thread,
    FRACEXT_THREADS unset, fracext from the checkout, bytecode cache on."""
    env = dict(os.environ)
    env.pop("FRACEXT_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return env


class Tally:
    """Attempted, failed and wrong operations of one run."""

    def __init__(self):
        self.times, self.traced_times, self.raw_times = [], [], []
        self.errors = []
        self.attempted = self.failed = self.wrong = 0
        self.warmup_errors = []

    def record(self, sink, elapsed, errs, label):
        """Count one operation; only those that passed are timed."""
        self.attempted += 1
        if elapsed is not None and not errs:
            sink.append(elapsed)
        if errs:
            self.failed += 1
            self.wrong += elapsed is not None
            self.errors.append(f"{label}: {'; '.join(errs)}")


def run_child(cmd, env, until_first_line=False):
    """Run ``cmd`` to its end; returns (speed-adjusted s, raw s, result).

    The child shares this process's one CPU.  While the child runs, this
    process takes a speed sample whenever the child has been quiet for
    SAMPLE_EVERY_S, so the samples cover the whole timed span; the time the
    samples took is not counted as the child's.  The timed span ends when
    the child exits, or with ``until_first_line`` when its first line of
    stdout arrives; sampling stops there too.
    """
    samples = [speed.sample()]
    sampling = 0.0
    end = None
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        try:
            fds = proc.stdout.fileno(), proc.stderr.fileno()
            out = {fd: bytearray() for fd in fds}
            open_fds = list(fds)
            while open_fds:
                wait = SAMPLE_EVERY_S if end is None else None
                ready, _, _ = select.select(open_fds, [], [], wait)
                for fd in ready:
                    chunk = os.read(fd, 1 << 16)
                    if chunk:
                        out[fd] += chunk
                    else:
                        open_fds.remove(fd)
                if end is None and until_first_line and b"\n" in out[fds[0]]:
                    end = time.perf_counter()
                if end is None and not ready:
                    s0 = time.perf_counter()
                    samples.append(speed.sample())
                    sampling += time.perf_counter() - s0
            proc.wait()
        except BaseException:
            proc.kill()
            raise
    raw = (end or time.perf_counter()) - t0 - sampling
    result = subprocess.CompletedProcess(cmd, proc.returncode,
                                         *(bytes(out[fd]) for fd in fds))
    return speed.adjust(raw, statistics.median(samples)), raw, result


# ---------------------------------------------------------------------------
# verify_cli: one fresh `python -m fracext.cli verify` process per operation


def _verify_process(env, spans_path=None):
    if spans_path is None:
        cmd = [sys.executable, "-m", "fracext.cli", "verify"]
    else:
        cmd = [sys.executable, os.path.join(HERE, "traced_verify.py"), spans_path]
    return run_child(cmd, env)


def run_verify_cli(args, env):
    with open(os.path.join(HERE, "verify_names.txt")) as fh:
        names = fh.read().splitlines()
    tally = Tally()
    setup, reference = [], None
    for _ in range(1 if args.trace else SETUPS):
        elapsed, _, proc = _verify_process(env)
        setup.append(elapsed)
        tally.warmup_errors += ops.verify_check(proc.returncode, proc.stdout,
                                                names, reference)
        reference = reference or proc.stdout

    spans, metas = [], []
    spans_path = os.path.join(OUT_DIR, "verify_cli-op.npz")
    index = 0
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        elapsed, raw, proc = _verify_process(env)
        errs = ops.verify_check(proc.returncode, proc.stdout, names, reference)
        tally.record(tally.times, None if proc.returncode else elapsed, errs,
                     f"op {index}")
        if not (errs or proc.returncode):
            tally.raw_times.append(raw)
        if args.trace:
            elapsed, _, proc = _verify_process(env, spans_path)
            errs = ops.verify_check(proc.returncode, proc.stdout, names,
                                    reference)
            tally.record(tally.traced_times,
                         None if proc.returncode else elapsed, errs,
                         f"traced op {index}")
            if os.path.exists(spans_path):
                s, meta = SpanSet.load(spans_path)
                os.remove(spans_path)
                s.op[:] = index
                spans.append(s)
                metas.append(meta)
        index += 1

    if not args.trace:
        return tally, setup, None
    if not metas:
        raise BenchError("no traced verify process left spans")
    counts = {k: sum(m["counts"][k] for m in metas) for k in metas[0]["counts"]}
    spans = SpanSet.concat(spans)
    spans.save(os.path.join(OUT_DIR, "verify_cli-spans.npz"),
               meta={"counts": counts})
    return tally, setup, {
        "spans": spans, "counts": counts, "ops": len(metas),
        "import_ms": statistics.median(m["import_ms"] for m in metas),
        "output_bytes": statistics.mean(m["output_bytes"] for m in metas)}


# ---------------------------------------------------------------------------
# curve_batch, fe_batch: whole rounds of operations in one warm worker


def run_warm(args, env):
    tally = Tally()
    setup = []
    spans_path = os.path.join(OUT_DIR, f"{args.workload}-spans.npz")
    n = 1 if args.trace else SETUPS
    for k in range(n):
        role = "measure" if k == n - 1 else "setup"
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--role", role, "--spans", spans_path]
        elapsed, _, proc = run_child(cmd, env, until_first_line=True)
        lines = proc.stdout.decode().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr.decode())
            raise BenchError(f"{role} worker exited {proc.returncode}")
        setup.append(elapsed)
        tally.warmup_errors += json.loads(lines[0])["warmup_errors"]
    result = json.loads(lines[-1])
    tally.times = result["op_s"]
    tally.traced_times = result["traced_op_s"]
    tally.raw_times = result["raw_op_s"]
    tally.attempted, tally.failed = result["attempted"], result["failed"]
    tally.wrong, tally.errors = result["wrong"], result["errors"]
    if not args.trace:
        return tally, setup, None
    spans, meta = SpanSet.load(spans_path)
    return tally, setup, {"spans": spans, "counts": meta["counts"],
                          "ops": result["traced_ops"],
                          "import_ms": result["import_ms"], "output_bytes": 0.0}


# ---------------------------------------------------------------------------


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "fracext", "__init__.py")):
        print(f"perfbench: no fracext sources under {ROOT}/src", file=sys.stderr)
        return 2

    # one CPU for the benchmark and every process it starts, so the speed
    # samples taken here describe the CPU the measured child runs on
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as err:
        print(f"perfbench: running unpinned: {err}", file=sys.stderr)
    for sig in (signal.SIGALRM, signal.SIGTERM):
        signal.signal(sig, _on_signal)
    signal.alarm(DEADLINE_S)
    os.makedirs(OUT_DIR, exist_ok=True)
    runner = run_verify_cli if args.workload == "verify_cli" else run_warm
    try:
        tally, setup, layer = runner(args, child_env())
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    if not tally.times:
        print("perfbench: no operation completed", file=sys.stderr)
        return 1

    times = tally.times
    if layer is None:
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "ops_per_s": _metric(len(times) / sum(times), "1/s"),
            "op_ms_p50": _metric(statistics.median(times) * 1e3, "ms"),
            "peak_rss_mb": _metric(resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB"),
        }
    else:
        overhead = 100.0 * (sum(tally.traced_times) / sum(times) - 1.0)
        metrics = layer_metrics(layer["spans"], layer["counts"],
                                layer["ops"], CHECK_NAMES,
                                layer["import_ms"], layer["output_bytes"],
                                overhead)
    result = {"correct": tally.wrong == 0 and not tally.warmup_errors,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, setup_s=setup,
                  op_ms=[t * 1e3 for t in times],
                  raw_op_ms=[t * 1e3 for t in tally.raw_times],
                  traced_op_ms=[t * 1e3 for t in tally.traced_times],
                  op_ms_p90=_percentile(times, 90) * 1e3, ops=len(times),
                  errors=tally.errors, warmup_errors=tally.warmup_errors)
    name = f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
