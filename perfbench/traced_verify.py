"""`fracext verify` with default configuration, every layer traced.

Started by run.py as one traced verify_cli operation:

    python3 perfbench/traced_verify.py SPANS.npz

It times a fresh ``import fracext``, installs the tracer, runs the CLI
in-process, writes the CLI's stdout unchanged to its own stdout, saves the
spans and counters to SPANS.npz and exits with the CLI's exit code.
"""

from __future__ import annotations

import io
import sys
import time


def main():
    spans_path = sys.argv[1]
    t0 = time.perf_counter()
    import fracext
    import_ms = (time.perf_counter() - t0) * 1e3
    import fracext.cli
    from tracer import Tracer

    tracer = Tracer()
    captured = io.StringIO()
    stdout, sys.stdout = sys.stdout, captured
    try:
        code, _ = tracer.run_op(0, lambda: fracext.cli.main(["verify"]))
    finally:
        sys.stdout = stdout
    data = captured.getvalue().encode()
    sys.stdout.buffer.write(data)
    sys.stdout.flush()
    tracer.spans().save(spans_path, meta={
        "counts": tracer.counters(), "import_ms": import_ms,
        "output_bytes": len(data)})
    return code


if __name__ == "__main__":
    sys.exit(main())
