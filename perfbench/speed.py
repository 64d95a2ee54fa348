"""Machine-speed reference for the benchmark's time metrics.

On a shared host the same code runs up to twice as fast or as slow from
one stretch of seconds to the next, so raw wall times of whole runs scatter
by 20-25 % between runs.  Every timed operation is therefore bracketed by
samples of a fixed pure-Python loop: a Temme-style series, scalar float
arithmetic and calls like the Bessel code that dominates fracext.  Of the
loops tried, this one tracked both fracext's profile kernel and its FE
solve best: over 90 one-second windows on a 2-vCPU virtual machine their
time ratio to it varied by 1.5 % and 2.4 % (coefficient of variation),
against 12 % for raw time.
A time is reported as

    raw time * REFERENCE_S / (loop time sampled around the interval),

that is, in seconds at the speed at which the loop takes REFERENCE_S.  The
loop never calls fracext, so a change to fracext cannot move it.
"""

from __future__ import annotations

import math
import statistics
import time

REFERENCE_S = 0.0012  # the loop's time at the reference speed
_PAIRS = 150
_REPEATS = 3


def _series_pair(mu, x):
    """A Temme-style series step pair, shaped like fracext's scalar kernel."""
    total = 0.0
    p = 0.5 * math.exp(mu)
    q = 0.5 / math.exp(mu)
    c = ff = 1.0
    for k in range(1, 40):
        ff = (k * ff + p + q) / (k * k - mu * mu)
        c *= x / k
        p /= k - mu
        q /= k + mu
        total += c * ff
        if abs(c * ff) < 1e-17 * abs(total):
            break
    return total, total * 2.0 / x


def _loop():
    acc = 0.0
    for i in range(_PAIRS):
        a, b = _series_pair(0.3 + i * 1e-3, 0.5 + (i % 10) * 0.1)
        acc += a - b
    return acc


def sample():
    """Median time of the reference loop over a few repeats, in seconds."""
    times = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def adjust(raw_s, loop_s):
    """``raw_s`` rescaled to the reference speed, given the loop's time
    ``loop_s`` measured around the timed interval."""
    return raw_s * REFERENCE_S / loop_s
