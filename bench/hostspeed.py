"""Host-speed normalisation for timings taken on a shared machine.

The host this benchmark runs on shares its cores: from one second to the
next the same Python code runs up to a third slower, and the slowdown does
not show as steal time. A fixed reference loop timed between measured
operations slows down with it, so every timing is scaled by
NOMINAL_S / (the reference loop's time around it): the result is the host
time the operation would take on a host where the reference loop takes
NOMINAL_S. The loop is run once untimed before each timed run, so its time
reflects the host's speed and not how much of the cache the measured
operation evicted.

Never change `reference_loop` or NOMINAL_S: every normalised time the
benchmark has reported is relative to them.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 20e-6  # the reference loop on a 2-core Intel Xeon VM, Python 3.11
WINDOW_S = 0.02    # consecutive operations share one median reference time per 20 ms

_TABLE = {i: i * 0.5 for i in range(64)}


def reference_loop() -> float:
    """Fixed pure-Python work: dict lookups and float arithmetic."""
    acc = 0.0
    table = _TABLE
    for i in range(300):
        acc += table[i & 63] * 1.0001
    return acc


def time_reference() -> float:
    """Seconds of one warm run of the reference loop."""
    reference_loop()
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def normalise(times: list, references: list) -> list:
    """Scale back-to-back timings by the reference times taken between them.

    `references[i]` was taken just before `times[i]` and
    `references[i + 1]` just after it. Timings are grouped into windows of
    at least WINDOW_S, and each window is scaled by the median of the
    reference times that bracket it.
    """
    out = []
    start = 0
    while start < len(times):
        end, total = start, 0.0
        while end < len(times) and total < WINDOW_S:
            total += times[end]
            end += 1
        factor = NOMINAL_S / statistics.median(references[start:end + 1])
        out.extend(t * factor for t in times[start:end])
        start = end
    return out
