"""Host-speed reference: a fixed pure-Python kernel timed around each pass.

On a shared two-core host the same pass runs up to two or three times as
slow for minutes at a time, while nothing in the process waits: CPU time
tracks wall time, and there is no steal time or CPU-quota throttling.  Over
one six-minute set of ten runs, faster-cold's median pass went from 1.8 s to
3.0 s, an interquartile spread of 0.38 of the median.  No run length or
median removes a slowdown that lasts longer than a run.

The kernel slows down with the host, and each reported time is scaled by
``NOMINAL_S / kernel time``. It has two halves: a walk over a small
adjacency list with dict counters and small calls (compute-bound, like the
scheduler's hot loops), then building and reading 12,000 small dicts in
chunks of 1,000 (allocation-bound, like record and spec handling). The
compute half alone cut the spread of 8-pass faster-cold medians from 0.28 to
0.07, but tracked undispersed-seeds poorly in other periods. In one 30-pass
sample per workload, combining the two halves cut the spread of 6-pass
medians from 0.16 to 0.11 on faster-cold and from 0.08 to 0.03 on
undispersed-seeds.

The kernel uses only the standard library and lives with the benchmark, so
a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

#: Reported times are scaled to a host on which the kernel takes this long.
#: On the 2-core Intel Xeon (2.1 GHz, Python 3.11) the benchmark was built
#: on, it took 22 ms to 49 ms during a contended period.
NOMINAL_S = 0.015

#: Kernel runs per sample; the sample is their median.
BURSTS = 7


def kernel() -> float:
    """Seconds for one run of the fixed kernel."""
    n = 64
    adjacency = [[(v + 1) % n, (v - 1) % n, (v * 7 + 3) % n] for v in range(n)]
    visits = {}

    def step(v: int, i: int) -> int:
        return adjacency[v][i % 3]

    v = 0
    start = time.perf_counter()
    for i in range(60_000):
        v = step(v, i ^ v)
        visits[v] = visits.get(v, 0) + 1
    for chunk in range(12):  # in chunks, so the peak memory stays small
        records = [{"n": i, "k": chunk, "pos": (i, i + 1), "ok": True} for i in range(1_000)]
        sum(r["n"] + r["pos"][1] for r in records if r["ok"])
    return time.perf_counter() - start


def sample() -> float:
    """Median kernel seconds over :data:`BURSTS` runs."""
    return statistics.median(kernel() for _ in range(BURSTS))
