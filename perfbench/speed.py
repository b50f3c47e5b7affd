"""Machine-speed sampler, run as a child process beside a benchmark run.

On a shared machine the speed of the same code drifts by 20% or more over
seconds to minutes, which would swamp any regression bound.  This process
times a fixed reference about every 10 ms until its stdin closes, then
prints the samples as JSON [[start, seconds], ...].  Start times come from
perf_counter (CLOCK_MONOTONIC, shared by every process), so the benchmark
scales each operation by the reference times sampled while it ran.

The reference is three small loops in the styles the package spends its time
in: integer arithmetic over lists, numpy scalar indexing as in the
interpreted search kernel, and tuple-keyed dict and sort work as in graph
building.  Each alone tracks some workloads and not others.  It is benchmark
code, identical on both sides of any comparison.

Usage: python speed.py   (prints "ready" once sampling has begun)
"""

import json
import sys
import threading
import time

import numpy as np

# Median reference time on the 2-core Xeon VM the benchmark was defined on;
# normalised times are expressed at this speed.
NOMINAL_S = 0.0009

_LIST = list(range(64))
_IDX = np.arange(64, dtype=np.int64)
_ACC = np.zeros(64, dtype=np.int64)


def reference() -> int:
    total, seen = 0, set()
    for i in range(1500):
        total += _LIST[i & 63] * 3
        seen.add(i * 7 % 1001)
    for i in range(600):
        u = _IDX[i & 63]
        _ACC[u] += i
        if _ACC[u] > 10**12:
            _ACC[u] = 0
    counts = {}
    for i in range(400):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    return total + len(seen) + len(sorted(counts))


def main() -> None:
    stop = threading.Event()

    def wait_for_eof():
        sys.stdin.read()
        stop.set()

    threading.Thread(target=wait_for_eof, daemon=True).start()
    samples = []
    while not stop.is_set():
        t0 = time.perf_counter()
        reference()
        samples.append((t0, time.perf_counter() - t0))
        if len(samples) == 3:
            print("ready", flush=True)
        stop.wait(0.01)
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    main()
