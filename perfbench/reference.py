"""Fixed reference work that gauges the speed of the machine at a moment.

The CPU speed seen by a process on a shared machine drifts by tens of percent
over minutes.  The benchmark runs ``reference_work`` before every sample and
after the last one, never during a sample, and divides each sample's times by
the mean of the reference times just before and just after it.  That removes
the part of the drift that the reference work and the suite feel alike.

The work does not use modshift, so no change to modshift can move it.  It
mixes the three kinds of work the suites do: interpreter loops over tuples and
dicts (per-site and per-character code), numpy calls on small arrays (row
operations in elimination) and numpy passes over large arrays (stencils on wide
tori).
"""

from __future__ import annotations

import time

import numpy as np


def _interpreter(n):
    table = {}
    acc = 0
    for i in range(n):
        key = (i & 255, (i >> 8) & 7)
        acc = (acc * 31 + key[0] * 7 + key[1]) % 1_000_003
        table[key] = table.get(key, 0) + acc
    return acc + len(table)


def _small_arrays(n):
    m = np.arange(64 * 64, dtype=np.int64).reshape(64, 64) % 7
    for i in range(n):
        r = i % 64
        m[r] = (m[r] + 3 * m[(r + 1) % 64]) % 7
    return int(m.sum())


def _large_arrays(n):
    a = np.arange(1 << 19, dtype=np.int64)
    for _ in range(n):
        a = (np.roll(a, 1) + 3 * a) % 5
    return int(a.sum())


# (name, function, size of one round); a round of each part takes about
# 10 ms on a 2 GHz Xeon.
PARTS = (
    ("interpreter", _interpreter, 18_000),
    ("small_arrays", _small_arrays, 2_000),
    ("large_arrays", _large_arrays, 1),
)
# The speed of a shared machine also jitters within a tenth of a second, so the
# parts take turns in short rounds and each one's time is summed over them all.
ROUNDS = 8


def reference_work():
    """Run ``ROUNDS`` rounds of every part; return ``{part: seconds}``, summed over rounds."""
    out = {name: 0.0 for name, _, _ in PARTS}
    for _ in range(ROUNDS):
        for name, fn, size in PARTS:
            t0 = time.perf_counter()
            fn(size)
            out[name] += time.perf_counter() - t0
    return out


if __name__ == "__main__":
    for _ in range(5):
        print({k: round(v, 4) for k, v in reference_work().items()})
