"""Reference speed of the host: a fixed CPU kernel timed next to each op.

On a host whose cores are shared with other tenants, a core's speed can
change by half over periods of seconds to minutes, and a whole benchmark
run can fall into a slow period. Medians and minima over a run do not
remove that. The kernel below, which uses no part of hyperbin, slows with
the host as the ops do. Timed right before and right after each op, it
gives the op's time at reference speed: the wall time multiplied by
NOMINAL_S / (mean of the two kernel times). Reference speed is the speed at
which one kernel run takes NOMINAL_S.

The kernel mixes what the ops do: interpreted Python, numpy on small arrays
(XOR, popcount by table lookup, exp, row sums, boolean indexing) and
passes over arrays larger than the L2 cache. Its buffers are allocated once,
so it adds a fixed 5 MB to the process and almost nothing per run.
"""

from __future__ import annotations

import functools
import time

import numpy as np

# One kernel run on a quiet core of a 2.0 GHz Xeon (numpy 2.4, one BLAS
# thread) takes about this long.
NOMINAL_S = 0.030
# Longest reference block; longer ops get their reading from two such blocks.
MAX_BLOCK_S = 2.0


@functools.cache
def _inputs():
    """Built on first use, so importing this module costs set-up nothing."""
    rng = np.random.default_rng(0)
    rows = rng.random((2000, 16))
    left = rng.integers(0, 1 << 12, 2000)
    right = rng.integers(0, 1 << 12, 16)
    popcount = np.bitwise_count(np.arange(1 << 12))
    long = rng.random(1 << 18)
    return rows, left, right, popcount, long, np.empty_like(long), np.empty(len(long[::3]))


def kernel() -> float:
    rows, left, right, popcount, long, long_out, strided = _inputs()
    s, seen = 0, {}
    for i in range(120_000):
        s += i * i
        seen[i & 255] = s
    total = float(s & 0xFFFF)
    for _ in range(50):
        h = popcount[left[:, None] ^ right[None, :]]
        total += float(np.exp(-rows * h).sum(axis=1).max())
        total += float(rows[np.flatnonzero(h[:, 0] > 5)].sum())
    for _ in range(3):
        np.multiply(long, 1.5, out=long_out)
        strided[:] = long_out[::3]
        strided.sort()
        total += float(strided[::1024].sum())
    return total


def block(cover: float = 0.0) -> float:
    """Mean time of one kernel run, repeated until the block lasts half of
    `cover` (the op it stands beside) or MAX_BLOCK_S, so that one reading
    weighs about as much as the op it scales."""
    runs, start = 0, time.perf_counter()
    while True:
        kernel()
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min(0.5 * cover, MAX_BLOCK_S):
            return elapsed / runs


def at_reference_speed(seconds: float, reference: float) -> float:
    """`seconds` of wall time stated at reference speed, given the mean
    kernel time `reference` measured around it."""
    return seconds * NOMINAL_S / reference

