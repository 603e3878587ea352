"""Rate-matrix builders for three adjacency structures and their
heat-kernel/mixing diagnostics.

All three graphs carry unit edge rates so comparisons isolate topology:
a path graph couples only nearest bins (diameter n-1, degree <= 2), the
complete graph couples everything (diameter 1, degree n-1), and the
bit-flip hypercube sits between them with diameter and degree both
log2(n). Generators follow the column convention (columns sum to zero).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .chain import dense_rate_matrix

KINDS = ("tridiagonal", "dense", "hypercube")

MAX_STATES = 4096
MIXING_TV = 0.01
MIXING_TOL = 1e-4


def n_states(kind: str, size: int) -> int:
    """`size` is the state count for path/complete graphs and the bit
    count for the hypercube."""
    if kind not in KINDS:
        raise ValueError(f"unknown adjacency kind {kind!r}; choose from {KINDS}")
    n = (1 << size) if kind == "hypercube" else size
    if n < 2:
        raise ValueError("need at least 2 states")
    if n > MAX_STATES:
        raise ValueError(f"{n} states exceeds the dense cap {MAX_STATES}")
    return n


def build_rate_matrix(kind: str, size: int) -> np.ndarray:
    n = n_states(kind, size)
    if kind == "hypercube":
        return dense_rate_matrix(size)
    if kind == "tridiagonal":
        R = np.zeros((n, n))
        idx = np.arange(n - 1)
        R[idx, idx + 1] = 1.0
        R[idx + 1, idx] = 1.0
    else:
        R = np.ones((n, n))
        np.fill_diagonal(R, 0.0)
    np.fill_diagonal(R, -R.sum(axis=0))
    return R


def graph_report(kind: str, size: int) -> tuple[int, int]:
    """(diameter, max out-degree) of the off-diagonal support."""
    R = build_rate_matrix(kind, size)
    adj = (R > 0).astype(np.int8)
    degree = int(adj.sum(axis=0).max())
    dist = shortest_path(csr_matrix(adj), unweighted=True, directed=False)
    if np.isinf(dist).any():
        raise ValueError(f"{kind} graph is disconnected")
    return int(dist.max()), degree


def heat_kernel(kind: str, size: int, t: float) -> np.ndarray:
    """Transition matrix after time t >= 0; rows and columns are
    probability vectors since the generators are symmetric."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return expm(t * build_rate_matrix(kind, size))


def mixing_time(kind: str, size: int) -> float:
    """Smallest t (to relative tolerance MIXING_TOL, by bisection) at which
    the chain started at state 0 is within MIXING_TV of uniform."""
    R = build_rate_matrix(kind, size)
    n = R.shape[0]
    p0 = np.zeros(n)
    p0[0] = 1.0

    def tv_at(t: float) -> float:
        pt = expm(t * R) @ p0
        return 0.5 * float(np.abs(pt - 1.0 / n).sum())

    hi = 1.0
    while tv_at(hi) > MIXING_TV:
        hi *= 2.0
        if hi > 1e6:
            raise RuntimeError("mixing time search diverged")
    lo = 0.0
    while hi - lo > MIXING_TOL * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if tv_at(mid) > MIXING_TV:
            lo = mid
        else:
            hi = mid
    return hi
