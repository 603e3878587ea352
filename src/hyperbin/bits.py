"""Bit-vector state helpers shared by the chain, oracle and sampler modules.

States live on {0,1}^D and are stored as uint8 arrays of shape (..., D).
Dense objects (probability vectors, rate matrices) index states by the
little-endian integer whose bit i is state[i]; every dense array in the
package uses this same map.
"""

from __future__ import annotations

import numpy as np

# Dense 2^D vectors are capped to keep desk-scale runs in memory.
MAX_DENSE_BITS = 20


def state_to_index(bits: np.ndarray) -> np.ndarray | int:
    """Little-endian integer index of one state or a batch of states."""
    bits = np.asarray(bits)
    D = bits.shape[-1]
    if D > 63:
        raise ValueError(f"integer state index needs D <= 63, got D={D}")
    weights = (1 << np.arange(D, dtype=np.int64))
    idx = bits.astype(np.int64) @ weights
    if bits.ndim == 1:
        return int(idx)
    return idx


def index_to_state(index, D: int) -> np.ndarray:
    """Inverse of :func:`state_to_index`; accepts scalars or arrays."""
    idx = np.asarray(index, dtype=np.int64)
    bits = (idx[..., None] >> np.arange(D, dtype=np.int64)) & 1
    return bits.astype(np.uint8)


def all_states(D: int) -> np.ndarray:
    """All 2^D states as a (2^D, D) uint8 array, row i encoding index i."""
    if D > MAX_DENSE_BITS:
        raise ValueError(f"enumerating 2^{D} states exceeds the dense cap")
    return index_to_state(np.arange(1 << D), D)


def hamming_to_rows(states: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distances between (B, D) states and (P, D) rows.

    Computed as a matrix product so it works for any D (no integer
    packing): popcount(s ^ r) = |s| + |r| - 2 s.r.
    """
    S = np.asarray(states, dtype=np.float64)
    R = np.asarray(rows, dtype=np.float64)
    ham = S.sum(axis=-1, keepdims=True) + R.sum(axis=-1)[None, :] - 2.0 * (S @ R.T)
    return np.rint(ham).astype(np.int64)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer; a cheap vectorized PRF used for reproducible
    perturbation noise. Operates on uint64 arrays with wraparound."""
    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def state_key(states: np.ndarray) -> np.ndarray:
    """Fold a (B, D) bit array into one uint64 key per row.

    Keys are mixed word-by-word through :func:`splitmix64`, so they are
    stable across runs and platforms and defined for any D.
    """
    bits = np.atleast_2d(np.asarray(states, dtype=np.uint64))
    B, D = bits.shape
    key = np.zeros(B, dtype=np.uint64)
    for lo in range(0, D, 64):
        word = bits[:, lo : lo + 64]
        weights = np.uint64(1) << np.arange(word.shape[1], dtype=np.uint64)
        packed = (word * weights).sum(axis=1, dtype=np.uint64)
        key = splitmix64(key ^ packed ^ np.uint64(lo))
    return key
