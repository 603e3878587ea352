"""Bit-vector states and their one integer layout.

States live on {0,1}^D as uint8 arrays of shape (..., D). Every integer
view of a state comes from :func:`pack_words`. Its word 0, the integer
whose bit i is state[i], indexes every dense 2^D array in the package
(D <= 63); state keys and Hamming distances use all words, for any D.
"""

from __future__ import annotations

import numpy as np

# Dense 2^D vectors are capped to keep desk-scale runs in memory.
MAX_DENSE_BITS = 20


def pack_words(states: np.ndarray) -> np.ndarray:
    """(..., D) states as (..., ceil(D/64)) uint64 words, bit i of word w = state[64w + i]."""
    bits = np.asarray(states, dtype=np.uint8)
    *lead, D = bits.shape
    n_words = -(-D // 64)
    padded = np.zeros((*lead, 64 * n_words), dtype=np.uint8)
    padded[..., :D] = bits
    return np.packbits(padded, bitorder="little").view("<u8").reshape(*lead, n_words)


def state_to_index(bits: np.ndarray) -> np.ndarray | int:
    """Little-endian int64 index of (..., D) states, D <= 63; an int for one state."""
    bits = np.asarray(bits)
    D = bits.shape[-1]
    if D > 63:
        raise ValueError(f"integer state index needs D <= 63, got D={D}")
    idx = pack_words(bits)[..., 0].view(np.int64)
    if bits.ndim == 1:
        return int(idx)
    return idx


def index_to_state(index, D: int) -> np.ndarray:
    """Inverse of :func:`state_to_index`; accepts scalars or arrays."""
    idx = np.asarray(index, dtype=np.int64)
    bits = np.empty((*idx.shape, D), dtype=np.uint8)
    for j in range(D):
        bits[..., j] = (idx >> j) & 1
    return bits


def all_states(D: int) -> np.ndarray:
    """All 2^D states as a (2^D, D) uint8 array, row i encoding index i."""
    if D > MAX_DENSE_BITS:
        raise ValueError(f"enumerating 2^{D} states exceeds the dense cap")
    return index_to_state(np.arange(1 << D), D)


def hamming_to_rows(states: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distances, int64 (B, P), between (B, D) states and
    (P, D) rows, for any D: popcounts of their packed words' XOR."""
    a, b = pack_words(states), pack_words(rows)
    # Count in place: a second (B, P) buffer made a call up to 5x slower.
    ham = a[:, 0, None] ^ b[None, :, 0]
    np.bitwise_count(ham, out=ham)
    for w in range(1, a.shape[1]):
        ham += np.bitwise_count(a[:, w, None] ^ b[None, :, w])
    return ham.view(np.int64)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer; a cheap vectorized PRF used for reproducible
    perturbation noise. Operates on uint64 arrays with wraparound."""
    z = x.astype(np.uint64, copy=False) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def state_key(states: np.ndarray) -> np.ndarray:
    """Fold a (B, D) bit array into one uint64 key per row.

    Each word of :func:`pack_words` and its offset 64w are mixed into the
    key through :func:`splitmix64`, so keys are stable across runs and
    platforms and defined for any D.
    """
    words = pack_words(np.atleast_2d(states))
    key = np.zeros(len(words), dtype=np.uint64)
    for w in range(words.shape[1]):
        key = splitmix64(key ^ words[:, w] ^ np.uint64(64 * w))
    return key
