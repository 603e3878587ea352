"""Forward CTMC on {0,1}^D with unit bit-flip rates.

Every Hamming-1 neighbor is reachable at rate 1 and the generator diagonal
is -D, so the transition kernel factorizes over bits: over an interval of
length dt each bit flips independently with probability (1 - e^(-2 dt))/2.
Dense helpers follow the little-endian state/index map from
:mod:`hyperbin.bits`; generators, applied by :func:`flip_apply`, follow
the column convention R[y, y'] = rate from y' to y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import (
    MAX_DENSE_BITS,
    all_states,
    hamming_to_rows,
    state_to_index,
)

MAX_RATE_MATRIX_BITS = 12

DISTRIBUTION_ATOL = 1e-12


def flip_probability(dt: float | np.ndarray) -> float | np.ndarray:
    """Per-bit flip probability over an interval of length dt >= 0."""
    return 0.5 * -np.expm1(-2.0 * np.asarray(dt, dtype=np.float64))


def sample_forward(
    D: int, y0: np.ndarray, s: float, t: float, rng: np.random.Generator
) -> np.ndarray:
    """Advance a state (or batch) from time s to t by independent bit flips."""
    if t < s:
        raise ValueError(f"need t >= s, got s={s}, t={t}")
    y0 = np.asarray(y0, dtype=np.uint8)
    if y0.shape[-1] != D:
        raise ValueError(f"state has {y0.shape[-1]} bits, expected {D}")
    pf = float(flip_probability(t - s))
    flips = (rng.random(y0.shape) < pf).astype(np.uint8)
    return y0 ^ flips


def _binary_rows(states) -> np.ndarray:
    """States as a 2-D uint8 array, after checking that every raw value is
    0 or 1 (a cast first would map 256 to 0 and 0.7 to 0)."""
    states = np.atleast_2d(np.asarray(states))
    # Unsigned and boolean values need one pass, their maximum: this runs
    # on every oracle query, whose states are uint8.
    if states.dtype.kind in "bu":
        bad = states.max(initial=0) > 1
    else:
        bad = not ((states == 0) | (states == 1)).all()
    if bad:
        raise ValueError("states must be 0/1 arrays")
    return states.astype(np.uint8, copy=False)


@dataclass(frozen=True)
class EmpiricalInitial:
    """Weighted support of the time-0 distribution: states (n, D) with
    positive weights summing to one."""

    states: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        states = _binary_rows(self.states)
        weights = np.asarray(self.weights, dtype=np.float64)
        if states.shape[0] != weights.shape[0]:
            raise ValueError("states and weights disagree on support size")
        if (weights <= 0).any():
            raise ValueError("weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "weights", weights)

    @property
    def n_bits(self) -> int:
        return self.states.shape[1]

    @classmethod
    def from_dataset(cls, states: np.ndarray) -> "EmpiricalInitial":
        """Aggregate a quantized dataset (N, D) into unique states with
        frequency weights.

        The support comes out in lexicographic row order, bit 0 most
        significant, which is the order of ``np.unique(axis=0)``. The
        exact-terminal draws and the oracle's sums run over the support in
        this order, so it fixes every sampled state. Rows are packed
        big-endian into bytes, whose order is the rows' order, and sorted
        once.
        """
        states = _binary_rows(states)
        packed = np.packbits(states, axis=1)
        order = np.lexsort(packed.T[::-1])
        rows = packed[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        starts = np.flatnonzero(first)
        counts = np.diff(starts, append=len(rows))
        return cls(states=states[order[starts]], weights=counts / counts.sum())

    def to_dense(self) -> np.ndarray:
        """Explicit 2^D probability vector (D <= MAX_DENSE_BITS)."""
        D = self.n_bits
        if D > MAX_DENSE_BITS:
            raise ValueError(f"dense vector needs D <= {MAX_DENSE_BITS}, got {D}")
        probs = np.zeros(1 << D)
        np.add.at(probs, state_to_index(self.states), self.weights)
        return probs


def check_distribution(probs: np.ndarray) -> np.ndarray:
    """Validate a dense probability vector over 2^D states."""
    probs = np.asarray(probs, dtype=np.float64)
    n = probs.shape[0]
    if n < 2 or n & (n - 1):
        raise ValueError(f"length {n} is not a power of two")
    if (probs < 0).any():
        raise ValueError("negative probability entry")
    if abs(probs.sum() - 1.0) > DISTRIBUTION_ATOL:
        raise ValueError(f"probabilities sum to {probs.sum()}, not 1")
    return probs


def marginal_at(initial: EmpiricalInitial, t: float) -> np.ndarray:
    """Dense marginal at time t >= 0 of the chain started from `initial`.

    Mixture of factorized kernel rows over the support; returns a
    normalized 2^D vector.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    D = initial.n_bits
    if D > MAX_DENSE_BITS:
        raise ValueError(f"dense marginal needs D <= {MAX_DENSE_BITS}, got {D}")
    pf = float(flip_probability(t))
    if pf == 0.0:
        return initial.to_dense()
    ham = hamming_to_rows(all_states(D), initial.states)
    kernel = pf**ham * (1.0 - pf) ** (D - ham)
    probs = kernel @ initial.weights
    return probs / probs.sum()


def dense_ratios(probs: np.ndarray) -> np.ndarray:
    """Flip ratios probs[y ^ 2^i] / probs[y] of a dense 2^D law, shape
    (2^D, D); for the marginal at forward time T - t, the true reverse
    rates at reverse time t."""
    n = len(probs)
    flips = np.arange(n)[:, None] ^ (1 << np.arange(n.bit_length() - 1))
    return probs[flips] / probs[:, None]


def flip_apply(rates: np.ndarray, q: np.ndarray) -> np.ndarray:
    """G q for the generator G of the chain that flips bit i of state y at
    rate rates[y, i], for rates of shape (2^D, D) and q of shape (2^D,) or
    (2^D, k): G[y ^ 2^i, y] = rates[y, i] and each column of G sums to
    zero. Costs O(D 2^D) per column of q; G itself is never built."""
    n, D = rates.shape
    if n != 1 << D:
        raise ValueError(f"need one row of rates per state, 2^{D} rows, got {n}")
    cols = np.asarray(q, dtype=np.float64).reshape(n, -1)
    out = np.zeros_like(cols)
    for i in range(D):
        # y and y ^ 2^i sit at the two ends of the middle axis
        blocks = (-1, 2, 1 << i, cols.shape[1])
        inflow = out.reshape(blocks)
        inflow += (rates[:, i, None] * cols).reshape(blocks)[:, ::-1]
    out -= rates.sum(axis=1, keepdims=True) * cols
    return out.reshape(np.shape(q))


def dense_rate_matrix(D: int) -> np.ndarray:
    """The forward chain's generator: entry (y, y') is 1 when
    Ham(y, y') = 1, -D on the diagonal (D <= MAX_RATE_MATRIX_BITS)."""
    if D > MAX_RATE_MATRIX_BITS:
        raise ValueError(f"dense rate matrix needs D <= {MAX_RATE_MATRIX_BITS}, got {D}")
    return flip_apply(np.ones((1 << D, D)), np.eye(1 << D))
