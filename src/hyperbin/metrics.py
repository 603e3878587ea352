"""Distances between discrete laws, plug-in estimators, and the
continuous-histogram TV of a law over grid cells against a continuous
law's exact per-cell masses."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import DISTRIBUTION_ATOL, check_distribution


def tv_exact(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance 0.5 * sum |p - q| between dense laws."""
    p = check_distribution(p)
    q = check_distribution(q)
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())


def kl_exact(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) in nats; infinite when p charges a q-null state."""
    p = check_distribution(p)
    q = check_distribution(q)
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    support = p > 0
    if (q[support] == 0).any():
        return float("inf")
    pp = p[support]
    return float(np.sum(pp * np.log(pp / q[support])))


@dataclass
class EmpiricalLaw:
    """Sample counts over state indices: `counts[i]` samples fell in state i."""

    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_indices(cls, indices: np.ndarray) -> "EmpiricalLaw":
        """Tally non-negative state indices (a negative one raises ValueError)."""
        return cls(counts=np.bincount(np.asarray(indices, dtype=np.int64)))

    def to_dense(self, n_states: int) -> np.ndarray:
        outside = np.flatnonzero(self.counts[n_states:])
        if len(outside):
            raise ValueError(f"state index {n_states + outside[0]} outside [0, {n_states})")
        head = self.counts[:n_states]
        probs = np.zeros(n_states)
        probs[: len(head)] = head
        total = probs.sum()
        if total < 1:
            raise ValueError("empirical law is empty")
        return probs / total

    def to_smoothed(self, n_states: int) -> np.ndarray:
        """Add-1/(2*total) pseudo-counts, so KL against the law is finite."""
        probs = self.to_dense(n_states) * self.total + 0.5 / self.total
        return probs / probs.sum()


def tv_plugin(samples: EmpiricalLaw, q: np.ndarray) -> float:
    """TV between the normalized counts and a dense reference law."""
    q = check_distribution(q)
    return tv_exact(samples.to_dense(len(q)), q)


def tv_continuous_histogram(law: np.ndarray, cell_mass: np.ndarray) -> float:
    """TV between a law over a grid's cells and a continuous law.

    `law` holds probabilities and `cell_mass` the continuous law's mass in
    every cell, both flat over the same cells: (K^d,) in C order over the
    grid indices. The continuous law's mass outside the cube,
    1 - sum(cell_mass), counts fully toward the distance.
    """
    law, cell_mass = np.asarray(law, np.float64), np.asarray(cell_mass, np.float64)
    if law.ndim != 1 or cell_mass.shape != law.shape:
        raise ValueError(f"need two flat arrays of one shape, got {law.shape}, {cell_mass.shape}")
    check_distribution(law)
    if not (cell_mass >= 0).all():  # also catches NaN
        raise ValueError("cell_mass entries must be nonnegative")
    total = float(cell_mass.sum())
    if total > 1.0 + DISTRIBUTION_ATOL:
        raise ValueError(f"cell_mass sums to {total!r} > 1")
    return 0.5 * (float(np.abs(law - cell_mass).sum()) + max(1.0 - total, 0.0))
