"""Distances between discrete laws, plug-in estimators, and the
continuous-histogram distance against an analytic density."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import check_distribution
from .quantizer import QuantizerSpec, quantize_point

QUADRATURE_ORDER = 16


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


def _gauss_legendre_cells(spec: QuantizerSpec, density) -> np.ndarray:
    """Integral of `density` over every cell of the grid, flat (K^d,) array
    in C order over the grid indices.

    Tensor-product Gauss-Legendre rule per cell, evaluated in bounded
    chunks of cells; d <= 3 keeps the K^d enumeration tractable.
    """
    if spec.d > 3:
        raise ValueError("cell integration supports d <= 3")
    nodes, weights = np.polynomial.legendre.leggauss(QUADRATURE_ORDER)
    half = spec.l / 2.0
    # Node offsets and weights for one cell: (order^d, d) and (order^d,).
    offset_axes = np.meshgrid(*([nodes * half] * spec.d), indexing="ij")
    offsets = np.stack([a.reshape(-1) for a in offset_axes], axis=-1)
    weight_axes = np.meshgrid(*([weights * half] * spec.d), indexing="ij")
    w = np.prod(np.stack([a.reshape(-1) for a in weight_axes], axis=-1), axis=-1)

    n_cells = spec.K**spec.d
    grid_axes = np.meshgrid(*([np.arange(spec.K)] * spec.d), indexing="ij")
    centers = -spec.L + (np.stack([a.reshape(-1) for a in grid_axes], axis=-1) + 0.5) * spec.l

    mass = np.empty(n_cells)
    chunk = max(1, (1 << 22) // offsets.shape[0])
    for lo in range(0, n_cells, chunk):
        hi = min(n_cells, lo + chunk)
        pts = centers[lo:hi, None, :] + offsets[None, :, :]
        vals = np.asarray(density(pts.reshape(-1, spec.d)), dtype=np.float64)
        if not np.isfinite(vals).all():
            raise ValueError("density evaluation failed (non-finite values)")
        mass[lo:hi] = vals.reshape(hi - lo, -1) @ w
    return mass


def tv_continuous_histogram(samples: np.ndarray, density, spec: QuantizerSpec) -> float:
    """TV between the sample histogram on the grid and the analytic density.

    Samples are binned with the quantizer; the density is integrated per
    cell (QUADRATURE_ORDER Gauss-Legendre points per axis) and its mass
    outside the cube counts fully toward the distance. `density` maps
    (N, d) points to densities.
    """
    pts = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if pts.shape[0] == 0:
        raise ValueError("no samples")
    cell_mass = _gauss_legendre_cells(spec, density)
    tail = 1.0 - float(cell_mass.sum())
    idx = quantize_point(spec, pts)
    flat = np.ravel_multi_index(tuple(idx.T), (spec.K,) * spec.d)
    counts = np.bincount(flat, minlength=spec.K**spec.d).astype(np.float64)
    emp = counts / counts.sum()
    return 0.5 * (float(np.abs(emp - cell_mass).sum()) + max(tail, 0.0))
