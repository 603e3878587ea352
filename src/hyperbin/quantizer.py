"""Histogram quantization between R^d and binary-encoded grid states.

A quantizer covers the cube [-L, L]^d with K half-open bins of width
l = 2L/K per axis (K a power of two), maps each cell index to a binary
state of D = d*log2(K) bits, and can re-draw continuous points uniformly
inside a cell. Parameters may be derived from tail/smoothness constants
(sub-Gaussian sigma, Hessian bound H, second moment m0, TV budget eps)
or supplied directly when those constants are unknown.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class QuantizerSpec:
    """Geometry of the quantization grid.

    d: data dimension; L: cube half-side; K: bins per axis (power of two).
    The optional fields record the constants the grid was derived from, if
    any.
    """

    d: int
    L: float
    K: int
    sigma: float | None = None
    H: float | None = None
    m0: float | None = None
    eps: float | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        if not self.L > 0:
            raise ValueError("L must be positive")
        if self.K < 2 or self.K & (self.K - 1):
            raise ValueError(f"K={self.K} is not a power of two >= 2")

    @property
    def l(self) -> float:
        """Cell width 2L/K."""
        return 2.0 * self.L / self.K

    @property
    def m(self) -> int:
        """Bits per axis, log2(K)."""
        return self.K.bit_length() - 1

    @property
    def n_bits(self) -> int:
        """Total state size D = d*m."""
        return self.d * self.m

    @classmethod
    def from_grid(cls, d: int, L: float, K: int) -> "QuantizerSpec":
        """Direct construction from a chosen cube and bin count.

        Intended for datasets without certified tail/smoothness constants;
        K must already be a power of two.
        """
        return cls(d=d, L=float(L), K=K)


def derive_spec(d: int, sigma: float, H: float, m0: float, eps: float) -> QuantizerSpec:
    """Pick (L, l, K) so the histogram approximation stays within 3*eps TV.

    L = sigma*sqrt(2 ln(2d/eps)) and the raw cell width is
    eps / [2H (sigma*sqrt(2 d ln(2d/eps)) + d + sqrt(d m0))]; K = 2L/l is
    then rounded up to the next power of two and l recomputed as 2L/K.
    Shrinking l this way only tightens the approximation.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    if min(sigma, H, m0, eps) <= 0:
        raise ValueError("sigma, H, m0 and eps must be positive")
    if eps >= 1:
        raise ValueError("eps must lie in (0, 1)")
    log_term = math.log(2.0 * d / eps)
    L = sigma * math.sqrt(2.0 * log_term)
    l_raw = eps / (2.0 * H * (sigma * math.sqrt(2.0 * d * log_term) + d + math.sqrt(d * m0)))
    K_raw = 2.0 * L / l_raw
    m = max(1, math.ceil(math.log2(K_raw)))
    return QuantizerSpec(d=d, L=L, K=1 << m, sigma=sigma, H=H, m0=m0, eps=eps)


def quantize_point(spec: QuantizerSpec, x: np.ndarray) -> np.ndarray:
    """Grid index of a point (or batch of points); finite out-of-cube
    coordinates, however large, clamp to the boundary cell. Non-finite
    coordinates raise ValueError."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != spec.d:
        raise ValueError(f"point has {x.shape[-1]} coordinates, expected {spec.d}")
    if not np.isfinite(x).all():
        raise ValueError("point coordinates must be finite")
    # Clip in float first: casting a float beyond the int64 range is undefined.
    x = np.clip(x, -spec.L, spec.L)
    return np.clip(np.floor((x + spec.L) / spec.l).astype(np.int64), 0, spec.K - 1)


def vbin_encode(spec: QuantizerSpec, index: np.ndarray) -> np.ndarray:
    """Binary state of a grid index: bit (c*m + j) is bit j of coordinate c
    (little-endian per coordinate). Bijective with :func:`vbin_decode`."""
    idx = np.asarray(index, dtype=np.int64)
    if idx.shape[-1] != spec.d:
        raise ValueError(f"index has {idx.shape[-1]} coordinates, expected {spec.d}")
    if idx.min() < 0 or idx.max() >= spec.K:
        raise ValueError(f"grid index out of range [0, {spec.K})")
    bits = np.empty((*idx.shape, spec.m), dtype=np.uint8)
    for j in range(spec.m):
        bits[..., j] = (idx >> j) & 1
    return bits.reshape(*idx.shape[:-1], spec.n_bits)


def vbin_decode(spec: QuantizerSpec, state: np.ndarray) -> np.ndarray:
    """Grid index of a binary state; exact inverse of :func:`vbin_encode`."""
    bits = np.asarray(state)
    if bits.shape[-1] != spec.n_bits:
        raise ValueError(f"state has {bits.shape[-1]} bits, expected {spec.n_bits}")
    per_coord = bits.reshape(*bits.shape[:-1], spec.d, spec.m).astype(np.int64)
    weights = 1 << np.arange(spec.m, dtype=np.int64)
    return per_coord @ weights


def cell_bounds(spec: QuantizerSpec, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower/upper corners of the cell owning a grid index."""
    idx = np.asarray(index, dtype=np.int64)
    lower = -spec.L + idx * spec.l
    return lower, lower + spec.l


def dequantize_sample(
    spec: QuantizerSpec, index: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw a point uniformly from the cell of a grid index (batched)."""
    lower, _ = cell_bounds(spec, index)
    return lower + rng.random(lower.shape) * spec.l


def quantize_dataset(spec: QuantizerSpec, points: np.ndarray) -> np.ndarray:
    """Quantize an (N, d) array of points to an (N, D) array of binary
    states, preserving order."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.size == 0:
        raise ValueError("dataset is empty")
    return vbin_encode(spec, quantize_point(spec, pts))


# ---------------------------------------------------------------------------
# serialization


def save_spec(spec: QuantizerSpec, path, config_hash: str | None = None) -> None:
    """Write the spec as a flat JSON object (keys d, sigma, H, m0, eps, L, l, K,
    plus an optional provenance hash)."""
    payload = {k: getattr(spec, k) for k in ("d", "sigma", "H", "m0", "eps", "L", "l", "K")}
    if config_hash is not None:
        payload["config_hash"] = config_hash
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_spec(path) -> QuantizerSpec:
    payload = json.loads(Path(path).read_text())
    extras = {
        k: (float(payload[k]) if payload.get(k) is not None else None)
        for k in ("sigma", "H", "m0", "eps")
    }
    return QuantizerSpec(d=int(payload["d"]), L=float(payload["L"]), K=int(payload["K"]), **extras)


def read_points_csv(path) -> np.ndarray:
    """Read an (N, d) point set: one row per point, float columns. Empty
    and `#` comment lines are skipped; the first other row may be a header.
    Malformed rows, non-finite values (nan, inf) and rows of the wrong
    width are reported with their line number."""
    rows = []
    header_allowed = True
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for line_no, row in enumerate(reader, start=1):
            if not row or row[0].startswith("#"):
                continue
            if header_allowed:
                header_allowed = False
                if _is_header(row):
                    continue
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise ValueError(f"{path}: row {line_no}: {exc}") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}: row {line_no}: non-finite value")
            if rows and len(values) != len(rows[0]):
                raise ValueError(f"{path}: row {line_no}: expected {len(rows[0])} columns")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def _is_header(row) -> bool:
    try:
        [float(v) for v in row]
        return False
    except ValueError:
        return True


def write_states_csv(path, states: np.ndarray, header_lines: list[str] | None = None) -> None:
    """Write an (N, D) binary state array: one row per state, 0/1 columns."""
    states = np.atleast_2d(np.asarray(states, dtype=np.uint8))
    with open(path, "w", newline="") as fh:
        for line in header_lines or []:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow([f"b{i}" for i in range(states.shape[1])])
        writer.writerows(states.tolist())


def read_states_csv(path) -> np.ndarray:
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#") or row[0].startswith("b"):
                continue
            rows.append([int(v) for v in row])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    states = np.asarray(rows, dtype=np.uint8)
    if not np.isin(states, (0, 1)).all():
        raise ValueError(f"{path}: entries must be 0/1")
    return states
