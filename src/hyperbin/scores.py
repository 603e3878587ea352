"""Density-ratio oracles for the reverse-time chain.

An oracle answers queries ratio(t, y, i) ~= q_rev_t(y ^ e_i) / q_rev_t(y)
for reverse time t in [0, T) and flip position i, where q_rev_t equals the
forward marginal at time T - t. The exact oracle evaluates ratios of
kernel mixtures over the empirical support using per-bit odds with the
dominant Hamming exponent factored out (the multiplicative form of a
max-subtracted log-sum-exp), so it never materializes 2^D vectors and
survives large D and small T - t. The perturbed oracle multiplies exact
ratios by exp(xi) with bounded, reproducible noise, emulating a trained
score model of controllable quality.
"""

from __future__ import annotations

import numpy as np

from .bits import all_states, hamming_to_rows, splitmix64, state_key
from .chain import EmpiricalInitial, flip_probability, marginal_at

# Elementwise budget for the (batch, support) mixture-term array.
_CHUNK_ELEMENTS = 1 << 24

DEFAULT_TIME_BUCKETS = 64


def bregman_phi(u, w):
    """Bregman divergence generated by phi(c) = c ln c:
    D(u || w) = u ln(u/w) - u + w, with u = 0 handled as w."""
    u = np.asarray(u, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if (w <= 0).any():
        raise ValueError("reference ratios must be strictly positive")
    out = np.where(u > 0, u * (np.log(np.where(u > 0, u, 1.0)) - np.log(w)) - u + w, w)
    return out if out.ndim else float(out)


class ScoreOracle:
    """Common query surface: scalar `ratio` and batched `ratio_all`."""

    T: float
    n_bits: int

    def ratio_all(self, t, states) -> np.ndarray:
        """Ratios for every flip: (B, D) array for (B, D) base states and
        per-row reverse times t (scalar or (B,))."""
        raise NotImplementedError

    def ratio(self, t: float, base: np.ndarray, flip: int) -> float:
        """Single-query form; `flip` indexes the bit toggled in `base`."""
        if not 0 <= flip < self.n_bits:
            raise ValueError(f"flip index {flip} out of range [0, {self.n_bits})")
        if not 0 <= t < self.T:
            raise ValueError(f"reverse time {t} out of [0, T={self.T})")
        base = np.asarray(base, dtype=np.uint8)
        return float(self.ratio_all(t, base[None, :])[0, flip])


class ExactScoreOracle(ScoreOracle):
    """Exact ratios from an empirical initial distribution and horizon T."""

    def __init__(self, initial: EmpiricalInitial, T: float):
        if T <= 0:
            raise ValueError("T must be positive")
        self.initial = initial
        self.T = float(T)
        self.n_bits = initial.n_bits
        self._rows = initial.states.astype(np.float64)

    def ratio_all(self, t, states) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=np.uint8))
        B, D = states.shape
        if D != self.n_bits:
            raise ValueError(f"states have {D} bits, expected {self.n_bits}")
        t = np.broadcast_to(np.asarray(t, dtype=np.float64), (B,))
        if (t < 0).any() or (t >= self.T).any():
            raise ValueError("reverse times must lie in [0, T)")
        P = self._rows.shape[0]
        chunk = max(1, _CHUNK_ELEMENTS // max(1, P))
        out = np.empty((B, D))
        for lo in range(0, B, chunk):
            hi = min(B, lo + chunk)
            out[lo:hi] = self._ratio_chunk(t[lo:hi], states[lo:hi])
        return out

    def _ratio_chunk(self, t, states) -> np.ndarray:
        # Forward-time mixture terms per support point: w_p pf^h ps^(D-h).
        # Only the per-bit odds rho = pf/ps matter for ratios, and shifting
        # the Hamming exponent by its row minimum cancels between numerator
        # and denominator, so nothing here can underflow to a 0/0.
        s = self.T - t
        pf = flip_probability(s)
        rho = pf / (1.0 - pf)  # in (0, 1], increasing in s
        ham = hamming_to_rows(states, self.initial.states)  # (B, P)
        shift = ham.min(axis=1, keepdims=True)
        terms = self.initial.weights[None, :] * rho[:, None] ** (ham - shift)  # (B, P)
        total = terms.sum(axis=1)
        # Flipping bit i multiplies a term by rho when the bit agrees with
        # the support point (the flip moves away from it) and by 1/rho when
        # it disagrees. Splitting terms into those two groups needs only the
        # weighted bit sums M_bi = sum_p terms_bp * row_pi.
        M = terms @ self._rows  # (B, D)
        S = states.astype(np.float64)
        agree_mass = total[:, None] * (1.0 - S) + (2.0 * S - 1.0) * M
        num = rho[:, None] * agree_mass + (total[:, None] - agree_mass) / rho[:, None]
        out = num / total[:, None]
        if not np.isfinite(out).all():
            raise FloatingPointError(
                "density ratio overflowed for some query; reverse time too close to T"
            )
        return out


class PerturbedScoreOracle(ScoreOracle):
    """Wraps an oracle with multiplicative log-noise of bounded size.

    The noise xi is a pure function of (seed, time bucket, state, flip),
    uniform on [-noise_scale, noise_scale], so repeated queries are
    bitwise reproducible without any cache. Time is bucketed into
    `n_buckets` uniform slices of [0, T).
    """

    def __init__(
        self,
        inner: ScoreOracle,
        noise_scale: float,
        seed: int,
        n_buckets: int = DEFAULT_TIME_BUCKETS,
    ):
        if noise_scale < 0:
            raise ValueError("noise_scale must be nonnegative")
        self.inner = inner
        self.T = inner.T
        self.n_bits = inner.n_bits
        self.noise_scale = float(noise_scale)
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.n_buckets = int(n_buckets)

    @property
    def initial(self) -> EmpiricalInitial:
        return self.inner.initial

    def log_noise(self, t, states) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=np.uint8))
        B, D = states.shape
        t = np.broadcast_to(np.asarray(t, dtype=np.float64), (B,))
        bucket = np.clip((t / self.T * self.n_buckets).astype(np.int64), 0, self.n_buckets - 1)
        key = state_key(states) ^ splitmix64(bucket.astype(np.uint64))
        key = splitmix64(key ^ splitmix64(np.full(B, self.seed, dtype=np.uint64)))
        flip_mix = splitmix64(np.arange(D, dtype=np.uint64) + np.uint64(0x5BF0))
        word = splitmix64(key[:, None] ^ flip_mix[None, :])
        unit = word.astype(np.float64) / float(1 << 64)  # [0, 1)
        return (2.0 * unit - 1.0) * self.noise_scale

    def ratio_all(self, t, states) -> np.ndarray:
        base = self.inner.ratio_all(t, states)
        if self.noise_scale == 0.0:
            return base
        return base * np.exp(self.log_noise(t, states))


def perturb(
    oracle: ScoreOracle, noise_scale: float, seed: int, n_buckets: int = DEFAULT_TIME_BUCKETS
) -> PerturbedScoreOracle:
    """Wrap `oracle` with reproducible bounded log-noise; see
    :class:`PerturbedScoreOracle`."""
    return PerturbedScoreOracle(oracle, noise_scale, seed, n_buckets)


def score_entropy_loss(
    oracle: ScoreOracle,
    initial: EmpiricalInitial,
    T: float,
    time_grid: np.ndarray,
) -> float:
    """Exact score-entropy loss of `oracle` against the chain from `initial`.

    Integrates over forward time the expectation, under the marginal at
    that time, of the summed Bregman divergence between true and oracle
    ratios across all Hamming-1 neighbors. `time_grid` is the trapezoidal
    quadrature grid of forward times, strictly inside (0, T]; the true
    ratio at forward time s answers the reverse-time query T - s. Dense
    marginals cap D at 12.
    """
    D = initial.n_bits
    if D > 12:
        raise ValueError("exact loss evaluation needs D <= 12")
    grid = np.asarray(time_grid, dtype=np.float64)
    if grid.ndim != 1 or len(grid) < 2 or (np.diff(grid) <= 0).any():
        raise ValueError("time_grid must be strictly increasing with >= 2 nodes")
    if grid[0] <= 0 or grid[-1] > T:
        raise ValueError("time_grid must lie inside (0, T]")
    states = all_states(D)
    idx = np.arange(1 << D)
    values = np.empty(len(grid))
    for k, s in enumerate(grid):
        probs = marginal_at(initial, s)
        true_ratios = np.stack(
            [probs[idx ^ (1 << i)] / probs[idx] for i in range(D)], axis=1
        )
        est = oracle.ratio_all(min(T - s, np.nextafter(T, 0.0)), states)
        div = bregman_phi(true_ratios, est)
        values[k] = float(probs @ div.sum(axis=1))
    return float(np.trapezoid(values, grid))


def calibrate_noise_scale(
    initial: EmpiricalInitial,
    T: float,
    target_loss: float,
    seed: int,
    time_grid: np.ndarray,
    tol: float = 1e-3,
) -> PerturbedScoreOracle:
    """Bisect the noise scale of a perturbed oracle until its measured
    score-entropy loss matches `target_loss` to relative tolerance."""
    exact = ExactScoreOracle(initial, T)

    def loss_at(scale: float) -> float:
        return score_entropy_loss(
            PerturbedScoreOracle(exact, scale, seed), initial, T, time_grid
        )

    lo, hi = 0.0, 0.1
    while loss_at(hi) < target_loss:
        hi *= 2.0
        if hi > 64:
            raise RuntimeError("noise calibration diverged")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if loss_at(mid) < target_loss:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * hi:
            break
    return PerturbedScoreOracle(exact, 0.5 * (lo + hi), seed)
