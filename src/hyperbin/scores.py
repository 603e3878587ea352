"""Density-ratio oracles for the reverse-time chain.

An oracle answers ratio_all(t, y)[i] ~= q_rev_t(y ^ e_i) / q_rev_t(y) for
reverse time t in [0, T) and every flip position i, where q_rev_t equals
the forward marginal at time T - t (the contract is :class:`ScoreOracle`).
With per-bit odds rho = pf / (1 - pf) at forward time T - t, that marginal
is proportional to sum_p w_p rho^Ham(y, p) over the empirical support, a
sum of nonnegative terms. The exact oracle evaluates it in one of two
ways, picked from the bit count D and the support size P alone:

- shell table, when P^2 >= 2^D and the (2^D, D + 1) table fits the chunk
  budget (D <= 19): the weight of each Hamming shell around every state,
  built once by additions only, so a query costs O(D^2) whatever P is;
- support matmul otherwise (any D): Hamming distances from each query to
  each support point, popcounts of packed 64-bit words (see
  :mod:`hyperbin.bits`), then two (B, P) @ (P, D) products, O(P D) per
  query, never materializing 2^D vectors.

Neither path loses digits to cancellation: against a 50-digit mpmath
reference both agree to within 4.4e-16 relative error for D in
{6, 10, 12, 24, 40} and T - t from 1e-2 down to 1e-8. The perturbed
oracle multiplies exact ratios by exp(xi) with bounded, reproducible
noise, emulating a trained score model of controllable quality.
"""

from __future__ import annotations

import threading

import numpy as np

from .bits import all_states, hamming_to_rows, splitmix64, state_key, state_to_index
from .chain import EmpiricalInitial, _binary_rows, dense_ratios, flip_probability, marginal_at

# Elementwise budget for the (batch, support) mixture terms of a matmul query
# chunk, and for the shell table.
_CHUNK_ELEMENTS = 1 << 24

# Elementwise budget for the (batch, D, D + 1) neighbour shells of a table
# query chunk: each thread's reused workspace, 2 MB of float64.
_TABLE_CHUNK_ELEMENTS = 1 << 18

# Uniform slices of [0, T) within which a perturbed oracle's noise is fixed.
TIME_BUCKETS = 64

# Relative tolerance at which calibrate_noise_scale stops bisecting.
CALIBRATION_TOL = 1e-3


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
    """The oracle contract; the sampler queries nothing else.

    An oracle provides the horizon `T`, the state size `n_bits` (D) and
    `ratio_all`. Runs with `init="exact-terminal"` also need `initial`,
    the `EmpiricalInitial` at forward time 0 from which the start is
    simulated. `sample`, `euler_sample` and `score_entropy_loss` check T
    and D against their run once, before any query.
    """

    T: float
    n_bits: int

    def ratio_all(self, t, states) -> np.ndarray:
        """Ratios for every flip: (B, D) array for (B, D) base states and
        per-row reverse times t in [0, T) (scalar or (B,))."""
        raise NotImplementedError


def shell_table(initial: EmpiricalInitial) -> np.ndarray:
    """C[y, k] = total weight of support points at Hamming distance k from
    state index y, shape (2^D, D + 1).

    Built bit by bit in O(D^2 2^D): before step j, C[y, k] holds the weight
    of points that agree with y on bits j and above and differ from it in k
    of the lower bits; step j adds the points that differ at bit j,
    C[y ^ 2^j, k - 1]. Only nonnegative numbers are added.
    """
    D = initial.n_bits
    idx = np.arange(1 << D)
    C = np.zeros((1 << D, D + 1))
    C[:, 0] = np.bincount(state_to_index(initial.states), initial.weights, minlength=1 << D)
    for j in range(D):
        C[:, 1 : j + 2] += C[idx ^ (1 << j), : j + 1]
    return C


class ExactScoreOracle(ScoreOracle):
    """Exact ratios from an empirical initial distribution and horizon T.

    The shell table serves queries when P^2 >= 2^D and (D + 1) 2^D <=
    _CHUNK_ELEMENTS, the support matmul otherwise. Measured ms per
    `ratio_all` call (table/matmul; 2-vCPU Xeon VM, numpy 2.4.6, one BLAS
    thread, random support, best of 5 runs):

        D   B     P=8        P=16       P=32       P=64       P=256
        6   2000  0.34/0.45  0.35/0.59  0.36/1.48  0.34/2.70  -
        10  520   0.17/0.16  0.17/0.19  0.17/0.26  0.17/0.41  0.16/2.61
        12  520   0.20/0.16  0.19/0.20  0.20/0.30  0.20/0.45  0.20/2.66
        16  2000  1.54/0.55  1.53/0.72  1.50/1.12  1.53/1.75  1.56/6.98

    The table costs the same at any P; the matmul grows with P. At D = 6
    the rule sits at the measured crossover (near P = 8 over repeated
    runs). Above that it is conservative: the two about tie at D = 10,
    P = 16, and the table already wins 1.5x at D = 12, P = 32 and 1.1x at
    D = 16, P = 64. Building the table takes 0.6 ms at D = 10, 1.9 ms at
    D = 12 and 69 ms at D = 16.

    Table queries run in chunks of 2^18 neighbour shells, read into one
    workspace per thread (the sampler's threads share an oracle), so no
    query allocates a (B, D, D + 1) array. At B = 65536 these chunks ran
    1.1x (D = 6) to 1.5x (D = 12) faster than chunks of 2^24.
    """

    def __init__(self, initial: EmpiricalInitial, T: float):
        if T <= 0:
            raise ValueError("T must be positive")
        self.initial = initial
        self.T = float(T)
        self.n_bits = D = initial.n_bits
        P = len(initial.weights)
        if (1 << D) * (D + 1) <= _CHUNK_ELEMENTS and P * P >= 1 << D:
            self._shells = shell_table(initial)
            # Query-independent parts of a lookup: the flip masks, and per
            # state the exponents k - k0 (clamped at -1) of its shells, with
            # k0 its lowest nonzero shell (see _table_chunk).
            self._bit_values = 1 << np.arange(D)
            k0 = np.argmax(self._shells > 0, axis=1)
            self._exponents = np.maximum(np.arange(D + 1) - k0[:, None], -1).astype(np.int8)
            self._chunk_rows = _TABLE_CHUNK_ELEMENTS // (D * (D + 1))
            self._workspace = threading.local()
        else:
            self._shells = None
            self._ones = initial.states.astype(np.float64)
            self._zeros = 1.0 - self._ones
            self._chunk_rows = max(1, _CHUNK_ELEMENTS // P)

    @property
    def uses_shell_table(self) -> bool:
        """Whether queries use the shell table; fixed by (D, P) at construction."""
        return self._shells is not None

    def ratio_all(self, t, states) -> np.ndarray:
        states = _binary_rows(states)
        B, D = states.shape
        if D != self.n_bits:
            raise ValueError(f"states have {D} bits, expected {self.n_bits}")
        t = np.broadcast_to(np.asarray(t, dtype=np.float64), (B,))
        if (t < 0).any() or (t >= self.T).any():
            raise ValueError("reverse times must lie in [0, T)")
        # Only the per-bit odds rho = pf/ps of forward time T - t matter for
        # ratios; rho lies in (0, 1] and increases with T - t.
        pf = flip_probability(self.T - t)
        rho = pf / (1.0 - pf)
        ratio_chunk = self._table_chunk if self.uses_shell_table else self._matmul_chunk
        out = np.empty((B, D))
        for lo in range(0, B, self._chunk_rows):
            hi = min(B, lo + self._chunk_rows)
            out[lo:hi] = ratio_chunk(rho[lo:hi], states[lo:hi])
        if not np.isfinite(out).all():
            raise FloatingPointError(
                "density ratio overflowed for some query; reverse time too close to T"
            )
        return out

    def _table_chunk(self, rho, states) -> np.ndarray:
        # q(y) is proportional to sum_k C[y, k] rho^k. Dividing by rho^k0,
        # with k0 the lowest nonzero shell of y, keeps every power in
        # [rho^-1, 1]: a neighbour's nonzero shells start at k0 - 1 or
        # later, so exponents below -1 only ever multiply zeros.
        y = states @ self._bit_values
        own = self._shells[y]  # (B, D+1)
        powers = rho[:, None] ** self._exponents[y]
        den = np.einsum("bk,bk->b", own, powers)
        # A fresh neighbour array per query faults its pages in again once
        # glibc has returned them. Indices are always in range, and
        # mode="clip" writes into `out` directly where "raise" buffers.
        workspace = getattr(self._workspace, "neighbours", None)
        if workspace is None:
            D = self.n_bits
            workspace = self._workspace.neighbours = np.empty((self._chunk_rows, D, D + 1))
        neighbours = workspace[: len(y)]
        np.take(self._shells, y[:, None] ^ self._bit_values, axis=0, out=neighbours, mode="clip")
        num = np.einsum("bik,bk->bi", neighbours, powers)
        return num / den[:, None]

    def _matmul_chunk(self, rho, states) -> np.ndarray:
        # Mixture terms per support point, w_p rho^h with the Hamming
        # exponent shifted by its row minimum: the shift cancels between
        # numerator and denominator, so nothing here can underflow to 0/0.
        ham = hamming_to_rows(states, self.initial.states)  # (B, P)
        shift = ham.min(axis=1, keepdims=True)
        terms = self.initial.weights[None, :] * rho[:, None] ** (ham - shift)
        # Flipping bit i multiplies a term by rho when the support point
        # agrees with the state at bit i (the flip moves away from it) and
        # by 1/rho when it disagrees, so with d the disagreeing mass,
        # ratio = (rho (total - d) + d / rho) / total
        #       = rho + (d / total) (1/rho - rho).
        # d is summed from nonnegative terms, picked per bit by multiplying
        # with the 0/1 state bits. The second form adds two nonnegative
        # numbers, and rounding 1/rho - rho costs at most an ulp of 1/rho,
        # which is within a few ulp of the result.
        set_bits = states.astype(np.float64)
        out = terms @ self._zeros  # disagreeing mass at set bits
        out *= set_bits
        clear = terms @ self._ones  # disagreeing mass at clear bits
        clear *= 1.0 - set_bits
        out += clear
        out *= ((1.0 / rho - rho) / terms.sum(axis=1))[:, None]
        out += rho[:, None]
        return out


class PerturbedScoreOracle(ScoreOracle):
    """Wraps an oracle with multiplicative log-noise of bounded size.

    The noise xi is a pure function of (seed, time bucket, state, flip),
    uniform on [-noise_scale, noise_scale], so repeated queries are
    bitwise reproducible without any cache. Time is bucketed into
    TIME_BUCKETS uniform slices of [0, T).
    """

    def __init__(self, inner: ScoreOracle, noise_scale: float, seed: int):
        if noise_scale < 0:
            raise ValueError("noise_scale must be nonnegative")
        self.inner = inner
        self.T = inner.T
        self.n_bits = inner.n_bits
        self.noise_scale = float(noise_scale)
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        # The hashes of the seed, of every time bucket and of every flip
        # position do not depend on the query.
        self._seed_mix = splitmix64(np.array([self.seed], dtype=np.uint64))
        self._bucket_mix = splitmix64(np.arange(TIME_BUCKETS, dtype=np.uint64))
        self._flip_mix = splitmix64(np.arange(self.n_bits, dtype=np.uint64) + np.uint64(0x5BF0))

    @property
    def initial(self) -> EmpiricalInitial:
        return self.inner.initial

    def log_noise(self, t, states) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=np.uint8))
        t = np.asarray(t, dtype=np.float64)
        bucket = np.clip((t / self.T * TIME_BUCKETS).astype(np.int64), 0, TIME_BUCKETS - 1)
        key = splitmix64(state_key(states) ^ self._bucket_mix[bucket] ^ self._seed_mix)
        word = splitmix64(key[:, None] ^ self._flip_mix)
        unit = word.astype(np.float64) / float(1 << 64)  # [0, 1)
        return (2.0 * unit - 1.0) * self.noise_scale

    def ratio_all(self, t, states) -> np.ndarray:
        base = self.inner.ratio_all(t, states)
        if self.noise_scale == 0.0:
            return base
        return base * np.exp(self.log_noise(t, states))


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
    if oracle.T != T:
        raise ValueError(f"oracle horizon T={oracle.T} differs from the loss horizon T={T}")
    D = initial.n_bits
    if D > 12:
        raise ValueError("exact loss evaluation needs D <= 12")
    grid = np.asarray(time_grid, dtype=np.float64)
    if grid.ndim != 1 or len(grid) < 2 or (np.diff(grid) <= 0).any():
        raise ValueError("time_grid must be strictly increasing with >= 2 nodes")
    if grid[0] <= 0 or grid[-1] > T:
        raise ValueError("time_grid must lie inside (0, T]")
    states = all_states(D)
    values = np.empty(len(grid))
    for k, s in enumerate(grid):
        probs = marginal_at(initial, s)
        est = oracle.ratio_all(min(T - s, np.nextafter(T, 0.0)), states)
        div = bregman_phi(dense_ratios(probs), est)
        values[k] = float(probs @ div.sum(axis=1))
    return float(np.trapezoid(values, grid))


def calibrate_noise_scale(
    initial: EmpiricalInitial,
    T: float,
    target_loss: float,
    seed: int,
    time_grid: np.ndarray,
) -> PerturbedScoreOracle:
    """Bisect the noise scale of a perturbed oracle until its measured
    score-entropy loss matches `target_loss` to CALIBRATION_TOL."""
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
        if hi - lo < CALIBRATION_TOL * hi:
            break
    return PerturbedScoreOracle(exact, 0.5 * (lo + hi), seed)
