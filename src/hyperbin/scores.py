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
from .chain import (
    MAX_RATE_MATRIX_BITS,
    EmpiricalInitial,
    _binary_rows,
    dense_ratios,
    flip_probability,
    marginal_at,
)

# Elementwise budget for the (batch, support) mixture terms of a matmul query
# chunk, and for the shell table.
_CHUNK_ELEMENTS = 1 << 24

# Elementwise budget for the (batch, D + 1, D + 1) shells of a table query
# chunk: each thread's reused workspace, 2 MB of float64.
_TABLE_CHUNK_ELEMENTS = 1 << 18

# Largest (W, 2^D) rate-bound table total_bounds builds, in elements: a fixed
# memory bound of 32 MB of float64 (W <= 64 segments at D = 16).
_BOUND_TABLE_ELEMENTS = 1 << 22

# Relative margin on the rate bounds. The bound and the computed row total
# each carry a rounding error of O(D) ulps relative, as every step adds or
# multiplies nonnegative numbers, and one ulp of rho moves the total by at
# most about D + 2 ulps; for D <= 19 all of it stays below 1e-13. The
# perturbed oracle's noise adds one product per term on each side (each
# ratio times its factor, each bound term times its noise sum or maximum)
# and a sum of D factors to the bound, a few ulps more.
_BOUND_MARGIN = 1e-12

# Uniform slices of [0, T) within which a perturbed oracle's noise is fixed.
TIME_BUCKETS = 64

# Largest D at which a perturbed oracle tabulates its noise: a fixed memory
# bound, as TIME_BUCKETS D 2^D float64 come to 1 MB at D = 8.
_NOISE_TABLE_MAX_BITS = 8

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

    Optionally, `total_bounds(times)` returns a (W, 2^D) table, indexed by
    segment of the partition `times` and state index, that bounds each
    row's total `ratio_all(t, y).sum()` (as computed) for every t in the
    segment, or None when it offers none. `sample` then skips the query
    of every event that the bound proves cannot move. The exact oracle on
    its shell table and the perturbed oracle over it offer bounds; an
    oracle without `total_bounds` is queried on every event. It is
    deliberately not defined here: a delegating subclass that forwards
    unknown attributes (the benchmark's proxy) must reach the wrapped
    oracle's.
    """

    T: float
    n_bits: int

    def ratio_all(self, t, states) -> np.ndarray:
        """Ratios for every flip: (B, D) array for (B, D) base states and
        per-row reverse times t in [0, T) (scalar or (B,)). A row's ratios
        depend only on its (t, state): repeated rows may be answered once."""
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
    thread, random support, best of 5 calls, both columns in the same runs):

        D   B     P=8        P=16       P=32       P=64       P=256
        6   2000  0.38/0.48  0.41/0.63  0.41/0.96  0.43/1.57  -
        10  520   0.20/0.19  0.18/0.19  0.19/0.29  0.21/0.45  0.26/1.71
        12  520   0.23/0.18  0.22/0.22  0.26/0.33  0.27/0.50  0.30/1.58
        16  2000  1.71/0.58  1.87/0.79  2.21/1.36  2.49/2.31  3.51/9.59

    The table costs the same at any P (2.22 and 2.24 ms at D = 16, P = 8
    and 256, alternated in one process; whole runs of this table varied up
    to 2x on a shared host); the matmul grows with P. At D = 6 and 10 the
    rule sits near the measured crossover (ties at P = 4 and P = 16).
    Above that it is conservative: the table wins 1.3x at D = 12, P = 32,
    and ties at D = 16, P = 64. Building the table takes 0.6 ms at D = 10,
    3.1 ms at D = 12 and 56 ms at D = 16.

    Table queries gather the shells of the state and its D neighbours
    into one (B, D + 1, D + 1) workspace per thread (the sampler's threads
    share an oracle), in chunks of 2^18 shells. At B = 65536 chunks of
    2^18 ran 1.1x (D = 6) to 1.5x (D = 12) faster than chunks of 2^24.
    A scalar-t query looks each distinct state up once: 2000 rows at D = 6
    take 143 us, 380 us per-row. Its callers are the Euler steps, the
    exact-law helpers and score_entropy_loss; all of them but Euler's
    per-row path (chunks of fewer than 4 * 2^D replicas) ask for
    all_states(D), so only that path sends repeated rows.
    Finding the distinct states takes O(B) through a per-thread (2^D,)
    lookup: 5 us on 64 distinct rows, 36 us on 2000 rows of 64 states and
    25 us on 4096 distinct rows, where np.unique took 16, 71 and 57 us
    (best of 300).

    On the shell-table path the oracle also offers `total_bounds`, the
    per-segment, per-state bound on the total rate with which `sample`
    skips events that cannot move (about 72% of them on the benchmark's
    D = 6 and D = 12 workloads). Its (W, 2^D) table takes two (W, D + 1)
    @ (D + 1, 2^D) products, one per `sample` call. A PerturbedScoreOracle
    over this oracle builds its own bounds from the same two terms.
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
            # Query-independent parts of a lookup: the flip masks (0 first),
            # and per state the exponents k - k0 (clamped at -1) of its
            # shells, with k0 its lowest nonzero shell (see _table_chunk).
            self._flips = np.append(0, 1 << np.arange(D))
            self._k0 = k0 = np.argmax(self._shells > 0, axis=1)
            self._exponents = np.maximum(np.arange(D + 1) - k0[:, None], -1).astype(np.int8)
            self._chunk_rows = _TABLE_CHUNK_ELEMENTS // (D + 1) ** 2
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
        times = np.broadcast_to(np.asarray(t, dtype=np.float64), (B,))
        if (times < 0).any() or (times >= self.T).any():
            raise ValueError("reverse times must lie in [0, T)")
        # Only the per-bit odds rho = pf/ps of forward time T - t matter for
        # ratios; rho lies in (0, 1] and increases with T - t.
        pf = flip_probability(self.T - times)
        rho = pf / (1.0 - pf)
        ratio_chunk, rows, inverse = self._matmul_chunk, states, None
        if self.uses_shell_table:
            ratio_chunk, rows = self._table_chunk, states @ self._flips[1:]  # state indices
            if np.ndim(t) == 0:  # one rho for all rows: look each distinct state up once
                rows, inverse = self._distinct(rows)
        out = np.empty((len(rows), D))
        for lo in range(0, len(rows), self._chunk_rows):
            hi = min(len(rows), lo + self._chunk_rows)
            ratio_chunk(rho[lo:hi], rows[lo:hi], out[lo:hi])
        if not np.isfinite(out).all():
            raise FloatingPointError(
                "density ratio overflowed for some query; reverse time too close to T"
            )
        return out if inverse is None else out[inverse]

    def total_bounds(self, times) -> np.ndarray | None:
        """(W, 2^D) bounds on each state's total rate over each segment
        [times[w], times[w + 1]] of reverse time, or None off the shell
        table or above _BOUND_TABLE_ELEMENTS.

        The total is sum_i ratio_i = D rho + (1/rho - rho) hbar, with hbar
        the mean shell index k under weights C[y, k] rho^k. hbar does not
        decrease in rho (its derivative in ln rho is a variance), 1/rho -
        rho does not increase, and rho falls over reverse time, so with
        rho_hi at times[w] and rho_lo at times[w + 1] the total is at most
        D rho_hi + (1/rho_lo - rho_lo) hbar(rho_hi), inflated here by
        _BOUND_MARGIN. hbar = k0 + (C' @ j rho^j) / (C' @ rho^j) from the
        shells shifted to each state's lowest nonzero one, C'[y, j] =
        C[y, k0 + j]: C'[:, 0] > 0, so nothing underflows to 0/0. A bound
        that overflows is inf or NaN, which the sampler treats as "query".
        """
        terms = self._bound_terms(times)
        if terms is None:
            return None
        rho_hi, spread = terms
        with np.errstate(over="ignore", invalid="ignore"):
            bound = self.n_bits * rho_hi[:, None] + spread
            bound *= 1.0 + _BOUND_MARGIN
        return bound

    def _bound_terms(self, times) -> tuple[np.ndarray, np.ndarray] | None:
        # The two terms of total_bounds over each segment w: rho_hi (W,) and
        # spread = (1/rho_lo - rho_lo) hbar(rho_hi) (W, 2^D), or None when
        # total_bounds offers no table.
        times = np.asarray(times, dtype=np.float64)
        D, W = self.n_bits, len(times) - 1
        if not self.uses_shell_table or W << D > _BOUND_TABLE_ELEMENTS:
            return None
        j = np.arange(D + 1)
        cols = self._k0[:, None] + j
        shifted = np.take_along_axis(self._shells, np.minimum(cols, D), axis=1)
        shifted[cols > D] = 0.0
        pf = flip_probability(self.T - times)
        rho = pf / (1.0 - pf)
        rho_hi, rho_lo = rho[:-1], rho[1:, None]
        powers = rho_hi[:, None] ** j  # (W, D + 1)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            hbar = self._k0 + ((powers * j) @ shifted.T) / (powers @ shifted.T)
            spread = (1.0 / rho_lo - rho_lo) * hbar
        return rho_hi, spread

    def _distinct(self, rows) -> tuple[np.ndarray, np.ndarray | None]:
        # The distinct state indices among `rows`, and where each row's index
        # sits among them (None when all rows are distinct), in O(B): every
        # row reads back the position of one row with its index, and the rows
        # that read back their own are kept. The (2^D,) lookup lives in the
        # thread's workspace, as _table_chunk's arrays do.
        lookup = getattr(self._workspace, "lookup", None)
        if lookup is None:
            lookup = self._workspace.lookup = np.empty(1 << self.n_bits, dtype=np.int64)
        order = np.arange(len(rows))
        lookup[rows] = order
        rep = lookup[rows]
        kept = rep == order
        if kept.all():
            return rows, None
        return rows[kept], (np.cumsum(kept) - 1)[rep]

    def _table_chunk(self, rho, y, out) -> None:
        # q(y) is proportional to sum_k C[y, k] rho^k. Dividing by rho^k0,
        # with k0 the lowest nonzero shell of y, keeps every power in
        # [rho^-1, 1]: a neighbour's nonzero shells start at k0 - 1 or
        # later, so exponents below -1 only ever multiply zeros.
        # The state is flip 0 of its own lookup. Arrays made per query fault
        # their pages in again once glibc has returned them, so each lives in
        # the workspace. Indices are always in range, and mode="clip" writes
        # into the workspace directly where "raise" buffers.
        workspace = getattr(self._workspace, "arrays", None)
        if workspace is None:
            n, D = self._chunk_rows, self.n_bits
            workspace = self._workspace.arrays = (
                np.empty((n, D + 1, D + 1)), np.empty((n, D + 1)), np.empty((n, D + 1)),
                np.empty((n, D + 1), dtype=np.int64),
            )
        shells, powers, q, index = (a[: len(y)] for a in workspace)
        # rho^-1 overflows only for T - t below about 5.6e-309; ratio_all's
        # finiteness check then reports it.
        with np.errstate(over="ignore"):
            np.power(rho[:, None], self._exponents[y], out=powers)
        np.bitwise_xor(y[:, None], self._flips, out=index)
        np.take(self._shells, index, axis=0, out=shells, mode="clip")
        np.einsum("bik,bk->bi", shells, powers, out=q)  # q[:, 0] is the state's own mass
        np.divide(q[:, 1:], q[:, :1], out=out)

    def _matmul_chunk(self, rho, states, out) -> None:
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
        np.matmul(terms, self._zeros, out=out)  # disagreeing mass at set bits
        out *= set_bits
        clear = terms @ self._ones  # disagreeing mass at clear bits
        clear *= 1.0 - set_bits
        out += clear
        # 1/rho overflows, and a zero mass times it is NaN, only for T - t
        # below about 5.6e-309; ratio_all's finiteness check reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            out *= ((1.0 / rho - rho) / terms.sum(axis=1))[:, None]
        out += rho[:, None]


class PerturbedScoreOracle(ScoreOracle):
    """Wraps an oracle with multiplicative log-noise of bounded size.

    The noise xi is a pure function of (seed, time bucket, state, flip),
    uniform on [-noise_scale, noise_scale], so repeated queries are
    bitwise reproducible without any cache. Time is bucketed into
    TIME_BUCKETS uniform slices of [0, T).

    xi takes TIME_BUCKETS 2^D D values. For D <= _NOISE_TABLE_MAX_BITS = 8,
    which bounds the table at 1 MB, the constructor hashes all of them once
    into a (TIME_BUCKETS, 2^D, D) table of exp(xi) and queries look their
    factors up; above that, every query hashes its rows. Both give the same
    bits. The table takes 0.19 MB and 1.1 ms to build at D = 6, 1 MB and
    4.6 ms at D = 8; only D = 6 is benchmarked. A 2000-row query at
    D = 6 took 460 us with the table and 860 us hashing, of which the inner
    exact oracle took 370 us (2-vCPU Xeon VM, numpy 2.4.6, best of 1000
    calls).

    With the table, over an `ExactScoreOracle` that offers bounds, the
    oracle offers `total_bounds` too, from two (TIME_BUCKETS, 2^D) arrays
    built with the table: 64 KB at D = 6, 256 KB at D = 8. Row totals
    stayed within 0.9976 of the bound over D = 1-8, both caps and noise
    0.5 and 2.0. On the benchmark's perturbed_tight_d6 (noise 0.5, tight
    cap) `sample` queries 55% of its events; its 14-segment bounds take
    0.11 ms per `sample` call, the exact oracle's 0.04 ms (same VM, best of
    20).
    """

    def __init__(self, inner: ScoreOracle, noise_scale: float, seed: int):
        if noise_scale < 0:
            raise ValueError("noise_scale must be nonnegative")
        self.inner = inner
        self.T = inner.T
        self.n_bits = D = inner.n_bits
        self.noise_scale = float(noise_scale)
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        # The hashes of the seed, of every time bucket and of every flip
        # position do not depend on the query.
        self._seed_mix = splitmix64(np.array([self.seed], dtype=np.uint64))
        self._bucket_mix = splitmix64(np.arange(TIME_BUCKETS, dtype=np.uint64))
        self._flip_mix = splitmix64(np.arange(D, dtype=np.uint64) + np.uint64(0x5BF0))
        self._noise_table = None
        if D <= _NOISE_TABLE_MAX_BITS:
            buckets = np.arange(TIME_BUCKETS)[:, None]
            self._noise_table = np.exp(self._noise(buckets, all_states(D)))
            # Per (bucket, state): the sum and the largest of the D factors,
            # the noise's two terms in total_bounds.
            self._noise_sum = self._noise_table.sum(axis=2)
            self._noise_max = self._noise_table.max(axis=2)

    @property
    def initial(self) -> EmpiricalInitial:
        return self.inner.initial

    @property
    def uses_noise_table(self) -> bool:
        """Whether queries look exp(xi) up; fixed by D at construction."""
        return self._noise_table is not None

    def _bucket(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        return np.clip((t / self.T * TIME_BUCKETS).astype(np.int64), 0, TIME_BUCKETS - 1)

    def _noise(self, bucket, states) -> np.ndarray:
        # xi for (B, D) states and time buckets broadcast against their rows.
        key = splitmix64(state_key(states) ^ self._bucket_mix[bucket] ^ self._seed_mix)
        word = splitmix64(key[..., None] ^ self._flip_mix)
        unit = word.astype(np.float64) / float(1 << 64)  # [0, 1)
        return (2.0 * unit - 1.0) * self.noise_scale

    def log_noise(self, t, states) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=np.uint8))
        return self._noise(self._bucket(t), states)

    def ratio_all(self, t, states) -> np.ndarray:
        ratios = self.inner.ratio_all(t, states)
        if self._noise_table is None:
            return ratios * np.exp(self.log_noise(t, states))
        D = self.n_bits
        rows = self._bucket(t) << D | state_to_index(states)  # rows of the flat table
        return ratios * np.take(self._noise_table.reshape(-1, D), rows, axis=0)

    def total_bounds(self, times) -> np.ndarray | None:
        """(W, 2^D) bounds on each state's perturbed total rate over each
        segment of reverse time, as for :meth:`ExactScoreOracle.total_bounds`;
        None without the noise table or over any inner oracle that does not
        offer the exact oracle's bound terms. The terms are found by name,
        so they reach through a delegating proxy around the inner oracle
        (the benchmark's tracing proxy).

        An exact ratio is r_i = rho + p_i (1/rho - rho) with p_i in [0, 1]
        and sum_i p_i = hbar, so in time bucket b the perturbed total
        sum_i r_i e^xi_i is at most rho S_b(y) + (1/rho - rho) hbar X_b(y),
        with S_b(y) the sum and X_b(y) the largest of the D factors e^xi.
        Over segment w the bound takes the exact bound's rho_hi and spread
        (1/rho_lo - rho_lo) hbar(rho_hi), and the largest S and X over the
        buckets from that of times[w] to that of times[w + 1]: the sampler
        queries only times inside the segment, and the bucket does not
        decrease in t.
        """
        bound_terms = getattr(self.inner, "_bound_terms", None)
        if self._noise_table is None or bound_terms is None:
            return None
        terms = bound_terms(times)
        if terms is None:
            return None
        rho_hi, spread = terms
        buckets = self._bucket(times)
        spans = [slice(lo, hi + 1) for lo, hi in zip(buckets[:-1], buckets[1:])]
        noise_sum = np.stack([self._noise_sum[s].max(axis=0) for s in spans])
        noise_max = np.stack([self._noise_max[s].max(axis=0) for s in spans])
        with np.errstate(over="ignore", invalid="ignore"):
            bound = rho_hi[:, None] * noise_sum + spread * noise_max
            bound *= 1.0 + _BOUND_MARGIN
        return bound


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
    marginals cap D at MAX_RATE_MATRIX_BITS.
    """
    if oracle.T != T:
        raise ValueError(f"oracle horizon T={oracle.T} differs from the loss horizon T={T}")
    D = initial.n_bits
    if D > MAX_RATE_MATRIX_BITS:
        raise ValueError(f"exact loss evaluation needs D <= {MAX_RATE_MATRIX_BITS}")
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
