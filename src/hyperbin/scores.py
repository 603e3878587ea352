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
    oracle's, as a bound skips no wrapper.

    Optionally too, `_ratio_index(t, index)` answers `ratio_all` for the
    states with these int64 indices (D <= 63), bit for bit, with t
    broadcast against them; the samplers then carry replicas as indices.
    The exact oracle offers it on its shell table, and the perturbed oracle
    with its noise table over an oracle that offers it. It is None here, so
    a delegating subclass that changes or times `ratio_all` inherits None
    and sees every query through `ratio_all`; :func:`index_query` reads it.
    """

    T: float
    n_bits: int
    _ratio_index = None

    def ratio_all(self, t, states) -> np.ndarray:
        """Ratios for every flip: (B, D) array for (B, D) base states and
        per-row reverse times t in [0, T) (scalar or (B,)). A row's ratios
        depend only on its (t, state): repeated rows may be answered once."""
        raise NotImplementedError


def index_query(oracle):
    """The oracle's `_ratio_index` (see :class:`ScoreOracle`), or None.
    It is looked up on the type first, so an object that forwards unknown
    attributes never hands out the query of the oracle it wraps."""
    if getattr(type(oracle), "_ratio_index", None) is None:
        return None
    return oracle._ratio_index


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
    _CHUNK_ELEMENTS, the support matmul otherwise. The table costs the same
    at any P and the matmul grows with P; at D = 6 and 10 the rule sits near
    the measured crossover, and above that it is conservative.

    Table queries gather the shells of the state and its D neighbours
    into one (B, D + 1, D + 1) workspace per thread (the sampler's threads
    share an oracle), in chunks of 2^18 shells. A scalar-t query looks each
    distinct state up once, found in O(B) through a per-thread (2^D,)
    lookup. Its callers are the exact-law helpers, score_entropy_loss and
    Euler steps; all of them but Euler's per-row path (chunks of fewer than
    4 * 2^D replicas) ask for all_states(D), so only that path sends
    repeated rows.

    On the shell-table path the oracle also offers `total_bounds`, the
    per-segment, per-state bound on the total rate with which `sample`
    skips events that cannot move, from two (W, D + 1) @ (D + 1, 2^D)
    products per `sample` call, and `_ratio_index`, the table query by
    state index. A PerturbedScoreOracle over this oracle builds its own
    bounds from the same two terms.
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
            # total_bounds' shells shifted to each state's lowest nonzero one,
            # C'[y, j] = C[y, k0 + j], zero past shell D.
            cols = k0[:, None] + np.arange(D + 1)
            self._shifted = np.take_along_axis(self._shells, np.minimum(cols, D), axis=1)
            self._shifted[cols > D] = 0.0
            self._chunk_rows = _TABLE_CHUNK_ELEMENTS // (D + 1) ** 2
            self._workspace = threading.local()
        else:
            self._shells = None
            self._ones = initial.states.astype(np.float64)
            self._zeros = 1.0 - self._ones
            self._chunk_rows = max(1, _CHUNK_ELEMENTS // P)
            self._ratio_index = None  # only the shell table answers by index

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
        if not self.uses_shell_table:
            return self._ratios(self._matmul_chunk, times, states)
        index, inverse = states @ self._flips[1:], None
        if np.ndim(t) == 0:  # one rho for all rows: look each distinct state up once
            index, inverse = self._distinct(index)
        out = self._ratios(self._table_chunk, times[: len(index)], index)
        return out if inverse is None else out[inverse]

    def _ratio_index(self, t, index) -> np.ndarray:
        # ratio_all on the shell table for valid state indices and times,
        # unchecked but for the finiteness of the result (see ScoreOracle)
        return self._ratios(self._table_chunk, np.broadcast_to(t, index.shape), index)

    def _ratios(self, ratio_chunk, times, rows) -> np.ndarray:
        # Only the per-bit odds rho = pf/ps of forward time T - t matter for
        # ratios; rho lies in (0, 1] and increases with T - t.
        pf = flip_probability(self.T - times)
        rho = pf / (1.0 - pf)
        out = np.empty((len(rows), self.n_bits))
        for lo in range(0, len(rows), self._chunk_rows):
            hi = min(len(rows), lo + self._chunk_rows)
            ratio_chunk(rho[lo:hi], rows[lo:hi], out[lo:hi])
        if not np.isfinite(out).all():
            raise FloatingPointError(
                "density ratio overflowed for some query; reverse time too close to T"
            )
        return out

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
        j, shifted = np.arange(D + 1), self._shifted
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
    bits.

    With the table, the oracle offers `total_bounds` over an
    `ExactScoreOracle` that offers bounds, from two (TIME_BUCKETS, 2^D)
    arrays built with the table, and `_ratio_index` over an oracle whose
    type offers it (see :func:`index_query`), so a proxy around the inner
    oracle keeps seeing every query.
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
        return self._noisy(ratios, t, state_to_index(states))

    @property
    def _ratio_index(self):
        # looked up on every use, as the benchmark swaps `inner` for a proxy
        inner = index_query(self.inner)
        if self._noise_table is None or inner is None:
            return None
        return lambda t, index: self._noisy(inner(t, index), t, index)

    def _noisy(self, ratios, t, index) -> np.ndarray:
        D = self.n_bits
        rows = self._bucket(t) << D | index  # rows of the flat noise table
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
