"""Reverse-time sampling by uniformization with per-segment rate caps.

The reverse chain runs over [0, T - delta] split into segments whose
right-endpoint cap beta dominates the total reverse rate throughout the
segment. On each segment, candidate event times arrive as a Poisson
process of rate beta: every replica runs one unit-rate Poisson clock,
mapped through the integrated cap Lambda(t) (a time change), so one
batched pass serves replicas in any segment. At each event the state
flips bit i with probability rate_i / beta (rates rescaled to total at
most beta), else stays put. Because beta upper-bounds the true total
rate, the simulated law matches the reverse chain exactly; a fixed-step
Euler discretization is included as a biased baseline.

An event whose uniform u has u * beta at or above a bound on its row's
total rate cannot move, so when the oracle offers such bounds
(`total_bounds`, see :class:`ScoreOracle`) its query is skipped (thinning,
Lewis & Shedler 1979). The cost model still counts D score evaluations per
event; the rows actually queried are counted apart.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .bits import all_states, index_to_state, state_to_index
from .chain import EmpiricalInitial, marginal_at, sample_forward
from .quantizer import QuantizerSpec, dequantize_sample, vbin_decode
from .scores import ScoreOracle, index_query

BETA_MODES = ("standard", "tight")

# Not read by the sampler; kept because the benchmark (perfbench/workloads.py)
# imports it to label its ops.
BATCH_THRESHOLD = 512
# Replicas per chunk; each chunk has its own RNG stream.
DEFAULT_CHUNK = 1 << 16
# An Euler chunk of at least this many replicas per state (B >= 4 * 2^D)
# rates all 2^D states each step; a smaller one rates its replicas' rows,
# of which the exact oracle computes only the distinct states. From 4 on,
# every measured shape ran faster than the per-row loop (figures in
# CHANGES.md, on the Euler state path).
EULER_STATE_PATH_REPLICAS = 4


def beta_value(D: int, T: float, t, mode: str = "standard"):
    """Rate cap at reverse time t: 2D / min(1, T-t), or the tighter
    D (1 + 1/(T-t)) which still dominates the exact total reverse rate."""
    rem = T - np.asarray(t, dtype=np.float64)
    # a cap beyond the float range comes out inf, which TimePartition rejects
    with np.errstate(over="ignore"):
        if mode == "standard":
            out = 2.0 * D / np.minimum(1.0, rem)
        elif mode == "tight":
            out = D * (1.0 + 1.0 / rem)
        else:
            raise ValueError(f"unknown beta mode {mode!r}")
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TimePartition:
    """Segment endpoints 0 = t_0 < ... < t_W = T - delta with per-segment
    caps beta_w: at each segment's right endpoint for uniformization
    (:func:`build_partition`), at its left end for Euler (:func:`euler_steps`)."""

    times: np.ndarray
    betas: np.ndarray
    T: float
    delta: float
    n_bits: int

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        betas = np.asarray(self.betas, dtype=np.float64)
        if times[0] != 0.0 or (np.diff(times) <= 0).any():
            raise ValueError("times must start at 0 and strictly increase")
        if not math.isclose(times[-1], self.T - self.delta, rel_tol=0, abs_tol=1e-12):
            raise ValueError("partition must end at T - delta")
        if (times >= self.T).any():
            raise ValueError("all endpoints must stay below T")
        if len(betas) != len(times) - 1 or (betas <= 0).any():
            raise ValueError("need one positive beta per segment")
        if not np.isfinite(betas).all():
            raise ValueError(
                f"rate cap overflows float64 near T - delta: delta={self.delta!r} "
                f"is too small for T={self.T!r}"
            )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "betas", betas)

    @property
    def n_segments(self) -> int:
        return len(self.betas)

    def segments(self):
        for w in range(self.n_segments):
            yield float(self.times[w]), float(self.times[w + 1]), float(self.betas[w])

    def expected_events(self) -> float:
        """Exact mean number of candidate events, sum of beta_w * dt_w."""
        return float(np.sum(self.betas * np.diff(self.times)))

    def event_budget(self, corrected: bool = False) -> float:
        """Budget 2 D (T + c ln(1/delta)) on the expected event count.

        With c = 1 this is the nominal budget; it is valid only for
        coarse early stopping (delta >~ 0.02) because the caps sit at
        segment right endpoints. c = 1.24 (`corrected`) covers every
        delta; see the partition tests for the crossover.
        """
        c = 1.24 if corrected else 1.0
        return 2.0 * self.n_bits * (self.T + c * math.log(1.0 / self.delta))


def build_partition(
    D: int, T: float, delta: float, beta_mode: str = "standard"
) -> TimePartition:
    """Geometric refinement toward the horizon: t_{w+1} = (T + 2 t_w)/3,
    i.e. the remaining gap shrinks by 2/3 per segment, halted at T - delta."""
    _check_gap(T, delta)
    times = [0.0]
    while True:
        nxt = (T + 2.0 * times[-1]) / 3.0
        # within a few ulps of T the rounded recurrence can stop advancing
        if nxt >= T - delta or nxt <= times[-1]:
            break
        times.append(nxt)
    times.append(T - delta)
    times = np.asarray(times)
    betas = beta_value(D, T, times[1:], beta_mode)
    return TimePartition(times=times, betas=betas, T=float(T), delta=float(delta), n_bits=D)


def _check_gap(T: float, delta: float) -> None:
    """Reject a stopping gap outside (0, T), or one too small to move
    T - delta below T in float64, where the refinement would never end."""
    if not (0 < delta < T and T - delta < T):
        raise ValueError(f"need 0 < delta < T and T - delta < T, got delta={delta!r}, T={T!r}")


def euler_steps(config: SamplerConfig, n_steps: int) -> TimePartition:
    """The Euler baseline's n_steps equal steps over [0, T - delta], each
    with the cap beta at its left end, where the step queries the oracle."""
    times = np.arange(n_steps + 1) * ((config.T - config.delta) / n_steps)
    betas = beta_value(config.n_bits, config.T, times[:-1], config.beta_mode)
    return TimePartition(times, betas, config.T, config.delta, config.n_bits)


@dataclass(frozen=True)
class SamplerConfig:
    """Run parameters; `init` is "uniform" or "exact-terminal". The latter
    starts from the forward law at T: it draws support points of the
    oracle's `initial` by weight and runs the forward chain over [0, T]
    from them, which is exact at any D."""

    spec: QuantizerSpec
    T: float
    delta: float
    seed: int
    init: str = "uniform"
    beta_mode: str = "standard"

    def __post_init__(self):
        _check_gap(self.T, self.delta)
        if self.init not in ("uniform", "exact-terminal"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.beta_mode not in BETA_MODES:
            raise ValueError(f"unknown beta mode {self.beta_mode!r}")

    @property
    def n_bits(self) -> int:
        return self.spec.n_bits

    def partition(self) -> TimePartition:
        return build_partition(self.n_bits, self.T, self.delta, self.beta_mode)

    @classmethod
    def default_schedule(cls, spec: QuantizerSpec, eps: float, seed: int, **kwargs):
        """Horizon ln(d/eps) + ln(m) and stopping gap eps/(d m): the
        schedule under which the expected event count stays within the
        d ln^2(d/eps) envelope while the terminal bias stays below eps."""
        if not 0 < eps < 1:
            raise ValueError("eps must lie in (0, 1)")
        T = math.log(spec.d / eps) + math.log(spec.m)
        delta = eps / (spec.d * spec.m)
        return cls(spec=spec, T=T, delta=delta, seed=seed, **kwargs)


@dataclass
class RunStats:
    """Work counters aggregated over replicas. `events_per_segment` counts,
    in each segment of the run's partition, one rate row per replica per
    Poisson event (uniformization, also counted in `poisson_events`) or per
    step (Euler, which leaves `poisson_events` at 0). `score_evals` is the
    cost model: D per such row, whether or not the oracle was asked for it.
    `queried_rows` counts the rows the oracle was asked for, through
    `ratio_all` or, when the oracle offers it, its index query (see
    :class:`ScoreOracle`; a wrapper that times `ratio_all` sees them all):
    under uniformization only the events that a rate bound could not rule
    out, and under Euler 2^D per step on the state path (at least
    EULER_STATE_PATH_REPLICAS replicas per state, see :func:`euler_sample`)
    or one per replica per step otherwise."""

    score_evals: int = 0
    queried_rows: int = 0
    poisson_events: int = 0
    accepted_moves: int = 0
    truncation_activations: int = 0
    clipped_steps: int = 0
    events_per_segment: np.ndarray | None = None


@dataclass(frozen=True)
class SampleResult:
    """Continuous samples (n, d), their discrete states (n, D), and the
    aggregated work counters."""

    x: np.ndarray
    states: np.ndarray
    stats: RunStats


def _chunk_rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(tag, index)))


def _check_oracle(config: SamplerConfig, oracle: ScoreOracle) -> None:
    """Reject an oracle that breaks the contract of :class:`ScoreOracle`
    for this run: another state size, another horizon, or no `initial`
    under exact-terminal init."""
    if oracle.n_bits != config.n_bits:
        raise ValueError(f"oracle has {oracle.n_bits} bits, the quantizer {config.n_bits}")
    if oracle.T != config.T:
        raise ValueError(f"oracle horizon T={oracle.T} differs from the run's T={config.T}")
    if config.init == "exact-terminal" and not hasattr(oracle, "initial"):
        raise ValueError("exact-terminal init needs an oracle with an initial distribution")


def _initial_states(
    config: SamplerConfig, oracle: ScoreOracle, n: int, rng: np.random.Generator
) -> np.ndarray:
    D = config.n_bits
    if config.init == "uniform":
        return rng.integers(0, 2, size=(n, D), dtype=np.uint8)
    initial = oracle.initial
    rows = rng.choice(len(initial.weights), size=n, p=initial.weights)
    return sample_forward(D, initial.states[rows], 0.0, config.T, rng)


def _jump(
    rates: np.ndarray,
    beta: float | np.ndarray,
    h: float | None,
    u: np.ndarray,
    stats: RunStats,
    row_of: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One truncate-and-choose-flip step; returns (hit, flips), the draws
    that move and the bit each flips, for the caller to apply.

    `rates` (overwritten) holds one row of per-flip rates per draw, or,
    with `row_of`, draw j reads row `row_of[j]` (Euler replicas in one
    state share its row). `beta` is the cap, one for all rows (Euler) or
    one per row (uniformization, whose rows sit in different segments and
    map one to one to draws). Each row's total is capped at its beta; a
    draw then flips bit i with probability rate_i / beta (uniformization,
    h=None) or h * rate_i, rescaled to total at most 1 and counted in
    `clipped_steps` (Euler). The work is done on the running sums of the
    rates (last column: the row total), summed column by column:
    np.cumsum's additions, without its slow short axis. `u` (overwritten)
    holds one uniform on [0, 1) per draw, a flip is chosen only for draws
    that move, and truncations and clips count per draw.
    """
    cum = rates
    for i in range(1, cum.shape[1]):
        cum[:, i] += cum[:, i - 1]
    total = cum[:, -1]  # a view, so it follows every rescaling of cum
    over = total > beta
    if over.any():
        cap = np.broadcast_to(beta, total.shape)[over]
        cum[over] *= (cap / total[over])[:, None]
        stats.truncation_activations += _draws_on(over, row_of)
    if h is None:
        u *= beta  # flip when u / beta falls below the capped total
    else:
        cum *= h
        clipped = total > 1.0
        if clipped.any():
            cum[clipped] /= total[clipped][:, None]
            stats.clipped_steps += _draws_on(clipped, row_of)
    if row_of is None:
        hit = np.flatnonzero(u < total)
        flips = np.argmax(u[hit, None] < cum[hit], axis=1)
    else:
        hit = np.flatnonzero(u < total[row_of])
        flips = np.argmax(u[hit, None] < cum[row_of[hit]], axis=1)
    stats.accepted_moves += len(hit)
    return hit, flips


def _draws_on(rows: np.ndarray, row_of: np.ndarray | None) -> int:
    """How many draws read a row marked in the boolean `rows`."""
    return int(np.count_nonzero(rows if row_of is None else rows[row_of]))


def _uniformize_chunk(
    oracle: ScoreOracle,
    partition: TimePartition,
    states: np.ndarray,
    rng: np.random.Generator,
    bounds: np.ndarray | None = None,
) -> RunStats:
    """Advance a chunk of replicas over the whole partition in place.

    Each replica runs one unit-rate Poisson clock: `e` is its running sum
    of Exp(1) gaps. The integrated cap Lambda(t), the integral of beta
    from 0 to t, maps the clock's arrivals to event times; with beta_w
    constant on segment w, the arrivals in [Lambda(t_w), Lambda(t_{w+1}))
    map to a Poisson process of rate beta_w on [t_w, t_{w+1}). Each pass
    queries every replica whose clock is still below Lambda(T - delta),
    each at its own time and under its own segment's cap, so the number
    of passes is the largest event count of any replica over the run.

    Each pass draws the events' uniforms before it queries. With
    `bounds` (W, 2^D), from the oracle's `total_bounds`, it queries only
    the rows whose u * beta falls below their state's bound on their
    segment; the rest cannot move, as the flip test is u * beta < total
    <= bound. The oracle draws no random numbers, so the stream, the
    states and every counter but `queried_rows` are those of querying
    every row.

    Replicas travel as state indices when the oracle offers an index
    query (:func:`index_query`): a flip is applied as index ^= 1 << flip,
    and `states` is unpacked once, at the end. Without the query (the
    matmul path, D > 63, or a wrapper that changes or times `ratio_all`,
    which does not inherit it) they travel as rows of `states`, with
    indices beside them when bounds are read.
    """
    times, betas = partition.times, partition.betas
    D, W = states.shape[1], partition.n_segments
    ends = np.concatenate(([0.0], np.cumsum(betas * np.diff(times))))  # Lambda(t_w)
    stats = RunStats(events_per_segment=np.zeros(W, dtype=np.int64))
    e = rng.standard_exponential(len(states))
    active = np.flatnonzero(e < ends[-1])
    segment = np.zeros(len(states), dtype=np.intp)  # each replica's, only moves forward
    query = index_query(oracle) if D <= 63 else None
    if bounds is not None:
        bounds = bounds.ravel()
    index = None if query is None and bounds is None else state_to_index(states)
    while len(active):
        clock = e[active]
        # the last w with ends[w] <= clock, as searchsorted(ends, clock, "right") - 1
        seg = segment[active]
        behind = np.flatnonzero(clock >= ends[seg + 1])
        while len(behind):
            seg[behind] += 1
            segment[active[behind]] += 1
            behind = behind[clock[behind] >= ends[seg[behind] + 1]]
        stats.events_per_segment += np.bincount(seg, minlength=W)
        u = rng.random(len(active))
        rows = active
        if bounds is not None:
            # "not >=" so that a NaN bound queries
            ask = np.flatnonzero(~(u * betas[seg] >= bounds[seg << D | index[active]]))
            rows, clock, seg, u = active[ask], clock[ask], seg[ask], u[ask]
        if len(rows):
            # Rounding may carry a time past its segment's end; clamping
            # keeps every query at or below T - delta.
            t = np.minimum(times[seg] + (clock - ends[seg]) / betas[seg], times[seg + 1])
            rates = oracle.ratio_all(t, states[rows]) if query is None else query(t, index[rows])
            hit, flips = _jump(rates, betas[seg], None, u, stats)
            moved = rows[hit]
            if query is None:
                states[moved, flips] ^= 1
            if index is not None:
                index[moved] ^= 1 << flips
        stats.queried_rows += len(rows)
        e[active] += rng.standard_exponential(len(active))
        active = active[e[active] < ends[-1]]
    if query is not None:
        states[:] = index_to_state(index, D)
    stats.poisson_events = int(stats.events_per_segment.sum())
    stats.score_evals = D * stats.poisson_events
    return stats


def _euler_chunk(
    oracle: ScoreOracle,
    config: SamplerConfig,
    n_steps: int,
    states: np.ndarray,
    rng: np.random.Generator,
) -> RunStats:
    """Advance a chunk of replicas over the Euler steps in place, on
    state indices when the chunk holds at least EULER_STATE_PATH_REPLICAS
    replicas per state (see :func:`euler_sample`)."""
    D = config.n_bits
    n = len(states)
    stats = RunStats(
        score_evals=n_steps * n * D, events_per_segment=np.full(n_steps, n, dtype=np.int64)
    )
    h = (config.T - config.delta) / n_steps
    steps = euler_steps(config, n_steps).segments()
    if n < EULER_STATE_PATH_REPLICAS << D:
        stats.queried_rows = n_steps * n
        for t, _, beta in steps:
            u = rng.random(n)
            hit, flips = _jump(oracle.ratio_all(t, states), beta, h, u, stats)
            states[hit, flips] ^= 1
        return stats
    stats.queried_rows = n_steps << D
    query, grid = index_query(oracle), np.arange(1 << D)
    if query is None:  # the same rows, as states
        query, grid = oracle.ratio_all, all_states(D)
    index = state_to_index(states)
    for t, _, beta in steps:
        u = rng.random(n)
        hit, flips = _jump(query(t, grid), beta, h, u, stats, index)
        index[hit] ^= 1 << flips
    states[:] = index_to_state(index, D)
    return stats


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _run_chunks(config, oracle, n_samples, runner, rng_tag):
    """Run `runner` on chunks of DEFAULT_CHUNK replicas, each with its own
    RNG stream, so the output does not depend on how many threads run them."""
    D = config.n_bits
    states = np.empty((n_samples, D), dtype=np.uint8)
    x = np.empty((n_samples, config.spec.d))
    # An empty run still makes one (empty) chunk, so it reports zero counts.
    starts = range(0, max(n_samples, 1), DEFAULT_CHUNK)
    bounds = [(lo, min(lo + DEFAULT_CHUNK, n_samples)) for lo in starts]

    def run_one(chunk_index: int) -> RunStats:
        lo, hi = bounds[chunk_index]
        rng = _chunk_rng(config.seed, rng_tag, chunk_index)
        states[lo:hi] = _initial_states(config, oracle, hi - lo, rng)
        stats = runner(states[lo:hi], rng)
        grid = vbin_decode(config.spec, states[lo:hi])
        x[lo:hi] = dequantize_sample(config.spec, grid, rng)
        return stats

    workers = min(len(bounds), _available_cpus())
    if workers > 1:
        # imported here: concurrent.futures loads logging, about 0.5 MB
        # resident that a run of one chunk never needs
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunk_stats = list(pool.map(run_one, range(len(bounds))))
    else:
        chunk_stats = [run_one(i) for i in range(len(bounds))]
    total = chunk_stats[0]
    for st in chunk_stats[1:]:
        for field in fields(RunStats):
            setattr(total, field.name, getattr(total, field.name) + getattr(st, field.name))
    return SampleResult(x=x, states=states, stats=total)


def sample(config: SamplerConfig, oracle: ScoreOracle, n_samples: int) -> SampleResult:
    """Run the uniformization sampler for n_samples replicas.

    Every replica starts from the configured initial law, runs its events
    over the whole partition, and is decoded to a continuous point by
    inverting the binary encoding and drawing uniformly inside the cell.
    Replicas advance in chunks of DEFAULT_CHUNK, one RNG stream per chunk;
    chunks run on the available CPUs. The output is deterministic given
    the seed and independent of the thread count.
    """
    _check_oracle(config, oracle)
    partition = config.partition()
    # One bound table per call, read by every chunk's thread.
    total_bounds = getattr(oracle, "total_bounds", None)
    bounds = None if total_bounds is None else total_bounds(partition.times)
    runner = lambda states, rng: _uniformize_chunk(oracle, partition, states, rng, bounds)
    return _run_chunks(config, oracle, n_samples, runner, rng_tag=2)


def euler_sample(
    config: SamplerConfig, oracle: ScoreOracle, n_steps: int, n_samples: int
) -> SampleResult:
    """Fixed-step baseline: n_steps equal steps over [0, T - delta]; at
    each step the state jumps to neighbor i with probability h * rate_i
    (rescaled to total at most 1, rescaling counted in `clipped_steps`).
    Biased for finite n_steps, converging to the uniformization law as
    n_steps grows. Chunking and threads are as in :func:`sample`.

    Replicas in one state share its rates at a step. So a chunk of at
    least EULER_STATE_PATH_REPLICAS * 2^D replicas (D <= 14 at
    DEFAULT_CHUNK) asks the oracle for all 2^D states once per step; a
    smaller chunk asks for its replicas' own rows. The rule follows from
    the sizes alone, and both sides give the same output bits."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    _check_oracle(config, oracle)
    runner = lambda states, rng: _euler_chunk(oracle, config, n_steps, states, rng)
    return _run_chunks(config, oracle, n_samples, runner, rng_tag=3)


def exact_reverse_marginal(initial: EmpiricalInitial, T: float, t: float) -> np.ndarray:
    """Dense law of the ideal reverse chain at reverse time t: the forward
    marginal at T - t."""
    if not 0 <= t <= T:
        raise ValueError("need 0 <= t <= T")
    return marginal_at(initial, T - t)
