"""Reverse-time sampling by uniformization with per-segment rate caps.

The reverse chain runs over [0, T - delta] split into segments whose
right-endpoint cap beta dominates the total reverse rate throughout the
segment. Within a segment, candidate event times arrive as a Poisson
process of rate beta; at each event the state flips bit i with
probability rate_i / beta (rates rescaled to total at most beta), else
stays put. Because beta upper-bounds the true total rate, the simulated
law matches the reverse chain exactly; a fixed-step Euler discretization
is included as a biased baseline.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .bits import index_to_state, state_to_index
from .chain import EmpiricalInitial, marginal_at
from .quantizer import QuantizerSpec, dequantize_sample, vbin_decode
from .scores import ScoreOracle

BETA_MODES = ("standard", "tight")

# Not read by the sampler; kept because the benchmark (perfbench/workloads.py)
# imports it to label its ops.
BATCH_THRESHOLD = 512
# Replicas per chunk; each chunk has its own RNG stream.
DEFAULT_CHUNK = 1 << 16


def beta_value(D: int, T: float, t, mode: str = "standard"):
    """Rate cap at reverse time t: 2D / min(1, T-t), or the tighter
    D (1 + 1/(T-t)) which still dominates the exact total reverse rate."""
    rem = T - np.asarray(t, dtype=np.float64)
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
    caps beta_w evaluated at each segment's right endpoint."""

    times: np.ndarray
    betas: np.ndarray
    T: float
    delta: float
    n_bits: int
    beta_mode: str = "standard"

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
    if not 0 < delta < T:
        raise ValueError(f"need 0 < delta < T, got delta={delta}, T={T}")
    times = [0.0]
    while True:
        nxt = (T + 2.0 * times[-1]) / 3.0
        if nxt >= T - delta:
            break
        times.append(nxt)
    times.append(T - delta)
    times = np.asarray(times)
    betas = beta_value(D, T, times[1:], beta_mode)
    return TimePartition(
        times=times, betas=betas, T=float(T), delta=float(delta), n_bits=D, beta_mode=beta_mode
    )


@dataclass(frozen=True)
class SamplerConfig:
    """Run parameters; `init` is "uniform" or "exact-terminal" (the latter
    draws initial states from the dense forward marginal at T, so it needs
    an oracle exposing its initial distribution and small D)."""

    spec: QuantizerSpec
    eps: float
    T: float
    delta: float
    seed: int
    init: str = "uniform"
    method: str = "uniformization"
    beta_mode: str = "standard"

    def __post_init__(self):
        if not 0 < self.delta < self.T:
            raise ValueError("need 0 < delta < T")
        if self.init not in ("uniform", "exact-terminal"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.method not in ("uniformization", "euler"):
            raise ValueError(f"unknown method {self.method!r}")
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
        return cls(spec=spec, eps=eps, T=T, delta=delta, seed=seed, **kwargs)


@dataclass
class RunStats:
    """Work counters aggregated over replicas. `score_evals` counts one
    oracle query per neighbor per event (D per event); `poisson_events`
    counts the events themselves, which is the per-event-call cost."""

    score_evals: int = 0
    poisson_events: int = 0
    accepted_moves: int = 0
    truncation_activations: int = 0
    clipped_steps: int = 0
    events_per_segment: np.ndarray | None = None

    def merge(self, other: "RunStats") -> "RunStats":
        eps_a, eps_b = self.events_per_segment, other.events_per_segment
        if eps_a is None:
            seg = None if eps_b is None else eps_b.copy()
        else:
            seg = eps_a.copy() if eps_b is None else eps_a + eps_b
        return RunStats(
            score_evals=self.score_evals + other.score_evals,
            poisson_events=self.poisson_events + other.poisson_events,
            accepted_moves=self.accepted_moves + other.accepted_moves,
            truncation_activations=self.truncation_activations + other.truncation_activations,
            clipped_steps=self.clipped_steps + other.clipped_steps,
            events_per_segment=seg,
        )


@dataclass(frozen=True)
class SampleResult:
    """Continuous samples (n, d), their discrete states (n, D), and the
    aggregated work counters."""

    x: np.ndarray
    states: np.ndarray
    stats: RunStats


def _chunk_rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(tag, index)))


def _terminal_probs(config: SamplerConfig, oracle: ScoreOracle) -> np.ndarray | None:
    if config.init != "exact-terminal":
        return None
    initial = getattr(oracle, "initial", None)
    if initial is None:
        raise ValueError("exact-terminal init needs an oracle with an initial distribution")
    return marginal_at(initial, config.T)


def _initial_states(
    config: SamplerConfig,
    n: int,
    rng: np.random.Generator,
    terminal_probs: np.ndarray | None,
) -> np.ndarray:
    D = config.n_bits
    if config.init == "uniform":
        return rng.integers(0, 2, size=(n, D), dtype=np.uint8)
    idx = rng.choice(len(terminal_probs), size=n, p=terminal_probs)
    return index_to_state(idx, D)


def _jump(
    states: np.ndarray,
    rows: np.ndarray,
    rates: np.ndarray,
    beta: float,
    h: float | None,
    rng: np.random.Generator,
    stats: RunStats,
) -> None:
    """One truncate-and-choose-flip step for replicas `rows` of `states`.

    `rates` (overwritten) holds the oracle's per-flip rates for those rows.
    Each row's total is capped at beta; row r then flips bit i with
    probability rate_i / beta (uniformization, h=None) or h * rate_i,
    rescaled to total at most 1 and counted in `clipped_steps` (Euler).
    One uniform is drawn per row; each rate counts as one score evaluation.
    """
    total = rates.sum(axis=1)
    over = total > beta
    if over.any():
        rates[over] *= (beta / total[over])[:, None]
        stats.truncation_activations += int(over.sum())
    if h is None:
        cum = np.cumsum(rates, axis=1)
        cum /= beta
    else:
        rates *= h
        ptot = rates.sum(axis=1)
        clipped = ptot > 1.0
        if clipped.any():
            rates[clipped] /= ptot[clipped][:, None]
            stats.clipped_steps += int(clipped.sum())
        cum = np.cumsum(rates, axis=1)
    u = rng.random(len(rows))
    moved = u < cum[:, -1]
    flips = np.argmax(u[:, None] < cum, axis=1)
    states[rows[moved], flips[moved]] ^= 1
    stats.accepted_moves += int(moved.sum())
    stats.score_evals += rates.size


def _uniformize_chunk(
    oracle: ScoreOracle,
    partition: TimePartition,
    states: np.ndarray,
    rng: np.random.Generator,
) -> RunStats:
    """Advance a chunk of replicas through all segments in place.

    Replicas share segment boundaries, so events are processed in lockstep
    slots: slot k touches every replica that drew at least k events in the
    current segment.
    """
    B = len(states)
    stats = RunStats(events_per_segment=np.zeros(partition.n_segments, dtype=np.int64))
    for w, (t_lo, t_hi, beta) in enumerate(partition.segments()):
        counts = rng.poisson(beta * (t_hi - t_lo), size=B)
        max_events = int(counts.max()) if B else 0
        if max_events == 0:
            continue
        times = rng.random((B, max_events)) * (t_hi - t_lo) + t_lo
        times[np.arange(max_events)[None, :] >= counts[:, None]] = np.inf
        times.sort(axis=1, kind="stable")
        for k in range(max_events):
            active = np.flatnonzero(counts > k)
            rates = oracle.ratio_all(times[active, k], states[active])
            _jump(states, active, rates, beta, None, rng, stats)
            stats.poisson_events += len(active)
        stats.events_per_segment[w] += int(counts.sum())
    return stats


def _euler_chunk(
    oracle: ScoreOracle,
    config: SamplerConfig,
    n_steps: int,
    states: np.ndarray,
    rng: np.random.Generator,
) -> RunStats:
    B, D = states.shape
    stats = RunStats()
    rows = np.arange(B)
    h = (config.T - config.delta) / n_steps
    for k in range(n_steps):
        t = k * h
        beta = beta_value(D, config.T, t, config.beta_mode)
        _jump(states, rows, oracle.ratio_all(t, states), beta, h, rng, stats)
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
    terminal = _terminal_probs(config, oracle)

    def run_one(chunk_index: int) -> RunStats:
        lo, hi = bounds[chunk_index]
        rng = _chunk_rng(config.seed, rng_tag, chunk_index)
        states[lo:hi] = _initial_states(config, hi - lo, rng, terminal)
        stats = runner(states[lo:hi], rng)
        grid = vbin_decode(config.spec, states[lo:hi])
        x[lo:hi] = dequantize_sample(config.spec, grid, rng)
        return stats

    workers = min(len(bounds), _available_cpus())
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunk_stats = list(pool.map(run_one, range(len(bounds))))
    else:
        chunk_stats = [run_one(i) for i in range(len(bounds))]
    total = RunStats()
    for st in chunk_stats:
        total = total.merge(st)
    return SampleResult(x=x, states=states, stats=total)


def sample(config: SamplerConfig, oracle: ScoreOracle, n_samples: int) -> SampleResult:
    """Run the uniformization sampler for n_samples replicas.

    Every replica starts from the configured initial law, traverses the
    partition segment by segment, and is decoded to a continuous point by
    inverting the binary encoding and drawing uniformly inside the cell.
    Replicas advance in lockstep chunks of DEFAULT_CHUNK, one RNG stream
    per chunk; chunks run on the available CPUs. The output is
    deterministic given the seed and independent of the thread count.
    """
    if config.method != "uniformization":
        raise ValueError("config.method must be 'uniformization' for sample()")
    if oracle.n_bits != config.n_bits:
        raise ValueError("oracle and quantizer disagree on state size")
    partition = config.partition()
    runner = lambda states, rng: _uniformize_chunk(oracle, partition, states, rng)
    return _run_chunks(config, oracle, n_samples, runner, rng_tag=2)


def euler_sample(
    config: SamplerConfig, oracle: ScoreOracle, n_steps: int, n_samples: int
) -> SampleResult:
    """Fixed-step baseline: n_steps equal steps over [0, T - delta]; at
    each step the state jumps to neighbor i with probability h * rate_i
    (rescaled to total at most 1, rescaling counted in `clipped_steps`).
    Biased for finite n_steps, converging to the uniformization law as
    n_steps grows. Chunking and threads are as in :func:`sample`."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if oracle.n_bits != config.n_bits:
        raise ValueError("oracle and quantizer disagree on state size")
    cfg = replace(config, method="euler") if config.method != "euler" else config
    runner = lambda states, rng: _euler_chunk(oracle, cfg, n_steps, states, rng)
    return _run_chunks(cfg, oracle, n_samples, runner, rng_tag=3)


def exact_reverse_marginal(initial: EmpiricalInitial, T: float, t: float) -> np.ndarray:
    """Dense law of the ideal reverse chain at reverse time t: the forward
    marginal at T - t."""
    if not 0 <= t <= T:
        raise ValueError("need 0 <= t <= T")
    return marginal_at(initial, T - t)


def write_stats_csv(
    path,
    partition: TimePartition,
    stats: RunStats,
    n_samples: int,
    header_lines: list[str] | None = None,
) -> None:
    """Per-segment summary: (segment, beta, dt, events_mean, score_evals)."""
    seg_events = (
        stats.events_per_segment
        if stats.events_per_segment is not None
        else np.zeros(partition.n_segments, dtype=np.int64)
    )
    with open(path, "w", newline="") as fh:
        for line in header_lines or []:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["segment", "beta", "dt", "events_mean", "score_evals"])
        dts = np.diff(partition.times)
        for w in range(partition.n_segments):
            mean = seg_events[w] / n_samples if n_samples else 0.0
            writer.writerow(
                [
                    w,
                    repr(float(partition.betas[w])),
                    repr(float(dts[w])),
                    repr(float(mean)),
                    int(seg_events[w]) * partition.n_bits,
                ]
            )


def write_samples_csv(path, result: SampleResult, header_lines: list[str] | None = None) -> None:
    """Sample table: (replica, state_index, bitstring, x_0..x_{d-1})."""
    n, d = result.x.shape
    idx = state_to_index(result.states) if n else np.empty(0, dtype=np.int64)
    with open(path, "w", newline="") as fh:
        for line in header_lines or []:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["replica", "state_index", "bitstring"] + [f"x_{j}" for j in range(d)])
        for r in range(n):
            bitstring = "".join(map(str, result.states[r]))
            writer.writerow([r, int(idx[r]), bitstring] + [repr(float(v)) for v in result.x[r]])
