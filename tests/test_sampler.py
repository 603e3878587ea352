import csv
import math
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, chisquare, kstest, norm, poisson

from conftest import random_initial
from hyperbin import sampler
from hyperbin.bits import all_states, state_to_index
from hyperbin.chain import EmpiricalInitial, marginal_at
from hyperbin.cli import write_samples_csv, write_stats_csv
from hyperbin.metrics import EmpiricalLaw, tv_exact, tv_plugin
from hyperbin.quantizer import QuantizerSpec
from hyperbin.sampler import (
    RunStats,
    SamplerConfig,
    TimePartition,
    _jump,
    _uniformize_chunk,
    beta_value,
    build_partition,
    euler_sample,
    euler_steps,
    exact_reverse_marginal,
    sample,
)
from hyperbin.scores import ExactScoreOracle, PerturbedScoreOracle, ScoreOracle
from hyperbin.verify import d6_instance, euler_law, g_test, uniformization_law


class FixedRateOracle(ScoreOracle):
    """Stub returning the same per-flip rates everywhere."""

    def __init__(self, rates, T=10.0):
        self.rates = np.asarray(rates, dtype=np.float64)
        self.T = T
        self.n_bits = len(self.rates)

    def ratio_all(self, t, states):
        states = np.atleast_2d(states)
        return np.tile(self.rates, (states.shape[0], 1))


class RecordingOracle(FixedRateOracle):
    """Zero rates, so no replica ever moves; records which states were
    queried and at what times."""

    def __init__(self, D, T):
        super().__init__([0.0] * D, T)
        self.indices, self.times = [], []

    def ratio_all(self, t, states):
        self.indices.append(state_to_index(states))
        self.times.append(np.broadcast_to(t, len(states)).copy())
        return super().ratio_all(t, states)


def uniform_support_oracle(D, T):
    """Exact oracle whose target is uniform, so every ratio is 1."""
    initial = EmpiricalInitial(states=all_states(D), weights=np.full(1 << D, 2.0**-D))
    return ExactScoreOracle(initial, T)


class TestBuildPartition:
    def test_recurrence_values(self):
        part = build_partition(D=2, T=3.0, delta=0.05)
        assert part.times[0] == 0.0
        assert part.times[1] == pytest.approx(1.0, abs=1e-12)
        assert part.times[2] == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert part.times[3] == pytest.approx(19.0 / 9.0, abs=1e-12)
        assert part.times[-1] == 3.0 - 0.05

    def test_strictly_increasing_below_horizon(self):
        part = build_partition(D=3, T=3.0, delta=0.05)
        assert (np.diff(part.times) > 0).all()
        assert (part.times < 3.0).all()

    def test_betas_at_right_endpoints(self):
        part = build_partition(D=2, T=3.0, delta=0.5)
        expected = 2 * 2 / np.minimum(1.0, 3.0 - part.times[1:])
        assert np.allclose(part.betas, expected, rtol=1e-12)

    def test_event_sum_reference(self):
        # frozen from a direct evaluation of the recurrence (independent
        # script): sum beta dt = 22.8286..., inside the nominal budget
        # 2*2*(3 + ln 20) = 23.9829...
        part = build_partition(D=2, T=3.0, delta=0.05)
        assert part.expected_events() == pytest.approx(22.828633846466513, rel=1e-12)
        assert part.expected_events() <= part.event_budget() == pytest.approx(
            2 * 2 * (3 + math.log(20)), rel=1e-12
        )

    def test_nominal_budget_fails_for_fine_delta(self):
        # the nominal constant on the log term is too small once delta is
        # tiny: right-endpoint caps overshoot the 1/s integral; the
        # corrected factor 1.24 covers the recurrence for every delta
        part = build_partition(D=1, T=3.0, delta=1e-3)
        assert part.expected_events() == pytest.approx(21.03989127172905, rel=1e-12)
        assert part.expected_events() > part.event_budget()
        assert part.expected_events() <= part.event_budget(corrected=True)

    def test_corrected_budget_scan(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            T = float(rng.uniform(0.3, 8.0))
            delta = float(np.exp(rng.uniform(math.log(1e-6), math.log(0.3)))) * min(1.0, T / 2)
            part = build_partition(D=int(rng.integers(1, 20)), T=T, delta=delta)
            assert part.expected_events() <= part.event_budget(corrected=True)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            build_partition(D=2, T=1.0, delta=1.0)
        with pytest.raises(ValueError):
            build_partition(D=2, T=1.0, delta=0.0)

    @pytest.mark.parametrize("delta", [2e-16, 1e-16, 1e-17, 1e-300, 1e-320])
    def test_rejects_a_gap_below_the_spacing_at_T(self, delta):
        # T - delta rounds to T, so the refinement would never reach it
        spec = QuantizerSpec.from_grid(d=1, L=1.0, K=64)
        with pytest.raises(ValueError, match="T - delta < T"):
            build_partition(D=6, T=2.9957, delta=delta)
        with pytest.raises(ValueError, match="T - delta < T"):
            SamplerConfig(spec=spec, T=2.9957, delta=delta, seed=0)

    @pytest.mark.parametrize("T, ulps", [(3.0, 0.75), (3.0, 2.0), (4.0, 0.5), (4.0, 1.0)])
    def test_gaps_of_a_few_ulps_end(self, T, ulps):
        # T + 2t rounds on the coarser grid of 3T, so here the recurrence
        # stops advancing below T - delta; the last segment then ends there
        delta = ulps * math.ulp(T)
        part = build_partition(D=2, T=T, delta=delta)
        assert part.times[-1] == T - delta < T
        assert part.n_segments <= math.ceil(math.log(T / delta) / math.log(1.5)) + 2

    @given(
        T=st.floats(0.0, 10.0, exclude_min=True),
        log_delta=st.floats(math.log(1e-320), math.log(10.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_gap_ends_or_raises(self, T, log_delta):
        # the remaining gap shrinks by 2/3 per segment, so a gap that the
        # partition accepts ends it within ln(T/delta)/ln(3/2) + 2 segments;
        # a gap is rejected when its last cap, 2D / min(1, delta), overflows
        delta = math.exp(log_delta)
        try:
            part = build_partition(D=3, T=T, delta=delta)
        except ValueError:
            gap_ok = 0 < delta < T and T - delta < T
            assert not (gap_ok and 6.0 / min(1.0, T - (T - delta)) < math.inf)
            return
        assert np.isfinite(part.betas).all()
        assert part.n_segments <= math.ceil(math.log(T / delta) / math.log(1.5)) + 2

    def test_tight_mode_dominates_true_rate_but_stays_below_standard(self):
        part_std = build_partition(D=4, T=2.0, delta=0.1)
        part_tight = build_partition(D=4, T=2.0, delta=0.1, beta_mode="tight")
        assert (part_tight.betas <= part_std.betas + 1e-12).all()
        # tight cap still dominates the provable total rate D (1 + 1/(T-t))
        rem = 2.0 - part_tight.times[1:]
        assert np.allclose(part_tight.betas, 4 * (1 + 1 / rem))


def one_segment(t_hi, beta, D, T):
    """Partition [0, t_hi] as a single segment with cap beta."""
    return TimePartition(
        times=np.array([0.0, t_hi]), betas=np.array([beta]), T=T, delta=T - t_hi, n_bits=D
    )


def jump_reference(states, rows, rates, beta, h, rng, stats):
    """The plain body of `sampler._jump`: running sums by np.cumsum and the
    flip chosen by an argmax over every row, moved or not."""
    cum = np.cumsum(rates, axis=1, out=rates)
    total = cum[:, -1]
    over = total > beta
    if over.any():
        cap = np.broadcast_to(beta, total.shape)[over]
        cum[over] *= (cap / total[over])[:, None]
        stats.truncation_activations += int(over.sum())
    u = rng.random(len(rows))
    if h is None:
        u *= beta
    else:
        cum *= h
        clipped = total > 1.0
        if clipped.any():
            cum[clipped] /= total[clipped][:, None]
            stats.clipped_steps += int(clipped.sum())
    moved = u < total
    flips = np.argmax(u[:, None] < cum, axis=1)
    states[rows[moved], flips[moved]] ^= 1
    stats.accepted_moves += int(moved.sum())


def euler_reference(oracle, config, n_steps, states, rng):
    """The per-row body of `sampler._euler_chunk`: every step rates each
    replica's own row and runs :func:`jump_reference` on all of them."""
    n, D = states.shape
    stats = RunStats(
        score_evals=n_steps * n * D, queried_rows=n_steps * n,
        events_per_segment=np.full(n_steps, n, dtype=np.int64),
    )
    rows = np.arange(n)
    h = (config.T - config.delta) / n_steps
    for t, _, beta in euler_steps(config, n_steps).segments():
        jump_reference(states, rows, oracle.ratio_all(t, states), beta, h, rng, stats)
    return stats


def assert_independent_flip_law(states, rates, dt):
    """Under constant per-bit rates each bit flips as its own Poisson
    process, so from all-zero states P(bit i = 1) = (1 - e^(-2 r_i dt)) / 2."""
    n = len(states)
    p = (1.0 - np.exp(-2.0 * np.asarray(rates) * dt)) / 2.0
    sigma = np.sqrt(p * (1 - p) / n)
    assert (np.abs(states.mean(axis=0) - p) < 4 * sigma).all()


class TestTruncatedRates:
    """Rate capping in the shared truncate-and-choose-flip step."""

    def test_no_truncation_branch(self, rng):
        rates, dt = [3.0, 5.0], 0.05
        states = np.zeros((20_000, 2), dtype=np.uint8)
        part = one_segment(dt, 10.0, 2, 10.0)
        stats = _uniformize_chunk(FixedRateOracle(rates), part, states, rng)
        assert stats.truncation_activations == 0 and stats.clipped_steps == 0
        assert_independent_flip_law(states, rates, dt)

    def test_truncation_rescales(self, rng):
        # total 20 > beta = 10: every event truncates to rates [6, 4] and moves
        dt = 0.05
        states = np.zeros((20_000, 2), dtype=np.uint8)
        part = one_segment(dt, 10.0, 2, 10.0)
        stats = _uniformize_chunk(FixedRateOracle([12.0, 8.0]), part, states, rng)
        assert stats.poisson_events > 0
        assert stats.truncation_activations == stats.accepted_moves == stats.poisson_events
        assert stats.clipped_steps == 0
        assert_independent_flip_law(states, [6.0, 4.0], dt)

    def test_caps_apply_per_row(self, rng):
        # total 14 sits above segment 0's cap 12 and below segment 1's cap 16,
        # and one pass mixes rows from both segments: exactly the segment-0
        # events truncate
        part = TimePartition(
            times=np.array([0.0, 0.25, 0.45]), betas=np.array([12.0, 16.0]),
            T=1.0, delta=0.55, n_bits=2,
        )
        states = np.zeros((4000, 2), dtype=np.uint8)
        stats = _uniformize_chunk(FixedRateOracle([8.0, 6.0], T=1.0), part, states, rng)
        assert (stats.events_per_segment > 0).all()
        assert stats.truncation_activations == stats.events_per_segment[0]

    def test_jump_matches_the_reference_body(self):
        gen = np.random.default_rng(31)
        n, B = 3000, 1500
        cases = [
            # (D, rate scale, beta, h): per-row caps, some rows over them
            (6, 4.0, gen.uniform(5.0, 20.0, B), None),
            # Euler: one cap, and steps long enough that some rows clip
            (6, 4.0, 18.0, 0.08),
            (1, 3.0, gen.uniform(1.0, 4.0, B), None),
            (1, 3.0, 2.0, 0.6),
            (6, 0.0, gen.uniform(1.0, 2.0, B), None),
            (6, 0.0, 10.0, 0.1),
        ]
        for D, scale, beta, h in cases:
            states = gen.integers(0, 2, (n, D), dtype=np.uint8)
            rows = np.sort(gen.choice(n, B, replace=False))
            rates = scale * gen.random((B, D))
            seed = int(gen.integers(1 << 32))
            got_states, want_states = states.copy(), states.copy()
            got, want = RunStats(), RunStats()
            u = np.random.default_rng(seed).random(B)
            hit, flips = _jump(rates.copy(), beta, h, u, got)
            got_states[rows[hit], flips] ^= 1
            jump_reference(
                want_states, rows, rates.copy(), beta, h, np.random.default_rng(seed), want
            )
            assert np.array_equal(got_states, want_states)
            assert got == want
            # each case reaches the branches it is named for
            assert (want.accepted_moves > 0) == (scale > 0)
            assert (want.truncation_activations > 0) == (scale > 0)
            assert (want.clipped_steps > 0) == (scale > 0 and h is not None)

    def test_exact_oracle_never_truncates(self, rng):
        # dense check: the exact total rate stays below the tight bound,
        # which stays below the standard cap
        for _ in range(10):
            D = int(rng.integers(2, 9))
            T = float(rng.uniform(1.0, 5.0))
            t = float(rng.uniform(0.0, T - 0.05))
            initial = random_initial(rng, D, int(rng.integers(1, 7)))
            oracle = ExactScoreOracle(initial, T)
            totals = oracle.ratio_all(t, all_states(D)).sum(axis=1)
            tight = D * (1 + 1 / (T - t))
            assert totals.max() <= tight + 1e-9
            assert tight <= beta_value(D, T, t, "standard") + 1e-12


class TestUniformizeSegment:
    def test_no_events_returns_input(self, rng):
        oracle = uniform_support_oracle(3, T=5.0)
        y = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
        states = y.copy()
        stats = _uniformize_chunk(oracle, one_segment(1e-12, 1.0, 3, 5.0), states, rng)
        assert np.array_equal(states, y) and stats.poisson_events == 0

    def test_stats_accounting(self, rng):
        D = 4
        oracle = uniform_support_oracle(D, T=5.0)
        states = np.zeros((50, D), dtype=np.uint8)
        stats = _uniformize_chunk(oracle, one_segment(2.0, 10.0, D, 5.0), states, rng)
        assert stats.poisson_events > 0
        assert stats.score_evals == D * stats.poisson_events
        assert stats.accepted_moves <= stats.poisson_events
        assert stats.events_per_segment.tolist() == [stats.poisson_events]
        assert stats.truncation_activations == 0

    def test_uniform_oracle_flip_frequency(self, rng):
        # unit ratios: each event flips with probability D / beta
        D, beta = 4, 16.0
        oracle = uniform_support_oracle(D, T=200.0)
        states = np.zeros((2000, D), dtype=np.uint8)
        stats = _uniformize_chunk(oracle, one_segment(3.2, beta, D, 200.0), states, rng)
        freq = stats.accepted_moves / stats.poisson_events
        p = D / beta
        sigma = math.sqrt(p * (1 - p) / stats.poisson_events)
        assert abs(freq - p) < 4 * sigma
        assert stats.poisson_events >= 50_000

    def test_queries_stay_below_a_tiny_stop_gap(self, rng):
        # delta is 4 ulps of T, so the last segments are a few ulps wide and
        # their caps near 1e16; rounding must not carry a query past T - delta
        D, T = 2, 1.0
        delta = 4 * math.ulp(T)
        part = build_partition(D, T, delta)
        oracle = RecordingOracle(D, T)
        stats = _uniformize_chunk(oracle, part, np.zeros((400, D), dtype=np.uint8), rng)
        t = np.concatenate(oracle.times)
        assert len(t) == stats.poisson_events > 0
        assert stats.events_per_segment[-1] > 0
        assert ((t >= 0.0) & (t <= T - delta)).all()

    def test_segment_law_matches_ode(self, rng):
        # independent reference: the truncated reverse dynamics integrated
        # by verify.uniformization_law, against the empirical law of 1e5
        # lockstep replicas
        D = 4
        T, seg_end = 3.0, 0.61
        initial = random_initial(rng, D, 5)
        oracle = ExactScoreOracle(initial, T)
        beta = beta_value(D, T, seg_end)
        y_in = rng.integers(0, 2, D).astype(np.uint8)

        n = 100_000
        part = one_segment(seg_end, beta, D, T)
        states = np.tile(y_in, (n, 1))
        stats = _uniformize_chunk(oracle, part, states, rng)
        counts = np.bincount(state_to_index(states), minlength=1 << D)

        q0 = np.zeros(1 << D)
        q0[state_to_index(y_in)] = 1.0
        assert tv_exact(counts / n, uniformization_law(oracle, part, q0)) < 0.02
        assert stats.truncation_activations == 0


class TestEventLaw:
    """Per replica, the candidate events of a segment are Poisson(beta dt)
    in number and uniform over the segment in time."""

    ALPHA = 1e-6

    def test_counts_poisson_and_times_uniform_per_replica(self, rng):
        # two segments with beta * dt = 3.2 each but different caps; 4096
        # distinct states, so the queried state names the replica
        D, lam = 12, 3.2
        times, betas = np.array([0.0, 0.25, 0.45]), np.array([12.8, 16.0])
        part = TimePartition(times=times, betas=betas, T=1.0, delta=0.55, n_bits=D)
        oracle = RecordingOracle(D, T=1.0)
        states = all_states(D)
        stats = _uniformize_chunk(oracle, part, states, rng)
        assert np.array_equal(states, all_states(D)) and stats.accepted_moves == 0
        index, t = np.concatenate(oracle.indices), np.concatenate(oracle.times)
        assert ((t >= 0.0) & (t < 0.45)).all()
        n = len(states)
        for w, (t_lo, t_hi, _) in enumerate(part.segments()):
            inside = (t >= t_lo) & (t < t_hi)
            assert stats.events_per_segment[w] == inside.sum()
            counts = np.bincount(index[inside], minlength=n)
            mean = counts.mean()
            assert abs(mean - lam) < norm.isf(self.ALPHA / 2) * math.sqrt(lam / n)
            dispersion = ((counts - mean) ** 2).sum() / mean  # chi2(n - 1) under Poisson
            assert 2 * min(chi2.cdf(dispersion, n - 1), chi2.sf(dispersion, n - 1)) > self.ALPHA
            observed = np.bincount(np.minimum(counts, 8), minlength=9)
            expected = n * np.append(poisson.pmf(np.arange(8), lam), poisson.sf(7, lam))
            assert chisquare(observed, expected).pvalue > self.ALPHA
            assert kstest((t[inside] - t_lo) / (t_hi - t_lo), "uniform").pvalue > self.ALPHA


class TestSample:
    def setup_method(self):
        self.spec = QuantizerSpec.from_grid(d=1, L=1.0, K=16)  # D = 4

    def _instance(self, seed=3, init="uniform"):
        rng = np.random.default_rng(99)
        initial = random_initial(rng, 4, 6)
        config = SamplerConfig(spec=self.spec, T=2.5, delta=0.05, seed=seed, init=init)
        return config, ExactScoreOracle(initial, config.T), initial

    def test_empty_run(self):
        config, oracle, _ = self._instance()
        result = sample(config, oracle, 0)
        assert result.x.shape == (0, 1) and result.states.shape == (0, 4)
        assert result.stats.poisson_events == 0 and result.stats.score_evals == 0

    def test_deterministic_given_seed(self):
        config, oracle, _ = self._instance()
        a = sample(config, oracle, 3000)
        b = sample(config, oracle, 3000)
        assert np.array_equal(a.states, b.states) and np.array_equal(a.x, b.x)
        c = sample(config, oracle, 100)
        d = sample(config, oracle, 100)
        assert np.array_equal(c.states, d.states) and np.array_equal(c.x, d.x)

    def test_thread_count_does_not_change_output(self):
        config, oracle, _ = self._instance()
        runs = []
        for cpus in (1, 2):
            with mock.patch.object(sampler, "DEFAULT_CHUNK", 1024), mock.patch.object(
                sampler, "_available_cpus", lambda: cpus
            ):
                runs.append(sample(config, oracle, 5000))
        a, b = runs
        assert np.array_equal(a.states, b.states) and np.array_equal(a.x, b.x)
        assert a.stats.poisson_events == b.stats.poisson_events
        assert np.array_equal(a.stats.events_per_segment, b.stats.events_per_segment)

    def test_perturbed_thread_count_does_not_change_output(self):
        # the noise table is shared by the threads, and truncation fires
        config, oracle, _ = self._instance()
        tight = replace(config, beta_mode="tight")
        perturbed = PerturbedScoreOracle(oracle, 1.0, seed=5)
        assert perturbed.uses_noise_table
        runs = []
        for cpus in (1, 2):
            with mock.patch.object(sampler, "DEFAULT_CHUNK", 1024), mock.patch.object(
                sampler, "_available_cpus", lambda: cpus
            ):
                runs.append(sample(tight, perturbed, 5000))
        a, b = runs
        assert np.array_equal(a.states, b.states) and np.array_equal(a.x, b.x)
        assert a.stats.truncation_activations == b.stats.truncation_activations > 0
        assert np.array_equal(a.stats.events_per_segment, b.stats.events_per_segment)

    def test_mean_events_within_poisson_concentration(self):
        config, oracle, _ = self._instance()
        n = 20_000
        result = sample(config, oracle, n)
        lam = config.partition().expected_events()
        mean = result.stats.poisson_events / n
        assert mean <= lam + 3 * math.sqrt(lam / n)
        assert mean >= lam - 3 * math.sqrt(lam / n)
        assert result.stats.events_per_segment.sum() == result.stats.poisson_events

    def test_exact_terminal_law_matches_reverse_marginal(self):
        config, oracle, initial = self._instance(init="exact-terminal")
        n = 40_000
        result = sample(config, oracle, n)
        target = exact_reverse_marginal(initial, config.T, config.T - config.delta)
        tv = tv_plugin(EmpiricalLaw.from_indices(state_to_index(result.states)), target)
        assert tv < 0.02
        assert result.stats.truncation_activations == 0

    def test_continuous_output_lands_in_decoded_cells(self):
        config, oracle, _ = self._instance()
        result = sample(config, oracle, 500)
        assert (result.x >= -1.0).all() and (result.x <= 1.0).all()

    def test_exact_terminal_requires_initial(self):
        config, _, _ = self._instance(init="exact-terminal")
        with pytest.raises(ValueError):
            sample(config, FixedRateOracle([1.0] * 4, T=config.T), 10)

    def test_oracle_dimension_checked(self):
        config, _, _ = self._instance()
        with pytest.raises(ValueError):
            sample(config, FixedRateOracle([1.0] * 3, T=config.T), 10)

    def test_oracle_horizon_checked(self):
        # an oracle built for another T answers for the wrong marginals
        config, _, initial = self._instance()
        oracle = ExactScoreOracle(initial, config.T + 2.0)
        with pytest.raises(ValueError, match="horizon"):
            sample(config, oracle, 10)
        with pytest.raises(ValueError, match="horizon"):
            euler_sample(config, oracle, 4, 10)

    def test_exact_terminal_start_has_the_forward_law_at_T(self, rng):
        # T = 0.5 keeps the forward law at T far from uniform
        initial = random_initial(rng, 4, 3)
        config = SamplerConfig(spec=self.spec, T=0.5, delta=0.05, seed=0, init="exact-terminal")
        oracle = ExactScoreOracle(initial, config.T)
        n = 40_000
        start = sampler._initial_states(config, oracle, n, rng)
        counts = np.bincount(state_to_index(start), minlength=16)
        assert tv_exact(counts / n, marginal_at(initial, config.T)) < 0.02

    def test_exact_terminal_runs_above_dense_sizes(self):
        # D = 21 is beyond any dense 2^D law; bits flip independently, so
        # each axis's 7 bits follow the exact chain from that axis's
        # projection of the support
        spec = QuantizerSpec.from_grid(d=3, L=1.0, K=128)
        initial = random_initial(np.random.default_rng(21), spec.n_bits, 8)
        config = SamplerConfig.default_schedule(spec, 0.1, seed=21, init="exact-terminal")
        n = 4000
        result = sample(config, ExactScoreOracle(initial, config.T), n)
        m = spec.m
        # multinomial bound: E TV <= sqrt(K/n)/2, plus a McDiarmid
        # deviation at probability 1e-6
        bound = 0.5 * math.sqrt(spec.K / n) + math.sqrt(math.log(1e6) / (2 * n))
        for a in range(spec.d):
            axis = EmpiricalInitial(initial.states[:, a * m : (a + 1) * m], initial.weights)
            target = exact_reverse_marginal(axis, config.T, config.T - config.delta)
            index = state_to_index(result.states[:, a * m : (a + 1) * m])
            assert tv_exact(np.bincount(index, minlength=spec.K) / n, target) < bound


class HiddenBounds(ScoreOracle):
    """Delegates `ratio_all` and the contract's attributes only, so
    `sample` sees no `total_bounds` and queries every event."""

    def __init__(self, inner):
        self.inner, self.T, self.n_bits = inner, inner.T, inner.n_bits
        self.initial = inner.initial

    def ratio_all(self, t, states):
        return self.inner.ratio_all(t, states)


class ForwardingProxy(ScoreOracle):
    """Forwards every attribute it lacks to the wrapped oracle, as the
    benchmark's tracing proxy does."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def ratio_all(self, t, states):
        return self._inner.ratio_all(t, states)


def assert_thinning_is_exact(config, oracle, n):
    """Run `sample` with the oracle's bounds and without them: the outputs
    and every counter but `queried_rows` agree. Returns the thinned stats."""
    offered = oracle.total_bounds(config.partition().times) is not None
    thinned = sample(config, oracle, n)
    full = sample(config, HiddenBounds(oracle), n)
    assert np.array_equal(thinned.states, full.states)
    assert np.array_equal(thinned.x, full.x)
    for field in fields(RunStats):
        if field.name != "queried_rows":
            assert np.array_equal(getattr(thinned.stats, field.name), getattr(full.stats, field.name))
    assert full.stats.queried_rows == full.stats.poisson_events
    st = thinned.stats
    assert st.queried_rows <= st.poisson_events
    # with enough events some of them skip, unless no bound is offered
    if st.poisson_events >= 50:
        assert (st.queried_rows < st.poisson_events) == offered
    return st


class TestKernelProperties:
    @given(
        D=st.integers(1, 8),
        support=st.integers(1, 20),
        n=st.integers(1, 600),
        chunk=st.integers(16, 256),
        seed=st.integers(0, 2**32 - 1),
        tight=st.booleans(),
        perturbed=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_work_counters(self, D, support, n, chunk, seed, tight, perturbed):
        # n spans small runs and several chunks of a shrunken DEFAULT_CHUNK;
        # supports of 16 or more points put every D on the bounded table
        # path, for the exact oracle and for the perturbed one over it
        rng = np.random.default_rng(seed)
        initial = random_initial(rng, D, support)
        spec = QuantizerSpec.from_grid(d=1, L=1.0, K=1 << D)
        config = SamplerConfig(
            spec=spec, T=2.0, delta=0.05, seed=seed,
            beta_mode="tight" if tight else "standard",
        )
        oracle = ExactScoreOracle(initial, config.T)
        if perturbed:
            oracle = PerturbedScoreOracle(oracle, 0.5, seed=seed)
        with mock.patch.object(sampler, "DEFAULT_CHUNK", chunk):
            stats = assert_thinning_is_exact(config, oracle, n)
        assert stats.score_evals == D * stats.poisson_events
        assert stats.accepted_moves <= stats.poisson_events
        assert stats.events_per_segment.sum() == stats.poisson_events
        if not perturbed:  # the exact total rate stays below either cap
            assert stats.truncation_activations == 0
        assert stats.clipped_steps == 0

    def test_thinning_is_exact_at_D12(self):
        # d = 2 axes of 6 bits; 80 support points put D = 12 on the table path
        spec = QuantizerSpec.from_grid(d=2, L=1.0, K=64)
        initial = random_initial(np.random.default_rng(12), spec.n_bits, 80)
        oracle = ExactScoreOracle(initial, 2.0)
        assert oracle.uses_shell_table
        config = SamplerConfig(spec=spec, T=2.0, delta=0.01, seed=12, beta_mode="tight")
        with mock.patch.object(sampler, "DEFAULT_CHUNK", 128):
            assert_thinning_is_exact(config, oracle, 300)

    def test_thinning_stays_on(self):
        # the shared D = 6 instance: about 28% of events are queried; a
        # bound that no longer reached the sampler would query them all
        # and give the same output
        initial, config = d6_instance(seed=5)
        oracle = ExactScoreOracle(initial, config.T)
        assert oracle.uses_shell_table
        for wrapped in (oracle, ForwardingProxy(oracle)):
            stats = sample(config, wrapped, 2000).stats
            assert 0 < stats.queried_rows <= 0.35 * stats.poisson_events
        assert not hasattr(ScoreOracle, "total_bounds")

    def test_thinning_stays_on_for_the_perturbed_oracle(self):
        # c05's perturbed tight-cap instance: about 55% of events are
        # queried, also with the inner oracle behind a proxy, as the
        # benchmark's tracing wraps it
        initial, config = d6_instance(seed=5)
        exact = ExactScoreOracle(initial, config.T)
        oracle = PerturbedScoreOracle(exact, 0.5, seed=77)
        tight = replace(config, beta_mode="tight")
        over_proxy = PerturbedScoreOracle(ForwardingProxy(exact), 0.5, seed=77)
        for wrapped in (oracle, ForwardingProxy(oracle), over_proxy):
            stats = sample(tight, wrapped, 2000).stats
            assert stats.truncation_activations > 0
            assert 0 < stats.queried_rows <= 0.6 * stats.poisson_events


class TestExactReverseMarginal:
    def test_endpoints(self, rng):
        initial = random_initial(rng, 4, 5)
        T = 6.0
        assert np.allclose(exact_reverse_marginal(initial, T, T), initial.to_dense())
        near_uniform = exact_reverse_marginal(initial, T, 0.0)
        assert 0.5 * np.abs(near_uniform - 2.0**-4).sum() < 1e-4

    def test_matches_stiff_ode(self, rng):
        # integrate the reverse dynamics from the terminal marginal; the
        # caps dominate the exact rates, so they never bind
        D, T, delta = 5, 2.0, 0.05
        initial = random_initial(rng, D, 6)
        oracle = ExactScoreOracle(initial, T)
        law = uniformization_law(oracle, build_partition(D, T, delta), marginal_at(initial, T))
        expected = exact_reverse_marginal(initial, T, T - delta)
        assert np.abs(law - expected).max() < 1e-6

    def test_domain_checks(self, rng):
        initial = random_initial(rng, 3, 3)
        with pytest.raises(ValueError):
            exact_reverse_marginal(initial, 1.0, 1.5)


class TestEulerSample:
    def setup_method(self):
        self.spec = QuantizerSpec.from_grid(d=1, L=1.0, K=16)
        rng = np.random.default_rng(4)
        self.initial = random_initial(rng, 4, 6)
        self.config = SamplerConfig(spec=self.spec, T=2.5, delta=0.05, seed=11)
        self.oracle = ExactScoreOracle(self.initial, self.config.T)

    def test_zero_rates_single_step_is_identity(self):
        result = euler_sample(self.config, FixedRateOracle([0.0] * 4, T=2.5), 1, 200)
        # uniform initial states pass through unchanged; law stays uniform
        assert result.stats.accepted_moves == 0
        assert result.stats.score_evals == 200 * 4

    def test_bias_decreases_with_steps(self):
        # deterministic check on the exact propagated law, no sampling noise
        target = exact_reverse_marginal(self.initial, self.config.T, self.config.T - self.config.delta)
        tvs = [
            tv_exact(euler_law(self.oracle, self.config, n), target)
            for n in (4, 16, 64, 256)
        ]
        assert all(a > b for a, b in zip(tvs, tvs[1:]))

    def test_sampled_law_matches_exact_propagation(self):
        n_steps = 32
        result = euler_sample(self.config, self.oracle, n_steps, 40_000)
        G, threshold = g_test(result.states, euler_law(self.oracle, self.config, n_steps))
        assert G < threshold

    def test_small_h_matches_uniformization(self):
        # both exact laws; the sampled Euler law is checked against its
        # exact law above
        uniform = np.full(16, 1 / 16)
        law_u = uniformization_law(self.oracle, self.config.partition(), uniform)
        assert tv_exact(euler_law(self.oracle, self.config, 512), law_u) < 0.03

    def test_overlong_steps_clip_and_report(self):
        oracle = FixedRateOracle([50.0] * 4, T=2.5)
        result = euler_sample(self.config, oracle, 1, 100)
        assert result.stats.clipped_steps > 0

    @pytest.mark.parametrize(
        "D, n, oracle_kind, n_steps, chunk",
        [
            # replicas below and above 4 * 2^D, on both exact-oracle paths
            (1, 1, "table", 16, None),
            (1, 50, "table", 16, None),
            (4, 10, "table", 16, None),
            (4, 63, "table", 16, None),
            (4, 64, "table", 16, None),
            (4, 100, "table", 16, None),
            (6, 40, "table", 16, None),
            (6, 300, "table", 16, None),
            (6, 100, "matmul", 16, None),
            (6, 300, "matmul", 16, None),
            # the tight cap under a noisy oracle: truncation fires
            (4, 10, "perturbed", 64, None),
            (4, 200, "perturbed", 64, None),
            (6, 300, "perturbed", 64, None),
            # overlong steps: clipping fires
            (1, 50, "fixed", 2, None),
            (4, 10, "fixed", 2, None),
            (4, 100, "fixed", 2, None),
            # an empty run
            (6, 0, "table", 16, None),
            # chunks of 256, 256 and 88 replicas: both sides of 4 * 2^D = 256
            (6, 600, "table", 16, 256),
            (6, 600, "perturbed", 64, 256),
        ],
    )
    def test_matches_the_per_row_reference(self, D, n, oracle_kind, n_steps, chunk):
        T = 2.5
        config = SamplerConfig(
            spec=QuantizerSpec.from_grid(d=1, L=1.0, K=1 << D), T=T, delta=0.05, seed=7,
            beta_mode="tight" if oracle_kind == "perturbed" else "standard",
        )
        gen = np.random.default_rng(D)
        if oracle_kind == "fixed":
            oracle = FixedRateOracle([50.0] * D, T=T)
        else:
            support = 3 if oracle_kind == "matmul" else 12
            oracle = ExactScoreOracle(random_initial(gen, D, support), T)
            assert oracle.uses_shell_table == (oracle_kind != "matmul")
            if oracle_kind == "perturbed":
                oracle = PerturbedScoreOracle(oracle, 1.0, seed=3)
        with mock.patch.object(sampler, "DEFAULT_CHUNK", chunk or sampler.DEFAULT_CHUNK):
            got = euler_sample(config, oracle, n_steps, n)
            with mock.patch.object(sampler, "_euler_chunk", euler_reference):
                want = euler_sample(config, oracle, n_steps, n)
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.x, want.x)
        for field in fields(RunStats):
            if field.name != "queried_rows":
                assert np.array_equal(getattr(got.stats, field.name), getattr(want.stats, field.name))
        assert want.stats.score_evals == n * n_steps * D
        # a chunk on the state path rates the 2^D states once per step
        chunk = chunk or sampler.DEFAULT_CHUNK
        sizes = [min(chunk, n - lo) for lo in range(0, n, chunk)]
        rows = sum(1 << D if b >= sampler.EULER_STATE_PATH_REPLICAS << D else b for b in sizes)
        assert got.stats.queried_rows == n_steps * rows
        # each case reaches the branches it is named for
        if n and oracle_kind in ("perturbed", "fixed"):
            assert want.stats.truncation_activations > 0
        if n and oracle_kind == "fixed":
            assert want.stats.clipped_steps > 0

    @pytest.mark.parametrize("n, table_chunks", [(63, 0), (64, 1), (200, 3)])
    def test_state_table_needs_four_replicas_per_state(self, n, table_chunks):
        # D = 4: a chunk of at least 4 * 16 replicas builds the 16-state
        # grid once and rates it at every step; in chunks of 64, n = 200
        # runs three such chunks and one of 8 replicas on the per-row path
        with mock.patch.object(sampler, "DEFAULT_CHUNK", 64), mock.patch.object(
            sampler, "all_states", wraps=sampler.all_states
        ) as spy:
            euler_sample(self.config, self.oracle, 8, n)
        assert spy.call_count == table_chunks

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            euler_sample(self.config, self.oracle, 0, 10)

    def test_counters_fold_across_chunks(self):
        # every chunk counts its own replicas once per step
        n, n_steps = 250, 8
        with mock.patch.object(sampler, "DEFAULT_CHUNK", 64):  # 4 chunks
            stats = euler_sample(self.config, self.oracle, n_steps, n).stats
            clipped = euler_sample(self.config, FixedRateOracle([50.0] * 4, T=2.5), 1, n).stats
        assert stats.score_evals == n * n_steps * 4
        assert stats.poisson_events == 0
        assert stats.events_per_segment.tolist() == [n] * n_steps
        # rates 200 > beta = 8 and h * beta > 1: every row truncates and clips
        assert clipped.truncation_activations == n and clipped.clipped_steps == n


class TestSamplerConfig:
    def test_default_schedule_reference(self):
        spec = QuantizerSpec.from_grid(d=1, L=4.0, K=64)
        config = SamplerConfig.default_schedule(spec, 0.1, seed=0)
        assert config.T == pytest.approx(4.094344562222101, rel=1e-12)
        assert config.delta == pytest.approx(1.0 / 60.0, rel=1e-12)

    def test_validation(self):
        spec = QuantizerSpec.from_grid(d=1, L=1.0, K=4)
        with pytest.raises(ValueError):
            SamplerConfig(spec=spec, T=1.0, delta=2.0, seed=0)
        with pytest.raises(ValueError):
            SamplerConfig(spec=spec, T=1.0, delta=0.1, seed=0, init="bogus")
        with pytest.raises(ValueError):
            SamplerConfig(spec=spec, T=1.0, delta=0.1, seed=0, beta_mode="x")


class TestCSVOutput:
    def test_stats_csv_reconstructs_event_budget(self, tmp_path):
        spec = QuantizerSpec.from_grid(d=1, L=1.0, K=16)
        rng = np.random.default_rng(8)
        initial = random_initial(rng, 4, 4)
        config = SamplerConfig(spec=spec, T=2.0, delta=0.1, seed=5)
        oracle = ExactScoreOracle(initial, config.T)
        result = sample(config, oracle, 1000)
        part = config.partition()
        path = tmp_path / "stats.csv"
        write_stats_csv(path, part, result.stats, 1000, "z")
        rows = [
            line.split(",")
            for line in path.read_text().splitlines()
            if line and not line.startswith(("#", "segment"))
        ]
        total = sum(float(r[1]) * float(r[2]) for r in rows)
        assert total == pytest.approx(part.expected_events(), rel=1e-9)
        assert sum(int(r[4]) for r in rows) == result.stats.score_evals

    def test_samples_csv_shape(self, tmp_path):
        spec = QuantizerSpec.from_grid(d=2, L=1.0, K=4)
        rng = np.random.default_rng(8)
        initial = random_initial(rng, 4, 4)
        config = SamplerConfig(spec=spec, T=2.0, delta=0.1, seed=5)
        result = sample(config, ExactScoreOracle(initial, config.T), 50)
        path = tmp_path / "samples.csv"
        write_samples_csv(path, result, "z")
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "replica,state_index,bitstring,x_0,x_1"
        assert len(lines) == 51

    @pytest.mark.parametrize("D", [63, 64, 80, 128])
    def test_samples_csv_index_is_exact_at_any_D(self, tmp_path, D):
        rng = np.random.default_rng(D)
        states = rng.integers(0, 2, size=(20, D), dtype=np.uint8)
        states[0] = 1  # the largest index, 2^D - 1
        x = rng.standard_normal((20, 1))
        result = sampler.SampleResult(x=x, states=states, stats=sampler.RunStats())
        path = tmp_path / "samples.csv"
        write_samples_csv(path, result, "z")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[2:]  # past the config_hash line and the header
        assert [r[2] for r in rows] == ["".join(map(str, s)) for s in states]
        assert all(int(r[1]) == int(r[2][::-1], 2) for r in rows)
        assert int(rows[0][1]) == 2**D - 1
