import hashlib
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_initial
from hyperbin import scores
from hyperbin.bits import all_states, index_to_state, splitmix64, state_key
from hyperbin.chain import EmpiricalInitial, marginal_at
from hyperbin.scores import (
    TIME_BUCKETS,
    ExactScoreOracle,
    PerturbedScoreOracle,
    ScoreOracle,
    bregman_phi,
    calibrate_noise_scale,
    score_entropy_loss,
)


def dense_ratios(initial, T, t):
    """Independent oracle: all flip ratios straight from the dense marginal."""
    D = initial.n_bits
    q = marginal_at(initial, T - t)
    idx = np.arange(1 << D)
    return np.stack([q[idx ^ (1 << i)] / q[idx] for i in range(D)], axis=1)


def mpmath_ratios(initial, T, t, states):
    """Independent oracle at 50 significant digits: every flip ratio of the
    kernel mixture sum_p w_p rho^Ham(y, p), with the gap T - t taken exactly."""
    with mpmath.workdps(50):
        s = mpmath.mpf(T) - mpmath.mpf(t)
        pf = -mpmath.expm1(-2 * s) / 2
        rho = pf / (1 - pf)
        weights = [mpmath.mpf(float(w)) for w in initial.weights]

        def q(y):
            ham = (initial.states != y).sum(axis=1)
            return mpmath.fsum(w * rho ** int(h) for w, h in zip(weights, ham))

        out = np.empty(states.shape)
        for b, y in enumerate(states):
            qy = q(y)
            for i in range(len(y)):
                out[b, i] = float(q(y ^ np.eye(len(y), dtype=np.uint8)[i]) / qy)
    return out


def distinct_support(rng, D, P):
    """Random weighted support of exactly P distinct states."""
    idx = rng.choice(1 << D, size=P, replace=False)
    weights = rng.random(P) + 0.1
    return EmpiricalInitial(index_to_state(idx, D), weights / weights.sum())


class ConstantBiasOracle(ScoreOracle):
    """Exact ratios scaled by a fixed factor e^eta; used to probe the loss."""

    def __init__(self, inner, eta):
        self.inner = inner
        self.T = inner.T
        self.n_bits = inner.n_bits
        self.eta = eta

    def ratio_all(self, t, states):
        return self.inner.ratio_all(t, states) * math.exp(self.eta)


class TestExactOracle:
    def test_single_point_tanh(self):
        # one support point at the origin, one bit: flipping away from it
        # has odds (1 - e^-2s)/(1 + e^-2s) = tanh(s) at forward time s
        initial = EmpiricalInitial(states=np.zeros((1, 1), np.uint8), weights=np.array([1.0]))
        oracle = ExactScoreOracle(initial, T=3.0)
        t = np.array([0.0, 1.0, 2.5])
        got = oracle.ratio_all(t, np.zeros((3, 1), np.uint8))[:, 0]
        assert got == pytest.approx(np.tanh(3.0 - t), rel=1e-12)

    def test_uniform_initial_gives_unit_ratios(self, rng):
        D = 5
        initial = EmpiricalInitial(
            states=all_states(D), weights=np.full(1 << D, 2.0**-D)
        )
        oracle = ExactScoreOracle(initial, T=2.0)
        t = rng.uniform(0, 1.99, size=32)
        ratios = oracle.ratio_all(t, rng.integers(0, 2, (32, D)).astype(np.uint8))
        assert np.abs(ratios - 1.0).max() < 1e-12
        # the identity holds just as tightly immediately before the horizon
        edge = oracle.ratio_all(2.0 - 1e-6, rng.integers(0, 2, (8, D)).astype(np.uint8))
        assert np.abs(edge - 1.0).max() < 1e-12

    def test_matches_dense_marginals(self, rng):
        # consistency at 1e-9 for 50 random (t, state) per dimension, every flip
        for D in (2, 5, 8):
            initial = random_initial(rng, D, 6)
            T = 3.0
            oracle = ExactScoreOracle(initial, T)
            for _ in range(50):
                t = float(rng.uniform(0.0, T - 0.05))
                state = rng.integers(0, 2, D).astype(np.uint8)
                expected = dense_ratios(initial, T, t)[np.dot(state, 1 << np.arange(D))]
                got = oracle.ratio_all(t, state[None, :])[0]
                assert got == pytest.approx(expected, rel=1e-9)

    def test_extreme_tail_agreement(self, rng):
        # at T - t = 1e-4 both routes sum nonnegative terms only, so they
        # agree to float64 precision
        D = 6
        initial = random_initial(rng, D, 5)
        oracle = ExactScoreOracle(initial, T=4.0)
        t = 4.0 - 1e-4
        expected = dense_ratios(initial, 4.0, t)
        got = oracle.ratio_all(t, all_states(D))
        assert np.abs(got / expected - 1.0).max() < 1e-12

    @pytest.mark.parametrize(
        "D,P,table",
        [(6, 10, True), (10, 32, True), (10, 300, True), (10, 5, False), (24, 6, False), (40, 6, False)],
    )
    def test_matches_mpmath_reference(self, rng, D, P, table):
        # (D, P) picks the path: the shell table needs P^2 >= 2^D
        initial = distinct_support(rng, D, P)
        oracle = ExactScoreOracle(initial, T=2.0)
        assert oracle.uses_shell_table == table
        states = np.vstack([initial.states[:3], rng.integers(0, 2, (5, D), dtype=np.uint8)])
        for gap in (1e-2, 1e-4, 1e-6, 1e-8):
            t = 2.0 - gap
            expected = mpmath_ratios(initial, 2.0, t, states)
            got = oracle.ratio_all(t, states)
            assert np.abs(got / expected - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("D,P", [(4, 6), (9, 3)])
    def test_duplicate_support_rows_add_their_weights(self, rng, D, P):
        merged = distinct_support(rng, D, P)
        w = merged.weights
        split = EmpiricalInitial(
            states=np.vstack([merged.states, merged.states[:2]]),
            weights=np.concatenate([w[:2] / 4, w[2:], 3 * w[:2] / 4]),
        )
        states = all_states(D)
        t = rng.uniform(0, 1.9, len(states))
        a = ExactScoreOracle(merged, 2.0)
        b = ExactScoreOracle(split, 2.0)
        assert a.uses_shell_table == b.uses_shell_table == (D == 4)
        assert np.abs(b.ratio_all(t, states) / a.ratio_all(t, states) - 1.0).max() < 1e-12

    def test_reciprocity(self, rng):
        D = 7
        initial = random_initial(rng, D, 6)
        oracle = ExactScoreOracle(initial, T=3.0)
        states = rng.integers(0, 2, (40, D)).astype(np.uint8)
        t = rng.uniform(0, 2.9, 40)
        forward = oracle.ratio_all(t, states)
        for i in range(D):
            flipped = states.copy()
            flipped[:, i] ^= 1
            backward = oracle.ratio_all(t, flipped)
            assert np.abs(forward[:, i] * backward[:, i] - 1.0).max() < 1e-12

    def test_positivity(self, rng):
        D = 10
        initial = random_initial(rng, D, 3)
        oracle = ExactScoreOracle(initial, T=5.0)
        t = rng.uniform(0, 4.999, 200)
        ratios = oracle.ratio_all(t, rng.integers(0, 2, (200, D)).astype(np.uint8))
        assert (ratios > 0).all() and np.isfinite(ratios).all()

    def test_large_dimension_no_underflow(self, rng):
        # 2^160 states would overflow any dense route; the mixture form must
        # stay finite even close to the horizon
        D = 160
        initial = EmpiricalInitial.from_dataset(rng.integers(0, 2, (4, D)).astype(np.uint8))
        oracle = ExactScoreOracle(initial, T=6.0)
        ratios = oracle.ratio_all(5.999, rng.integers(0, 2, (5, D)).astype(np.uint8))
        assert np.isfinite(ratios).all() and (ratios > 0).all()

    def test_rejects_bad_queries(self, rng):
        for support, table in ((2, False), (3, True)):
            oracle = ExactScoreOracle(distinct_support(rng, 3, support), T=1.0)
            assert oracle.uses_shell_table == table
            with pytest.raises(ValueError):
                oracle.ratio_all(1.0, np.zeros((1, 3), np.uint8))  # t == T
            with pytest.raises(ValueError):
                oracle.ratio_all(-0.1, np.zeros((1, 3), np.uint8))
            with pytest.raises(ValueError):
                oracle.ratio_all(0.5, np.zeros((1, 4), np.uint8))  # wrong state size
            # non-binary values: a cast would read 2 as another cell or as 1
            with pytest.raises(ValueError):
                oracle.ratio_all(0.5, [[2, 0, 0]])
            with pytest.raises(ValueError):
                oracle.ratio_all(0.5, np.full((1, 3), 3, np.uint8))

    @pytest.mark.parametrize("D, P", [(10, 5), (24, 6)])
    def test_matmul_queries_span_chunks(self, rng, monkeypatch, D, P):
        # each chunk writes its own rows of the result; BLAS blocking may
        # move the last bits with the chunk's row count
        initial = distinct_support(rng, D, P)
        whole = ExactScoreOracle(initial, T=2.0)
        monkeypatch.setattr(scores, "_CHUNK_ELEMENTS", 10 * P)
        chunked = ExactScoreOracle(initial, T=2.0)  # 10 rows per chunk
        assert not chunked.uses_shell_table
        states = rng.integers(0, 2, (37, D), dtype=np.uint8)
        t = rng.uniform(0.0, 2.0, 37)
        got = chunked.ratio_all(t, states)
        assert np.isfinite(got).all() and (got > 0).all()
        assert np.abs(got / whole.ratio_all(t, states) - 1.0).max() <= 1e-13

    def test_table_queries_reuse_a_workspace_per_thread(self, rng):
        # D = 12: 2^18 / 13^2 = 1551 rows per chunk
        oracle = ExactScoreOracle(random_initial(rng, 12, 300), T=1.0)
        assert oracle.uses_shell_table
        states = rng.integers(0, 2, (4000, 12), dtype=np.uint8)
        t = rng.uniform(0.0, 1.0, 4000)
        whole = oracle.ratio_all(t, states)
        parts = [oracle.ratio_all(t[i : i + 500], states[i : i + 500]) for i in range(0, 4000, 500)]
        assert np.array_equal(whole, np.concatenate(parts))
        with ThreadPoolExecutor(max_workers=2) as pool:
            halves = pool.map(oracle.ratio_all, (t[:2000], t[2000:]), (states[:2000], states[2000:]))
        assert np.array_equal(whole, np.concatenate(list(halves)))
        # once this thread's workspace exists, a query allocates less than
        # one (B, D, D + 1) float64 neighbour array
        tracemalloc.start()
        try:
            oracle.ratio_all(t[:1000], states[:1000])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1000 * 12 * 13 * 8

    @pytest.mark.parametrize("D, P", [(3, 3), (6, 10), (12, 300)])
    def test_shared_time_queries_equal_per_row_queries(self, rng, D, P):
        # a scalar t looks each distinct state up once, and must give the
        # per-row answer bit for bit
        initial = distinct_support(rng, D, P)
        oracle = ExactScoreOracle(initial, T=2.0)
        chunked = ExactScoreOracle(initial, T=2.0)
        chunked._chunk_rows = 2  # below the 5 distinct states of `heavy`
        assert oracle.uses_shell_table
        heavy = index_to_state(rng.choice(1 << D, 5, replace=False), D)[rng.integers(0, 5, 3000)]
        mixed = rng.integers(0, 2, (700, D), dtype=np.uint8)
        distinct = all_states(D)[rng.permutation(1 << D)]
        for states in (heavy, mixed, distinct, heavy[:1], heavy[:0]):
            for t in (0.0, 1.3, 2.0 - 1e-9):
                shared = oracle.ratio_all(t, states)
                assert shared.shape == states.shape
                assert np.array_equal(shared, oracle.ratio_all(np.full(len(states), t), states))
                assert np.array_equal(shared, chunked.ratio_all(t, states))

    def test_shared_time_queries_report_overflow(self, monkeypatch):
        support = EmpiricalInitial(
            states=np.array([[0, 0, 0], [1, 1, 0], [0, 1, 1]], np.uint8),
            weights=np.array([0.3, 0.3, 0.4]),
        )
        # at T - t = 1e-310, 1/rho overflows; on either path the oracle's own
        # check must report it, for one shared time as for per-row times,
        # before numpy warns (tier-1 turns a RuntimeWarning into an error)
        table = ExactScoreOracle(support, T=1e-310)
        monkeypatch.setattr(scores, "_CHUNK_ELEMENTS", 1)
        matmul = ExactScoreOracle(support, T=1e-310)
        assert table.uses_shell_table and not matmul.uses_shell_table
        for oracle in (table, matmul, PerturbedScoreOracle(table, 0.5, seed=1)):
            for t in (0.0, np.zeros(8)):
                with pytest.raises(FloatingPointError):
                    oracle.ratio_all(t, all_states(3))


class TestOracleProperties:
    @given(
        D=st.integers(1, 10),
        table=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        log_gap=st.floats(-8.0, math.log10(3.0)),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_ratios_match_dense_marginals(self, D, table, seed, log_gap, data):
        # P is drawn on the chosen side of the path rule P^2 >= 2^D, up to
        # the full support 2^D; the gap T - t spans [1e-8, T]
        smallest = math.isqrt((1 << D) - 1) + 1
        P = data.draw(st.integers(smallest, 1 << D) if table else st.integers(1, smallest - 1))
        initial = distinct_support(np.random.default_rng(seed), D, P)
        T = 3.0
        t = max(0.0, T - 10.0**log_gap)
        oracle = ExactScoreOracle(initial, T)
        assert oracle.uses_shell_table == table
        got = oracle.ratio_all(t, all_states(D))
        assert np.abs(got / dense_ratios(initial, T, t) - 1.0).max() <= 1e-12


class TestBregman:
    def test_unit_check(self):
        assert bregman_phi(2.0, 1.0) == pytest.approx(0.3862943611198906, rel=1e-12)

    def test_zero_on_diagonal(self):
        u = np.array([0.3, 1.0, 7.5])
        assert np.abs(bregman_phi(u, u)).max() == 0.0

    def test_zero_u(self):
        assert bregman_phi(0.0, 0.7) == pytest.approx(0.7)

    def test_rejects_nonpositive_reference(self):
        with pytest.raises(ValueError):
            bregman_phi(1.0, 0.0)


class TestScoreEntropyLoss:
    def test_exact_oracle_has_zero_loss(self, rng):
        initial = random_initial(rng, 4, 5)
        T = 2.5
        oracle = ExactScoreOracle(initial, T)
        grid = np.linspace(1e-3, T, 33)
        assert score_entropy_loss(oracle, initial, T, grid) < 1e-12

    def test_constant_bias_closed_form(self, rng):
        # v -> v e^eta gives integrand D (e^eta - 1 - eta), constant in time
        # because the q_t-weighted flip ratios sum to one per flip; the
        # trapezoid rule is then exact
        initial = random_initial(rng, 3, 4)
        T = 2.0
        exact = ExactScoreOracle(initial, T)
        grid = np.linspace(0.2, T, 19)
        for eta in (0.05, 0.3):
            loss = score_entropy_loss(ConstantBiasOracle(exact, eta), initial, T, grid)
            expected = 3 * (math.exp(eta) - 1 - eta) * (T - 0.2)
            assert loss == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_bias(self, rng):
        initial = random_initial(rng, 4, 5)
        T = 2.0
        exact = ExactScoreOracle(initial, T)
        grid = np.linspace(1e-2, T, 33)
        losses = [
            score_entropy_loss(ConstantBiasOracle(exact, eta), initial, T, grid)
            for eta in (0.01, 0.05, 0.1, 0.2, 0.5)
        ]
        assert all(a < b for a, b in zip(losses, losses[1:]))

    def test_nonnegative_for_random_perturbation(self, rng):
        initial = random_initial(rng, 4, 5)
        T = 2.0
        oracle = PerturbedScoreOracle(ExactScoreOracle(initial, T), 0.3, seed=9)
        grid = np.linspace(1e-2, T, 33)
        assert score_entropy_loss(oracle, initial, T, grid) >= 0.0

    def test_rejects_bad_grid(self, rng):
        initial = random_initial(rng, 3, 3)
        oracle = ExactScoreOracle(initial, 1.0)
        with pytest.raises(ValueError):
            score_entropy_loss(oracle, initial, 1.0, np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            score_entropy_loss(oracle, initial, 1.0, np.array([0.5, 0.4]))

    def test_rejects_mismatched_horizon(self, rng):
        # the oracle would answer reverse time T - s of another horizon
        initial = random_initial(rng, 3, 3)
        oracle = ExactScoreOracle(initial, 2.0)
        with pytest.raises(ValueError, match="horizon"):
            score_entropy_loss(oracle, initial, 1.0, np.linspace(0.1, 1.0, 5))


class TestPerturbedOracle:
    def test_zero_scale_is_identity(self, rng):
        initial = random_initial(rng, 5, 4)
        exact = ExactScoreOracle(initial, 2.0)
        perturbed = PerturbedScoreOracle(exact, 0.0, seed=1)
        states = rng.integers(0, 2, (20, 5)).astype(np.uint8)
        t = rng.uniform(0, 1.99, 20)
        assert np.array_equal(perturbed.ratio_all(t, states), exact.ratio_all(t, states))

    def test_same_seed_bitwise_equal(self, rng):
        initial = random_initial(rng, 5, 4)
        exact = ExactScoreOracle(initial, 2.0)
        states = rng.integers(0, 2, (20, 5)).astype(np.uint8)
        t = rng.uniform(0, 1.99, 20)
        a = PerturbedScoreOracle(exact, 0.2, seed=7).ratio_all(t, states)
        b = PerturbedScoreOracle(exact, 0.2, seed=7).ratio_all(t, states)
        assert np.array_equal(a, b)
        c = PerturbedScoreOracle(exact, 0.2, seed=8).ratio_all(t, states)
        assert not np.array_equal(a, c)

    def test_noise_bounded_and_bucketed(self, rng):
        initial = random_initial(rng, 4, 4)
        oracle = PerturbedScoreOracle(ExactScoreOracle(initial, 2.0), 0.15, seed=3)
        states = all_states(4)
        noise = oracle.log_noise(1.0, states)
        assert np.abs(noise).max() <= 0.15
        # same bucket -> identical noise; different bucket -> fresh noise
        width = 2.0 / TIME_BUCKETS
        same = oracle.log_noise(1.0 + 0.4 * width, states)
        other = oracle.log_noise(1.0 + 1.4 * width, states)
        assert np.array_equal(noise, same)
        assert not np.array_equal(noise, other)

    # SHA-256 of the little-endian float64 noise below; c06's calibration
    # and runs depend on these exact bits.
    NOISE_SHA256 = {
        6: "dc3948e0459c1e62db1cfef943b153f2782bd903bdd66aa606729890ea04242f",
        70: "a8ed5b8fe28593efcf8bbf4a39250fa36d61292e8d8d3b24e650dd9b42d3de69",
    }

    @pytest.mark.parametrize("D", [6, 70])
    def test_noise_bits_are_pinned(self, D):
        # D = 70 makes state_key fold a second 64-bit word
        if D == 6:
            states = all_states(6)
        else:
            rows = np.arange(64)[:, None] * 7 + np.arange(D) * 3
            states = (rows % 5 < 2).astype(np.uint8)
        t = np.resize([0.0, 0.3, 0.77, 1.2, 1.999], len(states))  # five time buckets
        exact = ExactScoreOracle(random_initial(np.random.default_rng(D), D, 10), 2.0)
        oracle = PerturbedScoreOracle(exact, 0.5, seed=0x9E37)
        noise = oracle.log_noise(t, states)
        digest = hashlib.sha256(noise.astype("<f8").tobytes()).hexdigest()
        assert digest == self.NOISE_SHA256[D]
        expected = exact.ratio_all(t, states) * np.exp(noise)
        assert np.array_equal(oracle.ratio_all(t, states), expected)

    @pytest.mark.parametrize("D", [1, 4, 6, 8])
    def test_noise_table_gives_the_hashed_noise(self, D):
        # at, and one ulp either side of, every bucket edge b T / TIME_BUCKETS,
        # for one shared time and for per-row times
        T = 1.7
        initial = distinct_support(np.random.default_rng(D), D, min(5, 1 << D))
        oracle = PerturbedScoreOracle(ExactScoreOracle(initial, T), 0.5, seed=D)
        assert oracle.uses_noise_table
        edges = np.arange(1, TIME_BUCKETS) * (T / TIME_BUCKETS)
        below, above = np.nextafter(edges, 0.0), np.nextafter(edges, T)
        times = np.concatenate(([0.0, np.nextafter(T, 0.0)], edges, below, above))
        states = all_states(D)

        def hashed(t, rows):
            return oracle.inner.ratio_all(t, rows) * np.exp(oracle.log_noise(t, rows))

        for t in times:
            assert np.array_equal(oracle.ratio_all(t, states), hashed(t, states))
        rows = states[np.arange(len(times)) % len(states)]
        assert np.array_equal(oracle.ratio_all(times, rows), hashed(times, rows))

    @pytest.mark.parametrize("D, table", [(8, True), (9, False), (70, False)])
    def test_noise_table_is_chosen_by_D(self, D, table):
        # the table, TIME_BUCKETS D 2^D float64, is at most 1 MB: D <= 8
        exact = ExactScoreOracle(random_initial(np.random.default_rng(D), D, 10), 2.0)
        assert PerturbedScoreOracle(exact, 0.5, seed=1).uses_noise_table == table

    @pytest.mark.parametrize("D", [1, 6, 12, 63, 64, 65, 70, 128, 130])
    def test_state_key_matches_weighted_sum_formula(self, D):
        # reference: each 64-bit word summed as bits * 2^i in uint64
        states = np.random.default_rng(D).integers(0, 2, size=(300, D), dtype=np.uint8)
        states[0], states[1] = 1, 0
        bits = states.astype(np.uint64)
        expected = np.zeros(len(states), dtype=np.uint64)
        for lo in range(0, D, 64):
            word = bits[:, lo : lo + 64]
            weights = np.uint64(1) << np.arange(word.shape[1], dtype=np.uint64)
            packed = (word * weights).sum(axis=1, dtype=np.uint64)
            expected = splitmix64(expected ^ packed ^ np.uint64(lo))
        assert np.array_equal(state_key(states), expected)
        assert np.array_equal(state_key(states[2]), expected[2:3])

    def test_loss_increases_with_scale(self, rng):
        initial = random_initial(rng, 4, 5)
        T = 2.0
        exact = ExactScoreOracle(initial, T)
        grid = np.linspace(1e-2, T, 33)
        losses = [
            score_entropy_loss(PerturbedScoreOracle(exact, s, seed=5), initial, T, grid)
            for s in (0.05, 0.1, 0.2, 0.4)
        ]
        assert all(np.isfinite(losses))
        assert all(a < b for a, b in zip(losses, losses[1:]))

    def test_calibration_hits_target(self, rng):
        initial = random_initial(rng, 5, 6)
        T = 3.0
        grid = np.linspace(1e-3, T, 65)
        oracle = calibrate_noise_scale(initial, T, 0.02, seed=11, time_grid=grid)
        measured = score_entropy_loss(oracle, initial, T, grid)
        assert measured == pytest.approx(0.02, rel=0.02)
