import math

import numpy as np
import pytest

from conftest import random_initial
from hyperbin.bits import all_states
from hyperbin.chain import EmpiricalInitial, marginal_at
from hyperbin.scores import (
    ExactScoreOracle,
    PerturbedScoreOracle,
    ScoreOracle,
    bregman_phi,
    calibrate_noise_scale,
    perturb,
    score_entropy_loss,
)


def dense_ratios(initial, T, t):
    """Independent oracle: all flip ratios straight from the dense marginal."""
    D = initial.n_bits
    q = marginal_at(initial, T - t)
    idx = np.arange(1 << D)
    return np.stack([q[idx ^ (1 << i)] / q[idx] for i in range(D)], axis=1)


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
        for t in (0.0, 1.0, 2.5):
            s = 3.0 - t
            got = oracle.ratio(t, np.zeros(1, np.uint8), 0)
            assert got == pytest.approx(math.tanh(s), rel=1e-12)

    def test_uniform_initial_gives_unit_ratios(self, rng):
        D = 5
        initial = EmpiricalInitial(
            states=all_states(D), weights=np.full(1 << D, 2.0**-D)
        )
        oracle = ExactScoreOracle(initial, T=2.0)
        t = rng.uniform(0, 1.99, size=32)
        ratios = oracle.ratio_all(t, rng.integers(0, 2, (32, D)).astype(np.uint8))
        assert np.abs(ratios - 1.0).max() < 1e-12
        # immediately before the horizon the 1/odds factor amplifies float
        # error, but the identity still holds to 1e-9
        edge = oracle.ratio_all(2.0 - 1e-6, rng.integers(0, 2, (8, D)).astype(np.uint8))
        assert np.abs(edge - 1.0).max() < 1e-9

    def test_matches_dense_marginals(self, rng):
        # consistency at 1e-9 for 50 random (t, state, flip) per dimension
        for D in (2, 5, 8):
            initial = random_initial(rng, D, 6)
            T = 3.0
            oracle = ExactScoreOracle(initial, T)
            for _ in range(50):
                t = float(rng.uniform(0.0, T - 0.05))
                state = rng.integers(0, 2, D).astype(np.uint8)
                flip = int(rng.integers(0, D))
                expected = dense_ratios(initial, T, t)[
                    int(state_index := np.dot(state, 1 << np.arange(D))), flip
                ]
                got = oracle.ratio(t, state, flip)
                assert got == pytest.approx(expected, rel=1e-9)

    def test_extreme_tail_agreement(self, rng):
        # at T - t = 1e-4 both routes carry ~1e-9 relative float noise
        D = 6
        initial = random_initial(rng, D, 5)
        oracle = ExactScoreOracle(initial, T=4.0)
        t = 4.0 - 1e-4
        expected = dense_ratios(initial, 4.0, t)
        got = oracle.ratio_all(t, all_states(D))
        assert np.abs(got / expected - 1.0).max() < 1e-7

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
        initial = random_initial(rng, 3, 2)
        oracle = ExactScoreOracle(initial, T=1.0)
        with pytest.raises(ValueError):
            oracle.ratio(1.0, np.zeros(3, np.uint8), 0)  # t == T
        with pytest.raises(ValueError):
            oracle.ratio(0.5, np.zeros(3, np.uint8), 3)  # flip out of range
        with pytest.raises(ValueError):
            oracle.ratio(-0.1, np.zeros(3, np.uint8), 0)


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


class TestPerturbedOracle:
    def test_zero_scale_is_identity(self, rng):
        initial = random_initial(rng, 5, 4)
        exact = ExactScoreOracle(initial, 2.0)
        perturbed = perturb(exact, 0.0, seed=1)
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
        width = 2.0 / oracle.n_buckets
        same = oracle.log_noise(1.0 + 0.4 * width, states)
        other = oracle.log_noise(1.0 + 1.4 * width, states)
        assert np.array_equal(noise, same)
        assert not np.array_equal(noise, other)

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
