"""The exact reference laws and the law test of `hyperbin.verify`, and the
rows of the two checks built on them (c05 and c06) at quick scale."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import binom

from hyperbin import verify
from hyperbin.bits import all_states
from hyperbin.chain import marginal_at
from hyperbin.metrics import tv_exact
from hyperbin.scores import ExactScoreOracle


@pytest.fixture(scope="module")
def target():
    """c05's early-stopped target law."""
    initial, config = verify.d6_instance(0)
    return marginal_at(initial, config.delta)


def multinomial_states(rng, n, law):
    """n states drawn from the dense law, as (n, D) rows."""
    counts = rng.multinomial(n, law)
    return np.repeat(all_states(len(law).bit_length() - 1), counts, axis=0)


class TestUniformizationLaw:
    def test_exact_oracle_gives_the_target(self, target):
        initial, config = verify.d6_instance(0)
        exact = ExactScoreOracle(initial, config.T)
        law = verify.uniformization_law(exact, config.partition(), marginal_at(initial, config.T))
        assert tv_exact(law, target) < 1e-11


class TestGTest:
    def test_false_alarm_rate_within_binomial_bounds(self, target, monkeypatch):
        # 2e4 draws from c05's target pool its 20 smallest cells; G then
        # follows chi-square with 44 df closely enough that the alarm rate
        # at alpha = 0.01 stays inside its binomial bounds
        monkeypatch.setattr(verify, "ALPHA", 0.01)
        rng = np.random.default_rng(18)
        runs, alarms = 2000, 0
        for _ in range(runs):
            G, threshold = verify.g_test(multinomial_states(rng, 20_000, target), target)
            alarms += G > threshold
        assert binom.ppf(1e-6, runs, 0.01) <= alarms <= binom.isf(1e-6, runs, 0.01)

    def test_a_shift_of_tv_0_03_fails_at_2e4(self, target):
        # 0.03 moved between the two likeliest states, whose large expected
        # counts make the shift a small relative change
        shifted = target.copy()
        second, first = np.argsort(target)[-2:]
        shifted[first] -= 0.03
        shifted[second] += 0.03
        assert tv_exact(shifted, target) == pytest.approx(0.03)
        rng = np.random.default_rng(19)
        for _ in range(10):
            G, threshold = verify.g_test(multinomial_states(rng, 20_000, shifted), target)
            assert G > threshold


def support_key(initial):
    return initial.states.tobytes(), initial.weights.tobytes()


def law_key(oracle, partition, start):
    """The values a perturbed oracle's uniformization law depends on."""
    part = partition.times.tobytes(), partition.betas.tobytes(), start.tobytes()
    return oracle.noise_scale, oracle.seed, oracle.T, *support_key(oracle.initial), *part


def calibration_key(initial, T, target_loss, seed, time_grid):
    return *support_key(initial), T, target_loss, seed, time_grid.tobytes()


@pytest.fixture
def memoize(monkeypatch):
    """Replace a function of `verify` by one that computes each value of
    `key(args)` once. A loop over seeds then pays once for a law that no
    seed enters, and an argument that changes with the seed still misses
    the cache."""

    def install(name, key):
        compute, cache = getattr(verify, name), {}

        def cached(*args, **kwargs):
            k = key(*args, **kwargs)
            if k not in cache:
                cache[k] = compute(*args, **kwargs)
            return cache[k]

        monkeypatch.setattr(verify, name, cached)

    return install


class TestLawRows:
    def test_c05_rows_pass_at_quick_seeds(self, memoize):
        memoize("uniformization_law", law_key)
        first = verify.check_c05("quick", 0)  # fills the cache
        # sampling takes most of the time, and numpy releases the GIL in it
        with ThreadPoolExecutor(max_workers=2) as pool:
            rest = pool.map(lambda seed: verify.check_c05("quick", seed), range(1, 10))
            for seed, rows in enumerate([first, *rest]):
                assert len(rows) == 2 and all(row.passed for row in rows), seed

    def test_c06_rows_are_the_same_at_quick_seeds(self, memoize):
        # nothing is sampled, so the seed changes nothing
        memoize("uniformization_law", law_key)
        memoize("calibrate_noise_scale", calibration_key)
        first = verify.check_c06("quick", 0)
        assert len(first) == 2 and all(row.passed for row in first)
        assert "exact KL = 2.12e-04 <= (T-delta)*L_SE = 0.1630" in first[1].detail
        for seed in range(1, 10):
            assert verify.check_c06("quick", seed) == first
