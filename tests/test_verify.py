"""The exact reference laws and the law test of `hyperbin.verify`, c05's
rows at quick seeds, and the rows of the checks that sample nothing."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import binom

from hyperbin import verify
from hyperbin.bits import all_states
from hyperbin.chain import EmpiricalInitial, marginal_at
from hyperbin.metrics import tv_exact
from hyperbin.sampler import build_partition
from hyperbin.scores import ExactScoreOracle, ScoreOracle


@pytest.fixture(scope="module")
def target():
    """c05's early-stopped target law."""
    initial, config = verify.d6_instance(0)
    return marginal_at(initial, config.delta)


def multinomial_states(rng, n, law):
    """n states drawn from the dense law, as (n, D) rows."""
    counts = rng.multinomial(n, law)
    return np.repeat(all_states(len(law).bit_length() - 1), counts, axis=0)


class UnitRates(ScoreOracle):
    """Every bit flips at rate 1: the forward chain."""

    def __init__(self, D, T):
        self.n_bits, self.T = D, T

    def ratio_all(self, t, states):
        return np.ones((len(states), self.n_bits))


class TestUniformizationLaw:
    def test_exact_oracle_gives_the_target(self, target):
        initial, config = verify.d6_instance(0)
        exact = ExactScoreOracle(initial, config.T)
        law = verify.uniformization_law(exact, config.partition(), marginal_at(initial, config.T))
        assert tv_exact(law, target) < 1e-11

    def test_unit_rates_above_the_rate_matrix_cap(self):
        # D = 13 is above MAX_RATE_MATRIX_BITS; unit rates, under every
        # cap, run the forward chain for T - delta from the start
        D, T, delta = 13, 1.0, 0.75
        y = np.random.default_rng(13).integers(0, 2, (1, D), dtype=np.uint8)
        point = EmpiricalInitial(states=y, weights=np.array([1.0]))
        partition = build_partition(D, T, delta)
        law = verify.uniformization_law(UnitRates(D, T), partition, point.to_dense())
        assert np.abs(law - marginal_at(point, T - delta)).max() < 1e-12


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

    def test_one_pooled_cell_raises(self):
        # 10 draws expect 10/64 < 5 in every cell, so all 64 pool into one
        uniform = np.full(64, 1 / 64)
        states = multinomial_states(np.random.default_rng(20), 10, uniform)
        with pytest.raises(ValueError, match="one cell"):
            verify.g_test(states, uniform)


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
    `key(args)` once. A check run again at another seed or scale then
    pays once for a law that neither enters, and an argument that changes
    with them still misses the cache."""

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


# A fragment of each exact row whose value is pinned.
PINNED = {
    "robustness": "exact KL = 2.12e-04 <= (T-delta)*L_SE = 0.1632",
    "complexity": "expected events [57.9, 140.6, 232.3, 329.9]",
    "gaussian-mixture": "continuous-histogram TV = 0.0355",
}


@pytest.mark.parametrize(
    "suite", ["kernel", "robustness", "complexity", "euler-baseline", "adjacency"]
)
def test_exact_suites_ignore_scale_and_seed(suite, memoize):
    # nothing is sampled, so the quick rows at seed 1 are the full rows at seed 0
    memoize("uniformization_law", law_key)
    memoize("calibrate_noise_scale", calibration_key)
    check = verify.SUITES[suite]
    rows = check("full", 0)
    assert rows and all(row.passed for row in rows)
    assert PINNED.get(suite, "") in " ".join(row.detail for row in rows)
    assert check("quick", 1) == rows


def test_c08_exact_row_ignores_scale_and_seed():
    # only the G-test row samples
    full, quick = verify.check_c08("full", 0), verify.check_c08("quick", 1)
    assert all(row.passed for row in full + quick)
    assert PINNED["gaussian-mixture"] in full[0].detail
    assert quick[0] == full[0]
