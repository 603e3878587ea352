import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from hyperbin.metrics import (
    EmpiricalLaw,
    kl_exact,
    tv_continuous_histogram,
    tv_exact,
    tv_plugin,
)
from hyperbin.quantizer import QuantizerSpec


def random_law(rng, n):
    p = rng.random(n) + 1e-3
    return p / p.sum()


class TestTvExact:
    def test_identical(self, rng):
        p = random_law(rng, 8)
        assert tv_exact(p, p) == 0.0

    def test_reference_value(self):
        # 0.5 * (|1 - 0.5| + |0 - 0.5|) = 0.5
        assert tv_exact(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == 0.5

    def test_disjoint_supports(self):
        assert tv_exact(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_symmetry_triangle_range(self, rng):
        for _ in range(25):
            p, q, r = (random_law(rng, 16) for _ in range(3))
            assert tv_exact(p, q) == tv_exact(q, p)
            assert 0.0 <= tv_exact(p, q) <= 1.0
            assert tv_exact(p, r) <= tv_exact(p, q) + tv_exact(q, r) + 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            tv_exact(random_law(rng, 4), random_law(rng, 8))


class TestKlExact:
    def test_identical(self, rng):
        p = random_law(rng, 8)
        assert kl_exact(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_vs_uniform(self):
        D = 5
        p = np.zeros(1 << D)
        p[3] = 1.0
        q = np.full(1 << D, 2.0**-D)
        assert kl_exact(p, q) == pytest.approx(D * math.log(2), rel=1e-12)

    def test_bernoulli_reference(self):
        p = np.array([0.25, 0.75])
        q = np.array([0.5, 0.5])
        assert kl_exact(p, q) == pytest.approx(0.13081203594113697, rel=1e-12)

    def test_support_violation_is_infinite(self):
        p = np.array([0.5, 0.5])
        q = np.array([1.0, 0.0])
        assert kl_exact(p, q) == math.inf

    def test_pinsker(self, rng):
        for _ in range(25):
            p, q = random_law(rng, 16), random_law(rng, 16)
            assert tv_exact(p, q) <= math.sqrt(kl_exact(p, q) / 2) + 1e-12


class TestEmpiricalLaw:
    def test_plugin_zero_when_proportional(self):
        q = np.array([0.125, 0.375, 0.25, 0.25])
        law = EmpiricalLaw(counts=np.array([1, 3, 2, 2]))
        assert tv_plugin(law, q) == pytest.approx(0.0, abs=1e-12)

    def test_single_sample(self, rng):
        q = random_law(rng, 8)
        law = EmpiricalLaw.from_indices([5])
        assert tv_plugin(law, q) == pytest.approx(1.0 - q[5], rel=1e-12)

    def test_multinomial_concentration(self, rng):
        q = random_law(rng, 64)
        n = 1_000_000
        counts = rng.multinomial(n, q)
        law = EmpiricalLaw.from_indices(np.repeat(np.arange(64), counts))
        assert tv_plugin(law, q) <= 0.02

    def test_plugin_converges(self, rng):
        q = random_law(rng, 32)
        means = []
        for n in (1_000, 10_000, 100_000, 1_000_000):
            vals = []
            for _ in range(3):
                counts = rng.multinomial(n, q)
                law = EmpiricalLaw(counts=counts)
                vals.append(tv_plugin(law, q))
            means.append(np.mean(vals))
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_smoothing_strictly_positive(self):
        law = EmpiricalLaw.from_indices([1] * 10)
        smoothed = law.to_smoothed(4)
        assert (smoothed > 0).all()
        assert smoothed.sum() == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_state_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalLaw.from_indices([9]).to_dense(8)

    @given(st.lists(st.integers(0, 15), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_counts_round_trip(self, indices):
        law = EmpiricalLaw.from_indices(np.array(indices))
        assert law.total == len(indices)
        dense = law.to_dense(16)
        assert dense.sum() == pytest.approx(1.0, abs=1e-12)


def normal_cell_mass(spec):
    """Standard normal mass of every cell of a d = 1 grid."""
    return np.diff(norm.cdf(-spec.L + spec.l * np.arange(spec.K + 1)))


def uniform_cell_mass(spec):
    """Uniform law on the cube: every cell has mass K^-d."""
    return np.full(spec.K**spec.d, float(spec.K) ** -spec.d)


class TestContinuousHistogram:
    def test_uniform_matched_case(self):
        mass = uniform_cell_mass(QuantizerSpec.from_grid(d=1, L=1.0, K=16))
        assert tv_continuous_histogram(mass, mass) == 0.0

    def test_outside_mass_counts_fully(self):
        # the normal law given the cube: |law - mass| sums to the outside
        # mass 1 - S, which counts once more, so TV = 1 - S
        mass = normal_cell_mass(QuantizerSpec.from_grid(d=1, L=2.0, K=64))
        tv = tv_continuous_histogram(mass / mass.sum(), mass)
        assert tv == pytest.approx(1.0 - mass.sum(), abs=1e-12)
        assert tv == pytest.approx(2 * norm.sf(2.0), rel=1e-9)

    def test_degenerate_point_mass(self):
        # all mass in one cell: TV = 1 - (mass of that cell)
        spec = QuantizerSpec.from_grid(d=1, L=4.0, K=64)
        cell = int(np.floor((0.07 + 4.0) / spec.l))
        lo = -4.0 + cell * spec.l
        cell_mass = norm.cdf(lo + spec.l) - norm.cdf(lo)
        tv = tv_continuous_histogram(np.eye(spec.K)[cell], normal_cell_mass(spec))
        assert tv == pytest.approx(1.0 - cell_mass, abs=1e-12)

    def test_two_dimensional_uniform(self):
        mass = uniform_cell_mass(QuantizerSpec.from_grid(d=2, L=1.0, K=8))
        assert tv_continuous_histogram(mass, mass) == 0.0
        point = np.eye(64)[np.ravel_multi_index((3, 5), (8, 8))]
        assert tv_continuous_histogram(point, mass) == pytest.approx(1 - 1 / 64)

    def test_four_dimensional_uniform(self):
        # no dimension limit: the masses come in, nothing is integrated
        mass = uniform_cell_mass(QuantizerSpec.from_grid(d=4, L=1.0, K=4))
        assert tv_continuous_histogram(mass, mass) == 0.0
        point = np.eye(256)[np.ravel_multi_index((0, 1, 2, 3), (4,) * 4)]
        assert tv_continuous_histogram(point, mass) == pytest.approx(1 - 1 / 256)

    @pytest.mark.parametrize(
        "law, match",
        [
            (np.empty(0), "shape"),
            (np.full(8, 0.125), "shape"),
            (np.full((2, 2), 0.25), "shape"),
            (np.array([0.5, 0.5, 0.5, -0.5]), "negative"),
            (np.array([0.5, 0.25, 0.0, 0.0]), "sum"),
        ],
        ids=["empty", "long", "not-flat", "negative", "below-one"],
    )
    def test_rejects_bad_law(self, law, match):
        with pytest.raises(ValueError, match=match):
            tv_continuous_histogram(law, np.full(4, 0.25))

    @pytest.mark.parametrize(
        "mass, match",
        [
            (np.full(3, 0.25), "shape"),
            (np.full((2, 2), 0.25), "shape"),
            (np.array([0.5, 0.5, 0.25, -0.25]), "nonnegative"),
            (np.array([0.5, np.nan, 0.0, 0.0]), "nonnegative"),
            (np.array([0.5, 0.5, 0.0, 1e-9]), "sums to"),
        ],
        ids=["short", "not-flat", "negative", "nan", "above-one"],
    )
    def test_rejects_bad_cell_mass(self, mass, match):
        with pytest.raises(ValueError, match=match):
            tv_continuous_histogram(np.full(4, 0.25), mass)

    def test_accepts_a_sum_one_within_rounding(self):
        mass = np.array([0.25, 0.25, 0.25, 0.25 + 1e-13])
        tv = tv_continuous_histogram(np.eye(4)[0], mass)
        assert tv == pytest.approx(0.75, abs=1e-12)
