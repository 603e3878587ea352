import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import random_initial
from hyperbin.bits import all_states, hamming_to_rows, index_to_state, state_to_index
from hyperbin.chain import (
    EmpiricalInitial,
    dense_rate_matrix,
    flip_probability,
    kl_to_uniform,
    marginal_at,
    sample_forward,
)

# interval with per-bit flip probability exactly 1/4
DT_QUARTER = 0.5 * math.log(2.0)


def kernel_matrix(D, dt):
    """Independent oracle: closed-form kernel assembled entrywise from the
    per-bit factorization, as a dense matrix."""
    idx = np.arange(1 << D)
    ham = np.bitwise_count(idx[:, None] ^ idx[None, :])
    pf = flip_probability(dt)
    return pf**ham * (1 - pf) ** (D - ham)


class TestTransitionProb:
    def test_zero_interval_is_identity(self):
        y = state_to_index(np.array([1, 0, 1], dtype=np.uint8))
        z = state_to_index(np.array([1, 1, 1], dtype=np.uint8))
        K = kernel_matrix(3, 0.0)
        assert K[y, y] == 1.0
        assert K[z, y] == 0.0

    def test_long_interval_is_uniform(self):
        y = state_to_index(np.zeros(4, dtype=np.uint8))
        z = state_to_index(np.array([1, 0, 1, 1], dtype=np.uint8))
        assert kernel_matrix(4, 50.0)[z, y] == pytest.approx(2.0**-4, abs=1e-12)

    def test_single_flip_reference_value(self):
        # e^(-2 dt) = 1/2 -> per-bit flip probability 1/4; one flip out of
        # three fixed bits carries probability 0.25 * 0.75^2 = 0.140625
        y = state_to_index(np.zeros(3, dtype=np.uint8))
        z = state_to_index(np.array([1, 0, 0], dtype=np.uint8))
        assert kernel_matrix(3, DT_QUARTER)[z, y] == pytest.approx(0.140625, abs=1e-12)

    def test_matches_matrix_exponential(self):
        # dense generator exponential as the independent oracle
        for D in (2, 3):
            R = dense_rate_matrix(D)
            for dt in (0.05, DT_QUARTER, 1.0):
                oracle = expm(dt * R)
                assert np.abs(kernel_matrix(D, dt) - oracle).max() < 1e-9

    def test_rejects_reversed_times(self, rng):
        y = np.zeros(2, dtype=np.uint8)
        with pytest.raises(ValueError):
            sample_forward(2, y, 1.0, 0.5, rng)

    def test_kernel_doubly_stochastic(self):
        K = kernel_matrix(5, 0.7)
        assert np.allclose(K.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(K.sum(axis=1), 1.0, atol=1e-12)

    def test_chapman_kolmogorov(self):
        for D in (2, 4, 6):
            a, b = 0.3, 0.9
            lhs = kernel_matrix(D, a + b)
            rhs = kernel_matrix(D, b) @ kernel_matrix(D, a)
            assert np.abs(lhs - rhs).max() < 1e-9


class TestBitLayout:
    @pytest.mark.parametrize("B, P", [(0, 5), (9, 1), (40, 30)])
    @pytest.mark.parametrize("D", [1, 6, 63, 64, 65, 130])
    def test_hamming_to_rows_matches_brute_force(self, D, B, P):
        rng = np.random.default_rng(D * 100 + B)
        states = rng.integers(0, 2, size=(B, D), dtype=np.uint8)
        rows = rng.integers(0, 2, size=(P, D), dtype=np.uint8)
        rows[0] = 1  # an all-ones row fills each word up to bit D - 1
        ham = hamming_to_rows(states, rows)
        assert ham.dtype == np.int64 and ham.shape == (B, P)
        assert np.array_equal(ham, (states[:, None] != rows[None]).sum(-1))

    @pytest.mark.parametrize("D", [1, 6, 63])
    def test_state_to_index_any_leading_shape(self, D):
        rng = np.random.default_rng(D)
        states = rng.integers(0, 2, size=(5, 3, D), dtype=np.uint8)
        states[0, 0] = 1
        weights = np.uint64(1) << np.arange(D, dtype=np.uint64)
        expected = (states * weights).sum(axis=-1, dtype=np.uint64).astype(np.int64)
        got = state_to_index(states)
        assert got.dtype == np.int64 and np.array_equal(got, expected)
        assert state_to_index(states[1, 2]) == int(expected[1, 2])
        assert np.array_equal(index_to_state(got, D), states)

    def test_state_to_index_rejects_64_bits(self):
        with pytest.raises(ValueError, match="D <= 63"):
            state_to_index(np.zeros((2, 64), dtype=np.uint8))


class TestSampleForward:
    def test_zero_interval_returns_input(self, rng):
        y = rng.integers(0, 2, size=7).astype(np.uint8)
        assert np.array_equal(sample_forward(7, y, 1.0, 1.0, rng), y)

    def test_flip_frequency(self, rng):
        n = 1_000_000
        y0 = np.zeros((n, 1), dtype=np.uint8)
        out = sample_forward(1, y0, 0.0, DT_QUARTER, rng)
        assert abs(out.mean() - 0.25) < 0.002

    def test_empirical_law_matches_kernel_row(self, rng):
        D, n = 4, 1_000_000
        y0 = np.zeros((n, D), dtype=np.uint8)
        out = sample_forward(D, y0, 0.0, 0.4, rng)
        counts = np.bincount(state_to_index(out), minlength=1 << D)
        row = kernel_matrix(D, 0.4)[:, 0]
        tv = 0.5 * np.abs(counts / n - row).sum()
        assert tv < 0.01


class TestMarginal:
    def test_time_zero_is_initial(self, rng):
        initial = random_initial(rng, 5, 6)
        assert np.array_equal(marginal_at(initial, 0.0), initial.to_dense())

    def test_long_time_is_uniform(self, rng):
        initial = random_initial(rng, 6, 4)
        q = marginal_at(initial, 50.0)
        assert 0.5 * np.abs(q - np.full(2**6, 2.0**-6)).sum() < 1e-9

    def test_point_mass_closed_form(self):
        initial = EmpiricalInitial(states=np.zeros((1, 1), np.uint8), weights=np.array([1.0]))
        for t in (0.1, 0.7, 2.0):
            q = marginal_at(initial, t)
            assert q[1] == pytest.approx(0.5 * (1 - math.exp(-2 * t)), abs=1e-14)

    def test_matches_expm_propagation(self, rng):
        for D in (3, 6, 8):
            initial = random_initial(rng, D, 5)
            R = dense_rate_matrix(D)
            q0 = initial.to_dense()
            for t in (0.2, 1.1):
                oracle = expm(t * R) @ q0
                assert np.abs(marginal_at(initial, t) - oracle).max() < 1e-9

    def test_rejects_large_dense_dimension(self):
        initial = EmpiricalInitial(
            states=np.zeros((1, 21), np.uint8), weights=np.array([1.0])
        )
        with pytest.raises(ValueError):
            marginal_at(initial, 1.0)


class TestRateMatrix:
    def test_two_state_chain(self):
        assert dense_rate_matrix(1).tolist() == [[-1.0, 1.0], [1.0, -1.0]]

    def test_columns_sum_to_zero(self):
        for D in (1, 3, 6):
            R = dense_rate_matrix(D)
            assert np.allclose(R.sum(axis=0), 0.0, atol=1e-12)
            assert np.allclose(R, R.T)

    def test_support_is_hamming_one(self):
        D = 4
        R = dense_rate_matrix(D)
        idx = np.arange(1 << D)
        ham = np.bitwise_count(idx[:, None] ^ idx[None, :])
        assert ((R > 0) == (ham == 1)).all()
        assert np.allclose(np.diag(R), -D)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            dense_rate_matrix(13)


class TestKL:
    def test_uniform_is_zero(self):
        assert kl_to_uniform(np.full(2**5, 2.0**-5)) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass(self):
        assert kl_to_uniform(np.eye(16)[3]) == pytest.approx(math.log(16), rel=1e-12)

    def test_evolved_point_mass_reference(self):
        # per-bit closed form at t = 1, D = 4; frozen from the formula
        # 4 [p ln 2p + (1-p) ln 2(1-p)] with p = (1 + e^-2)/2
        initial = EmpiricalInitial(states=np.zeros((1, 4), np.uint8), weights=np.array([1.0]))
        kl = kl_to_uniform(marginal_at(initial, 1.0))
        assert kl == pytest.approx(0.03674392601274268, rel=1e-10)
        assert kl <= math.exp(-1.0) * 4

    def test_decay_envelope(self, rng):
        # contraction toward uniform dominates e^-t times the bit count
        for _ in range(20):
            D = int(rng.integers(2, 7))
            initial = random_initial(rng, D, int(rng.integers(1, 8)))
            for t in (0.5, 1.0, 2.0, 4.0):
                assert kl_to_uniform(marginal_at(initial, t)) <= math.exp(-t) * D


class TestEmpiricalInitial:
    def test_from_dataset_aggregates(self):
        data = np.array([[0, 1], [0, 1], [1, 1]], dtype=np.uint8)
        initial = EmpiricalInitial.from_dataset(data)
        assert len(initial.weights) == 2
        dense = initial.to_dense()
        assert dense[state_to_index(np.array([0, 1]))] == pytest.approx(2 / 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            EmpiricalInitial(states=np.zeros((2, 3), np.uint8), weights=np.array([0.5]))
        with pytest.raises(ValueError):
            EmpiricalInitial(states=np.zeros((1, 3), np.uint8), weights=np.array([0.5]))
        with pytest.raises(ValueError):
            EmpiricalInitial(
                states=np.zeros((2, 3), np.uint8), weights=np.array([1.5, -0.5])
            )

    @pytest.mark.parametrize("entry", ["constructor", "from_dataset"])
    @pytest.mark.parametrize("bad", [256, 0.7, -255])
    def test_non_binary_values_rejected(self, entry, bad):
        # each value casts to a 0/1 uint8 (256 -> 0, 0.7 -> 0, -255 -> 1),
        # so the check must see the raw values
        states = np.array([[0, 1, 1], [1, 0, bad]])
        with pytest.raises(ValueError, match="0/1"):
            if entry == "constructor":
                EmpiricalInitial(states=states, weights=np.array([0.5, 0.5]))
            else:
                EmpiricalInitial.from_dataset(states)

    @staticmethod
    def check_against_np_unique(data):
        initial = EmpiricalInitial.from_dataset(data)
        states, counts = np.unique(data, axis=0, return_counts=True)
        assert np.array_equal(initial.states, states)
        assert initial.states.dtype == np.uint8
        assert (initial.weights == counts / counts.sum()).all()
        return initial

    @given(
        D=st.one_of(st.sampled_from([1, 8, 9, 63, 64, 65, 130]), st.integers(1, 130)),
        n=st.integers(1, 500),
        pool=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_from_dataset_matches_np_unique(self, D, n, pool, seed):
        # rows drawn with replacement from a small pool of random rows and
        # their one-bit variants, so duplicates and long shared prefixes occur
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 2, size=(pool, D), dtype=np.uint8)
        variants = base.copy()
        variants[np.arange(pool), rng.integers(0, D, size=pool)] ^= 1
        rows = np.concatenate([base, variants])
        self.check_against_np_unique(rows[rng.integers(0, len(rows), size=n)])

    @pytest.mark.parametrize("D", [1, 8, 9, 64, 65])
    def test_from_dataset_single_row_and_identical_rows(self, rng, D):
        row = rng.integers(0, 2, size=(1, D), dtype=np.uint8)
        for data in (row, np.repeat(row, 50, axis=0)):
            assert self.check_against_np_unique(data).weights.tolist() == [1.0]

    def test_round_trip_dense(self, rng):
        initial = random_initial(rng, 4, 8)
        p = initial.to_dense()
        support = np.flatnonzero(p)
        rebuilt = EmpiricalInitial(states=index_to_state(support, 4), weights=p[support])
        assert np.abs(rebuilt.to_dense() - initial.to_dense()).max() < 1e-12
