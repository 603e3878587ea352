import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from hyperbin.cli import read_points_csv, save_spec, write_states_csv
from hyperbin.quantizer import (
    QuantizerSpec,
    cell_bounds,
    dequantize_sample,
    derive_spec,
    quantize_dataset,
    quantize_point,
    vbin_decode,
    vbin_encode,
)


class TestDeriveSpec:
    def test_reference_values(self):
        # frozen from a direct evaluation of the parameter formulas
        spec = derive_spec(d=1, sigma=1.0, H=1.0, m0=1.0, eps=0.1)
        assert spec.L == pytest.approx(2.4477468306808166, rel=1e-12)
        # raw width 0.011241647041395676 gives 2L/l = 435.478..., rounded
        # up to K = 512 with the width recomputed to tile exactly
        assert spec.K == 512 and spec.m == 9
        assert spec.l == pytest.approx(0.00956151105734694, rel=1e-12)
        assert spec.K * spec.l == pytest.approx(2 * spec.L, rel=1e-12)
        assert spec.n_bits == 9

    def test_cube_grows_as_eps_shrinks(self):
        sizes = [derive_spec(1, 1.0, 1.0, 1.0, eps).L for eps in (0.5, 0.2, 0.1, 0.01)]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))

    def test_well_defined_near_eps_one(self):
        spec = derive_spec(1, 1.0, 1.0, 1.0, 0.999)
        assert spec.L > 0 and spec.K >= 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=1, sigma=1.0, H=1.0, m0=1.0, eps=1.0),
            dict(d=1, sigma=1.0, H=1.0, m0=1.0, eps=1.5),
            dict(d=1, sigma=-1.0, H=1.0, m0=1.0, eps=0.1),
            dict(d=1, sigma=1.0, H=0.0, m0=1.0, eps=0.1),
            dict(d=0, sigma=1.0, H=1.0, m0=1.0, eps=0.1),
            dict(d=1, sigma=1.0, H=1.0, m0=1.0, eps=1e-20),  # K = 2^76
        ],
    )
    def test_rejects_bad_inputs(self, kwargs):
        with pytest.raises(ValueError):
            derive_spec(**kwargs)

    def test_from_grid_requires_power_of_two(self):
        with pytest.raises(ValueError):
            QuantizerSpec.from_grid(d=1, L=1.0, K=6)

    def test_from_grid_allows_at_most_63_bits_per_axis(self):
        with pytest.raises(ValueError, match="63 bits"):
            QuantizerSpec.from_grid(d=1, L=1.0, K=1 << 64)
        spec = QuantizerSpec.from_grid(d=1, L=1.0, K=1 << 63)
        cells = quantize_point(spec, np.array([[-1.0], [0.99], [1.0]]))
        assert cells[:, 0].tolist() == [0, 9177255176670501888, spec.K - 1]
        assert np.array_equal(vbin_decode(spec, vbin_encode(spec, cells)), cells)


class TestQuantizePoint:
    def setup_method(self):
        self.spec = QuantizerSpec.from_grid(d=1, L=2.0, K=4)  # l = 1

    def test_interior(self):
        assert quantize_point(self.spec, np.array([0.3])) == np.array([2])

    def test_left_boundary(self):
        assert quantize_point(self.spec, np.array([-2.0])) == np.array([0])

    def test_right_boundary_clamps(self):
        assert quantize_point(self.spec, np.array([2.0])) == np.array([3])

    def test_out_of_cube_clamps(self):
        assert quantize_point(self.spec, np.array([-7.5])) == np.array([0])
        assert quantize_point(self.spec, np.array([9.0])) == np.array([3])
        assert quantize_point(self.spec, np.array([1e300])) == np.array([3])
        assert quantize_point(self.spec, np.array([-1e300])) == np.array([0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="finite"):
            quantize_point(self.spec, np.array([[0.3], [value]]))

    def test_batched(self):
        pts = np.array([[0.3], [-2.0], [1.999]])
        assert quantize_point(self.spec, pts).tolist() == [[2], [0], [3]]


class TestVbin:
    def test_reference_encoding(self):
        spec = QuantizerSpec.from_grid(d=2, L=2.0, K=4)
        bits = vbin_encode(spec, np.array([3, 1]))
        assert bits.tolist() == [1, 1, 1, 0]
        assert vbin_decode(spec, bits).tolist() == [3, 1]

    def test_zero(self):
        spec = QuantizerSpec.from_grid(d=3, L=1.0, K=8)
        assert vbin_encode(spec, np.zeros(3, dtype=int)).tolist() == [0] * 9

    def test_round_trip_exhaustive(self):
        # full bijectivity on every grid with d*m <= 16
        for d, m in [(1, 4), (2, 4), (2, 8), (4, 4), (8, 2), (16, 1)]:
            spec = QuantizerSpec.from_grid(d=d, L=1.0, K=1 << m)
            axes = [np.arange(spec.K)] * d
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
            decoded = vbin_decode(spec, vbin_encode(spec, grid))
            assert np.array_equal(decoded, grid)
            codes = vbin_encode(spec, grid)
            assert len(np.unique(codes, axis=0)) == len(grid)

    def test_single_bit_index_changes_are_hamming_one(self):
        spec = QuantizerSpec.from_grid(d=2, L=1.0, K=8)
        rng = np.random.default_rng(3)
        for _ in range(100):
            idx = rng.integers(0, spec.K, size=2)
            coord = rng.integers(0, 2)
            bit = rng.integers(0, spec.m)
            other = idx.copy()
            other[coord] ^= 1 << bit
            a, b = vbin_encode(spec, idx), vbin_encode(spec, other)
            assert int(np.sum(a != b)) == 1

    def test_rejects_out_of_range(self):
        spec = QuantizerSpec.from_grid(d=1, L=1.0, K=4)
        with pytest.raises(ValueError):
            vbin_encode(spec, np.array([4]))

    @pytest.mark.parametrize("d", range(1, 5))
    @pytest.mark.parametrize("m", range(1, 17))
    def test_matches_shift_and_mask_formula(self, m, d):
        # the (N, d, m) int64 formula that the per-bit writes replaced
        spec = QuantizerSpec.from_grid(d=d, L=1.0, K=1 << m)
        rng = np.random.default_rng(m * 10 + d)
        idx = rng.integers(0, spec.K, size=(3, 5, d))
        idx[0, 0] = spec.K - 1
        expected = (idx[..., :, None] >> np.arange(m, dtype=np.int64)) & 1
        expected = expected.reshape(3, 5, d * m).astype(np.uint8)
        got = vbin_encode(spec, idx)
        assert got.dtype == np.uint8 and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 9999))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, d, m, seed):
        spec = QuantizerSpec.from_grid(d=d, L=1.0, K=1 << m)
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, spec.K, size=(7, d))
        assert np.array_equal(vbin_decode(spec, vbin_encode(spec, idx)), idx)


class TestDequantize:
    def test_inside_cell(self, rng):
        spec = QuantizerSpec.from_grid(d=3, L=1.5, K=8)
        idx = rng.integers(0, spec.K, size=(500, 3))
        x = dequantize_sample(spec, idx, rng)
        lower, upper = cell_bounds(spec, idx)
        assert (x >= lower).all() and (x <= upper).all()

    def test_reference_cell(self, rng):
        spec = QuantizerSpec.from_grid(d=1, L=2.0, K=4)
        x = dequantize_sample(spec, np.tile([0], (1000, 1)), rng)
        assert (x > -2.0).all() and (x <= -1.0).all()

    def test_mean_matches_cell_midpoint(self, rng):
        # CLT bound: uniform variance l^2/12 over n draws
        spec = QuantizerSpec.from_grid(d=1, L=2.0, K=4)
        n = 100_000
        x = dequantize_sample(spec, np.tile([2], (n, 1)), rng)
        midpoint = -2.0 + 2.5 * spec.l
        tol = 3 * spec.l / math.sqrt(12 * n)
        assert abs(x.mean() - midpoint) < tol

    def test_quantize_inverts_dequantize(self, rng):
        spec = QuantizerSpec.from_grid(d=2, L=1.0, K=16)
        idx = rng.integers(0, spec.K, size=(2000, 2))
        x = dequantize_sample(spec, idx, rng)
        assert np.array_equal(quantize_point(spec, x), idx)


class TestQuantizeDataset:
    def test_matches_pointwise_pipeline(self, rng):
        spec = QuantizerSpec.from_grid(d=2, L=1.0, K=4)
        pts = rng.uniform(-1, 1, size=(10, 2))
        states = quantize_dataset(spec, pts)
        expected = vbin_encode(spec, quantize_point(spec, pts))
        assert np.array_equal(states, expected)

    def test_single_point_and_duplicates(self):
        spec = QuantizerSpec.from_grid(d=1, L=2.0, K=4)
        one = quantize_dataset(spec, np.array([[0.3]]))
        assert one.shape == (1, 2)
        dup = quantize_dataset(spec, np.array([[0.3], [0.3]]))
        assert np.array_equal(dup[0], dup[1])

    def test_rejects_empty(self):
        spec = QuantizerSpec.from_grid(d=1, L=2.0, K=4)
        with pytest.raises(ValueError):
            quantize_dataset(spec, np.empty((0, 1)))


class TestHistogramAccuracy:
    def test_gaussian_histogram_tv_within_budget(self):
        # For a standard 1D Gaussian and the derived grid, the TV distance
        # between the density and its truncated cell-averaged histogram must
        # stay within 3 eps. Oracle: per-cell Gauss-Legendre integration of
        # |p - cell average| plus the exact tail mass.
        eps = 0.1
        spec = derive_spec(d=1, sigma=1.0, H=1.0, m0=1.0, eps=eps)
        edges = -spec.L + spec.l * np.arange(spec.K + 1)
        cube_mass = norm.cdf(spec.L) - norm.cdf(-spec.L)
        cell_mass = np.diff(norm.cdf(edges))
        hist_density = cell_mass / cube_mass / spec.l
        nodes, weights = np.polynomial.legendre.leggauss(32)
        centers = 0.5 * (edges[:-1] + edges[1:])
        pts = centers[:, None] + 0.5 * spec.l * nodes[None, :]
        diff = np.abs(norm.pdf(pts) - hist_density[:, None])
        inside = float((diff @ weights).sum() * 0.5 * spec.l)
        tail = 1.0 - cube_mass
        tv = 0.5 * (inside + tail)
        assert 0.0 < tv <= 3 * eps


class TestSerialization:
    SPEC_KEYS = {"d", "sigma", "H", "m0", "eps", "L", "l", "K", "config_hash"}

    def test_spec_round_trip(self, tmp_path):
        spec = derive_spec(d=2, sigma=1.3, H=0.7, m0=2.0, eps=0.2)
        path = tmp_path / "spec.json"
        save_spec(spec, path, "abc")
        payload = json.loads(path.read_text())
        assert set(payload) == self.SPEC_KEYS and payload["config_hash"] == "abc"
        assert payload["l"] == spec.l
        fields = {k: payload[k] for k in ("d", "L", "K", "sigma", "H", "m0", "eps")}
        assert QuantizerSpec(**fields) == spec

    def test_spec_round_trip_direct(self, tmp_path):
        # a grid given directly has no derivation parameters: they are null
        spec = QuantizerSpec.from_grid(d=1, L=4.0, K=64)
        save_spec(spec, tmp_path / "s.json", "abc")
        payload = json.loads((tmp_path / "s.json").read_text())
        assert set(payload) == self.SPEC_KEYS
        assert [payload[k] for k in ("sigma", "H", "m0", "eps")] == [None] * 4
        assert (payload["d"], payload["L"], payload["l"], payload["K"]) == (1, 4.0, 0.125, 64)

    def test_points_csv(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x0,x1\n0.5,1.5\n-0.25,0.75\n")
        pts = read_points_csv(path)
        assert pts.shape == (2, 2) and pts[1, 0] == -0.25

    def test_points_csv_without_header(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0.5\n1.25\n")
        assert read_points_csv(path).shape == (2, 1)

    def test_points_csv_header_after_comments(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("# source=demo\nx0\n0.5\n-1.0")
        assert read_points_csv(path).ravel().tolist() == [0.5, -1.0]

    def test_points_csv_reports_bad_row(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0.5\noops\n1.0\n")
        with pytest.raises(ValueError, match="row 2"):
            read_points_csv(path)

    def test_points_csv_width_mismatch_names_file_line(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x0\n# note\n1.0\n2.0,3.0")
        with pytest.raises(ValueError, match="row 4: expected 1 columns"):
            read_points_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_points_csv_rejects_non_finite(self, tmp_path, value):
        path = tmp_path / "pts.csv"
        path.write_text(f"x0,x1\n0.5,1.5\n0.25,{value}\n")
        with pytest.raises(ValueError, match="row 3: non-finite"):
            read_points_csv(path)

    def test_states_csv_round_trip(self, tmp_path, rng):
        states = rng.integers(0, 2, size=(5, 6)).astype(np.uint8)
        path = tmp_path / "states.csv"
        write_states_csv(path, states, "abc")
        assert path.read_bytes().startswith(b"# config_hash=abc\nb0,b1,b2,b3,b4,b5\r\n")
        parsed = np.loadtxt(path, delimiter=",", skiprows=2, dtype=np.uint8, ndmin=2)
        assert np.array_equal(parsed, states)
