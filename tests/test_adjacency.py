import csv
import math

import numpy as np
import pytest

from hyperbin.adjacency import (
    KINDS,
    build_rate_matrix,
    graph_report,
    heat_kernel,
    mixing_time,
    write_heat_kernel_csv,
)
from hyperbin.chain import dense_rate_matrix, flip_probability


class TestBuildRateMatrix:
    def test_path_graph_reference(self):
        R = build_rate_matrix("tridiagonal", 3)
        assert R.tolist() == [[-1, 1, 0], [1, -2, 1], [0, 1, -1]]

    def test_complete_graph_reference(self):
        R = build_rate_matrix("dense", 4)
        assert np.allclose(np.diag(R), -3)
        off = R[~np.eye(4, dtype=bool)]
        assert (off == 1).all()

    def test_hypercube_matches_chain_generator(self):
        assert np.array_equal(build_rate_matrix("hypercube", 3), dense_rate_matrix(3))

    @pytest.mark.parametrize("kind,size", [("tridiagonal", 9), ("dense", 6), ("hypercube", 4)])
    def test_generator_validity(self, kind, size):
        R = build_rate_matrix(kind, size)
        assert np.allclose(R.sum(axis=0), 0.0, atol=1e-12)
        assert np.allclose(R, R.T)
        off = R[~np.eye(R.shape[0], dtype=bool)]
        assert (off >= 0).all()

    def test_size_cap_and_bad_kind(self):
        with pytest.raises(ValueError):
            build_rate_matrix("dense", 5000)
        with pytest.raises(ValueError):
            build_rate_matrix("ring", 8)
        with pytest.raises(ValueError):
            build_rate_matrix("dense", 1)


class TestGraphReport:
    def test_reference_triples(self):
        assert graph_report("tridiagonal", 8) == (7, 2)
        assert graph_report("dense", 8) == (1, 7)
        assert graph_report("hypercube", 3) == (3, 3)

    def test_larger_hypercube(self):
        assert graph_report("hypercube", 5) == (5, 5)


class TestHeatKernel:
    def test_zero_time_is_identity(self):
        assert np.allclose(heat_kernel("dense", 5, 0.0), np.eye(5), atol=1e-12)

    def test_long_time_is_uniform(self):
        for kind, size, n in (("tridiagonal", 8, 8), ("dense", 8, 8), ("hypercube", 3, 8)):
            K = heat_kernel(kind, size, 200.0)
            assert np.abs(K - 1.0 / n).max() < 1e-9

    def test_hypercube_matches_closed_form(self):
        for t in (0.05, 0.4, 2.0):
            K = heat_kernel("hypercube", 3, t)
            idx = np.arange(8)
            ham = np.bitwise_count(idx[:, None] ^ idx[None, :])
            pf = flip_probability(t)
            closed = pf**ham * (1 - pf) ** (3 - ham)
            assert np.abs(K - closed).max() < 1e-9

    def test_rows_and_columns_are_stochastic(self):
        K = heat_kernel("tridiagonal", 6, 0.7)
        assert np.allclose(K.sum(axis=0), 1.0, atol=1e-12)
        assert (K >= 0).all()


class TestMixing:
    def test_ordering_matches_topology(self):
        # dense mixes fastest, the path slowest, the hypercube in between
        for n in (8, 16, 32):
            D = int(math.log2(n))
            t_dense = mixing_time("dense", n)
            t_hyper = mixing_time("hypercube", D)
            t_tri = mixing_time("tridiagonal", n)
            assert t_dense <= t_hyper <= t_tri

    def test_mixing_time_brackets_target(self):
        t = mixing_time("dense", 8)
        R = build_rate_matrix("dense", 8)
        p0 = np.zeros(8)
        p0[0] = 1.0
        from scipy.linalg import expm

        tv = lambda s: 0.5 * np.abs(expm(s * R) @ p0 - 1 / 8).sum()
        assert tv(t) <= 0.01 <= tv(t * 0.9) + 1e-12


class TestHeatKernelCSV:
    def test_export(self, tmp_path):
        path = tmp_path / "heat.csv"
        write_heat_kernel_csv(path, "hypercube", 2, [0.0, 0.3], header_lines=["config_hash=h"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_hash=h"
        assert lines[1] == "t,row,col,prob"
        assert len(lines) == 2 + 2 * 16

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
    def test_bytes_match_per_row_writer(self, tmp_path, n):
        # reference: one csv.writer row per kernel entry, as adjacency-report
        # wrote them before the writer was vectorized
        times = [0.01, 0.1, 0.5, 2.0]
        for kind in KINDS:
            size = int(math.log2(n)) if kind == "hypercube" else n
            expected = tmp_path / f"expected_{kind}.csv"
            with open(expected, "w", newline="") as fh:
                fh.write("# config_hash=h\n")
                writer = csv.writer(fh)
                writer.writerow(["t", "row", "col", "prob"])
                for t in times:
                    kernel = heat_kernel(kind, size, t)
                    for i in range(n):
                        for j in range(n):
                            writer.writerow([repr(float(t)), i, j, repr(float(kernel[i, j]))])
            got = tmp_path / f"got_{kind}.csv"
            write_heat_kernel_csv(got, kind, size, times, header_lines=["config_hash=h"])
            assert got.read_bytes() == expected.read_bytes()
