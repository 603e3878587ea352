import json
import math

import numpy as np
import pytest

from hyperbin import verify as verify_suites
from hyperbin.cli import main
from hyperbin.quantizer import load_spec, read_states_csv
from hyperbin.sampler import build_partition


def write_config(path, config):
    path.write_text(json.dumps(config))
    return str(path)


@pytest.fixture
def points_csv(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("x0\n0.5\n-0.25\n0.75\n")
    return str(path)


@pytest.fixture
def quantize_config(tmp_path, points_csv):
    return write_config(
        tmp_path / "quantize.json",
        {
            "target": {"csv": points_csv},
            "quantizer": {"d": 1, "L": 2.0, "K": 8},
            "seed": 3,
        },
    )


@pytest.fixture
def sample_config(tmp_path, points_csv):
    return write_config(
        tmp_path / "sample.json",
        {
            "target": {"csv": points_csv},
            "quantizer": {"d": 1, "L": 2.0, "K": 8},
            "sampler": {"eps": 0.2, "init": "uniform"},
            "n_samples": 400,
            "seed": 5,
        },
    )


class TestQuantizeCommand:
    def test_row_cardinality(self, tmp_path, quantize_config):
        out = tmp_path / "out"
        assert main(["quantize", "--config", quantize_config, "--out", str(out)]) == 0
        states = read_states_csv(out / "states.csv")
        assert states.shape == (3, 3)
        spec = load_spec(out / "spec.json")
        assert spec.K == 8

    def test_malformed_row_reports_line_and_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.5\nnot-a-number\n")
        config = write_config(
            tmp_path / "c.json",
            {"target": {"csv": str(bad)}, "quantizer": {"d": 1, "L": 2.0, "K": 8}},
        )
        assert main(["quantize", "--config", config, "--out", str(tmp_path / "o")]) == 4
        assert "row 2" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_row_exits_4(self, tmp_path, capsys, value):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"0.5\n{value}\n")
        config = write_config(
            tmp_path / "c.json",
            {"target": {"csv": str(bad)}, "quantizer": {"d": 1, "L": 2.0, "K": 8}},
        )
        assert main(["quantize", "--config", config, "--out", str(tmp_path / "o")]) == 4
        assert "row 2" in capsys.readouterr().err

    def test_missing_file_exits_4(self, tmp_path):
        config = write_config(
            tmp_path / "c.json",
            {"target": {"csv": str(tmp_path / "nope.csv")}, "quantizer": {"d": 1, "L": 2.0, "K": 8}},
        )
        assert main(["quantize", "--config", config, "--out", str(tmp_path / "o")]) == 4

    def test_bad_config_exits_2(self, tmp_path, points_csv):
        config = write_config(
            tmp_path / "c.json", {"target": {"csv": points_csv}, "quantizer": {"d": 1, "K": 6, "L": 1.0}}
        )
        assert main(["quantize", "--config", config, "--out", str(tmp_path / "o")]) == 2

    def test_dequantized_mean_shift_bounded_by_cell_width(self, tmp_path, quantize_config):
        # quantize -> decode cell -> cell midpoints; the mean moves < l
        out = tmp_path / "out"
        main(["quantize", "--config", quantize_config, "--out", str(out)])
        spec = load_spec(out / "spec.json")
        states = read_states_csv(out / "states.csv")
        from hyperbin.quantizer import cell_bounds, read_points_csv, vbin_decode

        idx = vbin_decode(spec, states)
        lower, upper = cell_bounds(spec, idx)
        midpoints = 0.5 * (lower + upper)
        pts = read_points_csv(out.parent / "points.csv")
        assert abs(midpoints.mean() - pts.mean()) <= spec.l

    def test_env_var_overrides_out_dir(self, tmp_path, monkeypatch, quantize_config):
        monkeypatch.setenv("HYPERBIN_OUT", str(tmp_path / "env_out"))
        assert main(["quantize", "--config", quantize_config]) == 0
        assert (tmp_path / "env_out" / "states.csv").exists()

    def test_deterministic_output_bytes(self, tmp_path, quantize_config):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["quantize", "--config", quantize_config, "--out", str(out1)])
        main(["quantize", "--config", quantize_config, "--out", str(out2)])
        assert (out1 / "states.csv").read_bytes() == (out2 / "states.csv").read_bytes()
        assert (out1 / "spec.json").read_bytes() == (out2 / "spec.json").read_bytes()


class TestSampleCommand:
    def test_deterministic_given_seed(self, tmp_path, sample_config):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["sample", "--config", sample_config, "--out", str(out1)]) == 0
        assert main(["sample", "--config", sample_config, "--out", str(out2)]) == 0
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
        assert (out1 / "stats.csv").read_bytes() == (out2 / "stats.csv").read_bytes()

    def test_both_methods_emit_n_rows(self, tmp_path, sample_config):
        for method in ("uniformization", "euler"):
            out = tmp_path / f"m_{method}"
            assert (
                main(["sample", "--config", sample_config, "--out", str(out), "--method", method])
                == 0
            )
            lines = [
                l
                for l in (out / "samples.csv").read_text().splitlines()
                if l and not l.startswith(("#", "replica"))
            ]
            assert len(lines) == 400

    def test_stats_match_partition(self, tmp_path, sample_config):
        out = tmp_path / "stats_check"
        main(["sample", "--config", sample_config, "--out", str(out)])
        config = json.loads(open(sample_config).read())
        spec = load_spec(out / "spec.json")
        eps = config["sampler"]["eps"]
        T = math.log(spec.d / eps) + math.log(spec.m)
        part = build_partition(spec.n_bits, T, eps / (spec.d * spec.m))
        rows = [
            line.split(",")
            for line in (out / "stats.csv").read_text().splitlines()
            if line and not line.startswith(("#", "segment"))
        ]
        assert len(rows) == part.n_segments
        total = sum(float(r[1]) * float(r[2]) for r in rows)
        assert total == pytest.approx(part.expected_events(), rel=1e-9)

    def test_gaussian_mixture_target(self, tmp_path):
        config = write_config(
            tmp_path / "gm.json",
            {
                "target": {
                    "gaussian_mixture": {
                        "weights": [0.5, 0.5],
                        "means": [-1.5, 1.5],
                        "sds": [0.5, 0.5],
                        "n_train": 2000,
                    }
                },
                "quantizer": {"d": 1, "L": 4.0, "K": 16},
                "n_samples": 100,
                "seed": 1,
            },
        )
        out = tmp_path / "gm_out"
        assert main(["sample", "--config", config, "--out", str(out)]) == 0
        assert (out / "samples.csv").exists()

    def test_config_hash_header_present(self, tmp_path, sample_config):
        out = tmp_path / "hash_check"
        main(["sample", "--config", sample_config, "--out", str(out)])
        first = (out / "samples.csv").read_text().splitlines()[0]
        assert first.startswith("# config_hash=") and len(first) > 16


class TestVerifyCommand:
    def test_kernel_suite_passes(self, capsys):
        assert main(["verify", "--suite", "kernel"]) == 0
        out = capsys.readouterr().out
        assert "PASS kernel/closed_form_vs_expm" in out

    def test_unknown_suite_lists_names(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "kernel" in err and "unbiased" in err

    def test_failure_exits_3(self, capsys, monkeypatch):
        def failing(seed):
            return [verify_suites.CheckRow("always_fails", False, 1.0, 1, "forced")]

        monkeypatch.setitem(verify_suites.SUITES, "kernel", failing)
        assert main(["verify", "--suite", "kernel"]) == 3
        assert "FAIL kernel/always_fails" in capsys.readouterr().out

    def test_report_csv_records_measurement(self, tmp_path, capsys):
        assert main(["verify", "--suite", "early-stop", "--out", str(tmp_path)]) == 0
        report = (tmp_path / "verify_early-stop.csv").read_text()
        assert "early_stop_tv" in report and "config_hash=" in report

    def test_partition_suite_passes(self):
        assert main(["verify", "--suite", "partition"]) == 0


class TestAdjacencyCommand:
    def test_report_files(self, tmp_path):
        assert main(["adjacency-report", "--size", "8", "--out", str(tmp_path)]) == 0
        table = (tmp_path / "adjacency_report.csv").read_text()
        assert "tridiagonal,8,7,2" in table
        assert "dense,8,1,7" in table
        assert "hypercube,8,3,3" in table
        for kind in ("tridiagonal", "dense", "hypercube"):
            assert (tmp_path / f"heat_{kind}_8.csv").exists()

    def test_rejects_non_power_of_two(self, tmp_path):
        assert main(["adjacency-report", "--size", "6", "--out", str(tmp_path)]) == 2
