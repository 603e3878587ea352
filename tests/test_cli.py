import csv
import io
import json
import math
import re

import numpy as np
import pytest

from hyperbin import verify as verify_suites
from hyperbin.adjacency import MAX_STATES
from hyperbin.cli import (
    build_quantizer_spec,
    main,
    read_points_csv,
    write_samples_csv,
    write_stats_csv,
)
from hyperbin.sampler import RunStats, SampleResult, TimePartition, beta_value, build_partition


def write_config(path, config):
    path.write_text(json.dumps(config))
    return str(path)


def read_states(path):
    """The 0/1 rows of a states.csv, below its hash line and header."""
    return np.loadtxt(path, delimiter=",", skiprows=2, dtype=np.uint8, ndmin=2)


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


def integer_keys_config():
    """A small Euler run from a Gaussian mixture, which reads every integer
    config key: d, K, n_train, n_samples, n_steps and seed."""
    mixture = {"weights": [1.0], "means": [0.0], "sds": [1.0], "n_train": 200}
    return {
        "target": {"gaussian_mixture": mixture},
        "quantizer": {"d": 1, "L": 4.0, "K": 8},
        "method": "euler",
        "n_samples": 20,
        "n_steps": 4,
        "seed": 1,
    }


# quantizer keys that derive the grid in place of L and K
DERIVED_GRID = {"sigma": 1.0, "H": 1.0, "m0": 1.0, "eps": 0.2}


def section_of(config, key):
    """The object of `config` that holds `key`."""
    if key in ("d", "K"):
        return config["quantizer"]
    return config["target"]["gaussian_mixture"] if key == "n_train" else config


class TestQuantizeCommand:
    def test_row_cardinality(self, tmp_path, quantize_config):
        out = tmp_path / "out"
        assert main(["quantize", "--config", quantize_config, "--out", str(out)]) == 0
        assert read_states(out / "states.csv").shape == (3, 3)
        assert json.loads((out / "spec.json").read_text())["K"] == 8

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

    @pytest.mark.parametrize(
        "quantizer",
        [
            {"d": 1, "L": 1.0, "K": 2**64},
            {"d": 1, "sigma": 1.0, "H": 1.0, "m0": 1.0, "eps": 1e-20},  # K = 2^76
        ],
    )
    def test_more_than_63_bits_per_axis_exits_2(self, tmp_path, capsys, points_csv, quantizer):
        config = write_config(
            tmp_path / "c.json", {"target": {"csv": points_csv}, "quantizer": quantizer}
        )
        assert main(["quantize", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert "63 bits per axis" in capsys.readouterr().err

    def test_dequantized_mean_shift_bounded_by_cell_width(self, tmp_path, quantize_config):
        # quantize -> decode cell -> cell midpoints; the mean moves < l
        out = tmp_path / "out"
        main(["quantize", "--config", quantize_config, "--out", str(out)])
        spec = build_quantizer_spec(json.loads(open(quantize_config).read()))
        from hyperbin.quantizer import cell_bounds, vbin_decode

        idx = vbin_decode(spec, read_states(out / "states.csv"))
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

    def test_unknown_method_exits_2(self, tmp_path, capsys, sample_config):
        config = json.loads(open(sample_config).read())
        path = write_config(tmp_path / "rk4.json", {**config, "method": "rk4"})
        assert main(["sample", "--config", path, "--out", str(tmp_path / "rk4")]) == 2
        assert "unknown method 'rk4'" in capsys.readouterr().err

    def test_stats_match_partition(self, tmp_path, sample_config):
        out = tmp_path / "stats_check"
        main(["sample", "--config", sample_config, "--out", str(out)])
        config = json.loads(open(sample_config).read())
        spec = build_quantizer_spec(config)
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

    def test_euler_stats_have_one_row_per_step(self, tmp_path, capsys, sample_config):
        config = json.loads(open(sample_config).read())
        path = write_config(tmp_path / "euler.json", {**config, "n_steps": 16})
        out = tmp_path / "euler"
        assert main(["sample", "--config", path, "--out", str(out), "--method", "euler"]) == 0
        printed = int(re.search(r"score_evals=(\d+)", capsys.readouterr().out).group(1))
        with open(out / "stats.csv", newline="") as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")][1:]
        spec = build_quantizer_spec(config)
        eps = config["sampler"]["eps"]
        T = math.log(spec.d / eps) + math.log(spec.m)
        h = (T - eps / (spec.d * spec.m)) / 16
        assert len(rows) == 16
        assert [float(r[1]) for r in rows] == [beta_value(spec.n_bits, T, k * h) for k in range(16)]
        assert [float(r[2]) for r in rows] == pytest.approx([h] * 16, rel=1e-12)
        assert all(float(r[3]) == 1.0 for r in rows)
        assert sum(int(r[4]) for r in rows) == printed == 400 * 16 * spec.n_bits

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

    @pytest.mark.parametrize(
        "key, value",
        [
            ("d", 1.9),
            ("d", True),
            ("d", 0),
            ("K", 64.5),
            ("K", "8"),
            ("n_train", 1000.7),
            ("n_train", 0),
            ("n_samples", 10.9),
            ("n_samples", -1),
            ("n_samples", math.inf),
            ("n_steps", True),
            ("n_steps", 0),
            ("seed", 2.5),
            ("seed", -1),
            ("seed", math.nan),
        ],
    )
    def test_integer_keys_reject_other_values(self, tmp_path, capsys, key, value):
        # a cast would run 1.9 as d = 1, 10.9 as 10 samples and true as 1 step
        config = integer_keys_config()
        section_of(config, key)[key] = value
        path = write_config(tmp_path / "c.json", config)
        assert main(["sample", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert f"{key} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, entries, args, message",
        [
            ("quantizer", {"L": True}, [], "L must be a finite number, got True"),
            ("quantizer", {"L": "4"}, [], "L must be a finite number, got '4'"),
            ("quantizer", {**DERIVED_GRID, "sigma": True}, [], "sigma must be a finite number"),
            ("quantizer", {**DERIVED_GRID, "H": math.inf}, [], "H must be a finite number"),
            ("quantizer", {**DERIVED_GRID, "m0": "1"}, [], "m0 must be a finite number"),
            ("quantizer", {**DERIVED_GRID, "eps": False}, [], "eps must be a finite number"),
            ("sampler", {"eps": "abc"}, [], "eps must be a finite number, got 'abc'"),
            ("sampler", {"T": True}, [], "T must be a finite number, got True"),
            ("sampler", {"T": "3"}, [], "T must be a finite number, got '3'"),
            ("sampler", {"delta": math.nan}, [], "delta must be a finite number, got nan"),
            ("sampler", {"delta": 1e-320}, [], "T - delta < T, got delta=1e-320"),
            ("sampler", [], [], "'sampler' must be a JSON object"),
            (None, None, ["--seed", "-1"], "argument --seed: must be a non-negative integer"),
            (
                "sampler",
                {"T": 1e-300, "delta": 1e-310},
                ["--method", "uniformization"],
                "delta=1e-310 is too small for T=1e-300",
            ),
        ],
    )
    def test_probes_exit_2_naming_the_key(self, tmp_path, capsys, section, entries, args, message):
        # float() would run true as 1.0 and "3" as 3.0; delta = 1e-320
        # would refine the partition forever, and delta = 1e-310 under
        # T = 1e-300 would overflow the last cap and sample forever
        config = integer_keys_config()
        if isinstance(entries, dict):
            config[section] = {**config.get(section, {}), **entries}
        elif section:
            config[section] = entries
        path = write_config(tmp_path / "c.json", config)
        try:
            code = main(["sample", "--config", path, "--out", str(tmp_path / "o"), *args])
        except SystemExit as exc:  # argparse rejects an option value
            code = exc.code
        assert code == 2 and message in capsys.readouterr().err

    def test_whole_valued_floats_read_as_integers(self, tmp_path):
        outputs = []
        for cast in (int, float):
            config = integer_keys_config()
            for key in ("d", "K", "n_train", "n_samples", "n_steps", "seed"):
                section_of(config, key)[key] = cast(section_of(config, key)[key])
            path = write_config(tmp_path / f"{cast.__name__}.json", config)
            out = tmp_path / cast.__name__
            assert main(["sample", "--config", path, "--out", str(out)]) == 0
            # below the provenance line, which hashes the config as written
            outputs.append((out / "samples.csv").read_text().split("\n", 1)[1])
        assert outputs[0] == outputs[1]

    def test_eighty_bit_states_reach_the_output(self, tmp_path):
        # d=8, K=1024: D = 80 bits, past the int64 range of a state index
        points = tmp_path / "points8.csv"
        points.write_text("0.5,-0.25,0.75,0,0.1,-0.9,0.3,0.6\n-0.5,0.25,0.1,0.2,0.3,0.4,-0.1,0\n")
        config = write_config(
            tmp_path / "d80.json",
            {
                "target": {"csv": str(points)},
                "quantizer": {"d": 8, "L": 2.0, "K": 1024},
                "n_samples": 10,
                "seed": 2,
            },
        )
        out = tmp_path / "d80"
        assert main(["sample", "--config", config, "--out", str(out)]) == 0
        with open(out / "samples.csv", newline="") as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")][1:]
        assert len(rows) == 10
        assert all(len(r[2]) == 80 and int(r[1]) == int(r[2][::-1], 2) for r in rows)

    def test_header_after_provenance_lines(self, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("# source=demo\nx0\n0.5\n-1.0")
        config = write_config(
            tmp_path / "c.json",
            {"target": {"csv": str(points)}, "quantizer": {"d": 1, "L": 2.0, "K": 8}, "n_samples": 50},
        )
        assert main(["sample", "--config", config, "--out", str(tmp_path / "o")]) == 0

    def test_quantize_and_sample_share_config_hash(self, tmp_path, sample_config):
        q, s = tmp_path / "q", tmp_path / "s"
        assert main(["quantize", "--config", sample_config, "--seed", "9", "--out", str(q)]) == 0
        assert main(["sample", "--config", sample_config, "--seed", "9", "--out", str(s)]) == 0
        first_line = lambda path: path.read_text().splitlines()[0]
        assert first_line(q / "states.csv") == first_line(s / "samples.csv")
        assert first_line(q / "states.csv").startswith("# config_hash=")

    def test_config_hash_header_present(self, tmp_path, sample_config):
        out = tmp_path / "hash_check"
        main(["sample", "--config", sample_config, "--out", str(out)])
        first = (out / "samples.csv").read_text().splitlines()[0]
        assert first.startswith("# config_hash=") and len(first) > 16


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", list(verify_suites.SUITES))
    def test_every_suite_passes(self, capsys, suite):
        assert main(["verify", "--suite", suite]) == 0
        lines = capsys.readouterr().out.splitlines()
        passed = [line for line in lines if line.startswith(f"PASS {suite}/")]
        assert passed and lines == passed + [f"{suite}: {len(passed)}/{len(passed)} checks passed"]

    def test_unknown_suite_lists_names(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in verify_suites.SUITES)

    def test_failure_exits_3(self, capsys, monkeypatch):
        def failing(scale, seed):
            return [verify_suites.CheckRow("always_fails", False, 1.0, 1, "forced")]

        monkeypatch.setitem(verify_suites.SUITES, "kernel", failing)
        assert main(["verify", "--suite", "kernel"]) == 3
        assert "FAIL kernel/always_fails" in capsys.readouterr().out

    def test_euler_ladder_without_match_reports_a_lower_bound(self, capsys, monkeypatch):
        # 32 Euler steps stay far above the match floor
        monkeypatch.setattr(verify_suites, "EULER_LADDER", (32,))
        assert main(["verify", "--suite", "euler-baseline"]) == 3
        out = capsys.readouterr().out
        assert "no match up to 32 steps -> evaluation ratio >= 0.3 " in out

    def test_euler_baseline_row_is_exact(self):
        # nothing is sampled; tests/test_verify.py checks that the row is
        # the same at both scales and every seed
        [row] = verify_suites.check_c10("full", 1010)
        assert row.passed and "match at 512 steps -> evaluation ratio 5.2 " in row.detail
        assert "97.72 expected events" in row.detail and "TV 0.0058 of 1e5" in row.detail

    def test_partition_event_count_follows_seed(self, capsys):
        means = []
        for seed in ("0", "1"):
            assert main(["verify", "--suite", "partition", "--seed", seed]) == 0
            means.append(re.search(r"empirical mean (\S+)", capsys.readouterr().out).group(1))
        assert means[0] != means[1]

    def test_partition_catches_left_endpoint_caps(self, monkeypatch):
        def left_caps(D, T, delta, beta_mode="standard"):
            part = build_partition(D, T, delta, beta_mode)
            betas = beta_value(D, T, part.times[:-1], beta_mode)
            return TimePartition(part.times, betas, part.T, part.delta, D)

        monkeypatch.setattr(verify_suites, "build_partition", left_caps)
        [row] = verify_suites.check_c04("quick", 0)
        assert not row.passed and "50 invalid grids" in row.detail

    def test_report_csv_records_measurement(self, tmp_path, capsys):
        assert main(["verify", "--suite", "early-stop", "--out", str(tmp_path)]) == 0
        report = (tmp_path / "verify_early-stop.csv").read_text()
        assert "early_stop_tv" in report and "config_hash=" in report


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

    def test_rejects_size_above_dense_cap_before_writing(self, tmp_path):
        out = tmp_path / "out"
        assert main(["adjacency-report", "--size", str(2 * MAX_STATES), "--out", str(out)]) == 2
        assert not out.exists()


class TestFileFormats:
    # (arguments, files written) for every command that writes files
    SAMPLE_FILES = ["samples.csv", "spec.json", "stats.csv"]
    HEAT_FILES = [f"heat_{kind}_4.csv" for kind in ("dense", "hypercube", "tridiagonal")]
    COMMANDS = {
        "quantize": (["quantize"], ["spec.json", "states.csv"]),
        "sample": (["sample"], SAMPLE_FILES),
        "sample-euler": (["sample", "--method", "euler"], SAMPLE_FILES),
        "verify": (["verify", "--suite", "kernel"], ["verify_kernel.csv"]),
        "adjacency-report": (
            ["adjacency-report", "--size", "4"], ["adjacency_report.csv"] + HEAT_FILES
        ),
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_every_output_starts_with_the_config_hash(self, tmp_path, sample_config, command):
        args, names = self.COMMANDS[command]
        if args[0] in ("quantize", "sample"):
            args = args + ["--config", sample_config]
        out = tmp_path / "out"
        assert main(args + ["--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == names
        [first] = {(out / n).read_text().splitlines()[0] for n in names if n.endswith(".csv")}
        assert re.fullmatch(r"# config_hash=[0-9a-f]{16}", first)
        if "spec.json" in names:
            spec = json.loads((out / "spec.json").read_text())
            assert spec["config_hash"] == first.removeprefix("# config_hash=")

    # Literal inputs and bytes: no RNG, BLAS or libm is involved, so the
    # expected text holds on every build.
    HASH = "0123456789abcdef"
    HEADER = f"# config_hash={HASH}\n"

    @pytest.mark.parametrize(
        "states, x, rows",
        [
            (
                [[1, 0, 1], [0, 1, 1]],
                [[0.5, -1.25], [0.1, 3e-17]],
                "replica,state_index,bitstring,x_0,x_1\r\n"
                "0,5,101,0.5,-1.25\r\n"
                "1,6,011,0.1,3e-17\r\n",
            ),
            (
                [[1] * 70, [0] * 69 + [1]],
                [[-0.0], [1e300]],
                "replica,state_index,bitstring,x_0\r\n"
                f"0,1180591620717411303423,{'1' * 70},-0.0\r\n"
                f"1,590295810358705651712,{'0' * 69}1,1e+300\r\n",
            ),
            (np.empty((0, 3)), np.empty((0, 2)), "replica,state_index,bitstring,x_0,x_1\r\n"),
            (
                [[1], [0]],
                [[5e-324, 1e16, 1 / 3], [-1 / 3, -1e16, -5e-324]],
                "replica,state_index,bitstring,x_0,x_1,x_2\r\n"
                "0,1,1,5e-324,1e+16,0.3333333333333333\r\n"
                "1,0,0,-0.3333333333333333,-1e+16,-5e-324\r\n",
            ),
        ],
        ids=["D3", "D70", "empty", "D1-d3"],
    )
    def test_samples_csv_bytes(self, tmp_path, states, x, rows):
        result = SampleResult(
            x=np.array(x), states=np.array(states, dtype=np.uint8), stats=RunStats()
        )
        write_samples_csv(tmp_path / "samples.csv", result, self.HASH)
        assert (tmp_path / "samples.csv").read_bytes() == (self.HEADER + rows).encode()

    @pytest.mark.parametrize("rows_per_write", [7, None])
    @pytest.mark.parametrize("D", [6, 64, 80])
    def test_samples_csv_matches_the_csv_module(self, tmp_path, monkeypatch, D, rows_per_write):
        # the writer as it was with csv.writer: the same bytes on random rows,
        # also when they go out in blocks of 7 (the last one short)
        if rows_per_write:
            monkeypatch.setattr("hyperbin.cli._SAMPLE_ROWS_PER_WRITE", rows_per_write)
        gen = np.random.default_rng(D)
        states = gen.integers(0, 2, (300, D), dtype=np.uint8)
        x = gen.standard_normal((300, 2)) * 10.0 ** gen.integers(-320, 300, (300, 2))
        write_samples_csv(tmp_path / "samples.csv", SampleResult(x, states, RunStats()), self.HASH)
        want = io.StringIO(newline="")
        want.write(self.HEADER)
        writer = csv.writer(want)
        writer.writerow(["replica", "state_index", "bitstring", "x_0", "x_1"])
        for r, (row, point) in enumerate(zip(states.tolist(), x.tolist())):
            bits = "".join(map(str, row))
            writer.writerow([r, int(bits[::-1], 2), bits, *map(repr, point)])
        assert (tmp_path / "samples.csv").read_bytes() == want.getvalue().encode()

    @pytest.mark.parametrize(
        "events, rows",
        [
            ([7, 2], "0,4.0,0.5,1.75,21\r\n1,6.0,0.25,0.5,6\r\n"),
            ([4, 4], "0,4.0,0.5,1.0,12\r\n1,6.0,0.25,1.0,12\r\n"),  # Euler: one query per step
        ],
        ids=["uniformization", "euler"],
    )
    def test_stats_csv_bytes(self, tmp_path, events, rows):
        partition = TimePartition([0.0, 0.5, 0.75], [4.0, 6.0], T=1.0, delta=0.25, n_bits=3)
        stats = RunStats(events_per_segment=np.array(events))
        write_stats_csv(tmp_path / "stats.csv", partition, stats, 4, self.HASH)
        header = "segment,beta,dt,events_mean,score_evals\r\n"
        assert (tmp_path / "stats.csv").read_bytes() == (self.HEADER + header + rows).encode()
