"""Command-line front end, and the one module that reads and writes files.

Subcommands: `quantize` (CSV points -> binary states + grid spec),
`sample` (exact oracle from quantized data, then samples), `verify` (one
criterion of the `verify` check catalogue at quick scale),
`adjacency-report` (structure table plus heat-kernel CSVs). Outputs are
deterministic given the config and seed. Exit codes: 0 success, 2 config
error, 3 verification failure, 4 IO error.

Every file format is defined here. Each CSV output opens with one
`# config_hash=<16 hex>` line, the hash of the config with the seed in
use, written by `_open_output`; then come a header row and rows in the csv
module's dialect (CRLF endings; `adjacency_report.csv` uses LF). Floats
are written with `repr`. `spec.json` carries the same hash.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .chain import EmpiricalInitial
from .quantizer import QuantizerSpec, derive_spec, quantize_dataset
from .sampler import (
    RunStats,
    SampleResult,
    SamplerConfig,
    TimePartition,
    euler_sample,
    euler_steps,
    sample,
)
from .scores import ExactScoreOracle

SAMPLE_METHODS = ("uniformization", "euler")
# samples.csv rows formatted per write call; bounds the writer's memory.
_SAMPLE_ROWS_PER_WRITE = 4096


class ConfigError(ValueError):
    pass


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _config_int(key: str, value, floor: int) -> int:
    """An integer config value: a JSON integer or a whole-valued float such
    as 1e5, at least `floor`. Booleans, strings and fractional or non-finite
    numbers raise ConfigError naming the key."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < floor:
        raise ConfigError(f"{key} must be an integer >= {floor}, got {value!r}")
    return value


def _config_float(key: str, value) -> float:
    """A real config value: a finite JSON number. Booleans, strings and
    non-finite numbers raise ConfigError naming the key."""
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        number = float(value) if abs(value) < 2**1024 else math.inf  # huge ints do not convert
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return number


def _seed_option(text: str) -> int:
    """argparse type of `--seed`: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise IOError(f"cannot read config: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return config


def build_quantizer_spec(config: dict) -> QuantizerSpec:
    q = config.get("quantizer")
    if not isinstance(q, dict):
        raise ConfigError("config needs a 'quantizer' object")
    try:
        d = _config_int("d", q["d"], 1)
        if "sigma" in q:
            return derive_spec(
                d=d,
                sigma=_config_float("sigma", q["sigma"]),
                H=_config_float("H", q["H"]),
                m0=_config_float("m0", q["m0"]),
                eps=_config_float("eps", q["eps"]),
            )
        return QuantizerSpec.from_grid(
            d=d, L=_config_float("L", q["L"]), K=_config_int("K", q["K"], 1)
        )
    except KeyError as exc:
        raise ConfigError(f"quantizer config is missing key {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad quantizer config: {exc}") from exc


def load_target_points(config: dict, seed: int) -> np.ndarray:
    target = config.get("target")
    if not isinstance(target, dict):
        raise ConfigError("config needs a 'target' object")
    if "csv" in target:
        try:
            return read_points_csv(target["csv"])
        except ValueError as exc:  # malformed rows are IO-class failures
            raise IOError(str(exc)) from exc
    if "gaussian_mixture" in target:
        gm = target["gaussian_mixture"]
        try:
            weights = np.asarray(gm["weights"], dtype=np.float64)
            means = np.atleast_2d(np.asarray(gm["means"], dtype=np.float64))
            sds = np.asarray(gm["sds"], dtype=np.float64)
            n_train = _config_int("n_train", gm.get("n_train", 100_000), 1)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad gaussian_mixture target: {exc}") from exc
        if means.shape[1] == len(weights) and means.shape[0] == 1:
            means = means.T  # a flat list of scalar means for d = 1
        if not (len(weights) == means.shape[0] == len(sds)):
            raise ConfigError("gaussian_mixture arrays disagree on component count")
        if abs(weights.sum() - 1.0) > 1e-9 or (weights <= 0).any() or (sds <= 0).any():
            raise ConfigError("gaussian_mixture needs positive sds and weights summing to 1")
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
        comp = rng.choice(len(weights), size=n_train, p=weights)
        return means[comp] + sds[comp, None] * rng.standard_normal((n_train, means.shape[1]))
    raise ConfigError("target must provide 'csv' or 'gaussian_mixture'")


def build_sampler_config(config: dict, spec: QuantizerSpec, seed: int) -> SamplerConfig:
    s = config.get("sampler", {})
    if not isinstance(s, dict):
        raise ConfigError("'sampler' must be a JSON object")
    try:
        base = SamplerConfig.default_schedule(spec, _config_float("eps", s.get("eps", 0.1)), seed)
        return SamplerConfig(
            spec=spec,
            T=_config_float("T", s.get("T", base.T)),
            delta=_config_float("delta", s.get("delta", base.delta)),
            seed=seed,
            init=s.get("init", "uniform"),
            beta_mode=s.get("beta_mode", "standard"),
        )
    except ValueError as exc:
        raise ConfigError(f"bad sampler config: {exc}") from exc


def _out_dir(args) -> Path:
    """`--out`, else `HYPERBIN_OUT`, else the working directory; made if missing."""
    path = Path(args.out or os.environ.get("HYPERBIN_OUT") or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


@contextlib.contextmanager
def _open_output(path, config_hash: str):
    """Open `path` for writing (no newline translation) with its
    `# config_hash=...` provenance line already written."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        yield fh


def save_spec(spec: QuantizerSpec, path, config_hash: str) -> None:
    """Write the spec as a flat JSON object: keys d, sigma, H, m0, eps, L,
    l, K and the provenance hash."""
    payload = {k: getattr(spec, k) for k in ("d", "sigma", "H", "m0", "eps", "L", "l", "K")}
    payload["config_hash"] = config_hash
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_points_csv(path) -> np.ndarray:
    """Read an (N, d) point set: one row per point, float columns. Empty
    and `#` comment lines are skipped; the first other row may be a header.
    Malformed rows, non-finite values (nan, inf) and rows of the wrong
    width are reported with their line number."""
    rows = []
    header_seen = False
    with open(path, newline="") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].startswith("#"):
                continue
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                if not (rows or header_seen):
                    header_seen = True
                    continue
                raise ValueError(f"{path}: row {line_no}: {exc}") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}: row {line_no}: non-finite value")
            if rows and len(values) != len(rows[0]):
                raise ValueError(f"{path}: row {line_no}: expected {len(rows[0])} columns")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def write_states_csv(path, states: np.ndarray, config_hash: str) -> None:
    """Write an (N, D) binary state array: header b0..b{D-1}, one row per
    state, 0/1 columns."""
    states = np.atleast_2d(np.asarray(states, dtype=np.uint8))
    with _open_output(path, config_hash) as fh:
        writer = csv.writer(fh)
        writer.writerow([f"b{i}" for i in range(states.shape[1])])
        writer.writerows(states.tolist())


def write_samples_csv(path, result: SampleResult, config_hash: str) -> None:
    """Sample table: (replica, state_index, bitstring, x_0..x_{d-1}).

    `state_index` is the exact little-endian integer of the bits, so any D
    works (it exceeds int64 above D = 63). No field needs quoting, so each
    line is one f-string with the bytes csv.writer would write. Rows are
    formatted and written in blocks of _SAMPLE_ROWS_PER_WRITE, so memory
    does not grow with the number of rows."""
    digits = np.asarray(result.states, dtype=np.uint8) + ord("0")
    bitstrings = digits.view(f"S{digits.shape[1]}").ravel()
    header = ["replica", "state_index", "bitstring"] + [f"x_{j}" for j in range(result.x.shape[1])]
    with _open_output(path, config_hash) as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(bitstrings), _SAMPLE_ROWS_PER_WRITE):
            hi = lo + _SAMPLE_ROWS_PER_WRITE
            rows = zip(range(lo, hi), bitstrings[lo:hi].tolist(), result.x[lo:hi].tolist())
            fh.writelines(
                f"{r},{int(bits[::-1], 2)},{bits.decode()},{','.join(map(repr, x))}\r\n"
                for r, bits, x in rows
            )


def write_stats_csv(
    path, partition: TimePartition, stats: RunStats, n_samples: int, config_hash: str
) -> None:
    """Per-segment summary: (segment, beta, dt, events_mean, score_evals),
    from the rate rows read per segment (one per replica per Euler step)."""
    seg_events = stats.events_per_segment
    means = seg_events / n_samples if n_samples else np.zeros(partition.n_segments)
    rows = zip(partition.betas, np.diff(partition.times), means, seg_events)
    with _open_output(path, config_hash) as fh:
        writer = csv.writer(fh)
        writer.writerow(["segment", "beta", "dt", "events_mean", "score_evals"])
        writer.writerows(
            [w, repr(float(beta)), repr(float(dt)), repr(float(mean)), int(n) * partition.n_bits]
            for w, (beta, dt, mean, n) in enumerate(rows)
        )


def write_heat_kernel_csv(path, kind: str, size: int, times, config_hash: str) -> None:
    """Rows (t, row, col, prob) for each requested time; `size` is as in
    :func:`hyperbin.adjacency.build_rate_matrix`."""
    from .adjacency import heat_kernel, n_states

    n = n_states(kind, size)
    cells = [f"{i},{j}," for i in range(n) for j in range(n)]
    with _open_output(path, config_hash) as fh:
        fh.write("t,row,col,prob\r\n")
        for t in times:
            probs = heat_kernel(kind, size, float(t)).ravel().tolist()
            head = f"{float(t)!r},"
            fh.write("".join([f"{head}{cell}{p!r}\r\n" for cell, p in zip(cells, probs)]))


def cmd_quantize(args) -> int:
    config = load_config(args.config)
    seed = args.seed if args.seed is not None else _config_int("seed", config.get("seed", 0), 0)
    chash = config_hash({**config, "seed": seed})
    spec = build_quantizer_spec(config)
    points = load_target_points(config, seed)
    if points.shape[1] != spec.d:
        raise ConfigError(f"target has d={points.shape[1]} but quantizer has d={spec.d}")
    states = quantize_dataset(spec, points)
    out = _out_dir(args)
    write_states_csv(out / "states.csv", states, chash)
    save_spec(spec, out / "spec.json", chash)
    print(f"quantized {len(states)} points to {out / 'states.csv'} (D={spec.n_bits})")
    return 0


def cmd_sample(args) -> int:
    config = load_config(args.config)
    if args.method:
        config["method"] = args.method
    method = config.get("method", "uniformization")
    if method not in SAMPLE_METHODS:
        raise ConfigError(f"unknown method {method!r}; valid: {', '.join(SAMPLE_METHODS)}")
    seed = args.seed if args.seed is not None else _config_int("seed", config.get("seed", 0), 0)
    chash = config_hash({**config, "seed": seed})
    spec = build_quantizer_spec(config)
    points = load_target_points(config, seed)
    states = quantize_dataset(spec, points)
    initial = EmpiricalInitial.from_dataset(states)
    run_config = build_sampler_config(config, spec, seed)
    oracle = ExactScoreOracle(initial, run_config.T)
    n_samples = _config_int("n_samples", config.get("n_samples", 1000), 0)
    if method == "euler":
        n_steps = _config_int("n_steps", config.get("n_steps", 64), 1)
        result = euler_sample(run_config, oracle, n_steps, n_samples)
        partition = euler_steps(run_config, n_steps)
    else:
        result = sample(run_config, oracle, n_samples)
        partition = run_config.partition()
    out = _out_dir(args)
    write_samples_csv(out / "samples.csv", result, chash)
    write_stats_csv(out / "stats.csv", partition, result.stats, n_samples, chash)
    save_spec(spec, out / "spec.json", chash)
    print(
        f"wrote {n_samples} samples to {out / 'samples.csv'} "
        f"(events={result.stats.poisson_events}, score_evals={result.stats.score_evals}, "
        f"queried_rows={result.stats.queried_rows})"
    )
    return 0


def cmd_verify(args) -> int:
    # `verify` and `adjacency` load scipy, so only the commands that use
    # them import them (here and in the adjacency-report code); quantize and
    # sample load numpy only. On a 2-vCPU Xeon VM, importing this module
    # takes 0.24 s and 32 MB max RSS, `hyperbin.verify` 1.6 s and 99 MB.
    from . import verify

    names = verify.SUITES
    if args.suite not in names:
        print(f"unknown suite {args.suite!r}; valid: {', '.join(sorted(names))}", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else 0
    rows = names[args.suite]("quick", seed)
    failed = [r for r in rows if not r.passed]
    for r in rows:
        print(f"{'PASS' if r.passed else 'FAIL'} {args.suite}/{r.name}: {r.detail}")
    if args.out or os.environ.get("HYPERBIN_OUT"):  # the table is written only on request
        out = _out_dir(args)
        chash = config_hash({"suite": args.suite, "seed": seed})
        with _open_output(out / f"verify_{args.suite}.csv", chash) as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "value", "n", "seed", "config_hash"])
            writer.writerows([r.name, repr(float(r.value)), r.n, seed, chash] for r in rows)
    print(f"{args.suite}: {len(rows) - len(failed)}/{len(rows)} checks passed")
    return 3 if failed else 0


def cmd_adjacency_report(args) -> int:
    from .adjacency import KINDS, MAX_STATES, graph_report

    n = args.size
    if n < 2 or n & (n - 1) or n > MAX_STATES:
        print(f"--size must be a power of two in [2, {MAX_STATES}]", file=sys.stderr)
        return 2
    out = _out_dir(args)
    chash = config_hash({"size": n})
    times = [0.01, 0.1, 0.5, 2.0]
    report_path = out / "adjacency_report.csv"
    with _open_output(report_path, chash) as fh:
        fh.write("kind,states,diameter,max_out_degree\n")
        for kind in KINDS:
            size = int(math.log2(n)) if kind == "hypercube" else n
            diameter, degree = graph_report(kind, size)
            fh.write(f"{kind},{n},{diameter},{degree}\n")
            write_heat_kernel_csv(out / f"heat_{kind}_{n}.csv", kind, size, times, chash)
    print(f"wrote {report_path} and heat-kernel tables for {KINDS}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hyperbin",
        description="Quantize data onto a binary hypercube and sample back from it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_seed_option, default=None)
    seeded.add_argument("--out", default=None, help="output directory")

    p_quant = sub.add_parser("quantize", parents=[seeded], help="quantize a CSV point set")
    p_quant.add_argument("--config", required=True, help="experiment config (JSON)")
    p_quant.set_defaults(func=cmd_quantize)

    p_sample = sub.add_parser("sample", parents=[seeded], help="run the reverse-time sampler")
    p_sample.add_argument("--config", required=True)
    p_sample.add_argument("--method", choices=SAMPLE_METHODS, default=None)
    p_sample.set_defaults(func=cmd_sample)

    p_verify = sub.add_parser("verify", parents=[seeded], help="run a named verification suite")
    p_verify.add_argument("--suite", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_adj = sub.add_parser("adjacency-report", help="structure and heat-kernel tables")
    p_adj.add_argument("--size", type=int, default=8, help="number of states (power of two)")
    p_adj.add_argument("--out", default=None)
    p_adj.set_defaults(func=cmd_adjacency_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (IOError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
