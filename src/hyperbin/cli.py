"""Batch command-line front end.

Subcommands: `quantize` (CSV points -> binary states + grid spec),
`sample` (build an exact oracle from quantized data and draw samples),
`verify` (named desk-scale check suites), `adjacency-report` (structure
table plus heat-kernel CSVs). All outputs are deterministic given the
config and seed, and every output file starts with a `# config_hash=...`
header line. Exit codes: 0 success, 2 config error, 3 verification
failure, 4 IO error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import verify as verify_suites
from .adjacency import KINDS, graph_report, write_heat_kernel_csv
from .chain import EmpiricalInitial
from .metrics import write_metrics_csv
from .quantizer import (
    QuantizerSpec,
    derive_spec,
    quantize_dataset,
    read_points_csv,
    save_spec,
    write_states_csv,
)
from .sampler import SamplerConfig, euler_sample, sample, write_samples_csv, write_stats_csv
from .scores import ExactScoreOracle


class ConfigError(ValueError):
    pass


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


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
        if "sigma" in q:
            return derive_spec(
                d=int(q["d"]),
                sigma=float(q["sigma"]),
                H=float(q["H"]),
                m0=float(q["m0"]),
                eps=float(q["eps"]),
            )
        return QuantizerSpec.from_grid(d=int(q["d"]), L=float(q["L"]), K=int(q["K"]))
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
            n_train = int(gm.get("n_train", 100_000))
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
    s = dict(config.get("sampler") or {})
    eps = float(s.get("eps", 0.1))
    base = SamplerConfig.default_schedule(spec, eps, seed)
    try:
        return SamplerConfig(
            spec=spec,
            eps=eps,
            T=float(s.get("T", base.T)),
            delta=float(s.get("delta", base.delta)),
            seed=seed,
            init=s.get("init", "uniform"),
            method=config.get("method", "uniformization"),
            beta_mode=s.get("beta_mode", "standard"),
        )
    except ValueError as exc:
        raise ConfigError(f"bad sampler config: {exc}") from exc


def _out_dir(args, config: dict) -> Path:
    out = args.out or os.environ.get("HYPERBIN_OUT") or config.get("out") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_quantize(args) -> int:
    config = load_config(args.config)
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    chash = config_hash(config)
    spec = build_quantizer_spec(config)
    points = load_target_points(config, seed)
    if points.shape[1] != spec.d:
        raise ConfigError(f"target has d={points.shape[1]} but quantizer has d={spec.d}")
    states = quantize_dataset(spec, points)
    out = _out_dir(args, config)
    write_states_csv(out / "states.csv", states, header_lines=[f"config_hash={chash}"])
    save_spec(spec, out / "spec.json", config_hash=chash)
    print(f"quantized {len(states)} points to {out / 'states.csv'} (D={spec.n_bits})")
    return 0


def cmd_sample(args) -> int:
    config = load_config(args.config)
    if args.method:
        config["method"] = args.method
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    chash = config_hash({**config, "seed": seed})
    spec = build_quantizer_spec(config)
    points = load_target_points(config, seed)
    states = quantize_dataset(spec, points)
    initial = EmpiricalInitial.from_dataset(states)
    run_config = build_sampler_config(config, spec, seed)
    oracle = ExactScoreOracle(initial, run_config.T)
    n_samples = int(config.get("n_samples", 1000))
    if run_config.method == "euler":
        n_steps = int(config.get("n_steps", 64))
        result = euler_sample(run_config, oracle, n_steps, n_samples)
    else:
        result = sample(run_config, oracle, n_samples)
    out = _out_dir(args, config)
    header = [f"config_hash={chash}"]
    write_samples_csv(out / "samples.csv", result, header_lines=header)
    write_stats_csv(
        out / "stats.csv", run_config.partition(), result.stats, n_samples, header_lines=header
    )
    save_spec(spec, out / "spec.json", config_hash=chash)
    print(
        f"wrote {n_samples} samples to {out / 'samples.csv'} "
        f"(events={result.stats.poisson_events}, score_evals={result.stats.score_evals})"
    )
    return 0


def cmd_verify(args) -> int:
    names = verify_suites.SUITES
    if args.suite not in names:
        print(f"unknown suite {args.suite!r}; valid: {', '.join(sorted(names))}", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else 0
    rows = names[args.suite](seed)
    failed = [r for r in rows if not r.passed]
    for r in rows:
        print(f"{'PASS' if r.passed else 'FAIL'} {args.suite}/{r.name}: {r.detail}")
    out_override = args.out or os.environ.get("HYPERBIN_OUT")
    if out_override:
        out = Path(out_override)
        out.mkdir(parents=True, exist_ok=True)
        chash = config_hash({"suite": args.suite, "seed": seed})
        write_metrics_csv(
            out / f"verify_{args.suite}.csv",
            [
                {
                    "metric": r.name,
                    "value": r.value,
                    "n": r.n,
                    "seed": seed,
                    "config_hash": chash,
                }
                for r in rows
            ],
            header_lines=[f"config_hash={chash}"],
        )
    print(f"{args.suite}: {len(rows) - len(failed)}/{len(rows)} checks passed")
    return 3 if failed else 0


def cmd_adjacency_report(args) -> int:
    n = args.size
    if n < 2 or n & (n - 1):
        print("--size must be a power of two >= 2 (shared across structures)", file=sys.stderr)
        return 2
    out = Path(args.out or os.environ.get("HYPERBIN_OUT") or ".")
    out.mkdir(parents=True, exist_ok=True)
    chash = config_hash({"size": n})
    times = [0.01, 0.1, 0.5, 2.0]
    lines = [f"config_hash={chash}"]
    report_path = out / "adjacency_report.csv"
    with open(report_path, "w", newline="") as fh:
        for line in lines:
            fh.write(f"# {line}\n")
        fh.write("kind,states,diameter,max_out_degree\n")
        for kind in KINDS:
            size = int(math.log2(n)) if kind == "hypercube" else n
            diameter, degree = graph_report(kind, size)
            fh.write(f"{kind},{n},{diameter},{degree}\n")
            write_heat_kernel_csv(
                out / f"heat_{kind}_{n}.csv", kind, size, times, header_lines=lines
            )
    print(f"wrote {report_path} and heat-kernel tables for {KINDS}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hyperbin",
        description="Quantize data onto a binary hypercube and sample back from it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_quant = sub.add_parser("quantize", help="quantize a CSV point set")
    p_quant.add_argument("--config", required=True, help="experiment config (JSON)")
    p_quant.add_argument("--seed", type=int, default=None)
    p_quant.add_argument("--out", default=None, help="output directory")
    p_quant.set_defaults(func=cmd_quantize)

    p_sample = sub.add_parser("sample", help="run the reverse-time sampler")
    p_sample.add_argument("--config", required=True)
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--out", default=None)
    p_sample.add_argument("--method", choices=["uniformization", "euler"], default=None)
    p_sample.set_defaults(func=cmd_sample)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", required=True)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--out", default=None)
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
