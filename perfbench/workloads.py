"""The benchmark's four workloads: inputs made from the workload seed, one
op, and the correctness checks applied to every op.

Each op calls a public entry point on a fresh seed derived from the
workload seed: ``sample`` for the three uniformization workloads, and the
in-process ``hyperbin sample --method euler`` command for ``cli_euler``.
Checks use ``hyperbin.metrics`` and run outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from hyperbin import cli
from hyperbin.bits import index_to_state, state_to_index
from hyperbin.chain import EmpiricalInitial
from hyperbin.metrics import EmpiricalLaw, kl_exact, tv_plugin
from hyperbin.quantizer import QuantizerSpec, cell_bounds, quantize_dataset, vbin_decode
from hyperbin.sampler import (
    BATCH_THRESHOLD,
    RunStats,
    SamplerConfig,
    exact_reverse_marginal,
    sample,
)
from hyperbin.scores import ExactScoreOracle, PerturbedScoreOracle, score_entropy_loss

from spans import NullTracer, proxied

# Per-op false-alarm rate of each statistical check on correct code.
ALPHA = 1e-6
# Two-sided z bound on the event count; P(|z| > 5) is about 6e-7.
EVENT_Z = 5.0


def op_seed(seed: int, op: int) -> int:
    return int(np.random.SeedSequence([seed, op]).generate_state(1)[0])


def tv_threshold(p: np.ndarray, n: int) -> float:
    """Plug-in TV that n correct draws from p exceed with probability at
    most ALPHA: E[TV] <= 0.5 sum sqrt(p(1-p)/n) (Jensen), plus the
    McDiarmid deviation sqrt(ln(1/ALPHA) / 2n), since one draw moves TV
    by at most 1/n."""
    return 0.5 * float(np.sqrt(p * (1 - p) / n).sum()) + math.sqrt(math.log(1 / ALPHA) / (2 * n))


def random_support(rng: np.random.Generator, D: int, size: int) -> EmpiricalInitial:
    """`size` distinct random states with random positive weights."""
    states = index_to_state(rng.choice(1 << D, size=size, replace=False), D)
    weights = rng.random(size) + 0.1
    return EmpiricalInitial(states=states, weights=weights / weights.sum())


@dataclass
class OpOutput:
    replicas: int
    stats: RunStats
    engine: str
    states: np.ndarray | None = None
    x: np.ndarray | None = None
    rows_steps: int = 0  # replica-steps of a fixed-step op
    bytes_written: int = 0
    support: int = 0


@dataclass
class Workload:
    """Base: `setup` is what set-up time measures; `prepare_checks` builds
    reference laws outside it."""

    warmup: bool = True
    # Scale op times to reference speed (hostspeed.py). Off where an op runs
    # long enough to average the host's speed itself.
    scale_ops: bool = True
    seed: int = 0
    tracer: object = field(default_factory=NullTracer)

    def attach(self, tracer) -> None:
        self.tracer = tracer

    def prepare_checks(self) -> None:
        pass

    def run_op(self, op: int) -> OpOutput:
        raise NotImplementedError

    def check(self, out: OpOutput) -> list[str]:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks on the law pooled over every op of the run."""
        return []

    def summary(self) -> str:
        return ""


@dataclass
class SamplerWorkload(Workload):
    """`sample()` on a prepared oracle; subclasses build inputs and the
    law check."""

    n_samples: int = 2000
    exact_oracle: bool = True
    # Worst per-op statistic as a share of its threshold; pooled (statistic, threshold).
    worst: float = 0.0
    pooled: list = field(default_factory=list)
    pooled_result: tuple = (math.nan, math.nan)

    def attach(self, tracer) -> None:
        super().attach(tracer)
        self.op_oracle = self.oracle if isinstance(tracer, NullTracer) else proxied(self.oracle, tracer)

    def _finish_setup(self, spec, initial, config, oracle) -> None:
        self.spec, self.initial, self.config, self.oracle = spec, initial, config, oracle
        self.partition = config.partition()
        self.op_oracle = oracle

    def run_op(self, op: int) -> OpOutput:
        config = replace(self.config, seed=op_seed(self.seed, op))
        with self.tracer.span("sampler.sample"):
            result = sample(config, self.op_oracle, self.n_samples)
        engine = "batched" if self.n_samples > BATCH_THRESHOLD else "replica"
        return OpOutput(
            self.n_samples, result.stats, engine, result.states, result.x,
            support=len(self.initial.weights),
        )

    def law_check(self, states: np.ndarray) -> tuple[float, float]:
        """(statistic, threshold) of the sampled law against the exact one."""
        raise NotImplementedError

    def check(self, out: OpOutput) -> list[str]:
        st, n, D = out.stats, out.replicas, self.config.n_bits
        problems = []
        if st.score_evals != D * st.poisson_events:
            problems.append(f"score_evals {st.score_evals} != D*events {D * st.poisson_events}")
        lam = n * self.partition.expected_events()
        z = (st.poisson_events - lam) / math.sqrt(lam)
        if abs(z) > EVENT_Z:
            problems.append(f"event count {st.poisson_events} is {z:.1f} sigma from {lam:.0f}")
        if self.exact_oracle and st.truncation_activations:
            problems.append(f"{st.truncation_activations} truncations under the exact oracle")
        lower, upper = cell_bounds(self.spec, vbin_decode(self.spec, out.states))
        if not ((out.x >= lower) & (out.x <= upper)).all():
            problems.append("a decoded x lies outside its state's cell")
        value, bound = self.law_check(out.states)
        self.worst = max(self.worst, value / bound)
        if value > bound:
            problems.append(f"law statistic {value:.4f} > {bound:.4f}")
        self.pooled.append(out.states)
        return problems

    def finish(self) -> list[str]:
        if not self.pooled:
            return []
        value, bound = self.law_check(np.concatenate(self.pooled))
        self.pooled_result = (value, bound)
        return [] if value <= bound else [f"pooled law statistic {value:.4f} > {bound:.4f}"]


@dataclass
class NarrowD6(SamplerWorkload):
    """D=6, 10-point random support, exact-terminal init, standard cap."""

    support_size: int = 10

    def setup(self, seed: int) -> None:
        self.seed = seed
        spec = QuantizerSpec.from_grid(d=1, L=4.0, K=64)
        initial = random_support(np.random.default_rng([seed, 1]), spec.n_bits, self.support_size)
        config = self._config(spec, seed)
        self._finish_setup(spec, initial, config, self._oracle(initial, config, seed))

    def _config(self, spec, seed):
        return SamplerConfig.default_schedule(spec, 0.1, seed=seed, init="exact-terminal")

    def _oracle(self, initial, config, seed):
        return ExactScoreOracle(initial, config.T)

    def prepare_checks(self) -> None:
        c = self.config
        self.target = exact_reverse_marginal(self.initial, c.T, c.T - c.delta)

    def law_check(self, states):
        law = EmpiricalLaw.from_indices(state_to_index(states))
        return tv_plugin(law, self.target), tv_threshold(self.target, len(states))

    def summary(self) -> str:
        v, b = self.pooled_result
        return (
            f"plug-in TV vs exact early-stopped law: worst op at {self.worst:.3f} of its "
            f"threshold (alpha={ALPHA:g}); pooled TV {v:.4f} <= {b:.4f}"
        )


@dataclass
class PerturbedTightD6(NarrowD6):
    """The D=6 instance behind PerturbedScoreOracle at noise 0.5 and the
    tight cap: the configuration in which truncation fires."""

    noise_scale: float = 0.5
    exact_oracle: bool = False

    def _config(self, spec, seed):
        return SamplerConfig.default_schedule(
            spec, 0.1, seed=seed, init="exact-terminal", beta_mode="tight"
        )

    def _oracle(self, initial, config, seed):
        return PerturbedScoreOracle(ExactScoreOracle(initial, config.T), self.noise_scale, seed)

    def prepare_checks(self) -> None:
        super().prepare_checks()
        c = self.config
        grid = np.linspace(1e-3, c.T, 129)
        self.loss = score_entropy_loss(self.oracle, self.initial, c.T, grid)
        self.kl_bound = (c.T - c.delta) * self.loss + 0.02

    def law_check(self, states):
        law = EmpiricalLaw.from_indices(state_to_index(states))
        return kl_exact(self.target, law.to_smoothed(len(self.target))), self.kl_bound

    def summary(self) -> str:
        v, b = self.pooled_result
        return (
            f"smoothed KL vs exact law <= (T-delta)*L_SE + 0.02 with L_SE={self.loss:.4f}: "
            f"worst op at {self.worst:.3f} of the bound; pooled KL {v:.4f} <= {b:.4f}"
        )


@dataclass
class WideD12(SamplerWorkload):
    """2-D two-component Gaussian mixture at K=64 (D=12), uniform init."""

    n_train: int = 100_000
    n_samples: int = 520
    warmup: bool = False
    scale_ops: bool = False

    def setup(self, seed: int) -> None:
        self.seed = seed
        spec = QuantizerSpec.from_grid(d=2, L=4.0, K=64)
        rng = np.random.default_rng([seed, 2])
        means = np.array([[-1.5, -1.0], [1.5, 1.0]])
        points = means[rng.integers(0, 2, self.n_train)] + 0.8 * rng.standard_normal((self.n_train, 2))
        with self.tracer.span("quantizer.quantize"):
            states = quantize_dataset(spec, points)
        initial = EmpiricalInitial.from_dataset(states)
        config = SamplerConfig.default_schedule(spec, 0.1, seed=seed)
        self._finish_setup(spec, initial, config, ExactScoreOracle(initial, config.T))

    def prepare_checks(self) -> None:
        # Bits flip independently, so one axis's bits follow the same chain
        # on m bits started from that axis's projection of the support; its
        # dense law, indexed like vbin_decode, is the exact axis marginal.
        c, m = self.config, self.spec.m
        self.axis_targets = [
            exact_reverse_marginal(
                EmpiricalInitial(self.initial.states[:, a * m : (a + 1) * m], self.initial.weights),
                c.T,
                c.T - c.delta,
            )
            for a in range(self.spec.d)
        ]

    def law_check(self, states):
        grid = vbin_decode(self.spec, states)
        n = len(states)
        ratios = []
        for a, p in enumerate(self.axis_targets):
            emp = np.bincount(grid[:, a], minlength=self.spec.K) / n
            ratios.append((0.5 * float(np.abs(emp - p).sum()), tv_threshold(p, n)))
        return max(ratios, key=lambda vb: vb[0] / vb[1])

    def summary(self) -> str:
        v, b = self.pooled_result
        return (
            f"per-axis TV vs exact early-stopped law: worst op at {self.worst:.3f} of its "
            f"threshold (alpha={ALPHA:g}); pooled worst axis {v:.4f} <= {b:.4f}"
        )


@dataclass
class CliEuler(Workload):
    """`hyperbin sample --method euler` in process, one fresh output
    directory per op."""

    work_dir: Path = Path(".")
    n_train: int = 50_000
    n_samples: int = 2000
    n_steps: int = 64
    captured: list = field(default_factory=list)

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.spec = QuantizerSpec.from_grid(d=1, L=4.0, K=64)
        config = {
            "quantizer": {"d": 1, "L": self.spec.L, "K": self.spec.K},
            "target": {
                "gaussian_mixture": {
                    "weights": [0.5, 0.5],
                    "means": [-1.5, 1.5],
                    "sds": [0.5, 0.5],
                    "n_train": self.n_train,
                }
            },
            "n_samples": self.n_samples,
            "n_steps": self.n_steps,
        }
        self.config_path = self.work_dir / "config.json"
        self.config_path.write_text(json.dumps(config))

    def capture(self, result) -> None:
        """Receives the CLI's SampleResult in traced runs."""
        self.captured.append(result)

    def run_op(self, op: int) -> OpOutput:
        out_dir = self.work_dir / f"op{op}"
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = ["sample", "--config", str(self.config_path), "--method", "euler",
                "--seed", str(op_seed(self.seed, op)), "--out", str(out_dir)]
        stdout = io.StringIO()
        with self.tracer.span("cli.main"), contextlib.redirect_stdout(stdout):
            rc = cli.main(argv)
        self.last = (rc, out_dir)
        if self.captured:
            stats = self.captured.pop().stats
        else:
            found = re.search(r"events=(\d+), score_evals=(\d+)", stdout.getvalue())
            stats = RunStats()
            if found:
                stats.poisson_events, stats.score_evals = (int(g) for g in found.groups())
        files = [out_dir / f for f in ("samples.csv", "stats.csv", "spec.json")]
        return OpOutput(
            self.n_samples, stats, "euler", rows_steps=self.n_samples * self.n_steps,
            bytes_written=sum(f.stat().st_size for f in files if f.exists()),
            support=getattr(self.tracer, "notes", {}).get("support", 0),
        )

    def check(self, out: OpOutput) -> list[str]:
        rc, out_dir = self.last
        try:
            return self._check_files(rc, out, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _check_files(self, rc, out, out_dir) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        D = self.spec.n_bits
        expected = self.n_samples * self.n_steps * D
        problems = []
        if out.stats.score_evals != expected:
            problems.append(f"score_evals {out.stats.score_evals} != n*steps*D {expected}")
        for name in ("samples.csv", "stats.csv"):
            with open(out_dir / name) as fh:
                if not fh.readline().startswith("# config_hash="):
                    problems.append(f"{name} lacks the config_hash header")
        if "config_hash" not in json.loads((out_dir / "spec.json").read_text()):
            problems.append("spec.json lacks config_hash")
        with open(out_dir / "samples.csv", newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
        if len(rows) != self.n_samples:
            return problems + [f"{len(rows)} sample rows, expected {self.n_samples}"]
        bits = np.array([[int(c) for c in r[2]] for r in rows], dtype=np.uint8)
        index = np.array([int(r[1]) for r in rows])
        x = np.array([[float(v) for v in r[3:]] for r in rows])
        if bits.shape[1] != D or not (state_to_index(bits) == index).all():
            problems.append("state_index does not match the bitstring")
        lower, upper = cell_bounds(self.spec, vbin_decode(self.spec, bits))
        if not ((x >= lower) & (x <= upper)).all():
            problems.append("an x lies outside its state's cell")
        return problems

    def summary(self) -> str:
        return (
            "CLI integrity: exit 0, config_hash headers, one row per sample, "
            "state_index == bitstring, x inside its cell, score_evals == n*steps*D"
        )


WORKLOADS = {
    "narrow_d6": NarrowD6,
    "wide_d12": WideD12,
    "perturbed_tight_d6": PerturbedTightD6,
    "cli_euler": CliEuler,
}


def make(name: str, work_dir: Path, **sizes) -> Workload:
    cls = WORKLOADS[name]
    extra = {"work_dir": work_dir} if cls is CliEuler else {}
    return cls(**extra, **sizes)
