"""Self-tests of the benchmark: tracing changes no output, every wrapper is
removed afterwards, spans nest, and BENCHMARK.json matches what run.py
prints. Run with ``python3 -m pytest perfbench``."""

import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans as sp  # noqa: E402
import workloads as wl  # noqa: E402
from hyperbin import bits, cli, sampler, scores  # noqa: E402

# Small instances of each workload; every sampler op stays above
# BATCH_THRESHOLD so engine="auto" takes the batched path as in the benchmark.
SMALL = {
    "narrow_d6": {"n_samples": 600},
    "perturbed_tight_d6": {"n_samples": 600},
    "wide_d12": {"n_samples": 520, "n_train": 300},
    "cli_euler": {"n_samples": 300, "n_train": 2000, "n_steps": 64},
}


def one_op(workload, tracer, index):
    workload.attach(tracer)
    tracer.op = str(index)
    with tracer.span("op"):
        return workload.run_op(index)


def stats_tuple(stats):
    return tuple(
        tuple(v) if isinstance(v, np.ndarray) else v
        for v in (getattr(stats, f.name) for f in fields(stats))
    )


def cli_files(workload):
    _, out_dir = workload.last
    return [(out_dir / name).read_bytes() for name in ("samples.csv", "stats.csv", "spec.json")]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_op_matches_untraced(name, tmp_path):
    workload = wl.make(name, tmp_path, **SMALL[name])
    workload.setup(7)
    workload.prepare_checks()
    plain = one_op(workload, sp.NullTracer(), 0)
    plain_files = cli_files(workload) if name == "cli_euler" else None

    before = sp.wrapped_objects()
    tracer = sp.Tracer()
    with sp.installed(tracer, on_cli_result=getattr(workload, "capture", None)):
        traced = one_op(workload, tracer, 0)
    assert sp.wrapped_objects() == before
    assert scores.hamming_to_rows is bits.hamming_to_rows
    assert cli.sample is sampler.sample

    if name == "cli_euler":
        assert cli_files(workload) == plain_files
        assert traced.stats.score_evals == plain.stats.score_evals
        assert traced.stats.poisson_events == plain.stats.poisson_events
    else:
        assert np.array_equal(traced.states, plain.states)
        assert np.array_equal(traced.x, plain.x)
        assert stats_tuple(traced.stats) == stats_tuple(plain.stats)
    assert workload.check(traced) == []

    assert sp.check_nesting(tracer.spans) == []
    selfs = sp.self_times(tracer.spans)
    assert min(selfs) >= 0.0
    op = tracer.spans[0]
    children = sum(s.end - s.start for s in tracer.spans if s.parent == 0)
    assert selfs[0] + children == pytest.approx(op.end - op.start, abs=1e-12)
    names = {s.name for s in tracer.spans}
    assert "scores.ratio_all" in names and "quantizer.decode" in names
    assert ("bits.hash" in names) == (name == "perturbed_tight_d6")


def test_nesting_check_rejects_an_escaping_child():
    spans = [sp.Span("op", 0.0, 1.0, None, "0"), sp.Span("child", 0.5, 1.5, 0, "0")]
    assert sp.check_nesting(spans)


def test_tail_leaves_ten_ops_beyond():
    values = [float(i) for i in range(1, 41)]
    value, note = run.tail(values)
    assert value == 30.0 and sum(v > value for v in values) == 10
    assert run.tail([3.0, 1.0, 2.0])[0] == 3.0


def test_timed_ops_carry_a_reference_reading(tmp_path):
    workload = wl.make("narrow_d6", tmp_path, **SMALL["narrow_d6"])
    workload.setup(7)
    workload.prepare_checks()
    counter = iter(range(10))
    records = run.run_ops(workload, sp.NullTracer(), 0.05, lambda: next(counter), reference=True)
    assert records and all(r.problems == [] and r.reference > 0 for r in records)
    r = records[0]
    assert r.scaled == pytest.approx(r.seconds * hostspeed.NOMINAL_S / r.reference)


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
