"""hyperbin benchmark: one workload per process, every op checked.

    python3 perfbench/run.py --workload narrow_d6 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics: set-up time
(median over fresh processes), samples per second, median and tail op
latency, and peak resident memory. Times are stated at reference speed
(see ``hostspeed.py``), except the long ops of ``wide_d12``; the wall-clock
figures are printed beside them. With ``--trace 1`` it runs untraced ops,
then the same ops with spans recorded from outside the package, and
reports the per-layer metrics. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Human-readable lines before it give every metric with its unit, the
check results and the run metadata. The program must come from ``src/``
next to this directory; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("narrow_d6", "wide_d12", "perturbed_tight_d6", "cli_euler")
# Fresh processes timed for set-up; the median is reported.
SETUP_REPEATS = 5
# Ops run with jobs=1 and one BLAS thread, so one op uses one core.
BLAS_THREADS = "1"
TAIL_BEYOND = 10
UNMEASURED = (
    "not measured: adjacency and verify (diagnostics off the sampling path); "
    "metrics is used only by the correctness checks and is never timed"
)

END_TO_END = (
    ("setup_s", "s"),
    ("samples_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("scores.busy_s", "s"),
    ("scores.share", "1"),
    ("scores.us_per_row", "us"),
    ("scores.calls", "count"),
    ("scores.rows", "count"),
    ("scores.rows_per_call", "count"),
    ("scores.perturb_self_s", "s"),
    ("scores.peak_alloc_mb", "MB"),
    ("bits.hash_s", "s"),
    ("bits.hamming_s", "s"),
    ("sampler.busy_s", "s"),
    ("sampler.self_s", "s"),
    ("sampler.events", "count"),
    ("sampler.score_evals", "count"),
    ("sampler.events_per_replica", "count"),
    ("sampler.events_over_budget", "1"),
    ("sampler.accept_ratio", "1"),
    ("sampler.truncations", "count"),
    ("sampler.clipped_steps", "count"),
    ("sampler.score_evals_per_s", "1/s"),
    ("chain.from_dataset_s", "s"),
    ("chain.support", "count"),
    ("chain.terminal_s", "s"),
    ("quantizer.quantize_s", "s"),
    ("quantizer.decode_s", "s"),
    ("cli.load_target_s", "s"),
    ("cli.write_s", "s"),
    ("cli.bytes_written", "B"),
    ("trace.overhead_frac", "1"),
)
SAMPLER_SPANS = ("sampler.sample", "sampler.euler_sample")


@dataclass
class OpRecord:
    index: int
    seconds: float
    out: object  # workloads.OpOutput, or None when the op raised
    problems: list
    reference: float = 0.0  # mean reference-kernel time before and after the op; 0 if not taken

    @property
    def scaled(self) -> float:
        """Op time at reference speed; the wall time when no reference was taken."""
        if not self.reference:
            return self.seconds
        return hostspeed.at_reference_speed(self.seconds, self.reference)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0, help="op time measured per phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def metadata(args) -> dict:
    import numpy
    import scipy

    import hyperbin

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "commit": git_commit(),
        "hyperbin": hyperbin.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "jobs": 1,
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Wall time from spawning a fresh process to its first op being ready,
    and the same at reference speed, with the reference kernel timed before
    and after each spawn. CLOCK_MONOTONIC is shared by every process on
    Linux, so the child's ready time and the parent's spawn time are on one
    clock."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times, scaled = [], []
    before = hostspeed.block()
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0 or not proc.stdout.startswith("ready "):
            raise RuntimeError(f"set-up process failed ({proc.returncode}): {proc.stderr[-2000:]}")
        times.append(float(proc.stdout.split()[1]) - start)
        after = hostspeed.block(times[-1])
        scaled.append(hostspeed.at_reference_speed(times[-1], (before + after) / 2))
        before = after
    return times, scaled


def run_ops(workload, tracer, seconds: float, next_index, reference: bool = False) -> list[OpRecord]:
    """Run ops until their summed time reaches `seconds`; check each one
    outside the timed region. With `reference`, time the reference kernel
    before the first op and after each op."""
    records, spent = [], 0.0
    before = hostspeed.block() if reference else 0.0
    while spent < seconds or not records:
        index = next_index()
        tracer.op = str(index)
        start = time.perf_counter()
        try:
            with tracer.span("op"):
                out = workload.run_op(index)
        except Exception:
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            records.append(OpRecord(index, elapsed, None, ["op raised"]))
        else:
            elapsed = time.perf_counter() - start
            try:
                problems = workload.check(out)
            except Exception:
                traceback.print_exc()
                problems = ["check raised"]
            records.append(OpRecord(index, elapsed, out, problems))
        if reference:
            after = hostspeed.block(elapsed)
            records[-1].reference = (before + after) / 2
            before = after
        spent += elapsed
    return records


def tail(values: list[float]) -> tuple[float, str]:
    """Latency at the highest percentile with at least TAIL_BEYOND ops
    beyond it; the maximum when there are too few ops for that."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n} ops (fewer than {TAIL_BEYOND + 1} ops: no percentile has {TAIL_BEYOND} beyond it)"
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], f"p{100.0 * rank / n:.1f} of {n} ops, {TAIL_BEYOND} beyond it"


def end_to_end(records, setups, setups_scaled) -> tuple[dict, list[str]]:
    """Times at reference speed; the wall-clock figures go to info lines."""
    seconds = [r.seconds for r in records]
    scaled = [r.scaled for r in records]
    replicas = sum(r.out.replicas for r in records if r.out is not None)
    events = sum(r.out.stats.poisson_events for r in records if r.out is not None)
    tail_value, tail_note = tail(scaled)
    values = {
        "setup_s": statistics.median(setups_scaled),
        "samples_per_s": replicas / sum(scaled),
        "op_s_p50": statistics.median(scaled),
        "op_s_tail": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes at reference speed: {[round(s, 4) for s in setups_scaled]}",
        "samples_per_s": f"{replicas} replicas over {len(records)} timed ops",
        "op_s_p50": f"{len(records)} timed ops",
        "op_s_tail": tail_note,
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    lines = [f"{name} {values[name]!r} {unit} ({notes[name]})" for name, unit in END_TO_END]
    references = [r.reference for r in records if r.reference]
    reading = (
        f"median {statistics.median(references) / hostspeed.NOMINAL_S!r} x NOMINAL_S={hostspeed.NOMINAL_S} s "
        "over the timed ops" if references else "not taken: op times are wall times"
    )
    lines += [
        f"info wall setup_s {statistics.median(setups)!r} s, samples_per_s {replicas / sum(seconds)!r} 1/s, "
        f"op_s_p50 {statistics.median(seconds)!r} s, op_s_tail {tail(seconds)[0]!r} s (not gated)",
        f"info reference kernel {reading}",
        f"info events_per_s {events / sum(seconds)!r} 1/s wall (not gated)",
    ]
    return {n: {"value": values[n], "unit": u} for n, u in END_TO_END}, lines


def per_layer(workload, tracer, selfs, records, untraced_p50) -> tuple[dict, list[str]]:
    """Layer times are seconds per traced op, plus the layer's time in the
    traced set-up (where `wide_d12` quantizes and aggregates its data)."""
    spans = tracer.spans
    ops = {str(r.index) for r in records}
    n = len(records)
    busy = defaultdict(float)
    setup = defaultdict(float)
    sampler_self = rows = calls = 0.0
    perturbed_parents, inner_time = set(), 0.0
    for i, s in enumerate(spans):
        dur = s.end - s.start
        if s.op == "setup":
            setup[s.name] += dur
        if s.op not in ops:
            continue
        busy[s.name] += dur
        if s.name in SAMPLER_SPANS:
            sampler_self += selfs[i]
        elif s.name == "scores.ratio_all":
            rows += s.rows
            calls += 1
        elif s.name == "scores.inner":
            perturbed_parents.add(s.parent)
            inner_time += dur
    layer = lambda name: setup[name] + busy[name] / n
    outs = [r.out for r in records if r.out is not None]
    total = lambda attr: sum(getattr(o.stats, attr) for o in outs)
    events, evals = total("poisson_events"), total("score_evals")
    replicas = sum(o.replicas for o in outs)
    rows_steps = sum(o.rows_steps for o in outs)
    sampler_busy = sum(busy[k] for k in SAMPLER_SPANS)
    op_time = sum(r.seconds for r in records)
    partition = getattr(workload, "partition", None)
    per_replica = events / replicas
    traced_p50 = statistics.median(r.seconds for r in records)
    values = {
        "scores.busy_s": busy["scores.ratio_all"] / n,
        "scores.share": busy["scores.ratio_all"] / op_time,
        "scores.us_per_row": 1e6 * busy["scores.ratio_all"] / rows if rows else 0.0,
        "scores.calls": calls / n,
        "scores.rows": rows / n,
        "scores.rows_per_call": rows / calls if calls else 0.0,
        "scores.perturb_self_s": (sum(spans[i].end - spans[i].start for i in perturbed_parents) - inner_time) / n,
        "scores.peak_alloc_mb": tracer.peak_alloc_bytes / 2**20,
        "bits.hash_s": layer("bits.hash"),
        "bits.hamming_s": layer("bits.hamming"),
        "sampler.busy_s": sampler_busy / n,
        "sampler.self_s": sampler_self / n,
        "sampler.events": events / n,
        "sampler.score_evals": evals / n,
        "sampler.events_per_replica": per_replica,
        "sampler.events_over_budget": per_replica / partition.event_budget(corrected=True) if partition else 0.0,
        "sampler.accept_ratio": total("accepted_moves") / (events or rows_steps),
        "sampler.truncations": total("truncation_activations") / n,
        "sampler.clipped_steps": total("clipped_steps") / n,
        "sampler.score_evals_per_s": evals / sampler_busy,
        "chain.from_dataset_s": layer("chain.from_dataset"),
        "chain.support": statistics.mean(o.support for o in outs),
        "chain.terminal_s": layer("chain.terminal"),
        "quantizer.quantize_s": layer("quantizer.quantize"),
        "quantizer.decode_s": layer("quantizer.decode"),
        "cli.load_target_s": layer("cli.load_target"),
        "cli.write_s": layer("cli.write"),
        "cli.bytes_written": statistics.mean(o.bytes_written for o in outs),
        "trace.overhead_frac": traced_p50 / untraced_p50 - 1.0,
    }
    lines = [f"{name} {values[name]!r} {unit}" for name, unit in PER_LAYER]
    lines.append(f"info traced op_s_p50 {traced_p50!r} s vs untraced {untraced_p50!r} s over {n} traced ops")
    return {n_: {"value": values[n_], "unit": u} for n_, u in PER_LAYER}, lines


def run_workload(args) -> int:
    import spans as sp
    import workloads as wl

    work_dir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            wl.make(args.workload, work_dir).setup(args.seed)
            print(f"ready {time.monotonic()!r}", flush=True)
            return 0
        return measure(args, wl, sp, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args, wl, sp, work_dir) -> int:
    meta = metadata(args)
    hostspeed.kernel()  # first-call costs stay out of every reading
    setups, setups_scaled = measure_setup(args) if args.trace == 0 else ([], [])
    workload = wl.make(args.workload, work_dir)
    workload.setup(args.seed)
    workload.prepare_checks()
    counter = iter(range(1 << 30))
    next_index = lambda: next(counter)
    null = sp.NullTracer()
    records = run_ops(workload, null, 0.0, next_index) if workload.warmup else []
    problems = []
    if args.trace == 0:
        timed = run_ops(workload, null, args.seconds, next_index, reference=workload.scale_ops)
        records += timed
        metrics, lines = end_to_end(timed, setups, setups_scaled)
    else:
        # Untraced and traced ops alternate, so drift in the machine's speed
        # cancels out of the overhead estimate.
        tracer = sp.Tracer()
        before = sp.wrapped_objects()
        capture = getattr(workload, "capture", None)
        with sp.installed(tracer, capture):
            tracer.op = "setup"
            with tracer.span("setup"):
                wl.make(args.workload, work_dir / "traced-setup", tracer=tracer).setup(args.seed)
        untraced, traced = [], []
        while sum(r.seconds for r in traced) < args.seconds:
            untraced += run_ops(workload, null, 0.0, next_index)
            with sp.installed(tracer, capture):
                workload.attach(tracer)
                traced += run_ops(workload, tracer, 0.0, next_index)
            workload.attach(null)
        tracemalloc.start()
        tracer.track_alloc = True
        try:
            with sp.installed(tracer, capture):
                workload.attach(tracer)
                records += run_ops(workload, tracer, 0.0, next_index)
        finally:
            workload.attach(null)
            tracer.track_alloc = False
            tracemalloc.stop()
        records += untraced + traced
        if sp.wrapped_objects() != before:
            problems.append("a wrapper was left installed after the traced run")
        problems += sp.check_nesting(tracer.spans)[:5]
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        metrics, lines = per_layer(
            workload, tracer, sp.self_times(tracer.spans), traced,
            statistics.median(r.seconds for r in untraced),
        )
        lines.append(f"info {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")

    failed = [r for r in records if r.problems]
    problems += workload.finish()
    engines = sorted({r.out.engine for r in records if r.out is not None})
    why = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    print(f"workload {args.workload}: {why[args.workload]}")
    print("meta " + json.dumps({**meta, "engine_per_op": engines, "ops": len(records)}))
    for line in lines:
        print(line)
    print(f"ops_failed_frac {len(failed) / len(records)!r} 1 (bound 0; {len(failed)} of {len(records)} ops)")
    print(f"check {workload.summary()}")
    for r in failed[:5]:
        print(f"FAILED op {r.index}: {'; '.join(r.problems)}")
    for p in problems:
        print(f"FAILED run: {p}")
    print(UNMEASURED)
    result = {
        "correct": not failed and not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        last = proc.stdout.strip().splitlines()[-1:]
        if proc.returncode != 0 or not last or '"correct": true' not in last[0]:
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hyperbin" / "__init__.py").is_file():
        print(f"perfbench: no hyperbin sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
