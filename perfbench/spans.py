"""Spans recorded from outside the hyperbin package.

A traced run installs timing wrappers over the names that
``hyperbin.sampler``, ``hyperbin.scores`` and ``hyperbin.cli`` import from
the lower layers, and hands ``sample`` a delegating :class:`OracleProxy`.
Every wrapper records one span (name, start, end, parent span, op id) in
memory; :func:`installed` restores the original names when the run ends.
An untraced run uses :class:`NullTracer`, whose spans cost one no-op
context manager per op.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import importlib
import json
import time
import tracemalloc
from dataclasses import asdict, dataclass

from hyperbin import chain, cli
from hyperbin.scores import PerturbedScoreOracle, ScoreOracle


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    rows: int = 0


class NullTracer:
    """Tracer stand-in for untraced runs."""

    op = None

    def span(self, name: str, rows: int = 0):
        return contextlib.nullcontext()


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None
        # When set, oracle proxies measure the tracemalloc peak of each call.
        self.track_alloc = False
        self.peak_alloc_bytes = 0
        # Facts observed by wrappers, such as the support size of the last law.
        self.notes: dict = {}
        self._stack: list[int] = []

    def begin(self, name: str, rows: int = 0) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op, rows))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, rows: int = 0):
        index = self.begin(name, rows)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn, on_result=None):
        """`fn` with a span around every call; `on_result` sees each return value."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(index)
            if on_result is not None:
                on_result(out)
            return out

        return timed

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


class OracleProxy(ScoreOracle):
    """Delegating score oracle: times `ratio_all` and forwards everything
    else (`T`, `n_bits`, `initial`, ...) to the wrapped oracle."""

    def __init__(self, inner, tracer: Tracer, name: str = "scores.ratio_all"):
        self._inner = inner
        self._tracer = tracer
        self._name = name

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def ratio_all(self, t, states):
        tracer = self._tracer
        index = tracer.begin(self._name, rows=len(states))
        try:
            if not tracer.track_alloc:
                return self._inner.ratio_all(t, states)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = self._inner.ratio_all(t, states)
            peak = tracemalloc.get_traced_memory()[1] - base
            tracer.peak_alloc_bytes = max(tracer.peak_alloc_bytes, peak)
            return out
        finally:
            tracer.end(index)


def proxied(oracle, tracer: Tracer):
    """Proxy for `oracle`; a perturbed oracle gets a shallow copy whose
    inner oracle is proxied too, so its own cost can be separated."""
    if isinstance(oracle, PerturbedScoreOracle):
        oracle = copy.copy(oracle)
        oracle.inner = OracleProxy(oracle.inner, tracer, "scores.inner")
    return OracleProxy(oracle, tracer)


# (module, imported name, span name): the lower-layer names each caller
# module resolves at call time.
WRAPPED_NAMES = (
    ("hyperbin.sampler", "vbin_decode", "quantizer.decode"),
    ("hyperbin.sampler", "dequantize_sample", "quantizer.decode"),
    ("hyperbin.sampler", "marginal_at", "chain.terminal"),
    ("hyperbin.scores", "hamming_to_rows", "bits.hamming"),
    ("hyperbin.scores", "state_key", "bits.hash"),
    ("hyperbin.scores", "splitmix64", "bits.hash"),
    ("hyperbin.cli", "quantize_dataset", "quantizer.quantize"),
    ("hyperbin.cli", "load_target_points", "cli.load_target"),
    ("hyperbin.cli", "write_samples_csv", "cli.write"),
    ("hyperbin.cli", "write_stats_csv", "cli.write"),
    ("hyperbin.cli", "save_spec", "cli.write"),
)


@contextlib.contextmanager
def installed(tracer: Tracer, on_cli_result=None):
    """Install every wrapper for the duration of the block, then restore
    the original objects. `on_cli_result` receives each `SampleResult`
    that the CLI's sampler call returns."""
    saved = []

    def note_support(law):
        tracer.notes["support"] = len(law.weights)

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        for module_name, attr, span_name in WRAPPED_NAMES:
            module = importlib.import_module(module_name)
            patch(module, attr, tracer.wrap(span_name, getattr(module, attr)))
        from_dataset = chain.EmpiricalInitial.from_dataset.__func__
        patch(
            chain.EmpiricalInitial,
            "from_dataset",
            classmethod(tracer.wrap("chain.from_dataset", from_dataset, note_support)),
        )
        patch(cli, "sample", tracer.wrap("sampler.sample", cli.sample, on_cli_result))
        patch(
            cli, "euler_sample", tracer.wrap("sampler.euler_sample", cli.euler_sample, on_cli_result)
        )
        exact = cli.ExactScoreOracle
        patch(cli, "ExactScoreOracle", lambda initial, T: proxied(exact(initial, T), tracer))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def wrapped_objects() -> list:
    """The objects at every name :func:`installed` replaces."""
    owners = [(importlib.import_module(m), attr) for m, attr, _ in WRAPPED_NAMES]
    owners += [(chain.EmpiricalInitial, "from_dataset")]
    owners += [(cli, attr) for attr in ("sample", "euler_sample", "ExactScoreOracle")]
    return [owner.__dict__[attr] for owner, attr in owners]


def check_nesting(spans: list[Span]) -> list[str]:
    """Every child lies inside its parent and siblings do not overlap, so
    self times are non-negative and self plus children equals each span."""
    problems = []
    last_end: dict[int | None, float] = {}
    for i, s in enumerate(spans):
        if s.end < s.start:
            problems.append(f"span {i} ({s.name}) ends before it starts")
        if s.parent is not None:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end or s.op != p.op:
                problems.append(f"span {i} ({s.name}) escapes its parent {p.name}")
        if s.start < last_end.get(s.parent, float("-inf")):
            problems.append(f"span {i} ({s.name}) overlaps its previous sibling")
        last_end[s.parent] = s.end
    return problems


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out
