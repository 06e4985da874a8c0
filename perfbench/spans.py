"""Spans recorded around calls into the sigseg layers, and their self times.

The tracer wraps module attributes for the duration of one job and puts
them back afterwards, so untraced jobs run the unmodified program.  A
span's self time is its duration minus the part of it that its child spans
cover.  Tracer bookkeeping runs inside spans of the `trace` layer, so it
shows in no other layer's self time.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute, span name): every layer entry point that cli or
# penalties looks up at call time.  penalties imported opt_segment,
# pelt_segment and sum_of_costs into its own namespace, so those are
# wrapped there as well.
ENTRY_POINTS = (
    ("signals", "load_csv", "signals.load_csv"),
    ("costs", "fit", "costs.fit"),
    ("costs", "sum_of_costs", "costs.sum_of_costs"),
    ("search", "opt_segment", "search.opt_segment"),
    ("search", "pelt_segment", "search.pelt_segment"),
    ("search", "win_segment", "search.win_segment"),
    ("search", "binseg_trace", "search.binseg_trace"),
    ("search", "botup_segment", "search.botup_segment"),
    ("penalties", "detect_with_penalty", "penalties.detect_with_penalty"),
    ("penalties", "estimate_noise_std", "penalties.estimate_noise_std"),
    ("penalties", "opt_segment", "search.opt_segment"),
    ("penalties", "pelt_segment", "search.pelt_segment"),
    ("penalties", "sum_of_costs", "costs.sum_of_costs"),
)

# Per-layer metrics and their units; README.md says what each should move.
PER_LAYER = {
    "signals.load_csv.ms": "ms",
    "signals.load_csv.mb_per_s": "MB/s",
    "search.ms": "ms",
    "search.calls": "count",
    "costs.eval.calls": "count",
    "costs.eval.intervals_per_call": "count",
    "costs.eval.intervals": "count",
    "costs.eval.distinct_frac": "frac",
    "costs.eval.ms": "ms",
    "costs.eval.ns_per_interval": "ns",
    "costs.fit.ms": "ms",
    "costs.fit.peak_mb": "MB",
    "costs.sum_of_costs.ms": "ms",
    "penalties.ms": "ms",
    "penalties.searches": "count",
    "cli.ms": "ms",
    "trace.job_ms": "ms",
    "trace.bookkeeping.ms": "ms",
    "trace.overhead_frac": "frac",
}

# Distinct (a, b) intervals are tracked in a dense bitmap when (T+1)^2
# entries fit in this many bytes, else as keys deduplicated after the job.
_BITMAP_BYTES = 1 << 24


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, end: float, parent: int):
        self.name, self.start, self.end, self.parent = name, start, end, parent

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class EvalCounter:
    """Interval counts of one fitted cost's eval_batch calls."""

    def __init__(self, T: int):
        self.calls = 0
        self.intervals = 0
        self._width = T + 1
        self._seen = np.zeros(self._width ** 2, dtype=bool) if self._width ** 2 <= _BITMAP_BYTES else None
        self._keys: list[np.ndarray] = []

    def add(self, starts, ends, n_values: int) -> None:
        self.calls += 1
        self.intervals += n_values
        keys = (np.asarray(starts, dtype=np.int64) * self._width + np.asarray(ends, dtype=np.int64)).ravel()
        if self._seen is not None:
            self._seen[keys] = True
        else:
            self._keys.append(keys)

    def distinct(self) -> int:
        if self._seen is not None:
            return int(np.count_nonzero(self._seen))
        if not self._keys:
            return 0
        return len(np.unique(np.concatenate(self._keys)))


class Tracer:
    """Spans and eval counts of one job at a time."""

    def __init__(self, modules: dict):
        self._modules = modules
        self.spans: list[Span] = []
        self.evals: list[EvalCounter] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def _wrap_fit(self, fn):
        traced_fit = self._wrap(fn, "costs.fit")

        @functools.wraps(fn)
        def fit(*args, **kwargs):
            cost = traced_fit(*args, **kwargs)
            idx = self._open("trace.bookkeeping")
            # An attribute on the instance, not a proxy: search code picks
            # its path from type(cost), which must stay the real class.
            cost.eval_batch = self._wrap_eval(cost.eval_batch, EvalCounter(cost.signal.T))
            self._close(idx)
            return cost
        return fit

    def _wrap_eval(self, bound, counter: EvalCounter):
        self.evals.append(counter)

        @functools.wraps(bound)
        def eval_batch(starts, ends):
            idx = self._open("costs.eval")
            try:
                values = bound(starts, ends)
            finally:
                self._close(idx)
            idx = self._open("trace.bookkeeping")
            counter.add(starts, ends, len(values))
            self._close(idx)
            return values
        return eval_batch

    @contextmanager
    def job(self):
        """Trace one job: wrap the entry points and open the root `cli.main` span."""
        self.spans, self.evals, self._stack = [], [], []
        saved = [(mod, attr, getattr(self._modules[mod], attr)) for mod, attr, _ in ENTRY_POINTS]
        try:
            for mod, attr, name in ENTRY_POINTS:
                fn = getattr(self._modules[mod], attr)
                setattr(self._modules[mod], attr, self._wrap_fit(fn) if name == "costs.fit" else self._wrap(fn, name))
            root = self._open("cli.main")
            try:
                yield
            finally:
                self._close(root)
        finally:
            for mod, attr, fn in saved:
                setattr(self._modules[mod], attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: list[list[Span]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for k in sorted(kids, key=lambda k: k.start):
            lo, hi = max(k.start, reach), min(k.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def layer_metrics(spans: list[Span], evals: list[EvalCounter], input_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced job, times in ms."""
    own = self_times(spans)

    def ms(pred) -> float:
        return 1e3 * sum(t for s, t in zip(spans, own) if pred(s))

    def count(pred) -> int:
        return sum(1 for s in spans if pred(s))

    load_ms = ms(lambda s: s.name == "signals.load_csv")
    eval_ms = ms(lambda s: s.name == "costs.eval")
    calls = sum(c.calls for c in evals)
    intervals = sum(c.intervals for c in evals)
    distinct = sum(c.distinct() for c in evals)
    penalty_spans = {i for i, s in enumerate(spans) if s.layer == "penalties"}
    return {
        "signals.load_csv.ms": load_ms,
        "signals.load_csv.mb_per_s": input_bytes / 1e6 / (load_ms / 1e3) if load_ms > 0 else 0.0,
        "search.ms": ms(lambda s: s.layer == "search"),
        "search.calls": count(lambda s: s.layer == "search"),
        "costs.eval.calls": calls,
        "costs.eval.intervals_per_call": intervals / calls if calls else 0.0,
        "costs.eval.intervals": intervals,
        "costs.eval.distinct_frac": distinct / intervals if intervals else 0.0,
        "costs.eval.ms": eval_ms,
        "costs.eval.ns_per_interval": 1e6 * eval_ms / intervals if intervals else 0.0,
        "costs.fit.ms": ms(lambda s: s.name == "costs.fit"),
        "costs.sum_of_costs.ms": ms(lambda s: s.name == "costs.sum_of_costs"),
        "penalties.ms": ms(lambda s: s.layer == "penalties"),
        "penalties.searches": count(lambda s: s.layer == "search" and s.parent in penalty_spans),
        "cli.ms": ms(lambda s: s.name == "cli.main"),
        "trace.bookkeeping.ms": ms(lambda s: s.layer == "trace"),
        "trace.job_ms": 1e3 * (spans[0].end - spans[0].start),
    }
