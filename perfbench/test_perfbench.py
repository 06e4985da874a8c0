"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

import cold

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sigseg, _ = cold.import_sigseg(os.path.join(ROOT, "src"))

import measure  # noqa: E402  (after sigseg, which it does not import itself)
import reference  # noqa: E402
from checks import check_report, resolve_penalty  # noqa: E402
from spans import PER_LAYER, Span, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, f1_score, make_input, write_csv  # noqa: E402

# The workloads shrunk, so a test runs each in well under a second.
SMALL = {
    "pelt_l2": dict(T=2_000, n_changes=7, min_gap=100),
    "ingest_binseg": dict(T=3_000, min_gap=100),
    "sweep_mbic": dict(T=200, min_gap=30),
    "kernel_rbf": dict(T=300, min_gap=50),
}


def small(name):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


def test_self_time_is_span_minus_covered_part_of_children():
    spans = [
        Span("cli.main", 0.0, 10.0, -1),
        Span("search.a", 1.0, 3.0, 0),
        Span("search.b", 2.0, 5.0, 0),  # overlaps its sibling
        Span("costs.eval", 8.0, 12.0, 0),  # runs past its parent's end
        Span("costs.eval", 1.5, 2.5, 1),
    ]
    assert self_times(spans) == pytest.approx([10 - 4 - 2, 2 - 1, 3, 4, 1])


def test_layer_metrics_attribute_self_time_by_layer():
    ms = 1e-3
    spans = [
        Span("cli.main", 0, 100 * ms, -1),
        Span("signals.load_csv", 1 * ms, 11 * ms, 0),
        Span("costs.fit", 11 * ms, 15 * ms, 0),
        Span("penalties.detect_with_penalty", 15 * ms, 90 * ms, 0),
        Span("search.opt_segment", 20 * ms, 80 * ms, 3),
        Span("costs.eval", 30 * ms, 40 * ms, 4),
        Span("trace.bookkeeping", 40 * ms, 42 * ms, 4),
        Span("costs.eval", 50 * ms, 60 * ms, 4),
        Span("costs.sum_of_costs", 92 * ms, 97 * ms, 0),
        Span("costs.eval", 93 * ms, 95 * ms, 8),
    ]
    m = layer_metrics(spans, [], input_bytes=1_000_000)
    assert m["signals.load_csv.ms"] == pytest.approx(10)
    assert m["signals.load_csv.mb_per_s"] == pytest.approx(100)
    assert m["costs.fit.ms"] == pytest.approx(4)
    assert m["search.ms"] == pytest.approx(60 - 10 - 2 - 10)
    assert m["costs.eval.ms"] == pytest.approx(22)
    assert m["costs.sum_of_costs.ms"] == pytest.approx(3)
    assert m["penalties.ms"] == pytest.approx(75 - 60)
    assert m["penalties.searches"] == 1
    assert m["trace.bookkeeping.ms"] == pytest.approx(2)
    assert m["cli.ms"] == pytest.approx(100 - 10 - 4 - 75 - 5)
    assert m["trace.job_ms"] == pytest.approx(100)


def test_generation_is_a_pure_function_of_seed_and_job():
    w = WORKLOADS["pelt_l2"]
    data, truth = make_input(w, 7, 3)
    again, truth_again = make_input(w, 7, 3)
    np.testing.assert_array_equal(data, again)
    assert truth == truth_again
    assert not np.array_equal(data, make_input(w, 8, 3)[0])
    assert not np.array_equal(data, make_input(w, 7, 4)[0])
    assert data.shape == (w.T, w.d)
    assert len(truth) == w.n_changes + 1 and truth[-1] == w.T
    assert min(np.diff([0] + truth)) >= w.min_gap


def test_csv_round_trips_exactly(tmp_path):
    data, _ = make_input(small("ingest_binseg"), 1, 0)
    path = str(tmp_path / "x.csv")
    size = write_csv(path, data)
    assert size == os.path.getsize(path)
    np.testing.assert_array_equal(sigseg.signals.load_csv(path).data, data)


def test_f1():
    assert f1_score([100, 200, 300], [103, 200, 300], margin=5) == 1.0
    assert f1_score([100, 200, 300], [110, 200, 300], margin=5) == 0.5
    assert f1_score([100, 300], [110, 300], margin=5) == 0.0
    # one of two predictions near the single true change: P = 1/2, R = 1
    assert f1_score([100, 300], [98, 102, 300], margin=5) == pytest.approx(2 / 3)
    assert f1_score([300], [300], margin=5) == 1.0


def test_tail_is_slowest_with_ten_jobs_beyond():
    assert measure.tail([float(i) for i in range(11)]) == (0.0, pytest.approx(100 / 11))
    assert measure.tail([float(i) for i in range(30, 0, -1)]) == (20.0, pytest.approx(100 * 20 / 30))
    with pytest.raises(ValueError):
        measure.tail([1.0] * 10)


def _report(w, tmp_path):
    """A correct report of one small job: (signal, truth, report dict)."""
    data, truth = make_input(w, 3, 0)
    csv, out = str(tmp_path / "in.csv"), str(tmp_path / "out.json")
    write_csv(csv, data)
    assert sigseg.cli.main(w.detect_args(csv, out)) == 0
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    signal = sigseg.signals.Signal(data)
    assert check_report(w, 0, json.dumps(report), signal, truth, sigseg) is None
    return signal, truth, report


def _flagged(w, signal, truth, report, code=0):
    return check_report(w, code, json.dumps(report), signal, truth, sigseg) is not None


@pytest.mark.parametrize("name", ["pelt_l2", "sweep_mbic"])
def test_check_flags_corrupted_penalized_reports(name, tmp_path):
    w = small(name)
    signal, truth, report = _report(w, tmp_path)
    shifted = dict(report, breakpoints=[report["breakpoints"][0] + 1] + report["breakpoints"][1:])
    assert _flagged(w, signal, truth, shifted)
    for factor in (1 + 1e-6, 1 - 1e-6):
        assert _flagged(w, signal, truth, dict(report, penalized_objective=report["penalized_objective"] * factor))
        assert _flagged(w, signal, truth, dict(report, sum_of_costs=report["sum_of_costs"] * factor))
    # Self-consistent, but worse than the truth: no change at all.
    cost = sigseg.costs.fit(w.cost, signal)
    flat = sigseg.signals.make_segmentation([w.T], w.T)
    flat_total = sigseg.costs.sum_of_costs(cost, flat)
    pen = resolve_penalty(w, signal, sigseg.penalties)
    lost = dict(report, breakpoints=[w.T], sum_of_costs=flat_total,
                penalized_objective=flat_total + sigseg.penalties.pen_value(pen, flat))
    assert "lost to the true segmentation" in check_report(w, 0, json.dumps(lost), signal, truth, sigseg)


@pytest.mark.parametrize("name", ["ingest_binseg", "kernel_rbf"])
def test_check_flags_corrupted_fixed_k_reports(name, tmp_path):
    w = small(name)
    signal, truth, report = _report(w, tmp_path)
    bkps = report["breakpoints"]
    assert _flagged(w, signal, truth, dict(report, breakpoints=bkps[1:]))  # wrong K
    assert _flagged(w, signal, truth, dict(report, breakpoints=[bkps[0] + 1] + bkps[1:]))
    assert _flagged(w, signal, truth, dict(report, breakpoints=[bkps[1], bkps[0]] + bkps[2:]))
    assert _flagged(w, signal, truth, dict(report, breakpoints=bkps[:-1] + [w.T - 1]))
    assert _flagged(w, signal, truth, dict(report, sum_of_costs=report["sum_of_costs"] * (1 + 1e-6)))
    assert _flagged(w, signal, truth, report, code=1)
    assert check_report(w, 0, "{not json", signal, truth, sigseg) is not None


def test_reference_task_is_fixed():
    assert reference.task() == reference.task()
    assert reference.seconds() > 0


def test_end_to_end_reports_job_times_in_reference_units(tmp_path):
    runner = measure.Runner(sigseg, small("kernel_rbf"), seed=5, tmp=str(tmp_path))
    setup = [(0.1, 0.004), (0.3, 0.008), (0.2, 0.008)]  # (set-up, reference) seconds
    metrics, notes = measure.end_to_end(runner, seconds=0.0, setup_samples=setup)
    assert set(metrics) == set(measure.END_TO_END)
    assert runner.failed == 0 and runner.attempted == measure.MIN_JOBS
    assert metrics["setup_s"] == pytest.approx(25 * reference.NOMINAL_SECONDS)
    assert metrics["latency_p50_ref"] > 0 and metrics["latency_tail_ref"] > 0
    assert metrics["samples_per_ref"] > 0 and metrics["f1"] > 0.5
    assert sum("(wall clock)" in note for note in notes) == len(measure.WALL_CLOCK)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_job_matches_untraced_and_records_every_layer(name, tmp_path):
    w = small(name)
    runner = measure.Runner(sigseg, w, seed=5, tmp=str(tmp_path))
    before = {mod: dict(vars(getattr(sigseg, mod))) for mod in ("signals", "costs", "search", "penalties")}
    metrics, _ = measure.per_layer(runner, seconds=0.0)  # one traced and one untraced job
    assert runner.failed == 0 and runner.attempted == 2
    for mod, attrs in before.items():
        assert dict(vars(getattr(sigseg, mod))) == attrs, f"{mod} left patched"
    assert set(metrics) == set(PER_LAYER)
    assert metrics["costs.eval.calls"] >= 1
    assert 0 < metrics["costs.eval.distinct_frac"] <= 1
    assert metrics["search.calls"] == (11 if w.pen == "mbic" else 1)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
