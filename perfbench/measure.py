"""The measuring loops: untraced end-to-end runs and traced per-layer runs."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from time import perf_counter

import numpy as np

import reference
from checks import check_report
from spans import PER_LAYER, Tracer, layer_metrics
from workloads import Workload, f1_score, make_input, write_csv

# Job times are given in units of the reference task (reference.py) timed
# right before and after each job, which factors out the host's speed;
# setup_s likewise, converted to seconds at reference.NOMINAL_SECONDS.
END_TO_END = {
    "samples_per_ref": "samples/ref",
    "latency_p50_ref": "ref",
    "latency_tail_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "f1": "frac",
}
# The same job times in wall-clock units, printed with every untraced run
# but not in its result: on a shared host they move with the host's speed.
WALL_CLOCK = {
    "samples_per_s": "samples/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}

# Set-up is measured this many times per run (once in this process, the
# rest in fresh interpreters) and reported as the median.
SETUP_SAMPLES = 5
# The latency tails are the slowest job with 10 jobs beyond it, so an
# untraced run times at least 11 jobs even when its seconds have passed.
MIN_JOBS = 11


class Job:
    """One input: the signal, its truth, and the files the CLI reads and writes."""

    def __init__(self, w: Workload, seed: int, index: int, tmp: str):
        self.index = index
        self.data, self.truth = make_input(w, seed, index)
        self.csv = os.path.join(tmp, f"in{index}.csv")
        self.out = os.path.join(tmp, f"out{index}.json")
        self.bytes = write_csv(self.csv, self.data)
        self.argv = w.detect_args(self.csv, self.out)

    def report(self, out: str | None = None) -> str:
        try:
            with open(out or self.out, encoding="utf-8") as fh:
                return fh.read()
        except OSError:
            return ""

    def discard(self) -> None:
        for path in (self.csv, self.out):
            if os.path.exists(path):
                os.remove(path)


class Runner:
    """Runs and checks the jobs of one workload, counting failures."""

    def __init__(self, sigseg, w: Workload, seed: int, tmp: str):
        self.sigseg, self.w, self.seed, self.tmp = sigseg, w, seed, tmp
        self.attempted = self.failed = 0

    def job(self, index: int) -> Job:
        return Job(self.w, self.seed, index, self.tmp)

    def run(self, job: Job, tracer: Tracer | None = None) -> tuple[float, int]:
        """Seconds from the cli.main call to the report being written, and the exit code."""
        start = perf_counter()
        try:
            if tracer is None:
                code = self.sigseg.cli.main(job.argv)
            else:
                with tracer.job():
                    code = self.sigseg.cli.main(job.argv)
        except Exception:  # a crashing job is a failed job; the loop goes on
            traceback.print_exc()
            code = -1
        return perf_counter() - start, code

    def check(self, job: Job, code: int, text: str) -> list[int] | None:
        """The report's breakpoints when it is correct, else None (a failed job)."""
        self.attempted += 1
        signal = self.sigseg.signals.Signal(job.data)
        problem = check_report(self.w, code, text, signal, job.truth, self.sigseg)
        if problem is not None:
            self.failed += 1
            print(f"job {job.index} failed: {problem}", file=sys.stderr)
            return None
        return json.loads(text)["breakpoints"]


def cold_setup(runner: Runner, job0: Job, first: tuple[float, float], cold_py: str,
               src: str) -> list[tuple[float, float]]:
    """Set-up seconds, each with the reference task's seconds right after
    it: this process's first job, then fresh interpreters running cold.py
    on job0's input."""
    samples = [first]
    for k in range(1, SETUP_SAMPLES):
        out = f"{job0.out}.cold{k}"
        argv = [sys.executable, cold_py, src] + [out if a == job0.out else a for a in job0.argv]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=150)
        sys.stderr.write(proc.stderr)
        if runner.check(job0, proc.returncode, job0.report(out)) is not None:
            setup_s, ref_s = proc.stdout.splitlines()[-1].split()
            samples.append((float(setup_s), float(ref_s)))
        if os.path.exists(out):
            os.remove(out)
    return samples


def tail(latencies: list[float]) -> tuple[float, float]:
    """The slowest latency with 10 jobs beyond it, and its percentile."""
    n = len(latencies)
    if n <= 10:
        raise ValueError(f"{n} jobs leave no percentile with 10 jobs beyond it")
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


def end_to_end(runner: Runner, seconds: float,
               setup_samples: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """Jobs back to back, untraced, until `seconds` of job time and MIN_JOBS
    jobs; each job is bracketed by timings of the reference task."""
    w = runner.w
    latencies, ratios, f1s, samples = [], [], [], 0
    reference.seconds()  # warm-up
    index = 1
    while sum(latencies) < seconds or len(latencies) < MIN_JOBS:
        job = runner.job(index)
        index += 1
        ref_before = reference.seconds()
        job_s, code = runner.run(job)
        ref_after = reference.seconds()
        latencies.append(job_s)
        ratios.append(job_s / (0.5 * (ref_before + ref_after)))
        bkps = runner.check(job, code, job.report())
        job.discard()
        if bkps is not None:
            samples += w.T
        f1s.append(0.0 if bkps is None else f1_score(job.truth, bkps, w.margin))

    tail_ref, pct = tail(ratios)
    metrics = {
        "samples_per_ref": samples / sum(ratios),
        "latency_p50_ref": statistics.median(ratios),
        "latency_tail_ref": tail_ref,
        "setup_s": reference.NOMINAL_SECONDS * statistics.median(s / r for s, r in setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "f1": statistics.fmean(f1s),
    }
    wall = {
        "samples_per_s": samples / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail(latencies)[0],
    }
    notes = [f"{name:32s} {value:.6g} {WALL_CLOCK[name]} (wall clock)" for name, value in wall.items()]
    notes += [
        f"timed jobs: {len(latencies)}, job time {sum(latencies):.3f} s",
        f"latency tails are p{pct:.1f} of {len(latencies)} jobs, 10 beyond them",
        f"reference task: median {1e3 * statistics.median(l / r for l, r in zip(latencies, ratios)):.3f} ms",
        "set-up: " + ", ".join(f"{s:.3f} s (reference {1e3 * r:.3f} ms)" for s, r in setup_samples),
        f"fail_frac {runner.failed / runner.attempted:.6g} frac "
        f"({runner.failed} of {runner.attempted} jobs, set-up jobs included)",
    ]
    return metrics, notes


def fit_peak_mb(sigseg, w: Workload, job: Job) -> float:
    """Peak MB allocated while fitting the job's cost, under tracemalloc."""
    signal = sigseg.signals.Signal(job.data)
    tracemalloc.start()
    try:
        sigseg.costs.fit(w.cost, signal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def per_layer(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    """Each input untraced and traced, until `seconds` of job time; medians per job."""
    sigseg, w = runner.sigseg, runner.w
    tracer = Tracer({name: getattr(sigseg, name) for name in ("signals", "costs", "search", "penalties")})
    rows, spent = [], 0.0
    index = 1
    while index == 1 or spent < seconds:
        job = runner.job(index)
        index += 1
        # Alternate which run goes first, so warm caches favour neither.
        timed = {}
        for traced in ((False, True) if index % 2 else (True, False)):
            job_s, code = runner.run(job, tracer if traced else None)
            timed[traced] = job_s, runner.check(job, code, job.report())
            spent += job_s
        job.discard()
        (plain_s, plain_bkps), (traced_s, traced_bkps) = timed[False], timed[True]
        if plain_bkps is None or traced_bkps is None:
            continue
        if plain_bkps != traced_bkps:
            raise RuntimeError(f"job {job.index}: traced breakpoints {traced_bkps} "
                               f"differ from untraced {plain_bkps}")
        recorded = {s.name for s in tracer.spans}
        missing = [name for name in w.spans if name not in recorded]
        if missing:
            raise RuntimeError(f"workload {w.name}: no span recorded for {missing}; "
                               "the program no longer calls through a wrapped entry point")
        row = layer_metrics(tracer.spans, tracer.evals, job.bytes)
        row["costs.fit.peak_mb"] = fit_peak_mb(sigseg, w, job)
        row["trace.overhead_frac"] = traced_s / plain_s - 1.0
        rows.append(row)

    if not rows:
        raise RuntimeError(f"workload {w.name}: no traced job passed its check")
    metrics = {name: statistics.median(row[name] for row in rows) for name in PER_LAYER}
    self_ms = {name: metrics[name] for name in PER_LAYER
               if name.endswith(".ms") and not name.startswith("trace.")}
    top = max(self_ms, key=self_ms.get)
    notes = [
        f"traced jobs: {len(rows)}, each also run untraced; per-layer values are medians per job",
        f"largest self time: {top} = {100 * self_ms[top] / metrics['trace.job_ms']:.1f}% of the traced job",
    ]
    return metrics, notes


def _blas_threads() -> int | None:
    # The OpenBLAS that numpy loaded, found among this process's mappings.
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def machine_facts() -> dict:
    """What a result depends on beyond the code; blas_threads is None for a
    BLAS other than OpenBLAS."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
    }
