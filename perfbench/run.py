"""End-to-end and per-layer benchmark of `sigseg detect`.

    python3 perfbench/run.py --workload pelt_l2 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

One client calls `sigseg.cli.main(["detect", ...])` in this process, job
after job: a closed loop, because a caller waits for each report.  Inputs
are CSV files generated from --seed, one distinct signal per job, and every
report is checked.  --trace 0 measures the end-to-end metrics; --trace 1
runs each input untraced and traced and reports per-layer metrics.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  `--workload all` runs every workload in a process of
its own and prints all their metrics.

sigseg is imported from the `src` directory next to this one; files are
written only under `.bench_tmp` there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

# Only the standard library before sigseg, so that its import is timed cold.
import cold

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0, help="job time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_one(args) -> int:
    try:
        sigseg, import_s = cold.import_sigseg(SRC)
    except ImportError as exc:
        print(f"error: cannot import sigseg from {SRC}: {exc}", file=sys.stderr)
        return 2
    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)} or 'all'",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    facts = measure.machine_facts()
    print("machine: " + json.dumps(facts))
    if facts["blas_threads"] is not None and facts["blas_threads"] > facts["nproc"]:
        print(f"error: {facts['blas_threads']} BLAS threads on {facts['nproc']} CPUs", file=sys.stderr)
        return 2
    print(f"workload {w.name}: {w.why}")

    tmp = os.path.join(ROOT, ".bench_tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    try:
        runner = measure.Runner(sigseg, w, args.seed, tmp)
        job0 = runner.job(0)
        first_s, code = runner.run(job0)  # the cold job, kept out of the loop's figures
        runner.check(job0, code, job0.report())
        if args.trace:
            metrics, notes = measure.per_layer(runner, args.seconds)
            units = measure.PER_LAYER
        else:
            first = import_s + first_s, cold.reference_seconds()
            setup = measure.cold_setup(runner, job0, first, os.path.join(HERE, "cold.py"), SRC)
            metrics, notes = measure.end_to_end(runner, args.seconds, setup)
            units = measure.END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:  # another run is still using it
            pass

    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"[{name}] error: exit code {proc.returncode}", file=sys.stderr)
            combined["correct"], status = False, 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
