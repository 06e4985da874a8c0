"""Command line interface: detect, generate, evaluate, bench.

Output is machine-first: JSON reports and CSV tables; plotting is left to
external tools fed by --curve-out.  Exit codes: 0 success, 1 data or
runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys

import numpy as np

from . import costs as costs_mod
from . import metrics as metrics_mod
from . import penalties as pen_mod
from . import search as search_mod
from . import signals as signals_mod


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigseg",
        description="Offline change point detection on CSV signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    det = sub.add_parser("detect", help="detect change points in a CSV signal")
    det.add_argument("--input", required=True, help="signal CSV, one time step per line")
    det.add_argument("--method", required=True, choices=pen_mod.METHODS)
    det.add_argument("--cost", required=True, choices=costs_mod.COST_KINDS)
    det.add_argument("--n-bkps", type=int, default=None, help="fixed number of changes")
    det.add_argument("--pen", default=None,
                     help="penalty id: l0:<beta> bic[:<p>] bic_l2[:<sigma>] "
                          "aic_l2[:<sigma>] mbic leb:<sigma>,<a1>,<a2> "
                          "(omitted parameters are resolved from the data)")
    det.add_argument("--min-size", type=int, default=1, help="minimum segment length")
    det.add_argument("--jump", type=int, default=1, help="candidate grid step")
    det.add_argument("--window", type=int, default=None, help="half-window width (win)")
    det.add_argument("--delta", type=int, default=10, help="initial grid step (botup)")
    det.add_argument("--gamma", type=float, default=None, help="kernel bandwidth (rbf, chi2)")
    det.add_argument("--deg", type=int, default=2, help="polynomial kernel degree")
    det.add_argument("--const", type=float, default=1.0, help="polynomial kernel offset")
    det.add_argument("--order", type=int, default=None, help="autoregressive order (ar)")
    det.add_argument("--covariates", default=None, help="regressor CSV (linear costs)")
    det.add_argument("--metric-matrix", default=None, help="metric CSV (mahalanobis)")
    det.add_argument("--curve-out", default=None,
                     help="write per-index scores as CSV (win curve, binseg gain trace)")
    det.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    det.set_defaults(func=cmd_detect)

    gen = sub.add_parser("generate", help="generate a synthetic signal and its ground truth")
    gen.add_argument("--kind", required=True, choices=("pw_constant", "pw_scale"))
    gen.add_argument("--T", type=int, required=True)
    gen.add_argument("--d", type=int, default=1)
    gen.add_argument("--n-bkps", type=int, default=0)
    gen.add_argument("--noise-std", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="signal CSV path")
    gen.add_argument("--bkps-out", required=True, help="ground-truth breakpoints JSON path")
    gen.set_defaults(func=cmd_generate)

    ev = sub.add_parser("evaluate", help="compare predicted and true breakpoints")
    ev.add_argument("--truth", required=True, help="breakpoints JSON")
    ev.add_argument("--pred", required=True, help="breakpoints JSON")
    ev.add_argument("--margin", type=int, required=True)
    ev.add_argument("--T", type=int, default=None,
                    help="signal length; needed when the JSON files are bare lists")
    ev.set_defaults(func=cmd_evaluate)

    ben = sub.add_parser("bench", help="time a method over generated signals of growing length")
    ben.add_argument("--method", required=True, choices=pen_mod.METHODS)
    ben.add_argument("--cost", required=True, choices=costs_mod.COST_KINDS)
    ben.add_argument("--sizes", required=True, help="comma-separated signal lengths")
    ben.add_argument("--trials", type=int, default=3)
    ben.add_argument("--seed", type=int, default=0)
    ben.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, parser)
    except SystemExit as exc:  # argparse usage errors (and --help)
        return int(exc.code or 0)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _fit_cost(args, parser, signal):
    kind = args.cost
    extras = {}
    if kind in ("linear", "linear_l1"):
        if not args.covariates:
            parser.error(f"--cost {kind} requires --covariates")
        extras["covariates"] = costs_mod.Covariates(signals_mod.load_csv(args.covariates).data)
    if kind == "ar":
        if args.order is None:
            parser.error("--cost ar requires --order")
        extras["order"] = args.order
    if kind == "mahalanobis":
        if not args.metric_matrix:
            parser.error("--cost mahalanobis requires --metric-matrix")
        extras["metric"] = signals_mod.load_csv(args.metric_matrix).data
    if kind.startswith("kernel_"):
        extras.update(gamma=args.gamma, const=args.const, deg=args.deg)
    return costs_mod.fit(kind, signal, **extras)


def _resolve_penalty(args, parser, signal) -> pen_mod.Penalty:
    """Parse --pen, filling omitted parameters from the data."""
    name, _, arg = args.pen.partition(":")
    if not arg and name in ("bic", "bic_l2", "aic_l2", "leb"):
        if name == "leb":
            parser.error("--pen leb needs explicit parameters: leb:<sigma>,<a1>,<a2>")
        if name == "bic":
            dim = pen_mod.default_bic_dim(args.cost, signal.d)
            if dim is None:
                parser.error(f"--pen bic needs an explicit dimension for cost {args.cost!r} "
                             "(use bic:<p>)")
            return pen_mod.Penalty.bic(dim)
        sigma = pen_mod.estimate_noise_std(signal)
        if sigma <= 0:
            parser.error(f"--pen {name}: cannot estimate a positive noise scale; "
                         f"pass {name}:<sigma>")
        return pen_mod.Penalty.bic_l2(sigma) if name == "bic_l2" else pen_mod.Penalty.aic_l2(sigma)
    return pen_mod.parse_penalty(args.pen)


def cmd_detect(args, parser) -> int:
    if (args.n_bkps is None) == (args.pen is None):
        parser.error("exactly one of --n-bkps and --pen is required")
    if args.curve_out and args.method not in ("win", "binseg"):
        parser.error("--curve-out only applies to --method win or binseg")
    if args.pen is None and args.method == "pelt":
        parser.error("--method pelt requires --pen with a linear penalty, not --n-bkps")

    signal = signals_mod.load_csv(args.input)
    pen = None
    if args.pen is not None:
        pen = _resolve_penalty(args, parser, signal)
        if args.method != "opt" and not pen.is_linear:
            parser.error(f"--method {args.method} requires a linear penalty "
                         f"(l0, bic, bic_l2, aic_l2), got --pen {args.pen}")
    cost = _fit_cost(args, parser, signal)
    opts = search_mod.SearchOptions(min_size=args.min_size, jump=args.jump)

    report, trace = pen_mod.detect(cost, args.method, args.n_bkps if pen is None else pen, opts,
                                   window=args.window, delta=args.delta)
    window = report.config_echo.get("window")
    config = {
        "input": args.input,
        "method": args.method,
        "cost": args.cost,
        "n_bkps": args.n_bkps,
        "penalty": pen.identifier if pen is not None else None,
        "min_size": args.min_size,
        "jump": args.jump,
        "window": window,
        "delta": args.delta if args.method == "botup" else None,
        "gamma": getattr(cost, "spec", None).gamma if args.cost.startswith("kernel_") else None,
        "deg": args.deg if args.cost == "kernel_poly" else None,
        "const": args.const if args.cost == "kernel_poly" else None,
        "order": args.order,
        "covariates": args.covariates,
        "metric_matrix": args.metric_matrix,
        "k_max": pen_mod.SWEEP_K_MAX if (args.method == "opt" and pen is not None) else None,
    }
    report = dataclasses.replace(report, config_echo=config)

    if args.curve_out:
        if args.method == "win":
            trace = zip(*search_mod.win_score_curve(cost, window, opts))
        with open(args.curve_out, "w", encoding="utf-8") as fh:
            fh.write("index,score\n")
            for idx, score in trace:
                fh.write(f"{int(idx)},{score:.17g}\n")

    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_generate(args, parser) -> int:
    spec = signals_mod.GeneratorSpec(
        T=args.T,
        d=args.d,
        n_bkps=args.n_bkps,
        min_spacing=max(1, args.T // (2 * (args.n_bkps + 1))),
        noise_std=args.noise_std,
        seed=args.seed,
    )
    gen = (signals_mod.generate_pw_constant if args.kind == "pw_constant"
           else signals_mod.generate_pw_scale)
    signal, seg = gen(spec)

    with open(args.out, "w", encoding="utf-8") as fh:
        for row in signal.data:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    with open(args.bkps_out, "w", encoding="utf-8") as fh:
        json.dump({"T": seg.T, "breakpoints": list(seg.bkps)}, fh)
        fh.write("\n")

    print(json.dumps({
        "kind": args.kind,
        "T": spec.T,
        "d": spec.d,
        "n_bkps": spec.n_bkps,
        "min_spacing": spec.min_spacing,
        "noise_std": spec.noise_std,
        "jump_range": list(spec.jump_range),
        "seed": spec.seed,
        "rng": signals_mod.RNG_ALGORITHM,
        "out": args.out,
        "bkps_out": args.bkps_out,
    }))
    return 0


def _read_breakpoints(path, T_flag):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if isinstance(payload, dict):
        T = payload.get("T")
        bkps = payload.get("breakpoints")
        if T is None or bkps is None:
            raise ValueError(f"{path}: expected keys 'T' and 'breakpoints'")
        if T_flag is not None and T_flag != T:
            raise ValueError(f"{path}: file says T={T} but --T is {T_flag}")
        return signals_mod.make_segmentation(bkps, T)
    if T_flag is None:
        raise ValueError(f"{path} is a bare list; pass --T")
    return signals_mod.make_segmentation(payload, T_flag)


def cmd_evaluate(args, parser) -> int:
    truth = _read_breakpoints(args.truth, args.T)
    pred = _read_breakpoints(args.pred, args.T)
    report = metrics_mod.compute_metric_report(truth, pred, args.margin)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def _bench_once(method, cost_kind, T, seed):
    n_bkps = max(2, T // 500)
    spec = signals_mod.GeneratorSpec(
        T=T, d=1, n_bkps=n_bkps,
        min_spacing=max(2, T // (4 * (n_bkps + 1))),
        noise_std=1.0, jump_range=(2.0, 6.0), seed=seed,
    )
    signal, _ = signals_mod.generate_pw_constant(spec)
    cost = costs_mod.fit(cost_kind, signal)
    target = (pen_mod.Penalty.l0(2.0 * float(np.var(signal.data)) * np.log(T))
              if method == "pelt" else n_bkps)
    return pen_mod.detect(cost, method, target)[0].elapsed_ms


def run_bench(method, cost_kind, sizes, trials, seed):
    """Rows of (T, mean_ms, std_ms) over generated signals whose change
    count grows with T."""
    rows = []
    for si, T in enumerate(sizes):
        times = [_bench_once(method, cost_kind, T, seed + 1_000_003 * si + trial)
                 for trial in range(trials)]
        std = statistics.stdev(times) if len(times) > 1 else 0.0
        rows.append((T, statistics.fmean(times), std))
    return rows


def cmd_bench(args, parser) -> int:
    if args.cost in ("linear", "linear_l1", "ar", "mahalanobis"):
        parser.error(f"--cost {args.cost} needs extra inputs and is not benchable")
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        parser.error(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    if not sizes:
        parser.error("--sizes is empty")
    if args.trials < 1:
        parser.error("--trials must be >= 1")

    print("T,mean_ms,std_ms")
    for T, mean_ms, std_ms in run_bench(args.method, args.cost, sizes, args.trials, args.seed):
        print(f"{T},{mean_ms:.3f},{std_ms:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
