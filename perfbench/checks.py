"""The check behind `fail_frac`: is a `sigseg detect` report correct?"""

from __future__ import annotations

import json

from workloads import Workload

REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def resolve_penalty(w: Workload, signal, penalties):
    """The penalty `sigseg detect --pen` resolves for this workload's signal."""
    if w.pen == "bic_l2":  # sigma omitted: estimated from the data
        return penalties.Penalty.bic_l2(penalties.estimate_noise_std(signal))
    return penalties.parse_penalty(w.pen)


def check_report(w: Workload, code: int, text: str, signal, truth: list[int], sigseg) -> str | None:
    """Why the report of one job is wrong, or None when it is right.

    `signal` is the job's input as a sigseg Signal, `truth` its true
    breakpoints, `sigseg` the package whose costs and penalties recompute
    the report's figures afresh.
    """
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(text)
        bkps = report["breakpoints"]
        total = float(report["sum_of_costs"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable report: {exc}"
    T = signal.T
    if (not bkps or not all(isinstance(b, int) for b in bkps) or bkps[0] < 1
            or any(b >= c for b, c in zip(bkps, bkps[1:])) or bkps[-1] != T):
        return f"breakpoints not strictly increasing in [1, T] ending at T={T}: {bkps}"
    if w.n_bkps is not None and len(bkps) - 1 != w.n_bkps:
        return f"{len(bkps) - 1} changes, expected {w.n_bkps}"

    costs, signals = sigseg.costs, sigseg.signals
    cost = costs.fit(w.cost, signal)
    seg = signals.make_segmentation(bkps, T)
    fresh = costs.sum_of_costs(cost, seg)
    if not _close(total, fresh):
        return f"sum_of_costs {total!r} but the breakpoints cost {fresh!r}"
    if w.pen is None:
        return None

    pen = resolve_penalty(w, signal, sigseg.penalties)
    pen_value = sigseg.penalties.pen_value
    try:
        objective = float(report["penalized_objective"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"unparsable penalized_objective: {exc}"
    if not _close(objective, fresh + pen_value(pen, seg)):
        return f"penalized_objective {objective!r} but the breakpoints score {fresh + pen_value(pen, seg)!r}"
    if w.exact:
        true_seg = signals.make_segmentation(truth, T)
        true_obj = costs.sum_of_costs(cost, true_seg) + pen_value(pen, true_seg)
        if objective > true_obj + REL_TOL * max(abs(true_obj), 1.0):
            return f"exact search lost to the true segmentation: {objective!r} > {true_obj!r}"
    return None
