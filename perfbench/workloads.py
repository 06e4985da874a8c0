"""The benchmark's workloads: seeded inputs, `sigseg detect` arguments, F1.

Inputs come from this file's own numpy code, never from `sigseg generate`
or `sigseg.signals`, so a change to the package cannot change what is
measured.  Every input is a pure function of (workload, seed, job index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One `sigseg detect` configuration and the signals it runs on.

    Signals are piecewise constant means plus unit Gaussian noise: T samples
    of d dimensions, n_changes changes at least min_gap samples apart, each
    moving every dimension by a magnitude drawn from jump with a random
    sign.  F1 counts a detected change within margin samples of a true one.
    """

    name: str
    why: str
    method: str
    cost: str
    T: int
    d: int
    n_changes: int
    min_gap: int
    jump: tuple[float, float]
    margin: int
    n_bkps: int | None = None
    pen: str | None = None
    # Spans that every traced job of this workload must record.
    spans: tuple[str, ...] = ()

    @property
    def exact(self) -> bool:
        """Whether the method is an exact minimiser, whose report may never
        lose to the true segmentation."""
        return self.method in ("opt", "pelt")

    def detect_args(self, csv_path: str, out_path: str) -> list[str]:
        argv = ["detect", "--input", csv_path, "--out", out_path,
                "--method", self.method, "--cost", self.cost]
        if self.n_bkps is not None:
            argv += ["--n-bkps", str(self.n_bkps)]
        if self.pen is not None:
            argv += ["--pen", self.pen]
        return argv


_COMMON_SPANS = ("signals.load_csv", "costs.fit", "costs.eval", "costs.sum_of_costs")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="pelt_l2",
        why="PELT admissible-set bookkeeping dominates: pelt, l2, bic_l2 with sigma from the data; "
            "T=5000, d=1, a change per ~250 samples; F1 margin 5",
        method="pelt", cost="l2", pen="bic_l2",
        T=5_000, d=1, n_changes=19, min_gap=100, jump=(1.5, 4.0), margin=5,
        spans=_COMMON_SPANS + ("penalties.estimate_noise_std", "search.pelt_segment"),
    ),
    Workload(
        name="ingest_binseg",
        why="CSV ingest dominates, costs run as a few huge batches: binseg, l2, 20 changes; "
            "T=50000, d=4, ~4 MB of CSV; F1 margin 10",
        method="binseg", cost="l2", n_bkps=20,
        T=50_000, d=4, n_changes=20, min_gap=500, jump=(1.0, 3.0), margin=10,
        spans=_COMMON_SPANS + ("search.binseg_trace",),
    ),
    Workload(
        name="sweep_mbic",
        why="model-selection sweep of 11 exact DPs on the vectorised cost path: opt, l2, mbic; "
            "T=300, d=2, 4 changes; F1 margin 5",
        method="opt", cost="l2", pen="mbic",
        T=300, d=2, n_changes=4, min_gap=30, jump=(2.0, 4.0), margin=5,
        spans=_COMMON_SPANS + ("penalties.detect_with_penalty", "search.opt_segment"),
    ),
    Workload(
        name="kernel_rbf",
        why="Gram-matrix fit and the scalar per-interval cost path: binseg, kernel_rbf, 4 changes; "
            "T=500, d=3, under gram_cap; F1 margin 10",
        method="binseg", cost="kernel_rbf", n_bkps=4,
        T=500, d=3, n_changes=4, min_gap=90, jump=(2.0, 4.0), margin=10,
        spans=_COMMON_SPANS + ("search.binseg_trace",),
    ),
)}


def make_input(w: Workload, seed: int, index: int) -> tuple[np.ndarray, list[int]]:
    """The signal (T x d) and true breakpoints (ending with T) of job `index`."""
    rng = np.random.default_rng([seed, index])
    # Uniform over the change sets whose segments all have >= min_gap
    # samples: choose K points from a range shortened by the reserved gaps.
    slack = w.T - (w.n_changes + 1) * w.min_gap
    picks = np.sort(rng.choice(slack + w.n_changes, size=w.n_changes, replace=False))
    changes = [int(v) - i + (i + 1) * w.min_gap for i, v in enumerate(picks)]
    bkps = changes + [w.T]

    steps = rng.uniform(*w.jump, size=(w.n_changes, w.d)) * rng.choice([-1.0, 1.0], size=(w.n_changes, w.d))
    levels = np.vstack([np.zeros((1, w.d)), np.cumsum(steps, axis=0)])
    lengths = np.diff([0] + bkps)
    data = np.repeat(levels, lengths, axis=0) + rng.standard_normal((w.T, w.d))
    return data, bkps


def write_csv(path: str, data: np.ndarray) -> int:
    """Write data at %.17g, which round-trips every float64; return the byte count."""
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    size = 0
    with open(path, "w", encoding="utf-8") as fh:
        # Blocks bound the memory formatting takes, so it does not set the
        # process's peak RSS.
        for i in range(0, len(data), 8192):
            block = data[i:i + 8192]
            text = (row * len(block)) % tuple(block.ravel().tolist())
            fh.write(text)
            size += len(text)
    return size


def f1_score(truth: list[int], pred: list[int], margin: int) -> float:
    """F1 of predicted against true change points, terminal index excluded.

    A prediction within `margin` samples of a true change matches it; each
    prediction matches at most one true change, the closest one free.
    """
    true_cp, pred_cp = truth[:-1], list(pred[:-1])
    if not true_cp and not pred_cp:
        return 1.0
    hits = 0
    for t in true_cp:
        near = [p for p in pred_cp if abs(p - t) <= margin]
        if near:
            pred_cp.remove(min(near, key=lambda p: abs(p - t)))
            hits += 1
    if hits == 0:
        return 0.0
    precision = hits / (len(pred) - 1)
    recall = hits / len(true_cp)
    return 2 * precision * recall / (precision + recall)
