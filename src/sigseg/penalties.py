"""Complexity penalties and the model-selection driver for an unknown
number of changes.

The l0, bic, bic_l2 and aic_l2 penalties are linear in the change count, so
detection dispatches to the pruned exact search with the equivalent per
change charge; the remaining penalties are minimized by sweeping the exact
fixed-count search over K = 0 .. k_max.  Natural logarithms throughout.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import search
from .costs import CostModel, sum_of_costs
from .report import DetectionReport
from .search import InfeasibleError, SearchOptions, opt_segment, pelt_segment
from .signals import Segmentation, as_signal

LINEAR_VARIANTS = ("l0", "bic", "bic_l2", "aic_l2")
PENALTY_VARIANTS = LINEAR_VARIANTS + ("mbic", "leb")
METHODS = ("opt", "pelt", "win", "binseg", "botup")

SWEEP_K_MAX = 10  # K bound of the sweep `detect` runs for opt with a nonlinear penalty


@dataclass(frozen=True)
class Penalty:
    """One of the supported complexity charges on a segmentation."""

    variant: str
    beta: float | None = None
    dim: float | None = None
    sigma: float | None = None
    a1: float | None = None
    a2: float | None = None

    def __post_init__(self):
        if self.variant not in PENALTY_VARIANTS:
            raise ValueError(f"unknown penalty {self.variant!r}, expected one of {PENALTY_VARIANTS}")
        for name in ("beta", "dim", "sigma", "a1", "a2"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{self.variant} penalty: {name} must be finite, got {value}")
        if self.variant == "l0" and (self.beta is None or self.beta <= 0):
            raise ValueError("l0 penalty needs beta > 0")
        if self.variant == "bic" and (self.dim is None or self.dim < 1):
            raise ValueError("bic penalty needs parameter dimension >= 1")
        if self.variant in ("bic_l2", "aic_l2", "leb") and (self.sigma is None or self.sigma <= 0):
            raise ValueError(f"{self.variant} penalty needs sigma > 0")
        if self.variant == "leb" and not (self.a1 and self.a1 > 0 and self.a2 and self.a2 > 0):
            raise ValueError("leb penalty needs a1 > 0 and a2 > 0")

    @classmethod
    def l0(cls, beta: float) -> "Penalty":
        return cls("l0", beta=beta)

    @classmethod
    def bic(cls, dim: float) -> "Penalty":
        return cls("bic", dim=dim)

    @classmethod
    def bic_l2(cls, sigma: float) -> "Penalty":
        return cls("bic_l2", sigma=sigma)

    @classmethod
    def aic_l2(cls, sigma: float) -> "Penalty":
        return cls("aic_l2", sigma=sigma)

    @classmethod
    def mbic(cls) -> "Penalty":
        return cls("mbic")

    @classmethod
    def leb(cls, sigma: float, a1: float, a2: float) -> "Penalty":
        return cls("leb", sigma=sigma, a1=a1, a2=a2)

    @property
    def is_linear(self) -> bool:
        return self.variant in LINEAR_VARIANTS

    def linear_beta(self, T: int) -> float:
        """Per-change charge for the linear variants."""
        if self.variant == "l0":
            return self.beta
        if self.variant == "bic":
            return self.dim / 2.0 * math.log(T)
        if self.variant == "bic_l2":
            return self.sigma**2 * math.log(T)
        if self.variant == "aic_l2":
            return self.sigma**2
        raise ValueError(f"{self.variant} penalty is not linear in the change count")

    @property
    def identifier(self) -> str:
        if self.variant == "l0":
            return f"l0:{self.beta:g}"
        if self.variant == "bic":
            return f"bic:{self.dim:g}"
        if self.variant in ("bic_l2", "aic_l2"):
            return f"{self.variant}:{self.sigma:g}"
        if self.variant == "leb":
            return f"leb:{self.sigma:g},{self.a1:g},{self.a2:g}"
        return "mbic"


def pen_value(pen: Penalty, seg: Segmentation) -> float:
    """Complexity charge of a segmentation under the given penalty."""
    K = seg.n_bkps
    T = seg.T
    if pen.is_linear:
        return pen.linear_beta(T) * K
    if pen.variant == "mbic":
        total = 3.0 * K * math.log(T)
        prev = 0
        for b in seg.bkps:
            total += math.log((b - prev) / T)
            prev = b
        return total
    # leb
    frac = (K + 1) / T
    return frac * pen.sigma**2 * (pen.a1 * math.log(frac) + pen.a2)


def parse_penalty(text: str) -> Penalty:
    """Parse a penalty identifier: l0:<beta>, bic:<p>, bic_l2:<sigma>,
    aic_l2:<sigma>, mbic, leb:<sigma>,<a1>,<a2>."""
    name, _, arg = text.partition(":")
    try:
        if name == "mbic":
            if arg:
                raise ValueError("mbic takes no parameters")
            return Penalty.mbic()
        if name == "leb":
            sigma, a1, a2 = (float(v) for v in arg.split(","))
            return Penalty.leb(sigma, a1, a2)
        if name in ("l0", "bic", "bic_l2", "aic_l2"):
            if not arg:
                raise ValueError(f"{name} needs a parameter, e.g. {name}:1.5")
            value = float(arg)
            return {"l0": Penalty.l0, "bic": Penalty.bic,
                    "bic_l2": Penalty.bic_l2, "aic_l2": Penalty.aic_l2}[name](value)
    except ValueError as exc:
        raise ValueError(f"bad penalty {text!r}: {exc}") from None
    raise ValueError(f"unknown penalty {text!r}, expected one of {PENALTY_VARIANTS}")


def default_bic_dim(cost_kind: str, d: int) -> int | None:
    """Per-segment parameter count of the named model family, when known."""
    return {"l2": d, "normal": d * (d + 3) // 2, "poisson": d}.get(cost_kind)


def estimate_noise_std(signal) -> float:
    """Robust noise scale: median absolute deviation of first differences
    over sqrt(2).  Insensitive to piecewise-constant mean levels.

    The MAD carries the usual 1.4826 factor that makes it estimate a
    Gaussian standard deviation.
    """
    signal = as_signal(signal)
    if signal.T < 2:
        raise ValueError("need at least two samples to estimate noise")
    diffs = np.diff(signal.data, axis=0).ravel()
    mad = 1.4826 * np.median(np.abs(diffs - np.median(diffs)))
    return float(mad / math.sqrt(2.0))


def _report(cost: CostModel, method: str, seg: Segmentation, pen: Penalty | None,
            start: float, config_echo: dict) -> DetectionReport:
    """Report of a search that started at perf_counter() == start and found seg."""
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    total = sum_of_costs(cost, seg)
    return DetectionReport(
        method=method,
        cost=cost.kind,
        breakpoints=list(seg.bkps),
        sum_of_costs=total,
        penalized_objective=None if pen is None else total + pen_value(pen, seg),
        elapsed_ms=elapsed_ms,
        config_echo=config_echo,
    )


def detect_with_penalty(cost: CostModel, pen: Penalty, k_max: int,
                        opts: SearchOptions | None = None) -> DetectionReport:
    """Minimize sum-of-costs plus penalty over segmentations.

    Linear penalties run the pruned exact search with the equivalent per
    change charge; others sweep the fixed-count search for K = 0 .. k_max
    and keep the best penalized objective (smallest K on ties).  The sweep
    stops at the first infeasible K >= 1; an infeasible K = 0 and any other
    error propagate.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    opts = opts or SearchOptions()
    T = cost.signal.T
    start = time.perf_counter()

    if pen.is_linear:
        method = "pelt"
        beta = pen.linear_beta(T)
        seg = pelt_segment(cost, beta, opts)
    else:
        method = "opt-sweep"
        beta = None
        seg, best_obj = None, np.inf
        for k in range(k_max + 1):
            try:
                seg_k = opt_segment(cost, k, opts)
            except InfeasibleError:
                if k == 0:
                    raise  # no segmentation fits at all
                break  # k and above infeasible
            obj = sum_of_costs(cost, seg_k) + pen_value(pen, seg_k)
            if obj < best_obj:
                seg, best_obj = seg_k, obj

    return _report(cost, method, seg, pen, start, {
        "penalty": pen.identifier,
        "k_max": k_max,
        "min_size": opts.min_size,
        "jump": opts.jump,
        "beta_equivalent": beta,
    })


def detect(cost: CostModel, method: str, target: int | Penalty,
           opts: SearchOptions | None = None, *, window: int | None = None,
           delta: int = 10) -> tuple[DetectionReport, list[tuple[int, float]] | None]:
    """Run one search method on a fitted cost under one constraint: the
    library form of `sigseg detect`.

    target is a change count or a Penalty.  `pelt` needs a linear penalty;
    `opt` with a penalty is detect_with_penalty with k_max = SWEEP_K_MAX;
    win, binseg and botup stop at the change count or at the per change
    charge of a linear penalty.  window (win) defaults to T // 10, capped at
    100 and raised to the minimum segment length; delta is botup's initial
    grid step.  Returns the report, whose config_echo holds the resolved
    parameters, and binseg's accepted (index, gain) trace (None otherwise).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    opts = opts or SearchOptions()
    pen = target if isinstance(target, Penalty) else None
    if method == "opt" and pen is not None:
        return detect_with_penalty(cost, pen, SWEEP_K_MAX, opts), None
    if pen is not None and not pen.is_linear:
        raise ValueError(f"method {method} requires a linear penalty "
                         f"(l0, bic, bic_l2, aic_l2), got {pen.identifier}")
    if method == "pelt" and pen is None:
        raise ValueError("method pelt requires a linear penalty, not a change count")

    T = cost.signal.T
    beta = None if pen is None else pen.linear_beta(T)
    if method == "win" and window is None:
        window = max(opts.min_size, cost.min_size, min(T // 10, 100))
    trace = None
    start = time.perf_counter()
    if method == "opt":
        seg = opt_segment(cost, target, opts)
    elif method == "pelt":
        seg = pelt_segment(cost, beta, opts)
    else:
        stop = (search.StoppingRule.fixed_k(target) if pen is None
                else search.StoppingRule.penalty_threshold(beta))
        # Looked up on the search module at call time, so that a wrapper
        # installed there sees the call.
        if method == "win":
            seg = search.win_segment(cost, window, stop, opts)
        elif method == "binseg":
            seg, trace = search.binseg_trace(cost, stop, opts)
        else:
            seg = search.botup_segment(cost, delta, stop, opts)
    return _report(cost, method, seg, pen, start, {
        "n_bkps": target if pen is None else None,
        "penalty": None if pen is None else pen.identifier,
        "min_size": opts.min_size,
        "jump": opts.jump,
        "window": window if method == "win" else None,
        "delta": delta if method == "botup" else None,
        "beta_equivalent": beta,
    }), trace
