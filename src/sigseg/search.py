"""Search methods: exact dynamic programming, pruned penalized search, and
the window / binary / bottom-up approximations.

Every method consumes a fitted CostModel and returns a Segmentation whose
interior breakpoints lie on the candidate grid (multiples of `jump`) and
respect the effective minimum segment length on both sides.  Ties are broken
toward the smallest index everywhere, so outputs are deterministic.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .costs import CostModel
from .signals import Segmentation, make_segmentation


class InfeasibleError(ValueError):
    """No segmentation with the requested change count fits min_size and the grid."""


@dataclass(frozen=True)
class SearchOptions:
    """Scalability controls: minimum segment length and candidate grid step."""

    min_size: int = 1
    jump: int = 1

    def __post_init__(self):
        if self.min_size < 1:
            raise ValueError("min_size must be >= 1")
        if self.jump < 1:
            raise ValueError("jump must be >= 1")


@dataclass(frozen=True)
class StoppingRule:
    """Either a fixed change count or a score threshold, never both."""

    n_bkps: int | None = None
    threshold: float | None = None

    def __post_init__(self):
        if (self.n_bkps is None) == (self.threshold is None):
            raise ValueError("exactly one of n_bkps and threshold must be set")
        if self.n_bkps is not None and self.n_bkps < 1:
            raise ValueError("n_bkps must be >= 1")
        if self.threshold is not None and not (math.isfinite(self.threshold) and self.threshold > 0):
            raise ValueError(f"threshold must be finite and > 0, got {self.threshold}")

    @classmethod
    def fixed_k(cls, k: int) -> "StoppingRule":
        return cls(n_bkps=k)

    @classmethod
    def penalty_threshold(cls, beta: float) -> "StoppingRule":
        return cls(threshold=beta)


def _resolved(cost: CostModel, opts: SearchOptions | None) -> tuple[int, int, int]:
    opts = opts or SearchOptions()
    return cost.signal.T, max(opts.min_size, cost.min_size), opts.jump


def _grid(lo: int, hi: int, jump: int) -> np.ndarray:
    """Multiples of jump in [lo, hi], the admissible interior indexes."""
    first = -(-lo // jump) * jump
    return np.arange(first, hi + 1, jump, dtype=np.int64)


def opt_segment(cost: CostModel, n_bkps: int, opts: SearchOptions | None = None) -> Segmentation:
    """Exact minimizer of the sum of costs over segmentations with exactly
    n_bkps changes, by dynamic programming over segment starts.

    O(T^2 / jump^2) cost evaluations, each interval once;
    O(n_bkps * T^2 / jump^2) additions; O(n_bkps * T / jump) memory plus one
    block of ~200k (start, end) pairs.  Among equal-cost optima, returns the
    lexicographically smallest breakpoint sequence.  Raises InfeasibleError
    when no admissible segmentation has n_bkps changes.
    """
    T, msize, jump = _resolved(cost, opts)
    if n_bkps < 0:
        raise ValueError("n_bkps must be >= 0")
    if (n_bkps + 1) * msize > T:
        raise InfeasibleError(
            f"infeasible: {n_bkps + 1} segments of >= {msize} samples exceed T={T}"
        )
    if n_bkps == 0:
        return make_segmentation([T], T)

    cands = _grid(msize, T - msize, jump)
    if len(cands) < n_bkps:
        raise InfeasibleError(f"only {len(cands)} admissible indexes for {n_bkps} changes")
    starts = np.concatenate(([0], cands))

    # level[k, i] = best cost of covering (starts[i], T] with k changes; it
    # reads level k-1 only at candidates after starts[i].  Blocks of starts
    # run right to left with every level solved per block, so level k-1 is
    # known wherever level k reads it, and each block's feasible (start,
    # candidate end) pairs go to the cost once, in one batched call.  Block
    # size keeps the scratch arrays cache-friendly (~200k pairs).
    level = np.full((n_bkps + 1, len(starts)), np.inf)
    level[0] = cost.eval_batch(starts, T)
    parent = np.full((n_bkps + 1, len(starts)), -1, dtype=np.int64)
    block = max(1, 200_000 // len(cands))
    for i1 in range(len(starts), 0, -block):
        i0 = max(0, i1 - block)
        sb = starts[i0:i1]
        j0 = int(np.searchsorted(cands, sb[0] + msize))  # first end of any start here
        cb = cands[j0:]
        valid = cb[None, :] >= sb[:, None] + msize
        if not valid.any():
            continue
        rows, cols = np.nonzero(valid)
        slab = np.full(valid.shape, np.inf)
        slab[rows, cols] = cost.eval_batch(sb[rows], cb[cols])
        for k in range(1, n_bkps + 1):
            vals = slab + level[k - 1, 1 + j0:]
            j = np.argmin(vals, axis=1)  # first minimum: smallest t
            best = vals[np.arange(len(sb)), j]
            ok = np.isfinite(best)
            level[k, i0:i1][ok] = best[ok]
            parent[k, i0:i1][ok] = cb[j[ok]]

    if not np.isfinite(level[n_bkps, 0]):
        raise InfeasibleError(f"no admissible segmentation with {n_bkps} changes")
    bkps, cur = [], 0
    for k in range(n_bkps, 0, -1):
        cur = int(parent[k, np.searchsorted(starts, cur)])
        bkps.append(cur)
    return make_segmentation(bkps, T)


def pelt_segment(cost: CostModel, beta: float, opts: SearchOptions | None = None,
                 *, prune: bool = True) -> Segmentation:
    """Exact minimizer of sum-of-costs + beta * (number of changes).

    Scans candidate prefix ends left to right, keeping for each the best
    last change.  An index s whose continuation is already beaten at end t,
    best[s] + c(s, t) > best[t], loses to a change at t for every end from
    t + min_size on, so it leaves the admissible set then, not before: ends
    in (t, t + min_size) cannot place their last change at t.  Pruning never
    changes the result for costs where splitting cannot increase the cost;
    pass prune=False to force the full quadratic scan.
    """
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    T, msize, jump = _resolved(cost, opts)
    if T < msize:
        raise ValueError(f"T={T} shorter than min_size={msize}")

    ends = _grid(msize, T - 1, jump)
    if len(ends) == 0 or ends[-1] != T:
        ends = np.concatenate((ends, [T]))

    best = np.full(T + 1, np.inf)
    best[0] = -beta
    parent = np.zeros(T + 1, dtype=np.int64)
    # Admissible last changes in increasing order, each with the first end
    # at which it is pruned (T + 1: not pruned).
    adm = np.zeros(1, dtype=np.int64)
    dead_at = np.full(1, T + 1, dtype=np.int64)
    for t in ends:
        alive = dead_at > t
        adm, dead_at = adm[alive], dead_at[alive]
        n = np.searchsorted(adm, t - msize, side="right")  # adm[:n] lie >= min_size before t
        vals = best[adm[:n]] + cost.eval_batch(adm[:n], t) + beta
        j = int(np.argmin(vals))
        best[t], parent[t] = vals[j], adm[j]
        if prune:
            beaten = vals - beta > best[t]
            dead_at[:n][beaten] = np.minimum(dead_at[:n][beaten], t + msize)
        adm = np.append(adm, t)
        dead_at = np.append(dead_at, T + 1)

    chain = []
    cur = int(parent[T])
    while cur != 0:
        chain.append(cur)
        cur = int(parent[cur])
    return make_segmentation(sorted(chain) + [T], T)


def win_score_curve(cost: CostModel, width: int,
                    opts: SearchOptions | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Discrepancy between adjacent windows of `width` samples sliding along
    the signal: score[t] = c(t-w, t+w) - c(t-w, t) - c(t, t+w).

    Returns (indexes, scores) over grid points in [width, T - width].
    """
    T, msize, jump = _resolved(cost, opts)
    width = int(width)
    if width < msize:
        raise ValueError(f"window {width} below min_size {msize}")
    if 2 * width > T:
        raise ValueError(f"window wider than signal: 2*{width} > T={T}")
    cands = _grid(width, T - width, jump)
    if len(cands) == 0:
        return cands, np.array([])
    scores = (cost.eval_batch(cands - width, cands + width)
              - cost.eval_batch(cands - width, cands)
              - cost.eval_batch(cands, cands + width))
    return cands, scores


def win_segment(cost: CostModel, width: int, stop: StoppingRule,
                opts: SearchOptions | None = None) -> Segmentation:
    """Sliding-window detection: peak search on the discrepancy curve.

    Peaks are selected by iterated global maximum; each selection masks its
    +/- width neighborhood, so returned changes are >= width apart.  With a
    fixed change count the top peaks are returned; with a threshold, every
    peak scoring >= the threshold.
    """
    T, _, _ = _resolved(cost, opts)
    cands, scores = win_score_curve(cost, width, opts)
    live = scores.astype(float).copy()
    peaks: list[int] = []

    def take_peak() -> bool:
        if live.size == 0:
            return False
        j = int(np.argmax(live))  # first maximum: smallest index
        if not np.isfinite(live[j]):
            return False
        if stop.threshold is not None and live[j] < stop.threshold:
            return False
        peaks.append(int(cands[j]))
        live[np.abs(cands - cands[j]) < width] = -np.inf
        return True

    if stop.n_bkps is not None:
        for _ in range(stop.n_bkps):
            if not take_peak():
                raise ValueError(f"cannot place {stop.n_bkps} changes with window {width}")
    else:
        while take_peak():
            pass
    return make_segmentation(sorted(peaks) + [T], T)


def binseg_trace(cost: CostModel, stop: StoppingRule,
                 opts: SearchOptions | None = None) -> tuple[Segmentation, list[tuple[int, float]]]:
    """Binary segmentation, also returning the accepted (index, gain) trace."""
    T, msize, jump = _resolved(cost, opts)
    if T < 2 * msize:
        raise ValueError(f"T={T} too short to split with min_size={msize}")

    def best_split(u: int, v: int) -> tuple[float, int]:
        ts = _grid(u + msize, v - msize, jump)
        if len(ts) == 0:
            return -np.inf, -1
        whole = cost.eval_batch(np.array([u]), np.array([v]))[0]
        vals = (cost.eval_batch(np.full(len(ts), u), ts)
                + cost.eval_batch(ts, np.full(len(ts), v)))
        j = int(np.argmin(vals))
        return float(whole - vals[j]), int(ts[j])

    seg_end = {0: T}
    records = {0: best_split(0, T)}
    trace: list[tuple[int, float]] = []
    while True:
        if stop.n_bkps is not None and len(seg_end) - 1 >= stop.n_bkps:
            break
        pick, pick_gain = None, -np.inf
        for u in sorted(seg_end):
            gain, _ = records[u]
            if gain > pick_gain:
                pick, pick_gain = u, gain
        if not np.isfinite(pick_gain):
            if stop.n_bkps is not None:
                raise ValueError(f"cannot reach {stop.n_bkps} changes: no admissible split left")
            break
        if stop.threshold is not None and pick_gain < stop.threshold:
            break
        _, t = records[pick]
        v = seg_end[pick]
        trace.append((t, pick_gain))
        seg_end[pick] = t
        seg_end[t] = v
        records[pick] = best_split(pick, t)
        records[t] = best_split(t, v)

    bkps = sorted(u for u in seg_end if u != 0)
    return make_segmentation(bkps + [T], T), trace


def binseg_segment(cost: CostModel, stop: StoppingRule,
                   opts: SearchOptions | None = None) -> Segmentation:
    """Greedy top-down splitting: repeatedly add the split with the largest
    cost decrease; stop after the requested number of changes or when the
    best gain falls below the threshold."""
    return binseg_trace(cost, stop, opts)[0]


def botup_segment(cost: CostModel, delta: int, stop: StoppingRule,
                  opts: SearchOptions | None = None) -> Segmentation:
    """Bottom-up merging from an initial grid of changes every `delta`
    samples: repeatedly delete the change with the smallest merge gain;
    stop at the requested count or once the smallest gain exceeds the
    threshold.  Changes off the initial grid are never considered."""
    T, msize, jump = _resolved(cost, opts)
    delta = int(delta)
    if delta <= 2:
        raise ValueError("delta must exceed 2")
    if delta < msize:
        raise ValueError(f"delta {delta} below min_size {msize}")
    if delta % jump != 0:
        raise ValueError(f"delta {delta} must be a multiple of jump {jump}")

    pts = [i * delta for i in range(1, T // delta)]
    if stop.n_bkps is not None and stop.n_bkps > len(pts):
        raise ValueError(f"grid of {len(pts)} points cannot yield {stop.n_bkps} changes")

    nodes = [0] + pts + [T]
    prv = {t: p for p, t in zip(nodes, nodes[1:])}
    nxt = {t: n for t, n in zip(nodes, nodes[1:])}
    alive = set(pts)

    def merge_gain(t: int) -> float:
        lo, hi = prv[t], nxt[t]
        return float(cost.eval_batch(np.array([lo]), np.array([hi]))[0]
                     - cost.eval_batch(np.array([lo, t]), np.array([t, hi])).sum())

    current = {t: merge_gain(t) for t in pts}
    heap = [(g, t) for t, g in current.items()]
    heapq.heapify(heap)

    def pop_smallest() -> tuple[float, int] | None:
        while heap:
            g, t = heapq.heappop(heap)
            if t in alive and g == current[t]:
                return g, t
        return None

    while alive:
        if stop.n_bkps is not None and len(alive) <= stop.n_bkps:
            break
        entry = pop_smallest()
        if entry is None:
            break
        gain, t = entry
        if stop.threshold is not None and gain > stop.threshold:
            heapq.heappush(heap, (gain, t))
            break
        lo, hi = prv[t], nxt[t]
        alive.discard(t)
        nxt[lo], prv[hi] = hi, lo
        for nb in (lo, hi):
            if nb in alive:
                current[nb] = merge_gain(nb)
                heapq.heappush(heap, (current[nb], nb))

    return make_segmentation(sorted(alive) + [T], T)
