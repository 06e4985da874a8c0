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

    O(T^2 / jump^2) cost evaluations, each admissible interval once, from
    one cost.eval_grid slab per block of starts (its pairs shorter than
    min_size are inf and never scored); O(n_bkps * T^2 / jump^2) additions;
    O(n_bkps * T / jump) memory plus one block of ~200k (start, end)
    pairs.  Among equal-cost optima, returns the lexicographically smallest
    breakpoint sequence.  Raises InfeasibleError when no admissible
    segmentation has n_bkps changes.
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
    # known wherever level k reads it, and each block's (start, candidate
    # end) slab comes from one cost.eval_grid call, with the pairs shorter
    # than msize set to inf.  Block size keeps the scratch arrays
    # cache-friendly (~200k pairs).
    level = np.full((n_bkps + 1, len(starts)), np.inf)
    level[0] = cost.eval_batch(starts, T)
    parent = np.full((n_bkps + 1, len(starts)), -1, dtype=np.int64)
    block = max(1, 200_000 // len(cands))
    for i1 in range(len(starts), 0, -block):
        i0 = max(0, i1 - block)
        sb = starts[i0:i1]
        j0 = int(np.searchsorted(cands, sb[0] + msize))  # first end of any start here
        cb = cands[j0:]
        if len(cb) == 0:
            continue
        slab = cost.eval_grid(sb, cb, msize)
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

    Ends run in blocks of up to 24 consecutive ends, with one
    cost.eval_grid call per block for the (candidate, end) slab, where the
    candidates are those left by earlier blocks and the block's own ends.
    An end's best can continue the best of an earlier end in the same
    block, so the block repeats one vectorised pass until its bests stop
    changing.  Each pass settles at least one more end, and two passes do
    when no end's best places its last change inside the block.  Each best
    is (best[s] + c(s, t)) + beta as in an end-by-end scan, bit for bit.

    Pruning runs once per block, so a candidate beaten inside a block is
    still scored up to the block's last end: about 12 extra evaluations per
    pruned candidate, which is why blocks stay short.  That adds only
    candidates that lose, which cannot change the result.  Where the cost or
    rounding breaks the pruning inequality and such a candidate wins an
    end, the block is cut before that end and the next block starts there
    without it, so the breakpoints always equal the end-by-end scan's.
    Scratch: a few arrays of (candidates + 24) x 24 entries, with fewer
    ends per block beyond ~200k pairs.
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
    # Admissible last changes left by earlier blocks, in increasing order,
    # each with the first end at which it is pruned (T + 1: not pruned).
    adm = np.zeros(1, dtype=np.int64)
    dead_at = np.full(1, T + 1, dtype=np.int64)
    b0 = 0
    while b0 < len(ends):
        alive = dead_at > ends[b0]
        adm, dead_at = adm[alive], dead_at[alive]
        n_old = len(adm)
        E = ends[b0:b0 + max(1, min(24, 200_000 // n_old))]
        B = len(E)
        # Row r is the last change cand[r], column j the end E[j]; pairs
        # shorter than min_size are inf.
        cand = np.concatenate((adm, E))
        C = cost.eval_grid(cand, E, msize)
        # head[r] = best[cand[r]]; the block's own bests start unknown.
        head = np.concatenate((best[adm], np.full(B, np.inf)))
        for _ in range(B + 1):
            W = head[:, None] + C + beta
            win = W.argmin(axis=0)  # first minimum: the smallest index
            bE = W[win, np.arange(B)]
            if np.array_equal(bE, head[n_old:]):
                break
            head[n_old:] = bE

        dead = np.concatenate((dead_at, np.full(B, T + 1)))
        stop = B
        if prune:
            # Pairs below min_size are inf in W but beat nothing.
            beaten = (cand[:, None] <= E - msize) & (W - beta > bE)
            first = np.where(beaten.any(axis=1), beaten.argmax(axis=1), B)
            kill = np.append(E + msize, T + 1)[first]
            # A winner that the end-by-end scan had already pruned.
            late = np.minimum(dead, kill)[win] <= E
            if late.any():
                stop = int(late.argmax())
                kill[first >= stop] = T + 1
            dead = np.minimum(dead, kill)
        best[E[:stop]] = bE[:stop]
        parent[E[:stop]] = cand[win[:stop]]
        adm, dead_at = cand[:n_old + stop], dead[:n_old + stop]
        b0 += stop

    chain = []
    cur = int(parent[T])
    while cur != 0:
        chain.append(cur)
        cur = int(parent[cur])
    return make_segmentation(sorted(chain) + [T], T)


def _split_costs(cost: CostModel, lo, t, hi) -> tuple[np.ndarray, np.ndarray]:
    """(c(lo, hi), c(lo, t) + c(t, hi)): the cost of (lo, hi] whole and
    split at t, whose difference is the split gain that win, binseg and botup
    rank by.  lo and hi are scalars or arrays shaped like t; c(lo, hi) takes
    their broadcast shape, so a scalar pair is one interval.  Three
    eval_batch calls, kept apart: one call over all three bounds would hold
    three times the intervals at once, and the root split of a long signal
    is the largest batch a search makes."""
    whole = cost.eval_batch(lo, hi).reshape(np.broadcast_shapes(np.shape(lo), np.shape(hi)))
    return whole, cost.eval_batch(lo, t) + cost.eval_batch(t, hi)


def win_score_curve(cost: CostModel, width: int,
                    opts: SearchOptions | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Discrepancy between adjacent windows of `width` samples sliding along
    the signal: score[t] = c(t-w, t+w) - (c(t-w, t) + c(t, t+w)), the split
    gain of the window at its centre.  The two halves enter as one sum, which
    is commutative in floating point too, so two mirror-image windows score
    equally and their tie goes to the smaller index.

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
    whole, split = _split_costs(cost, cands - width, cands, cands + width)
    return cands, whole - split


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
        whole, split = _split_costs(cost, u, ts, v)
        j = int(np.argmin(split))  # first minimum: smallest t
        return float(whole - split[j]), int(ts[j])

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

    def merge_gains(ts: list[int]) -> dict[int, float]:
        # The gain of deleting t is the split gain of (prv[t], nxt[t]] at t.
        whole, split = _split_costs(cost, [prv[t] for t in ts], ts, [nxt[t] for t in ts])
        return dict(zip(ts, (whole - split).tolist()))

    current = merge_gains(pts)
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
        nbs = [nb for nb in (lo, hi) if nb in alive]
        if nbs:
            current.update(merge_gains(nbs))
            for nb in nbs:
                heapq.heappush(heap, (current[nb], nb))

    return make_segmentation(sorted(alive) + [T], T)
