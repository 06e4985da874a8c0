"""Independent reference implementations used as test oracles.

Everything here recomputes values from raw data by direct summation or
exhaustive enumeration, deliberately avoiding the library's prefix-sum,
Gram, and dynamic-programming paths.
"""

from itertools import combinations, islice
import math

import numpy as np


def naive_l2(data, a, b):
    seg = data[a:b]
    mean = seg.mean(axis=0)
    return float(sum(float((row - mean) @ (row - mean)) for row in seg))


def naive_sigma(data, a, b):
    seg = data[a:b]
    n = b - a
    mean = seg.mean(axis=0)
    cov = np.cov(seg, rowvar=False, bias=True).reshape(seg.shape[1], seg.shape[1])
    inv = np.linalg.inv(cov)
    quad = sum(float((row - mean) @ inv @ (row - mean)) for row in seg)
    return n * float(np.linalg.slogdet(cov)[1]) + quad


def naive_poisson(data, a, b):
    n = b - a
    total = 0.0
    for j in range(data.shape[1]):
        m = data[a:b, j].mean()
        if m > 0:
            total += -n * m * math.log(m)
    return total


def naive_linear(design, y, a, b):
    W, resp = design[a:b], y[a:b]
    coef = np.linalg.pinv(W) @ resp
    resid = resp - W @ coef
    return float(resid @ resid)


def naive_lad_intercept(y, a, b):
    # Intercept-only least absolute deviations: some sample value is optimal.
    seg = y[a:b]
    return min(float(np.abs(seg - c).sum()) for c in seg)


def naive_ar(y, order, a, b):
    rows, resp = [], []
    for t in range(max(a, order), b):
        rows.append(list(y[t - order:t][::-1]) + [1.0])
        resp.append(y[t])
    W, resp = np.array(rows), np.array(resp)
    coef = np.linalg.pinv(W) @ resp
    resid = resp - W @ coef
    return float(resid @ resid)


def naive_mahalanobis(data, M, a, b):
    seg = data[a:b]
    mean = seg.mean(axis=0)
    return float(sum(float((row - mean) @ M @ (row - mean)) for row in seg))


def naive_rank(data, a, b):
    T, d = data.shape
    ranks = np.zeros((T, d))
    for t in range(T):
        for j in range(d):
            ranks[t, j] = sum(data[s, j] <= data[t, j] for s in range(T)) - (T + 1) / 2
    shifted = ranks + 0.5
    cov = sum(np.outer(shifted[t], shifted[t]) for t in range(T)) / T
    inv = np.linalg.pinv(cov, hermitian=True)
    rbar = ranks[a:b].mean(axis=0)
    return -(b - a) * float(rbar @ inv @ rbar)


def naive_ecdf(y, a, b):
    T = len(y)
    n = b - a
    seg = y[a:b]
    total = 0.0
    for j, u in enumerate(sorted(y), start=1):
        F = (sum(v < u for v in seg) + 0.5 * sum(v == u for v in seg)) / n
        term = 0.0
        if 0 < F < 1:
            term = F * math.log(F) + (1 - F) * math.log(1 - F)
        total += term / ((j - 0.5) * (T - j + 0.5))
    return -n * total


def kernel_fn(spec):
    if spec.kind == "linear":
        return lambda x, y: float(x @ y)
    if spec.kind == "polynomial":
        return lambda x, y: float(x @ y + spec.const) ** spec.deg
    if spec.kind == "rbf":
        return lambda x, y: math.exp(-spec.gamma * float((x - y) @ (x - y)))

    def chi2(x, y):
        total = 0.0
        for xi, yi in zip(x, y):
            if xi + yi > 0:
                total += (xi - yi) ** 2 / (xi + yi)
        return math.exp(-spec.gamma * total)

    return chi2


def naive_kernel(data, spec, a, b):
    k = kernel_fn(spec)
    n = b - a
    diag = sum(k(data[t], data[t]) for t in range(a, b))
    cross = sum(k(data[s], data[t]) for s in range(a, b) for t in range(a, b))
    return diag - cross / n


def _rowwise_distance(kind, A, B):
    diff = A - B
    if kind == "chi2":
        den = A + B
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(den > 0, diff * diff / den, 0.0).sum(axis=-1)
    return np.sum(diff * diff, axis=-1)


def rowwise_median_gamma(data, kind):
    """The median-heuristic bandwidth over whole-row distance sums."""
    T = len(data)
    idx = np.unique(np.linspace(0, T - 1, min(T, 256)).astype(int))
    Y = data[idx]
    dist = _rowwise_distance(kind, Y[:, None, :], Y[None, :, :])
    med = float(np.median(dist[np.triu_indices(len(idx), k=1)])) if len(idx) > 1 else 0.0
    return 1.0 / med if med > 0 else 1.0


def rowwise_kernel_table(data, spec):
    """The (T+1) x (T+1) kernel interval-cost table, one Gram row at a time.

    Each Gram row is a matrix-vector product or a whole-row distance sum,
    and extends the running diagonal and block sums from the last row up.
    """
    Y = data
    T = len(Y)

    def krow(t):
        if spec.kind == "linear":
            return Y @ Y[t]
        if spec.kind == "polynomial":
            return (Y @ Y[t] + spec.const) ** spec.deg
        return np.exp(-spec.gamma * _rowwise_distance(spec.kind, Y, Y[t]))

    table = np.zeros((T + 1, T + 1))
    sums = np.zeros((2, T + 1))
    diag, block = sums
    lengths = np.arange(1, T + 1, dtype=float)
    for a in range(T - 1, -1, -1):
        row = krow(a)
        row[a + 1:] *= 2.0
        block[a + 2:] += np.cumsum(row[a + 1:])
        sums[:, a + 1:] += row[a]
        table[a, a + 1:] = diag[a + 1:] - block[a + 1:] / lengths[:T - a]
    return table


def exhaustive_best(cost, n_bkps, min_size, jump=1):
    """Minimum sum of costs over every admissible breakpoint combination.

    Combinations are enumerated in lexicographic order and scored in chunks,
    one batched cost call per chunk; the first minimum wins.
    """
    T = cost.signal.T
    if n_bkps == 0:
        return cost.eval(0, T), [T]
    cands = [t for t in range(jump, T, jump) if min_size <= t <= T - min_size]
    combos = combinations(cands, n_bkps)
    best_v, best_pts = np.inf, None
    while chunk := list(islice(combos, 50_000)):
        bounds = np.pad(np.array(chunk, dtype=np.int64), ((0, 0), (1, 1)),
                        constant_values=((0, 0), (0, T)))
        bounds = bounds[(np.diff(bounds, axis=1) >= min_size).all(axis=1)]
        if len(bounds) == 0:
            continue
        v = cost.eval_batch(bounds[:, :-1].ravel(), bounds[:, 1:].ravel())
        v = v.reshape(len(bounds), n_bkps + 1).sum(axis=1)
        j = int(np.argmin(v))
        if v[j] < best_v:
            best_v, best_pts = float(v[j]), [int(t) for t in bounds[j, 1:-1]]
    return best_v, (best_pts or []) + [T]


def optimal_partitioning(cost, beta, min_size, jump=1, prune=False):
    """Breakpoints minimizing the sum of costs + beta per change.

    The plain O(T^2) optimal-partitioning recursion over every admissible
    last change of every end, one cost.eval per pair.  Ends are the
    multiples of jump in [min_size, T) and T itself; among equal objectives
    the smallest last change wins.  With prune, the end-by-end PELT rule:
    a last change s beaten at end t, best[s] + c(s, t) > best[t], is
    skipped from end t + min_size on.
    """
    T = cost.signal.T
    min_size = max(min_size, cost.min_size)
    ends = [t for t in range(jump, T, jump) if t >= min_size] + [T]
    best, last, dead_at = {0: -beta}, {}, {}
    for t in ends:
        vals = {}
        for s in [0] + ends:
            if s > t - min_size:
                break
            if dead_at.get(s, T + 1) <= t:
                continue
            vals[s] = v = best[s] + cost.eval(s, t) + beta
            if t not in best or v < best[t]:
                best[t], last[t] = v, s
        if prune:
            for s, v in vals.items():
                if v - beta > best[t]:
                    dead_at.setdefault(s, t + min_size)
    bkps, t = [], T
    while t:
        bkps.append(t)
        t = last[t]
    return bkps[::-1]


def pairwise_rand_index(truth, pred):
    """O(T^2) enumeration over unordered sample pairs."""

    def labels(seg):
        out = np.empty(seg.T, dtype=int)
        for k, (a, b) in enumerate(seg.segments()):
            out[a:b] = k
        return out

    lt, lp = labels(truth), labels(pred)
    agree = 0
    total = 0
    for s in range(truth.T):
        for t in range(s + 1, truth.T):
            total += 1
            agree += (lt[s] == lt[t]) == (lp[s] == lp[t])
    return agree / total


def random_segmentation(rng, T, n_bkps, min_spacing=2):
    """A valid random segmentation with the requested change count."""
    from sigseg import make_segmentation

    slack = T - (n_bkps + 1) * min_spacing
    assert slack >= 0
    picks = np.sort(rng.choice(slack + n_bkps, size=n_bkps, replace=False))
    bkps = [int(v) - i + (i + 1) * min_spacing for i, v in enumerate(picks)]
    return make_segmentation(bkps, T)
