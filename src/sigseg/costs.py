"""Interval cost evaluators fitted once per signal.

Each evaluator answers c(a, b), the single-regime fit cost of samples
a+1 .. b (1-based), i.e. rows a .. b-1 of the data matrix, from summaries
precomputed at fit time (prefix sums, rank signal, the kernel
interval-cost table, lag matrix).  Fitted state is immutable, so eval may
be called concurrently.

Natural logarithms throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .signals import Signal, Segmentation, as_signal

COST_KINDS = (
    "l2",
    "normal",
    "poisson",
    "linear",
    "linear_l1",
    "ar",
    "mahalanobis",
    "rank",
    "ecdf",
    "kernel_linear",
    "kernel_rbf",
    "kernel_poly",
    "kernel_chi2",
)

KERNEL_KINDS = ("linear", "rbf", "polynomial", "chi2")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice and parameters for the kernel cost.

    gamma is the bandwidth (rbf, chi2); const and deg parametrize the
    polynomial kernel (k(x, y) = (<x, y> + const)^deg).  A missing gamma is
    resolved at fit time by the median heuristic on the fitted signal.
    """

    kind: str
    gamma: float | None = None
    const: float = 1.0
    deg: int = 2

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel {self.kind!r}, expected one of {KERNEL_KINDS}")
        if self.gamma is not None and not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if not math.isfinite(self.const):
            raise ValueError(f"const must be finite, got {self.const}")
        if self.deg < 1:
            raise ValueError("deg must be >= 1")


class Covariates:
    """Regressors for the piecewise linear costs.

    Every column of x is a per-segment regressor.  Coefficients shared across
    segments (the partial structural-change model) are out of scope.
    """

    __slots__ = ("x",)

    def __init__(self, x):
        out = np.asarray(x, dtype=float)
        if out.ndim == 1:
            out = out[:, None]
        if out.ndim != 2:
            raise ValueError("covariates x must be 1-D or 2-D")
        if not np.isfinite(out).all():
            raise ValueError("covariates x contain NaN or Inf")
        self.x = out.copy()
        self.x.flags.writeable = False


class CostModel:
    """Base interval evaluator; subclasses implement _values."""

    kind = "?"

    def __init__(self, signal: Signal, min_size: int = 1):
        self._signal = signal
        self.min_size = int(min_size)

    @property
    def signal(self) -> Signal:
        return self._signal

    def eval(self, a: int, b: int) -> float:
        """Cost of the sub-signal covering samples a+1 .. b."""
        vals = self.eval_batch(np.array([a]), np.array([b]))
        return float(vals[0])

    def eval_batch(self, starts, ends) -> np.ndarray:
        """Vectorized eval over parallel arrays of interval bounds."""
        starts, ends = np.broadcast_arrays(np.asarray(starts, dtype=np.int64),
                                           np.asarray(ends, dtype=np.int64))
        if starts.ndim != 1:
            starts, ends = starts.ravel(), ends.ravel()
        T = self._signal.T
        if starts.size and (starts.min() < 0 or ends.max() > T):
            raise ValueError(f"interval out of range for T={T}")
        if starts.size and (ends - starts).min() < self.min_size:
            raise ValueError(f"segment shorter than min_size={self.min_size} for cost {self.kind!r}")
        return self._values(starts, ends)

    def _values(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        # Vectorized costs override this; the rest loop over _one.
        return np.array([self._one(int(a), int(b)) for a, b in zip(starts, ends)], dtype=float)

    def _one(self, a: int, b: int) -> float:
        raise NotImplementedError


class L2Cost(CostModel):
    """Sum of squared deviations from the segment mean."""

    kind = "l2"

    def __init__(self, signal: Signal):
        super().__init__(signal, min_size=1)
        Y = signal.data
        self._sq = _prefix(np.sum(Y * Y, axis=1))
        self._sm = _prefix(Y)

    def _values(self, starts, ends):
        n = (ends - starts).astype(float)
        q = self._sq[ends] - self._sq[starts]
        s = self._sm[ends] - self._sm[starts]
        return np.maximum(0.0, q - np.einsum("ij,ij->i", s, s) / n)


class MahalanobisCost(CostModel):
    """Squared deviations from the segment mean under a PSD metric M."""

    kind = "mahalanobis"

    def __init__(self, signal: Signal, metric):
        super().__init__(signal, min_size=1)
        M = np.asarray(metric, dtype=float)
        d = signal.d
        if M.shape != (d, d):
            raise ValueError(f"metric must be {d}x{d}, got {M.shape}")
        scale = max(1.0, np.abs(M).max())
        if np.abs(M - M.T).max() > 1e-8 * scale:
            raise ValueError("metric matrix is not symmetric")
        if np.linalg.eigvalsh((M + M.T) / 2).min() < -1e-8 * scale:
            raise ValueError("metric matrix is not positive semi-definite")
        self._M = M
        Y = signal.data
        self._sq = _prefix(np.sum((Y @ M) * Y, axis=1))
        self._sm = _prefix(Y)

    def _values(self, starts, ends):
        n = (ends - starts).astype(float)
        q = self._sq[ends] - self._sq[starts]
        s = self._sm[ends] - self._sm[starts]
        return np.maximum(0.0, q - np.einsum("ij,ij->i", s @ self._M, s) / n)


class SigmaCost(CostModel):
    """Gaussian mean-and-covariance fit cost: n * (log det of the segment
    MLE covariance + d).

    Near-singular covariances are ridge-regularized by 1e-6 * (tr/d) unless
    regularization is disabled, in which case they raise.
    """

    kind = "normal"

    _EPS = 1e-6
    _SINGULAR_TOL = 1e-10

    def __init__(self, signal: Signal, regularize: bool = True):
        super().__init__(signal, min_size=signal.d + 1)
        Y = signal.data
        self._sm = _prefix(Y)
        self._so = _prefix(np.einsum("ti,tj->tij", Y, Y))
        self._regularize = bool(regularize)

    def _one(self, a, b):
        n = float(b - a)
        mean = (self._sm[b] - self._sm[a]) / n
        cov = (self._so[b] - self._so[a]) / n - np.outer(mean, mean)
        d = self._signal.d
        tr_norm = float(np.trace(cov)) / d
        if np.linalg.eigvalsh(cov).min() < self._SINGULAR_TOL * tr_norm:
            if not self._regularize:
                raise ValueError(f"singular covariance on interval ({a}, {b}]")
            cov = cov + self._EPS * tr_norm * np.eye(d)
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0 or not np.isfinite(logdet):
            raise ValueError(f"singular covariance on interval ({a}, {b}]")
        return n * (logdet + d)


class PoissonCost(CostModel):
    """Poisson rate fit cost, -n * mean * log(mean), summed over dimensions.

    0 * log 0 counts as 0.  Requires nonnegative data.
    """

    kind = "poisson"

    def __init__(self, signal: Signal):
        super().__init__(signal, min_size=1)
        if (signal.data < 0).any():
            raise ValueError("poisson cost requires nonnegative data")
        self._sm = _prefix(signal.data)

    def _values(self, starts, ends):
        n = (ends - starts).astype(float)
        means = (self._sm[ends] - self._sm[starts]) / n[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(means > 0, means * np.log(means), 0.0)
        return -n * terms.sum(axis=1)


class LinearCost(CostModel):
    """Least-squares residual of regressing the signal on covariates.

    Rank-deficient designs fall back to the minimum-norm solution.
    """

    kind = "linear"

    def __init__(self, signal: Signal, covariates: Covariates):
        if signal.d != 1:
            raise ValueError(f"{self.kind} cost expects a univariate response")
        if covariates.x.shape[0] != signal.T:
            raise ValueError("covariates must have the same length as the signal")
        super().__init__(signal, min_size=covariates.x.shape[1])
        self._design = covariates.x
        self._y = signal.data[:, 0]

    def _one(self, a, b):
        return _lstsq_residual(self._design[a:b], self._y[a:b])


class LinearL1Cost(LinearCost):
    """Least absolute deviations residual, solved by reweighted least squares."""

    kind = "linear_l1"

    def _one(self, a, b):
        return irls_lad(self._design[a:b], self._y[a:b])[0]


def _lstsq_residual(W, y) -> float:
    """Residual sum of squares of the minimum-norm least-squares fit of y on W."""
    coef = np.linalg.lstsq(W, y, rcond=None)[0]
    resid = y - W @ coef
    return float(resid @ resid)


_LAD_WEIGHT_FLOOR = 1e-8
_LAD_MAX_ITER = 50
_LAD_REL_TOL = 1e-10


def irls_lad(design, y):
    """Minimize sum |y - design @ u| by iteratively reweighted least squares.

    Starts from the least-squares fit; each accepted iterate lowers the
    objective (worsening steps are rejected, which ends the loop), so the
    returned history is non-increasing.  Returns (objective, history).
    """
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    resid = y - design @ coef
    best = float(np.abs(resid).sum())
    history = [best]
    for _ in range(_LAD_MAX_ITER):
        w = np.sqrt(1.0 / np.maximum(np.abs(resid), _LAD_WEIGHT_FLOOR))
        coef = np.linalg.lstsq(design * w[:, None], y * w, rcond=None)[0]
        resid = y - design @ coef
        cur = float(np.abs(resid).sum())
        if cur > best:
            break
        history.append(cur)
        converged = best - cur < _LAD_REL_TOL * max(best, 1.0)
        best = cur
        if converged:
            break
    return best, history


class ARCost(CostModel):
    """Residual of regressing each sample on its lagged values plus an
    intercept.

    Lag vectors come from the full signal, so a segment is fitted against
    true history across its left boundary.  The first segment (a = 0) is
    conditioned on the first `order` samples; interior intervals starting
    before `order` are rejected.
    """

    kind = "ar"

    def __init__(self, signal: Signal, order: int):
        if signal.d != 1:
            raise ValueError("ar cost expects a univariate signal")
        order = int(order)
        if order < 1:
            raise ValueError("ar order must be >= 1")
        if order >= signal.T:
            raise ValueError(f"ar order {order} too large for T={signal.T}")
        super().__init__(signal, min_size=order + 1)
        y = signal.data[:, 0]
        self.order = order
        # Row i describes sample order+i: its `order` lags and an intercept.
        cols = [y[order - k - 1 : signal.T - k - 1] for k in range(order)]
        cols.append(np.ones(signal.T - order))
        self._design = np.column_stack(cols)
        self._resp = y[order:]

    def _one(self, a, b):
        p = self.order
        if 0 < a < p:
            raise ValueError(f"ar cost needs interval start 0 or >= order ({p}), got {a}")
        s = max(a, p)
        return _lstsq_residual(self._design[s - p : b - p], self._resp[s - p : b - p])


class RankCost(CostModel):
    """Homogeneity of centered per-dimension rank statistics.

    Invariant under strictly increasing maps of tie-free data.
    """

    kind = "rank"

    def __init__(self, signal: Signal):
        super().__init__(signal, min_size=1)
        Y = signal.data
        T = signal.T
        ranks = np.empty_like(Y)
        for j in range(signal.d):
            col = Y[:, j]
            ranks[:, j] = np.searchsorted(np.sort(col), col, side="right")
        r = ranks - (T + 1) / 2.0
        self._pr = _prefix(r)
        shifted = r + 0.5
        cov = (shifted.T @ shifted) / T
        self._inv = np.linalg.pinv(cov, hermitian=True)

    def _values(self, starts, ends):
        n = (ends - starts).astype(float)
        rbar = (self._pr[ends] - self._pr[starts]) / n[:, None]
        quad = np.einsum("ij,jk,ik->i", rbar, self._inv, rbar)
        return -n * quad


class EcdfCost(CostModel):
    """Nonparametric likelihood cost from segment empirical cdfs.

    The segment cdf is evaluated at every order statistic u_(j) of the full
    signal, with weights 1 / ((j - 0.5) * (T - j + 0.5)); equal values count
    one half.  Univariate only.
    """

    kind = "ecdf"

    def __init__(self, signal: Signal):
        if signal.d != 1:
            raise ValueError("ecdf cost is defined for univariate signals only")
        super().__init__(signal, min_size=1)
        self._y = signal.data[:, 0]
        self._sorted = np.sort(self._y)
        j = np.arange(1, signal.T + 1, dtype=float)
        self._weights = 1.0 / ((j - 0.5) * (signal.T - j + 0.5))

    def _one(self, a, b):
        n = float(b - a)
        seg = np.sort(self._y[a:b])
        less = np.searchsorted(seg, self._sorted, side="left")
        leq = np.searchsorted(seg, self._sorted, side="right")
        F = (less + 0.5 * (leq - less)) / n
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(
                (F > 0) & (F < 1),
                F * np.log(F) + (1.0 - F) * np.log(1.0 - F),
                0.0,
            )
        return -n * float(np.sum(g * self._weights))


class KernelCost(CostModel):
    """Scatter of the signal around its segment mean in kernel feature space.

    c(a, b) = sum_t k(y_t, y_t) - (1/n) sum_{s,t} k(y_s, y_t) over the
    segment.  Fit builds a dense (T+1) x (T+1) table of every c(a, b), so
    an interval costs one lookup; the table takes 8 (T+1)^2 bytes (800 MB
    at T = 10,000).
    """

    kind = "kernel"

    def __init__(self, signal: Signal, spec: KernelSpec):
        super().__init__(signal, min_size=1)
        if spec.kind == "chi2" and (signal.data < 0).any():
            raise ValueError("chi2 kernel requires nonnegative data")
        if spec.kind in ("rbf", "chi2") and spec.gamma is None:
            spec = replace(spec, gamma=self._median_gamma(signal, spec.kind))
        self.spec = spec
        self.kind = f"kernel_{'poly' if spec.kind == 'polynomial' else spec.kind}"
        self._table = self._cost_table()

    @staticmethod
    def _median_gamma(signal: Signal, kind: str) -> float:
        # Median heuristic on an evenly spaced subsample; deterministic.
        idx = np.unique(np.linspace(0, signal.T - 1, min(signal.T, 256)).astype(int))
        Y = signal.data[idx]
        dist = _distance(kind, Y[:, None, :], Y[None, :, :])
        med = float(np.median(dist[np.triu_indices(len(idx), k=1)])) if len(idx) > 1 else 0.0
        return 1.0 / med if med > 0 else 1.0

    def _krow(self, t: int) -> np.ndarray:
        Y, spec = self._signal.data, self.spec
        if spec.kind == "linear":
            return Y @ Y[t]
        if spec.kind == "polynomial":
            return (Y @ Y[t] + spec.const) ** spec.deg
        return np.exp(-spec.gamma * _distance(spec.kind, Y, Y[t]))

    def _cost_table(self) -> np.ndarray:
        # Rows are filled from a = T-1 down to 0.  For the current a,
        # diag[b] and block[b] hold the sums of k over the diagonal of
        # [a, b) and over [a, b)^2, extended from row a+1 by Gram row a
        # alone, so no entry is a difference of large prefix sums.
        T = self._signal.T
        table = np.zeros((T + 1, T + 1))
        sums = np.zeros((2, T + 1))
        diag, block = sums
        lengths = np.arange(1, T + 1, dtype=float)
        for a in range(T - 1, -1, -1):
            row = self._krow(a)
            row[a + 1:] *= 2.0
            block[a + 2:] += np.cumsum(row[a + 1:])
            sums[:, a + 1:] += row[a]
            table[a, a + 1:] = diag[a + 1:] - block[a + 1:] / lengths[:T - a]
        return table

    def _values(self, starts, ends):
        return self._table[starts, ends]


def _distance(kind: str, A, B) -> np.ndarray:
    """rbf (squared Euclidean) or chi2 distance over the last axis; 0/0 chi2 terms are 0."""
    diff = A - B
    if kind == "chi2":
        den = A + B
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(den > 0, diff * diff / den, 0.0).sum(axis=-1)
    return np.sum(diff * diff, axis=-1)


def _prefix(values: np.ndarray) -> np.ndarray:
    """Cumulative sums with a leading zero row, so prefix[b] - prefix[a]
    aggregates rows a .. b-1."""
    out = np.zeros((len(values) + 1,) + values.shape[1:])
    np.cumsum(values, axis=0, out=out[1:])
    return out


def fit(kind: str, signal, *, covariates=None, order=None, metric=None,
        gamma=None, const=1.0, deg=2, regularize=True) -> CostModel:
    """Build the cost evaluator named by `kind` for a signal.

    Extra state is per kind: Covariates for the linear costs, the lag order
    for "ar", a PSD metric matrix for "mahalanobis", kernel parameters for
    the kernel costs.
    """
    signal = as_signal(signal)
    if kind == "l2":
        return L2Cost(signal)
    if kind == "normal":
        return SigmaCost(signal, regularize=regularize)
    if kind == "poisson":
        return PoissonCost(signal)
    if kind in ("linear", "linear_l1"):
        if covariates is None:
            raise ValueError(f"{kind} cost requires covariates")
        if not isinstance(covariates, Covariates):
            covariates = Covariates(covariates)
        cls = LinearCost if kind == "linear" else LinearL1Cost
        return cls(signal, covariates)
    if kind == "ar":
        if order is None:
            raise ValueError("ar cost requires the lag order")
        return ARCost(signal, order)
    if kind == "mahalanobis":
        if metric is None:
            raise ValueError("mahalanobis cost requires a metric matrix")
        return MahalanobisCost(signal, metric)
    if kind == "rank":
        return RankCost(signal)
    if kind == "ecdf":
        return EcdfCost(signal)
    if kind.startswith("kernel_"):
        name = kind[len("kernel_"):]
        name = "polynomial" if name == "poly" else name
        spec = KernelSpec(name, gamma=gamma, const=const, deg=deg)
        return KernelCost(signal, spec)
    raise ValueError(f"unknown cost kind {kind!r}, expected one of {COST_KINDS}")


def sum_of_costs(cost: CostModel, seg: Segmentation) -> float:
    """Total cost of a segmentation: the sum of per-segment costs."""
    bounds = np.fromiter(seg.bkps, dtype=np.int64)
    starts = np.concatenate(([0], bounds[:-1]))
    return float(np.sum(cost.eval_batch(starts, bounds)))
