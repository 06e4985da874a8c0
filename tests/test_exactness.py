"""Exactness harness over every cost kind the API accepts.

For each kind, with drawn data, extras, T, d, min_size, jump, K and beta:

- eval_grid, given the search's min_size, equals eval_batch gathered at
  the pairs of at least that many samples, bit for bit, with inf
  elsewhere;
- opt_segment reaches helpers.exhaustive_best's minimum, or both find no
  admissible segmentation;
- pelt_segment reaches the objective of
  helpers.optimal_partitioning(prune=False);
- win_segment, binseg_segment and botup_segment at opt's K never reach a
  lower sum of costs than opt_segment does.

The oracles read a table of the cost's own eval_batch values, so a scalar
cost is evaluated once per interval however often an oracle asks for it.
`pytest --hypothesis-profile=ci` (tests/conftest.py) draws ten times as many
examples per kind.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from sigseg import (
    COST_KINDS,
    SearchOptions,
    StoppingRule,
    binseg_segment,
    botup_segment,
    fit,
    make_segmentation,
    opt_segment,
    pelt_segment,
    sum_of_costs,
    win_segment,
)
from sigseg.costs import CostModel
from sigseg.search import InfeasibleError

# 10 examples per kind under hypothesis' default profile, 100 under "ci".
EXAMPLES = max(1, settings.default.max_examples // 10)

UNIVARIATE = ("linear", "linear_l1", "ar", "ecdf")
NONNEGATIVE = ("poisson", "kernel_chi2")


class Tabulated(CostModel):
    """A fitted cost's values, read back from a dense table."""

    def __init__(self, cost: CostModel, table: np.ndarray):
        super().__init__(cost.signal, cost.min_size)
        self.kind = cost.kind
        self._table = table

    def _values(self, starts, ends):
        return self._table[starts, ends]


@st.composite
def problems(draw, kind):
    T = draw(st.integers(10, 22))
    d = 1 if kind in UNIVARIATE else draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bkps = np.sort(rng.choice(np.arange(2, T - 1), size=draw(st.integers(0, 3)), replace=False))
    levels = rng.normal(0.0, 3.0, size=(len(bkps) + 1, d))
    data = np.repeat(levels, np.diff([0, *bkps, T]), axis=0) + rng.standard_normal((T, d))
    data += draw(st.sampled_from([0.0, 40.0]))  # an offset far from the spread
    if kind in NONNEGATIVE:
        data = np.abs(data)
    extras = {}
    if kind in ("linear", "linear_l1"):
        extras["covariates"] = np.column_stack([np.ones(T), rng.normal(size=T)])
    elif kind == "ar":
        extras["order"] = draw(st.integers(1, 2))
    elif kind == "mahalanobis":
        A = rng.normal(size=(d, d))
        extras["metric"] = A @ A.T
    cost = fit(kind, data, **extras)
    opts = SearchOptions(min_size=draw(st.integers(1, 3)), jump=draw(st.integers(1, 2)))
    return cost, opts, draw(st.integers(1, 3)), draw(st.floats(0.02, 0.5))


def close(got, want):
    return abs(got - want) <= 1e-9 * (1.0 + abs(want))


@pytest.mark.parametrize("kind", COST_KINDS)
@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(data=st.data())
def test_exact_searches_match_oracles(kind, data):
    cost, opts, n_bkps, beta_frac = data.draw(problems(kind))
    T = cost.signal.T
    msize = max(opts.min_size, cost.min_size)
    cands = np.array([t for t in range(opts.jump, T, opts.jump) if msize <= t <= T - msize],
                     dtype=np.int64)
    starts, ends = np.concatenate(([0], cands)), np.append(cands, T)

    grid = cost.eval_grid(starts, ends, msize)
    rows, cols = np.nonzero(ends[None, :] - starts[:, None] >= msize)
    want = np.full(grid.shape, np.inf)
    want[rows, cols] = cost.eval_batch(starts[rows], ends[cols])
    assert grid.tobytes() == want.tobytes()

    table = np.full((T + 1, T + 1), np.inf)
    table[np.ix_(starts, ends)] = grid
    oracle = Tabulated(cost, table)

    best, _ = helpers.exhaustive_best(oracle, n_bkps, msize, opts.jump)
    if np.isinf(best):
        with pytest.raises(InfeasibleError):
            opt_segment(cost, n_bkps, opts)
    else:
        assert close(sum_of_costs(cost, opt_segment(cost, n_bkps, opts)), best)

    beta = beta_frac * max(1.0, abs(cost.eval(0, T)))

    def objective(bkps):
        return sum_of_costs(cost, make_segmentation(bkps, T)) + beta * (len(bkps) - 1)

    want_bkps = helpers.optimal_partitioning(oracle, beta, opts.min_size, opts.jump)
    assert close(objective(pelt_segment(cost, beta, opts).bkps), objective(want_bkps))


@pytest.mark.parametrize("kind", COST_KINDS)
@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(data=st.data())
def test_approximate_methods_never_beat_opt(kind, data):
    cost, opts, n_bkps, _ = data.draw(problems(kind))
    T = cost.signal.T
    msize = max(opts.min_size, cost.min_size)
    try:
        best = sum_of_costs(cost, opt_segment(cost, n_bkps, opts))
    except InfeasibleError:
        return
    stop = StoppingRule.fixed_k(n_bkps)
    width = data.draw(st.integers(msize, T // 2))
    runs = {"win": lambda: win_segment(cost, width, stop, opts),
            "binseg": lambda: binseg_segment(cost, stop, opts)}
    deltas = [m for m in range(opts.jump, T // 2 + 1, opts.jump) if m > 2 and m >= msize]
    if deltas:
        delta = data.draw(st.sampled_from(deltas))
        runs["botup"] = lambda: botup_segment(cost, delta, stop, opts)
    for name, run in runs.items():
        try:
            seg = run()
        except ValueError as exc:
            # The method cannot place n_bkps changes, or (a known gap) a
            # window of win on ar starts inside the lag order.
            assert "cannot" in str(exc) or ((name, kind) == ("win", "ar")
                                            and "needs interval start 0 or >= order" in str(exc)), (name, exc)
            continue
        assert seg.n_bkps == n_bkps, name
        assert sum_of_costs(cost, seg) >= best - 1e-9 * (1.0 + abs(best)), name
