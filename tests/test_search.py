import itertools
import math

import numpy as np
import pytest

import helpers
from sigseg import (
    SearchOptions,
    StoppingRule,
    binseg_segment,
    binseg_trace,
    botup_segment,
    fit,
    opt_segment,
    pelt_segment,
    sum_of_costs,
    win_score_curve,
    win_segment,
)
from sigseg.search import InfeasibleError


def step_signal(T=100, at=50, height=5.0):
    return np.concatenate([np.zeros(at), np.full(T - at, height)])


STEP = fit("l2", step_signal())


class TestStoppingRule:
    def test_exactly_one_variant(self):
        with pytest.raises(ValueError):
            StoppingRule(n_bkps=1, threshold=1.0)
        with pytest.raises(ValueError):
            StoppingRule()
        assert StoppingRule.fixed_k(2).n_bkps == 2
        assert StoppingRule.penalty_threshold(0.5).threshold == 0.5

    def test_bounds(self):
        with pytest.raises(ValueError):
            StoppingRule.fixed_k(0)
        with pytest.raises(ValueError):
            StoppingRule.penalty_threshold(0.0)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_threshold(self, threshold):
        with pytest.raises(ValueError, match="finite"):
            StoppingRule.penalty_threshold(threshold)


class TestOpt:
    def test_zero_changes(self):
        seg = opt_segment(STEP, 0)
        assert seg.bkps == (100,)

    def test_noiseless_step(self):
        seg = opt_segment(STEP, 1)
        assert seg.bkps == (50, 100)
        assert sum_of_costs(STEP, seg) == 0.0

    def test_infeasible(self):
        with pytest.raises(InfeasibleError, match="infeasible"):
            opt_segment(fit("l2", np.arange(10.0)), 4, SearchOptions(min_size=3))
        with pytest.raises(InfeasibleError, match="admissible indexes"):
            opt_segment(fit("l2", np.arange(10.0)), 4, SearchOptions(min_size=2, jump=3))

    EXHAUSTIVE_CASES = [pytest.param("l2", 2, 1, seed, id=str(seed)) for seed in range(12)] + [
        pytest.param(kind, min_size, jump, seed, id=f"{kind}-min{min_size}-jump{jump}")
        for seed, (kind, min_size, jump) in enumerate(
            itertools.product(("normal", "poisson", "kernel_rbf"), (1, 2, 3), (1, 2)), start=12)
    ]

    @pytest.mark.parametrize("kind, min_size, jump, seed", EXHAUSTIVE_CASES)
    def test_matches_exhaustive_enumeration(self, kind, min_size, jump, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(15, 41))
        K = int(rng.integers(1, 3))
        data = rng.normal(size=(T, 2))
        if kind == "poisson":
            data = rng.poisson(3.0, size=(T, 2)).astype(float)
        cost = fit(kind, data, gamma=0.5 if kind == "kernel_rbf" else None)
        msize = max(min_size, cost.min_size)
        want_v, _ = helpers.exhaustive_best(cost, K, min_size=msize, jump=jump)
        seg = opt_segment(cost, K, SearchOptions(min_size=min_size, jump=jump))
        got_v = sum_of_costs(cost, seg)
        assert abs(got_v - want_v) <= 1e-9 * (1 + abs(want_v))
        assert all(t % jump == 0 for t in seg.interior)
        assert min(np.diff([0, *seg.bkps])) >= msize

    @pytest.mark.parametrize("kind", ["l2", "poisson"])
    @pytest.mark.parametrize("min_size", [1, 3])
    def test_multi_block_matches_exhaustive_enumeration(self, kind, min_size):
        # 600 starts against ~600 candidate ends exceed one block of ~200k
        # (start, end) pairs, so the DP spans two blocks of starts; both
        # changes lie in the right block, which the left block reads
        rng = np.random.default_rng(600 + min_size)
        T = 600
        data = np.repeat(rng.normal(scale=2.0, size=(3, 2)), [380, 120, 100], axis=0)
        data += rng.normal(size=(T, 2))
        if kind == "poisson":
            data = rng.poisson(np.exp(1 + data / 4)).astype(float)
        cost = fit(kind, data)
        n_cands = T - 2 * min_size + 1
        assert (n_cands + 1) * n_cands > 200_000
        want_v, _ = helpers.exhaustive_best(cost, 2, min_size=min_size)
        seg = opt_segment(cost, 2, SearchOptions(min_size=min_size))
        got_v = sum_of_costs(cost, seg)
        assert abs(got_v - want_v) <= 1e-9 * (1 + abs(want_v))

    def test_each_interval_evaluated_once(self):
        from sigseg.costs import L2Cost
        from sigseg.signals import as_signal

        class CountingL2(L2Cost):
            def __init__(self, signal):
                super().__init__(signal)
                self.pairs = []

            def eval_batch(self, starts, ends):
                s, e = np.broadcast_arrays(starts, ends)
                self.pairs.extend(zip(s.ravel().tolist(), e.ravel().tolist()))
                return super().eval_batch(starts, ends)

        rng = np.random.default_rng(41)
        data = rng.normal(size=(500, 2))
        cost = CountingL2(as_signal(data))
        seg = opt_segment(cost, 3, SearchOptions(min_size=2))
        assert len(cost.pairs) == len(set(cost.pairs))
        assert seg == opt_segment(fit("l2", data), 3, SearchOptions(min_size=2))

    def test_respects_jump_grid_and_min_size(self):
        rng = np.random.default_rng(40)
        cost = fit("l2", rng.normal(size=60))
        opts = SearchOptions(min_size=5, jump=5)
        seg = opt_segment(cost, 2, opts)
        bounds = [0, *seg.bkps]
        assert all(t % 5 == 0 for t in seg.interior)
        assert min(b - a for a, b in zip(bounds, bounds[1:])) >= 5

    def test_lexicographic_tie_break(self):
        # constant signal: every admissible split has cost zero
        cost = fit("l2", np.zeros(12))
        seg = opt_segment(cost, 2, SearchOptions(min_size=2))
        assert seg.bkps == (2, 4, 12)

    def test_blocked_and_scalar_paths_agree(self):
        # a cost that only implements _one gives the vectorized cost's result
        from sigseg.costs import CostModel

        class ScalarL2(CostModel):
            kind = "l2-scalar"

            def __init__(self, inner):
                super().__init__(inner.signal, min_size=inner.min_size)
                self._inner = inner

            def _one(self, a, b):
                return self._inner.eval(a, b)

        rng = np.random.default_rng(77)
        for _ in range(5):
            data = rng.normal(size=int(rng.integers(25, 60)))
            fast = fit("l2", data)
            slow = ScalarL2(fast)
            for k in (1, 2):
                assert opt_segment(fast, k) == opt_segment(slow, k)


class TestPelt:
    def test_huge_beta_keeps_one_segment(self):
        assert pelt_segment(STEP, 1e7).bkps == (100,)

    def test_noiseless_step_small_beta(self):
        assert pelt_segment(STEP, 1.0).bkps == (50, 100)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            pelt_segment(STEP, 0.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_rejects_non_finite_beta(self, beta):
        with pytest.raises(ValueError, match="finite"):
            pelt_segment(STEP, beta)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_k_sweep(self, seed):
        # the jump dominates the signal variance, so the optimal change
        # count stays within the swept range even at beta = var / 2
        rng = np.random.default_rng(100 + seed)
        T = int(rng.integers(40, 201))
        data = np.concatenate([np.zeros(T // 2), np.full(T - T // 2, 10.0)])
        data += rng.standard_normal(T)
        cost = fit("l2", data)
        beta = [0.5, 2.0, 10.0][seed % 3] * float(np.var(data))
        seg = pelt_segment(cost, beta)
        got = sum_of_costs(cost, seg) + beta * seg.n_bkps
        want = np.inf
        for k in range(9):
            try:
                seg_k = opt_segment(cost, k)
            except ValueError:
                break
            want = min(want, sum_of_costs(cost, seg_k) + beta * k)
        assert abs(got - want) <= 1e-9 * (1 + abs(want))

    @pytest.mark.parametrize("seed", range(8))
    def test_pruning_is_lossless(self, seed):
        rng = np.random.default_rng(200 + seed)
        data = rng.normal(size=120)
        data[60:] += 3.0
        cost = fit("l2", data)
        beta = 2.0 * float(np.var(data))
        assert pelt_segment(cost, beta) == pelt_segment(cost, beta, prune=False)

    @pytest.mark.parametrize("jump", [1, 2])
    @pytest.mark.parametrize("min_size", [1, 2, 3, 5])
    @pytest.mark.parametrize("kind", ["l2", "normal", "poisson"])
    def test_pruning_is_lossless_for_every_min_size(self, kind, min_size, jump):
        # an index pruned at end t stays a candidate for the ends in
        # (t, t + min_size), which cannot place their last change at t
        rng = np.random.default_rng([("l2", "normal", "poisson").index(kind), min_size, jump])
        opts = SearchOptions(min_size=min_size, jump=jump)
        for _ in range(20):
            T = int(rng.integers(20, 61))
            bounds = np.sort(rng.choice(np.arange(1, T), size=int(rng.integers(0, 4)), replace=False))
            lengths = np.diff(np.concatenate(([0], bounds, [T])))
            if kind == "l2":
                data = np.repeat(rng.normal(0, 2, len(lengths)), lengths) + rng.standard_normal(T)
                beta = float(rng.uniform(0.5, 6.0))
            elif kind == "normal":
                data = rng.standard_normal(T) * np.repeat(rng.uniform(0.3, 3.0, len(lengths)), lengths)
                beta = float(rng.uniform(1.0, 10.0))
            else:
                data = rng.poisson(np.repeat(rng.uniform(1.0, 10.0, len(lengths)), lengths)).astype(float)
                beta = float(rng.uniform(0.5, 6.0))
            cost = fit(kind, data)
            got, want = (pelt_segment(cost, beta, opts, prune=prune) for prune in (True, False))
            got_v = sum_of_costs(cost, got) + beta * got.n_bkps
            want_v = sum_of_costs(cost, want) + beta * want.n_bkps
            assert abs(got_v - want_v) <= 1e-9 * (1 + abs(want_v))

    def test_respects_grid(self):
        rng = np.random.default_rng(41)
        data = rng.normal(size=90)
        data[45:] += 5.0
        seg = pelt_segment(fit("l2", data), 5.0, SearchOptions(min_size=4, jump=3))
        assert all(t % 3 == 0 for t in seg.interior)


class TestWin:
    def test_constant_signal_threshold_returns_whole(self):
        cost = fit("l2", np.ones(80))
        seg = win_segment(cost, 10, StoppingRule.penalty_threshold(0.5))
        assert seg.bkps == (80,)

    def test_noiseless_step_fixed_one(self):
        assert win_segment(STEP, 20, StoppingRule.fixed_k(1)).bkps == (50, 100)

    def test_score_curve_hand_values(self):
        # height h = 5, window w = 20 around a step at 50: the pooled cost
        # of a two-level block with n1 + n2 points is n1*n2/(n1+n2) * h^2
        cands, scores = win_score_curve(STEP, 20)
        z = dict(zip(cands.tolist(), scores.tolist()))
        assert z[50] == pytest.approx(10 * 25.0, rel=1e-12)
        assert z[45] == pytest.approx((25 * 15 / 40 - 5 * 15 / 20) * 25.0, rel=1e-12)
        assert z[55] == pytest.approx(z[45], rel=1e-12)

    def test_window_wider_than_signal(self):
        with pytest.raises(ValueError, match="wider than signal"):
            win_segment(fit("l2", np.arange(10.0)), 6, StoppingRule.fixed_k(1))

    def test_two_jumps_recovered_over_seeds(self):
        # jump of 10 with unit noise; both changes within 2 samples on
        # every seed (verified once, frozen)
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            y = np.concatenate([np.zeros(60), np.full(80, 10.0), np.zeros(60)])
            y += rng.standard_normal(200)
            seg = win_segment(fit("l2", y), 20, StoppingRule.fixed_k(2))
            errs = [min(abs(b - t) for t in (60, 140)) for b in seg.interior]
            hits += max(errs) <= 2
        assert hits == 100

    def test_peaks_are_window_separated(self):
        rng = np.random.default_rng(42)
        y = rng.normal(size=150)
        seg = win_segment(fit("l2", y), 12, StoppingRule.fixed_k(3))
        pts = seg.interior
        assert min(b - a for a, b in zip(pts, pts[1:])) >= 12


class TestBinseg:
    def test_single_split_equals_opt(self):
        assert binseg_segment(STEP, StoppingRule.fixed_k(1)) == opt_segment(STEP, 1)

    def test_threshold_on_constant_signal(self):
        cost = fit("l2", np.full(60, 2.0))
        seg = binseg_segment(cost, StoppingRule.penalty_threshold(1.0))
        assert seg.bkps == (60,)

    def test_never_beats_opt(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            T = int(rng.integers(30, 61))
            cost = fit("l2", rng.normal(size=T))
            opts = SearchOptions(min_size=2)
            for k in (1, 2):
                v_opt = sum_of_costs(cost, opt_segment(cost, k, opts))
                v_bin = sum_of_costs(cost, binseg_segment(cost, StoppingRule.fixed_k(k), opts))
                assert v_bin >= v_opt - 1e-9 * (1 + abs(v_opt))

    def test_trace_records_accepted_splits(self):
        seg, trace = binseg_trace(STEP, StoppingRule.fixed_k(1))
        assert seg.bkps == (50, 100)
        assert len(trace) == 1
        assert trace[0][0] == 50
        assert trace[0][1] == pytest.approx(625.0, rel=1e-12)

    def test_infeasible_k(self):
        cost = fit("l2", np.arange(10.0))
        with pytest.raises(ValueError, match="cannot reach"):
            binseg_segment(cost, StoppingRule.fixed_k(4), SearchOptions(min_size=3))


class TestBotup:
    def test_delta_validation(self):
        with pytest.raises(ValueError, match="exceed 2"):
            botup_segment(STEP, 2, StoppingRule.fixed_k(1))
        with pytest.raises(ValueError, match="multiple of jump"):
            botup_segment(STEP, 9, StoppingRule.fixed_k(1), SearchOptions(jump=4))

    def test_initial_grid_returned_when_k_matches(self):
        cost = fit("l2", np.zeros(50))
        seg = botup_segment(cost, 10, StoppingRule.fixed_k(4))
        assert seg.bkps == (10, 20, 30, 40, 50)

    def test_noiseless_step_on_grid(self):
        assert botup_segment(STEP, 10, StoppingRule.fixed_k(1)).bkps == (50, 100)

    def test_off_grid_change_never_found(self):
        cost = fit("l2", step_signal(at=55))
        for k in (1, 2, 3):
            seg = botup_segment(cost, 10, StoppingRule.fixed_k(k))
            assert 55 not in seg.interior
            assert all(t % 10 == 0 for t in seg.interior)

    def test_threshold_merges_flat_regions(self):
        cost = fit("l2", step_signal(T=120, at=60, height=8.0))
        seg = botup_segment(cost, 10, StoppingRule.penalty_threshold(1.0))
        assert seg.bkps == (60, 120)

    def test_infeasible_k(self):
        with pytest.raises(ValueError, match="cannot yield"):
            botup_segment(fit("l2", np.arange(30.0)), 10, StoppingRule.fixed_k(5))


class TestDeterminismAndValidity:
    @pytest.mark.parametrize("seed", range(5))
    def test_outputs_valid_and_repeatable(self, seed):
        rng = np.random.default_rng(300 + seed)
        data = rng.normal(size=100)
        data[50:] += 4.0
        cost = fit("l2", data)
        opts = SearchOptions(min_size=3, jump=1)
        runs = [
            opt_segment(cost, 2, opts),
            pelt_segment(cost, 3.0, opts),
            win_segment(cost, 10, StoppingRule.fixed_k(2), opts),
            binseg_segment(cost, StoppingRule.fixed_k(2), opts),
            botup_segment(cost, 5, StoppingRule.fixed_k(2), opts),
        ]
        rerun = [
            opt_segment(cost, 2, opts),
            pelt_segment(cost, 3.0, opts),
            win_segment(cost, 10, StoppingRule.fixed_k(2), opts),
            binseg_segment(cost, StoppingRule.fixed_k(2), opts),
            botup_segment(cost, 5, StoppingRule.fixed_k(2), opts),
        ]
        assert runs == rerun
        for seg in runs:
            bounds = [0, *seg.bkps]
            assert seg.bkps[-1] == 100
            assert min(b - a for a, b in zip(bounds, bounds[1:])) >= 3
