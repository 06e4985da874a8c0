import math

import numpy as np
import pytest

from sigseg import (
    Penalty,
    SearchOptions,
    default_bic_dim,
    detect,
    detect_with_penalty,
    estimate_noise_std,
    fit,
    make_segmentation,
    opt_segment,
    parse_penalty,
    pelt_segment,
    pen_value,
    sum_of_costs,
)
from sigseg.search import InfeasibleError


class TestPenValue:
    def test_l0(self):
        seg = make_segmentation([10, 40, 70, 100], 100)
        assert pen_value(Penalty.l0(2.0), seg) == 6.0

    def test_bic(self):
        seg = make_segmentation([30, 60, 100], 100)
        assert pen_value(Penalty.bic(1), seg) == pytest.approx(math.log(100), rel=1e-12)

    def test_bic_l2_and_aic_l2(self):
        seg = make_segmentation([30, 60, 100], 100)
        assert pen_value(Penalty.bic_l2(2.0), seg) == pytest.approx(8 * math.log(100), rel=1e-12)
        assert pen_value(Penalty.aic_l2(2.0), seg) == pytest.approx(8.0, rel=1e-12)

    def test_mbic_equal_halves(self):
        seg = make_segmentation([50, 100], 100)
        want = 3 * math.log(100) + 2 * math.log(0.5)
        assert pen_value(Penalty.mbic(), seg) == pytest.approx(want, rel=1e-12)

    def test_mbic_sums_all_segments(self):
        seg = make_segmentation([20, 50, 100], 100)
        want = 6 * math.log(100) + math.log(0.2) + math.log(0.3) + math.log(0.5)
        assert pen_value(Penalty.mbic(), seg) == pytest.approx(want, rel=1e-12)

    def test_leb(self):
        seg = make_segmentation([50, 100], 100)
        want = (2 / 100) * 4.0 * (1.5 * math.log(2 / 100) + 3.0)
        assert pen_value(Penalty.leb(2.0, 1.5, 3.0), seg) == pytest.approx(want, rel=1e-12)

    def test_strictly_increasing_in_change_count(self):
        T = 200
        segs = [make_segmentation(list(range(10, 10 * (k + 1), 10)), T) for k in range(1, 6)]
        for pen in (Penalty.l0(1.5), Penalty.bic(2), Penalty.bic_l2(1.0), Penalty.aic_l2(1.0)):
            vals = [pen_value(pen, s) for s in segs]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            Penalty.l0(0.0)
        with pytest.raises(ValueError):
            Penalty.bic(0)
        with pytest.raises(ValueError):
            Penalty.bic_l2(-1.0)
        with pytest.raises(ValueError):
            Penalty.leb(1.0, 0.0, 1.0)

    @pytest.mark.parametrize("variant, params", [
        ("l0", {"beta": math.nan}), ("l0", {"beta": math.inf}),
        ("bic", {"dim": math.nan}), ("bic", {"dim": math.inf}),
        ("bic_l2", {"sigma": math.inf}), ("aic_l2", {"sigma": math.nan}),
        ("leb", {"sigma": math.nan, "a1": 1.0, "a2": 1.0}),
        ("leb", {"sigma": 1.0, "a1": math.inf, "a2": 1.0}),
        ("leb", {"sigma": 1.0, "a1": 1.0, "a2": math.nan}),
    ])
    def test_rejects_non_finite(self, variant, params):
        with pytest.raises(ValueError, match="must be finite"):
            Penalty(variant, **params)


class TestParsePenalty:
    def test_round_trip(self):
        for text in ("l0:2.5", "bic:3", "bic_l2:1.5", "aic_l2:0.25", "mbic", "leb:1,0.5,2"):
            pen = parse_penalty(text)
            assert parse_penalty(pen.identifier) == pen
        # An identifier parses back to the same floats, so a config_echo
        # reproduces its run; a data-estimated sigma has all 17 digits.
        sigma = estimate_noise_std(np.random.default_rng(7).normal(0.0, 1.3, size=500))
        for x in (sigma, 0.1, 1 / 3, 1e-300, 1e300):
            for pen in (Penalty.l0(x), Penalty.bic_l2(x), Penalty.aic_l2(x), Penalty.leb(x, x, x)):
                assert parse_penalty(pen.identifier) == pen
        assert Penalty.bic(1e300).identifier == "bic:1e+300"
        assert [Penalty.l0(10).identifier, Penalty.l0(0.5).identifier, Penalty.bic(3).identifier] \
            == ["l0:10", "l0:0.5", "bic:3"]

    def test_rejects_garbage(self):
        for text in ("l0", "l0:x", "mbic:3", "leb:1,2", "nope:1", "l0:nan", "bic_l2:inf",
                     "leb:nan,1,1"):
            with pytest.raises(ValueError):
                parse_penalty(text)


class TestDefaults:
    def test_default_bic_dim(self):
        assert default_bic_dim("l2", 3) == 3
        assert default_bic_dim("normal", 2) == 5
        assert default_bic_dim("poisson", 4) == 4
        assert default_bic_dim("rank", 2) is None

    def test_noise_estimator_ignores_level_shifts(self):
        rng = np.random.default_rng(0)
        flat = rng.standard_normal(4000)
        shifted = flat.copy()
        shifted[2000:] += 50.0
        a = estimate_noise_std(flat)
        b = estimate_noise_std(shifted)
        assert abs(a - b) < 0.05
        assert 0.5 < a < 1.5


class TestDetectWithPenalty:
    def test_linear_penalty_dispatches_to_pelt(self):
        rng = np.random.default_rng(1)
        data = np.concatenate([np.zeros(60), np.full(60, 6.0)]) + rng.standard_normal(120)
        cost = fit("l2", data)
        pen = Penalty.l0(10.0)
        report = detect_with_penalty(cost, pen, k_max=5)
        direct = pelt_segment(cost, 10.0)
        assert report.method == "pelt"
        assert tuple(report.breakpoints) == direct.bkps

    def test_mbic_on_noiseless_step(self):
        data = np.concatenate([np.zeros(50), np.full(50, 5.0)])
        report = detect_with_penalty(fit("l2", data), Penalty.mbic(), k_max=3)
        assert report.breakpoints == [50, 100]
        assert report.method == "opt-sweep"

    def test_leb_with_enormous_a2_keeps_one_segment(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal(80)
        report = detect_with_penalty(fit("l2", data), Penalty.leb(1.0, 1.0, 1e9), k_max=4)
        assert report.breakpoints == [80]

    def test_k_max_validation(self):
        with pytest.raises(ValueError):
            detect_with_penalty(fit("l2", np.arange(10.0)), Penalty.mbic(), k_max=0)

    @pytest.mark.parametrize("variant", ["l0", "bic_l2", "aic_l2"])
    def test_linear_objective_equals_opt_sweep(self, variant):
        rng = np.random.default_rng(3)
        data = np.concatenate([np.zeros(70), np.full(70, 9.0)]) + rng.standard_normal(140)
        cost = fit("l2", data)
        sigma = float(np.std(data))
        pen = {"l0": Penalty.l0(2 * sigma**2),
               "bic_l2": Penalty.bic_l2(sigma),
               "aic_l2": Penalty.aic_l2(sigma)}[variant]
        report = detect_with_penalty(cost, pen, k_max=8)
        want = np.inf
        for k in range(9):
            try:
                seg = opt_segment(cost, k)
            except ValueError:
                break
            want = min(want, sum_of_costs(cost, seg) + pen_value(pen, seg))
        assert report.penalized_objective == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_report_echoes_configuration(self):
        data = np.concatenate([np.zeros(30), np.ones(30)])
        report = detect_with_penalty(fit("l2", data), Penalty.l0(0.5), k_max=3,
                                     opts=SearchOptions(min_size=2, jump=2))
        echo = report.config_echo
        assert echo["penalty"] == "l0:0.5"
        assert echo["min_size"] == 2 and echo["jump"] == 2
        assert echo["beta_equivalent"] == 0.5
        assert report.elapsed_ms >= 0.0

    def test_sweep_propagates_cost_errors(self):
        # the first 20 samples are constant, so K=1 meets a singular
        # covariance, which raises without the ridge; that is an error, not
        # the end of the feasible range
        rng = np.random.default_rng(5)
        cost = fit("normal", np.concatenate([np.zeros(20), 5 + rng.standard_normal(60)]),
                   regularize=False)
        with pytest.raises(ValueError, match="singular covariance"):
            opt_segment(cost, 1)
        with pytest.raises(ValueError, match="singular covariance"):
            detect_with_penalty(cost, Penalty.mbic(), k_max=3)

    def test_sweep_stops_at_first_infeasible_count(self):
        data = np.concatenate([np.zeros(10), np.full(10, 4.0)])
        report = detect_with_penalty(fit("l2", data), Penalty.mbic(), k_max=10,
                                     opts=SearchOptions(min_size=5))
        assert report.breakpoints == [10, 20]

    def test_sweep_raises_when_no_count_is_feasible(self):
        # even K = 0 needs a segment of min_size > T samples
        with pytest.raises(InfeasibleError, match="infeasible"):
            detect_with_penalty(fit("l2", np.arange(5.0)), Penalty.mbic(), 3,
                                SearchOptions(min_size=10))

    def test_sweep_monotone_costs(self):
        rng = np.random.default_rng(4)
        cost = fit("l2", rng.standard_normal(90))
        values = []
        for k in range(5):
            values.append(sum_of_costs(cost, opt_segment(cost, k)))
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


class TestDetect:
    DATA = np.concatenate([np.zeros(40), np.full(40, 5.0)])

    def test_pelt_needs_a_penalty(self):
        with pytest.raises(ValueError, match="pelt"):
            detect(fit("l2", self.DATA), "pelt", 1)

    @pytest.mark.parametrize("method", ["pelt", "win", "binseg", "botup"])
    def test_nonlinear_penalty_needs_opt(self, method):
        with pytest.raises(ValueError, match="linear penalty"):
            detect(fit("l2", self.DATA), method, Penalty.mbic())

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            detect(fit("l2", self.DATA), "dp", 1)

    def test_opt_with_penalty_is_the_sweep(self):
        cost = fit("l2", self.DATA)
        report, trace = detect(cost, "opt", Penalty.mbic())
        want = detect_with_penalty(cost, Penalty.mbic(), k_max=10)
        assert trace is None
        assert report.method == "opt-sweep"
        assert report.breakpoints == want.breakpoints == [40, 80]
        assert report.config_echo == want.config_echo

    def test_binseg_returns_its_gain_trace(self):
        report, trace = detect(fit("l2", self.DATA), "binseg", 1)
        assert report.breakpoints == [40, 80]
        assert [t for t, _ in trace] == [40]
        assert report.penalized_objective is None

    def test_report_refuses_a_non_finite_objective(self):
        from sigseg.costs import L2Cost
        from sigseg.signals import as_signal

        class InfiniteL2(L2Cost):
            def _values(self, starts, ends):
                return np.full(np.broadcast(starts, ends).shape, np.inf)

        with pytest.raises(ValueError, match="non-finite objective"):
            detect(InfiniteL2(as_signal(self.DATA)), "opt", 0)

    def test_json_refuses_nan(self):
        from sigseg.report import DetectionReport

        report = DetectionReport("opt", "l2", [80], float("nan"), None, 0.0)
        with pytest.raises(ValueError):
            report.to_json()
