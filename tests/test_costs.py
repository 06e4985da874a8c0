import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import helpers
from sigseg import (
    Covariates,
    KernelSpec,
    Signal,
    fit,
    make_segmentation,
    sum_of_costs,
)
from sigseg.costs import irls_lad


def rel_close(got, want, tol=1e-9):
    return abs(got - want) <= tol * (1.0 + abs(want))


class TestL2:
    def test_constant_segment_is_zero(self):
        c = fit("l2", np.full(10, 3.25))
        assert c.eval(2, 8) == 0.0

    def test_two_point_example(self):
        assert fit("l2", [0.0, 1.0]).eval(0, 2) == pytest.approx(0.5, abs=1e-12)

    def test_three_point_example(self):
        assert fit("l2", [1.0, 2.0, 3.0]).eval(0, 3) == pytest.approx(2.0, abs=1e-12)

    def test_min_size_is_one(self):
        assert fit("l2", [1.0, 2.0]).min_size == 1

    def test_nonnegative_and_subadditive(self):
        rng = np.random.default_rng(0)
        c = fit("l2", rng.normal(size=(60, 3)))
        for a, b, m in [(0, 60, 30), (5, 40, 12), (10, 50, 49)]:
            whole, left, right = c.eval(a, b), c.eval(a, m), c.eval(m, b)
            assert whole >= 0.0
            assert whole >= left + right - 1e-9 * (1 + abs(whole))

    def test_out_of_range(self):
        c = fit("l2", np.arange(5.0))
        with pytest.raises(ValueError, match="out of range"):
            c.eval(0, 6)
        with pytest.raises(ValueError, match="min_size"):
            c.eval(3, 3)


class TestSigma:
    def test_univariate_example(self):
        assert fit("normal", [0.0, 2.0]).eval(0, 2) == pytest.approx(2.0, abs=1e-12)

    def test_constant_segment_errors_without_regularization(self):
        c = fit("normal", np.concatenate([np.ones(5), np.arange(5.0)]), regularize=False)
        with pytest.raises(ValueError, match="singular covariance"):
            c.eval(0, 5)

    def test_identity_covariance_gives_n_times_d(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(40, 2))
        raw -= raw.mean(axis=0)
        cov = np.cov(raw, rowvar=False, bias=True)
        white = raw @ np.linalg.inv(np.linalg.cholesky(cov)).T
        c = fit("normal", white)
        assert c.eval(0, 40) == pytest.approx(80.0, rel=1e-9)

    def test_min_size_is_d_plus_one(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(30, 3))
        c = fit("normal", data)
        assert c.min_size == 4
        # at n = d + 1 the covariance is generically full rank
        seg = data[0:4]
        cov = np.cov(seg, rowvar=False, bias=True)
        assert np.linalg.matrix_rank(cov) == 3
        assert np.isfinite(fit("normal", data, regularize=False).eval(0, 4))
        # one sample fewer cannot be full rank
        short = np.cov(data[0:3], rowvar=False, bias=True)
        assert np.linalg.matrix_rank(short) <= 2

    def test_regularized_path_rescues_flat_dimension(self):
        data = np.column_stack([np.ones(8), np.arange(8.0)])
        assert np.isfinite(fit("normal", data).eval(0, 8))
        with pytest.raises(ValueError, match="singular"):
            fit("normal", data, regularize=False).eval(0, 8)


class TestPoisson:
    def test_all_ones_is_zero(self):
        assert fit("poisson", np.ones(3)).eval(0, 3) == 0.0

    def test_two_twos(self):
        want = -4.0 * math.log(2.0)
        assert fit("poisson", [2.0, 2.0]).eval(0, 2) == pytest.approx(want, rel=1e-12)

    def test_zero_mean_convention(self):
        assert fit("poisson", [0.0, 0.0]).eval(0, 2) == 0.0

    def test_rejects_negative_data(self):
        with pytest.raises(ValueError, match="nonnegative"):
            fit("poisson", [1.0, -1.0])

    def test_multivariate_sums_dimensions(self):
        rng = np.random.default_rng(7)
        data = rng.poisson(4.0, size=(20, 3)).astype(float)
        c = fit("poisson", data)
        per_dim = sum(fit("poisson", data[:, j]).eval(3, 17) for j in range(3))
        assert c.eval(3, 17) == pytest.approx(per_dim, rel=1e-12)


class TestLinear:
    def test_perfect_fit_is_zero(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 2))
        y = x @ np.array([1.5, -2.0])
        c = fit("linear", y, covariates=Covariates(x))
        assert c.eval(0, 30) == pytest.approx(0.0, abs=1e-18)

    def test_intercept_only_equals_l2(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=25)
        c = fit("linear", y, covariates=Covariates(np.ones((25, 1))))
        ref = fit("l2", y)
        assert c.eval(4, 20) == pytest.approx(ref.eval(4, 20), rel=1e-12)

    def test_duplicate_column_minimum_norm(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(5, 1))
        x = np.hstack([base, base])
        y = rng.normal(size=5)
        c = fit("linear", y, covariates=Covariates(x))
        got = c.eval(0, 5)
        assert np.isfinite(got)
        assert rel_close(got, helpers.naive_linear(x, y, 0, 5))

    def test_min_size_counts_both_blocks(self):
        x = np.ones((12, 3))
        c = fit("linear", np.arange(12.0), covariates=Covariates(x))
        assert c.min_size == 3
        with pytest.raises(ValueError, match="min_size"):
            c.eval(0, 2)


@pytest.mark.parametrize("kind", ["linear", "linear_l1"])
def test_regression_costs_share_validation(kind):
    with pytest.raises(ValueError, match=f"^{kind} cost expects a univariate response"):
        fit(kind, np.ones((6, 2)), covariates=np.ones(6))
    with pytest.raises(ValueError, match="same length"):
        fit(kind, np.ones(6), covariates=np.ones(5))
    assert fit(kind, np.arange(6.0), covariates=np.ones((6, 2))).min_size == 2


class TestLinearL1:
    def test_noiseless_fit_is_zero(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 2))
        y = x @ np.array([0.5, 2.0])
        c = fit("linear_l1", y, covariates=Covariates(x))
        assert c.eval(0, 20) == pytest.approx(0.0, abs=1e-8)

    def test_median_fit(self):
        y = np.array([0.0, 0.0, 10.0])
        c = fit("linear_l1", y, covariates=Covariates(np.ones((3, 1))))
        want = helpers.naive_lad_intercept(y, 0, 3)
        assert want == 10.0
        assert c.eval(0, 3) == pytest.approx(10.0, abs=1e-6)

    def test_objective_history_never_increases(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            design = rng.normal(size=(20, 3))
            y = rng.normal(size=20)
            _, history = irls_lad(design, y)
            assert all(b <= a for a, b in zip(history, history[1:]))


class TestAR:
    def test_exact_recursion_is_zero(self):
        y = np.empty(40)
        y[0] = 1.0
        for t in range(1, 40):
            y[t] = 0.5 * y[t - 1]
        c = fit("ar", y, order=1)
        assert c.eval(0, 40) == pytest.approx(0.0, abs=1e-18)

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError, match="order"):
            fit("ar", np.arange(10.0), order=0)

    def test_order_too_large_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            fit("ar", np.arange(10.0), order=10)

    def test_never_beats_centered_l2(self):
        rng = np.random.default_rng(9)
        y = rng.normal(size=50)
        ar = fit("ar", y, order=1)
        l2 = fit("l2", y)
        assert ar.eval(0, 50) <= l2.eval(0, 50) + 1e-12

    def test_interior_start_before_order_rejected(self):
        c = fit("ar", np.random.default_rng(10).normal(size=30), order=3)
        with pytest.raises(ValueError, match="interval start"):
            c.eval(2, 20)
        assert np.isfinite(c.eval(0, 20))
        assert np.isfinite(c.eval(3, 20))

    def test_matches_direct_fit(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=40)
        c = fit("ar", y, order=2)
        assert rel_close(c.eval(5, 35), helpers.naive_ar(y, 2, 5, 35))


class TestMahalanobis:
    def test_identity_equals_l2_exactly(self):
        rng = np.random.default_rng(12)
        data = rng.normal(size=(30, 3))
        cm = fit("mahalanobis", data, metric=np.eye(3))
        cl = fit("l2", data)
        for a, b in [(0, 30), (4, 11), (17, 30), (7, 8)]:
            assert cm.eval(a, b) == cl.eval(a, b)

    def test_doubling_metric_doubles_cost(self):
        rng = np.random.default_rng(13)
        data = rng.normal(size=(20, 2))
        c1 = fit("mahalanobis", data, metric=np.eye(2))
        c2 = fit("mahalanobis", data, metric=2.0 * np.eye(2))
        assert c2.eval(3, 15) == 2.0 * c1.eval(3, 15)

    def test_inverse_covariance_matches_double_loop(self):
        rng = np.random.default_rng(14)
        data = rng.normal(size=(10, 2))
        M = np.linalg.inv(np.cov(data, rowvar=False, bias=True))
        c = fit("mahalanobis", data, metric=M)
        assert rel_close(c.eval(0, 10), helpers.naive_mahalanobis(data, M, 0, 10))

    def test_rejects_asymmetric_and_indefinite(self):
        data = np.random.default_rng(15).normal(size=(10, 2))
        with pytest.raises(ValueError, match="symmetric"):
            fit("mahalanobis", data, metric=np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="semi-definite"):
            fit("mahalanobis", data, metric=np.array([[1.0, 0.0], [0.0, -1.0]]))


class TestRank:
    def test_full_interval_is_zero(self):
        rng = np.random.default_rng(16)
        c = fit("rank", rng.normal(size=(25, 2)))
        assert c.eval(0, 25) == 0.0

    def test_invariant_under_increasing_map(self):
        rng = np.random.default_rng(17)
        data = rng.normal(size=(30, 2))
        c1 = fit("rank", data)
        c2 = fit("rank", np.exp(data))
        for a, b in [(0, 30), (3, 12), (20, 29)]:
            assert c1.eval(a, b) == c2.eval(a, b)

    def test_hand_example(self):
        c = fit("rank", [3.0, 1.0, 2.0])
        # centered ranks are [1, -1, 0]; pooled second moment of r + 1/2
        # is (1.5^2 + 0.5^2 + 0.5^2)/3
        sr = (1.5**2 + 0.5**2 + 0.5**2) / 3
        assert c.eval(0, 1) == pytest.approx(-1.0 / sr, rel=1e-12)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(18)
        data = rng.normal(size=(15, 2))
        c = fit("rank", data)
        assert rel_close(c.eval(4, 11), helpers.naive_rank(data, 4, 11))


class TestEcdf:
    def test_univariate_only(self):
        with pytest.raises(ValueError, match="univariate"):
            fit("ecdf", np.zeros((10, 2)))

    def test_single_sample_segment_matches_oracle(self):
        y = np.array([2.0, -1.0, 0.5, 3.0, 1.0])
        c = fit("ecdf", y)
        for a in range(5):
            got = c.eval(a, a + 1)
            assert np.isfinite(got)
            assert rel_close(got, helpers.naive_ecdf(list(y), a, a + 1))

    def test_identical_values_match_oracle(self):
        # With every value equal, the segment cdf is 1/2 at each pooled
        # order statistic (ties count one half), so the cost is positive.
        y = [4.0] * 6
        c = fit("ecdf", y)
        want = helpers.naive_ecdf(y, 0, 3)
        assert rel_close(c.eval(0, 3), want)
        assert want > 0

    def test_small_case_matches_brute_force(self):
        y = [1.0, 2.0, 3.0, 4.0]
        c = fit("ecdf", y)
        assert rel_close(c.eval(0, 2), helpers.naive_ecdf(y, 0, 2))


class TestKernel:
    def test_rbf_identical_samples_zero(self):
        c = fit("kernel_rbf", np.full(6, 1.5), gamma=0.7)
        assert c.eval(0, 6) == 0.0

    def test_linear_kernel_equals_l2(self):
        rng = np.random.default_rng(19)
        data = rng.normal(size=(40, 2))
        ck = fit("kernel_linear", data)
        cl = fit("l2", data)
        for a, b in [(0, 40), (3, 17), (25, 39), (10, 11)]:
            k, l = ck.eval(a, b), cl.eval(a, b)
            assert abs(k - l) <= 1e-8 * (1 + abs(l))

    def test_rbf_two_points(self):
        c = fit("kernel_rbf", [0.0, 1.0], gamma=1.0)
        assert c.eval(0, 2) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_poly_matches_double_loop(self):
        rng = np.random.default_rng(20)
        data = rng.normal(size=(12, 2))
        c = fit("kernel_poly", data, const=1.5, deg=3)
        want = helpers.naive_kernel(data, KernelSpec("polynomial", const=1.5, deg=3), 2, 10)
        assert rel_close(c.eval(2, 10), want)

    @pytest.mark.parametrize("params", [
        {"gamma": math.nan}, {"gamma": math.inf}, {"const": math.nan}, {"const": -math.inf},
    ])
    def test_spec_rejects_non_finite(self, params):
        with pytest.raises(ValueError, match="finite"):
            KernelSpec("rbf", **params)

    def test_chi2_rejects_negative_data(self):
        with pytest.raises(ValueError, match="nonnegative"):
            fit("kernel_chi2", [-1.0, 2.0], gamma=0.5)

    def test_chi2_matches_double_loop(self):
        rng = np.random.default_rng(21)
        data = rng.uniform(0.0, 3.0, size=(12, 2))
        c = fit("kernel_chi2", data, gamma=0.4)
        want = helpers.naive_kernel(data, KernelSpec("chi2", gamma=0.4), 1, 9)
        assert rel_close(c.eval(1, 9), want)

    def test_concurrent_eval_matches_sequential(self):
        rng = np.random.default_rng(23)
        c = fit("kernel_rbf", rng.normal(size=(40, 2)), gamma=0.3)
        intervals = [(a, b) for a in range(0, 30, 2) for b in (a + 3, a + 9)]
        want = [c.eval(a, b) for a, b in intervals] * 4
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda ab: c.eval(*ab), intervals * 4))
        assert got == want

    @pytest.mark.parametrize("kind", ["kernel_linear", "kernel_rbf", "kernel_poly", "kernel_chi2"])
    def test_large_t_parity_with_double_loop(self, kind):
        # Short intervals at the end of a long signal with shifted means are
        # where accumulated sums cancel most.
        rng = np.random.default_rng(31)
        T = 5000
        levels = np.cumsum(rng.uniform(2.0, 4.0, size=(5, 3)) * rng.choice([-1.0, 1.0], size=(5, 3)), axis=0)
        data = np.repeat(levels, T // 5, axis=0) + rng.normal(size=(T, 3))
        if kind == "kernel_chi2":
            data = np.abs(data)
        c = fit(kind, data)
        lengths = rng.integers(1, 41, size=100)
        ends = rng.integers(T - 400 + 40, T + 1, size=100)
        intervals = [(int(b - n), int(b)) for n, b in zip(lengths, ends)]
        intervals += [(T - 160, T), (T - 400, T - 270), (T // 2 - 50, T // 2 + 50)]
        for a, b in intervals:
            assert rel_close(c.eval(a, b), helpers.naive_kernel(data, c.spec, a, b)), (a, b)
        for t in range(T - 400, T):
            assert c.eval(t, t + 1) == 0.0, t

    def test_median_heuristic_gamma_resolved(self):
        rng = np.random.default_rng(24)
        c = fit("kernel_rbf", rng.normal(size=(20, 1)))
        assert c.spec.gamma is not None and c.spec.gamma > 0


class TestSumOfCosts:
    def test_single_segment(self):
        rng = np.random.default_rng(25)
        data = rng.normal(size=30)
        c = fit("l2", data)
        seg = make_segmentation([30], 30)
        assert sum_of_costs(c, seg) == c.eval(0, 30)

    def test_refinement_never_increases_l2(self):
        rng = np.random.default_rng(26)
        c = fit("l2", rng.normal(size=50))
        coarse = make_segmentation([20, 50], 50)
        fine = make_segmentation([10, 20, 35, 50], 50)
        assert sum_of_costs(c, fine) <= sum_of_costs(c, coarse) + 1e-12

    def test_matches_manual_loop(self):
        rng = np.random.default_rng(27)
        data = rng.normal(size=(40, 2))
        c = fit("l2", data)
        seg = make_segmentation([7, 19, 33, 40], 40)
        manual = sum(c.eval(a, b) for a, b in seg.segments())
        assert sum_of_costs(c, seg) == pytest.approx(manual, rel=1e-12)

    def test_segment_below_min_size_rejected(self):
        c = fit("normal", np.random.default_rng(28).normal(size=(20, 2)))
        with pytest.raises(ValueError, match="min_size"):
            sum_of_costs(c, make_segmentation([2, 20], 20))


class TestFitFactory:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown cost kind"):
            fit("huber", np.arange(5.0))

    def test_missing_extras(self):
        y = np.arange(10.0)
        with pytest.raises(ValueError, match="covariates"):
            fit("linear", y)
        with pytest.raises(ValueError, match="order"):
            fit("ar", y)
        with pytest.raises(ValueError, match="metric"):
            fit("mahalanobis", y)

    def test_eval_is_deterministic(self):
        rng = np.random.default_rng(29)
        c = fit("l2", rng.normal(size=(30, 2)))
        assert c.eval(4, 21) == c.eval(4, 21)


ORACLES = {
    "l2": lambda data, a, b: helpers.naive_l2(data, a, b),
    "normal": lambda data, a, b: helpers.naive_sigma(data, a, b),
    "poisson": lambda data, a, b: helpers.naive_poisson(data, a, b),
    "mahalanobis": None,  # covered in TestMahalanobis
    "rank": lambda data, a, b: helpers.naive_rank(data, a, b),
}


@pytest.mark.parametrize("kind", ["l2", "normal", "poisson", "rank"])
def test_prefix_paths_match_direct_summation(kind):
    rng = np.random.default_rng(30)
    for trial in range(3):
        T = int(rng.integers(20, 101))
        data = rng.normal(size=(T, 2))
        if kind == "poisson":
            data = np.abs(data)
        c = fit(kind, data, regularize=False) if kind == "normal" else fit(kind, data)
        for _ in range(10):
            a = int(rng.integers(0, T - c.min_size))
            b = int(rng.integers(a + c.min_size, T + 1))
            assert rel_close(c.eval(a, b), ORACLES[kind](data, a, b))
