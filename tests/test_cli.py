import json

import numpy as np
import pytest

from sigseg import (
    Penalty,
    StoppingRule,
    binseg_segment,
    botup_segment,
    fit,
    load_csv,
    make_segmentation,
    opt_segment,
    pelt_segment,
    pen_value,
    sum_of_costs,
    win_segment,
)
from sigseg.cli import main


def write_step_csv(path, T=100, at=50, height=5.0):
    with open(path, "w") as fh:
        for i in range(T):
            fh.write(("0.0" if i < at else f"{height}") + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDetect:
    def test_pelt_on_step(self, tmp_path, capsys):
        csv = write_step_csv(tmp_path / "step.csv")
        code, out, _ = run(capsys, "detect", "--input", csv, "--method", "pelt",
                           "--cost", "l2", "--pen", "l0:10")
        assert code == 0
        report = json.loads(out)
        assert report["breakpoints"] == [50, 100]
        assert report["method"] == "pelt"
        assert report["penalized_objective"] == pytest.approx(10.0)
        assert report["config_echo"]["penalty"] == "l0:10"

    def test_opt_zero_changes(self, tmp_path, capsys):
        csv = write_step_csv(tmp_path / "step.csv")
        code, out, _ = run(capsys, "detect", "--input", csv, "--method", "opt",
                           "--cost", "l2", "--n-bkps", "0")
        assert code == 0
        assert json.loads(out)["breakpoints"] == [100]

    def test_pelt_rejects_nonlinear_penalty(self, tmp_path, capsys):
        csv = write_step_csv(tmp_path / "step.csv")
        code, _, err = run(capsys, "detect", "--input", csv, "--method", "pelt",
                           "--cost", "l2", "--pen", "mbic")
        assert code == 2
        assert "linear penalty" in err

    def test_requires_exactly_one_target(self, tmp_path, capsys):
        csv = write_step_csv(tmp_path / "step.csv")
        code, _, err = run(capsys, "detect", "--input", csv, "--method", "opt", "--cost", "l2")
        assert code == 2
        assert "--n-bkps" in err
        code, _, err = run(capsys, "detect", "--input", csv, "--method", "opt",
                           "--cost", "l2", "--n-bkps", "1", "--pen", "l0:1")
        assert code == 2

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "detect", "--input", str(tmp_path / "nope.csv"),
                           "--method", "opt", "--cost", "l2", "--n-bkps", "1")
        assert code == 1
        assert "error" in err

    def test_flag_errors_precede_reading_the_input(self, tmp_path, capsys):
        code, _, err = run(capsys, "detect", "--input", str(tmp_path / "nope.csv"),
                           "--method", "pelt", "--cost", "l2", "--n-bkps", "1")
        assert code == 2
        assert "--method pelt requires --pen" in err

    def test_no_feasible_change_count_is_data_error(self, tmp_path, capsys):
        # normal needs d + 1 = 4 samples per segment, more than T = 3
        path = tmp_path / "short.csv"
        path.write_text("1,2,3\n4,5,7\n9,8,6\n")
        code, out, err = run(capsys, "detect", "--input", str(path), "--method", "opt",
                             "--cost", "normal", "--pen", "mbic")
        assert code == 1
        assert out == ""
        assert "infeasible" in err

    @pytest.mark.parametrize("method, pen", [("binseg", "l0:nan"), ("pelt", "l0:inf"),
                                             ("opt", "leb:nan,1,1")])
    def test_non_finite_penalty_is_data_error(self, tmp_path, capsys, method, pen):
        csv = write_step_csv(tmp_path / "step.csv")
        code, out, err = run(capsys, "detect", "--input", csv, "--method", method,
                             "--cost", "l2", "--pen", pen)
        assert code == 1
        assert out == ""
        assert "must be finite" in err

    def test_non_finite_gamma_is_data_error(self, tmp_path, capsys):
        csv = write_step_csv(tmp_path / "step.csv")
        code, _, err = run(capsys, "detect", "--input", csv, "--method", "binseg",
                           "--cost", "kernel_rbf", "--n-bkps", "1", "--gamma", "nan")
        assert code == 1
        assert "gamma must be finite" in err

    def test_report_roundtrip_rescores(self, tmp_path, capsys):
        csv = write_step_csv(tmp_path / "step.csv", T=120, at=70, height=3.0)
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "detect", "--input", csv, "--method", "binseg",
                         "--cost", "l2", "--n-bkps", "2", "--out", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        cost = fit("l2", load_csv(csv))
        seg = make_segmentation(report["breakpoints"], 120)
        assert sum_of_costs(cost, seg) == pytest.approx(report["sum_of_costs"], rel=1e-9)

    def test_win_curve_out(self, tmp_path, capsys):
        csv = write_step_csv(tmp_path / "step.csv")
        curve = tmp_path / "curve.csv"
        code, out, _ = run(capsys, "detect", "--input", csv, "--method", "win",
                           "--cost", "l2", "--n-bkps", "1", "--window", "20",
                           "--curve-out", str(curve))
        assert code == 0
        lines = curve.read_text().strip().splitlines()
        assert lines[0] == "index,score"
        scores = {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
        assert scores[50] == pytest.approx(250.0)
        assert json.loads(out)["config_echo"]["window"] == 20

    def test_binseg_trace_out(self, tmp_path, capsys):
        csv = write_step_csv(tmp_path / "step.csv")
        trace = tmp_path / "trace.csv"
        code, _, _ = run(capsys, "detect", "--input", csv, "--method", "binseg",
                         "--cost", "l2", "--n-bkps", "1", "--curve-out", str(trace))
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "index,score"
        assert lines[1].startswith("50,")

    def test_curve_out_needs_win_or_binseg(self, tmp_path, capsys):
        csv = write_step_csv(tmp_path / "step.csv")
        code, _, err = run(capsys, "detect", "--input", csv, "--method", "opt",
                           "--cost", "l2", "--n-bkps", "1",
                           "--curve-out", str(tmp_path / "c.csv"))
        assert code == 2
        assert "--curve-out" in err

    def test_ar_cost_via_flags(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        y = np.empty(200)
        y[0] = 0.0
        for t in range(1, 200):
            coef = 0.9 if t < 100 else -0.9
            y[t] = coef * y[t - 1] + 0.1 * rng.standard_normal()
        csv = tmp_path / "ar.csv"
        np.savetxt(csv, y, delimiter=",")
        code, out, _ = run(capsys, "detect", "--input", str(csv), "--method", "opt",
                           "--cost", "ar", "--order", "1", "--n-bkps", "1",
                           "--min-size", "5")
        assert code == 0
        bkp = json.loads(out)["breakpoints"][0]
        assert abs(bkp - 100) <= 3

    def test_kernel_gamma_echoed(self, tmp_path, capsys):
        csv = write_step_csv(tmp_path / "step.csv")
        code, out, _ = run(capsys, "detect", "--input", csv, "--method", "binseg",
                           "--cost", "kernel_rbf", "--n-bkps", "1")
        assert code == 0
        report = json.loads(out)
        assert report["config_echo"]["gamma"] is not None
        assert report["breakpoints"] == [50, 100]

    def test_linear_cost_requires_covariates(self, tmp_path, capsys):
        csv = write_step_csv(tmp_path / "step.csv")
        code, _, err = run(capsys, "detect", "--input", csv, "--method", "opt",
                           "--cost", "linear", "--n-bkps", "1")
        assert code == 2
        assert "--covariates" in err

    def test_bare_leb_rejected_before_noise_estimate(self, tmp_path, capsys):
        # a constant signal has no noise scale to estimate; the usage error
        # must still name leb's own parameters, not suggest leb:<sigma>
        csv = write_step_csv(tmp_path / "flat.csv", height=0.0)
        code, _, err = run(capsys, "detect", "--input", csv, "--method", "opt",
                           "--cost", "l2", "--pen", "leb")
        assert code == 2
        assert "needs explicit parameters" in err
        assert "noise scale" not in err

    def test_mahalanobis_via_matrix_file(self, tmp_path, capsys):
        csv = write_step_csv(tmp_path / "step.csv")
        mfile = tmp_path / "metric.csv"
        mfile.write_text("1.0\n")
        code, out, _ = run(capsys, "detect", "--input", csv, "--method", "opt",
                           "--cost", "mahalanobis", "--metric-matrix", str(mfile),
                           "--n-bkps", "1")
        assert code == 0
        assert json.loads(out)["breakpoints"] == [50, 100]


def direct_search(cost, method, n_bkps, pen):
    """The segmentation and reported method name of one search called by hand,
    with the CLI's defaults: window T // 10, delta 10, sweep up to K = 10."""
    if method == "opt" and pen is not None and not pen.is_linear:
        segs = [opt_segment(cost, k) for k in range(11)]
        return min(segs, key=lambda seg: sum_of_costs(cost, seg) + pen_value(pen, seg)), "opt-sweep"
    if method in ("opt", "pelt") and pen is not None:
        return pelt_segment(cost, pen.linear_beta(cost.signal.T)), "pelt"
    if method == "opt":
        return opt_segment(cost, n_bkps), "opt"
    stop = (StoppingRule.fixed_k(n_bkps) if pen is None
            else StoppingRule.penalty_threshold(pen.linear_beta(cost.signal.T)))
    if method == "win":
        return win_segment(cost, cost.signal.T // 10, stop), "win"
    if method == "binseg":
        return binseg_segment(cost, stop), "binseg"
    return botup_segment(cost, 10, stop), "botup"


class TestDispatchParity:
    @pytest.mark.parametrize("target", [["--n-bkps", "2"], ["--pen", "l0:20"]])
    @pytest.mark.parametrize("method", ["opt", "pelt", "win", "binseg", "botup"])
    def test_report_equals_direct_search(self, tmp_path, capsys, method, target):
        self.check(tmp_path, capsys, method, target)

    def test_opt_mbic_equals_direct_sweep(self, tmp_path, capsys):
        self.check(tmp_path, capsys, "opt", ["--pen", "mbic"])

    def check(self, tmp_path, capsys, method, target):
        rng = np.random.default_rng(11)
        data = np.repeat([0.0, 5.0, 1.0], 40) + 0.5 * rng.standard_normal(120)
        csv = str(tmp_path / "signal.csv")
        np.savetxt(csv, data, fmt="%.17g")
        code, out, err = run(capsys, "detect", "--input", csv, "--method", method,
                             "--cost", "l2", *target)
        if method == "pelt" and target[0] == "--n-bkps":
            assert code == 2 and "requires --pen" in err
            return
        assert code == 0
        report = json.loads(out)

        cost = fit("l2", load_csv(csv))
        n_bkps = int(target[1]) if target[0] == "--n-bkps" else None
        pen = Penalty.l0(20.0) if target[1] == "l0:20" else Penalty.mbic() if target[1] == "mbic" else None
        seg, name = direct_search(cost, method, n_bkps, pen)
        total = sum_of_costs(cost, seg)
        assert report["method"] == name
        assert report["breakpoints"] == list(seg.bkps)
        assert report["sum_of_costs"] == total
        assert report["penalized_objective"] == (None if pen is None else total + pen_value(pen, seg))
        assert list(report["config_echo"].items()) == [
            ("input", csv), ("method", method), ("cost", "l2"), ("n_bkps", n_bkps),
            ("penalty", None if pen is None else target[1]), ("min_size", 1), ("jump", 1),
            ("window", 12 if method == "win" else None), ("delta", 10 if method == "botup" else None),
            ("gamma", None), ("deg", None), ("const", None), ("order", None),
            ("covariates", None), ("metric_matrix", None),
            ("k_max", 10 if method == "opt" and pen is not None else None),
        ]


class TestGenerate:
    def test_deterministic_files(self, tmp_path, capsys):
        args = ["generate", "--kind", "pw_constant", "--T", "100", "--n-bkps", "2",
                "--seed", "7"]
        out1, bk1 = tmp_path / "a.csv", tmp_path / "a.json"
        out2, bk2 = tmp_path / "b.csv", tmp_path / "b.json"
        assert main(args + ["--out", str(out1), "--bkps-out", str(bk1)]) == 0
        assert main(args + ["--out", str(out2), "--bkps-out", str(bk2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        assert bk1.read_bytes() == bk2.read_bytes()

    def test_bkps_sorted_and_terminated(self, tmp_path, capsys):
        bk = tmp_path / "b.json"
        code, out, _ = run(capsys, "generate", "--kind", "pw_scale", "--T", "90",
                           "--n-bkps", "2", "--seed", "3",
                           "--out", str(tmp_path / "s.csv"), "--bkps-out", str(bk))
        assert code == 0
        payload = json.loads(bk.read_text())
        bkps = payload["breakpoints"]
        assert bkps == sorted(bkps)
        assert bkps[-1] == payload["T"] == 90
        echo = json.loads(out)
        assert echo["rng"] == "numpy-pcg64"

    def test_noiseless_constant_csv(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, _, _ = run(capsys, "generate", "--kind", "pw_constant", "--T", "40",
                         "--n-bkps", "0", "--noise-std", "0", "--seed", "1",
                         "--out", str(out), "--bkps-out", str(tmp_path / "c.json"))
        assert code == 0
        values = {line for line in out.read_text().strip().splitlines()}
        assert len(values) == 1

    def test_infeasible_spec_is_data_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "generate", "--kind", "pw_constant", "--T", "3",
                           "--n-bkps", "3", "--seed", "0",
                           "--out", str(tmp_path / "x.csv"),
                           "--bkps-out", str(tmp_path / "x.json"))
        assert code == 1
        assert "infeasible" in err


class TestEvaluate:
    @staticmethod
    def write_bkps(path, bkps, T):
        path.write_text(json.dumps({"T": T, "breakpoints": bkps}))
        return str(path)

    def test_identical_files(self, tmp_path, capsys):
        truth = self.write_bkps(tmp_path / "t.json", [30, 70, 100], 100)
        code, out, _ = run(capsys, "evaluate", "--truth", truth, "--pred", truth,
                           "--margin", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["annotation_error"] == 0
        assert payload["hausdorff"] == 0
        assert payload["rand_index"] == 1.0
        assert payload["f1"] == 1.0

    def test_two_of_three_matched(self, tmp_path, capsys):
        truth = self.write_bkps(tmp_path / "t.json", [30, 70, 100], 100)
        pred = self.write_bkps(tmp_path / "p.json", [28, 50, 71, 100], 100)
        code, out, _ = run(capsys, "evaluate", "--truth", truth, "--pred", pred,
                           "--margin", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["precision"] == pytest.approx(2 / 3)
        assert payload["recall"] == 1.0
        assert payload["f1"] == 0.8

    def test_empty_prediction_reports_null_with_reason(self, tmp_path, capsys):
        truth = self.write_bkps(tmp_path / "t.json", [30, 100], 100)
        pred = self.write_bkps(tmp_path / "p.json", [100], 100)
        code, out, _ = run(capsys, "evaluate", "--truth", truth, "--pred", pred,
                           "--margin", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["hausdorff"] is None
        assert "empty change set" in payload["reasons"]["hausdorff"]

    def test_bare_list_needs_T(self, tmp_path, capsys):
        bare = tmp_path / "bare.json"
        bare.write_text("[50, 100]")
        code, _, err = run(capsys, "evaluate", "--truth", str(bare), "--pred", str(bare),
                           "--margin", "5")
        assert code == 1
        assert "--T" in err
        code, out, _ = run(capsys, "evaluate", "--truth", str(bare), "--pred", str(bare),
                           "--margin", "5", "--T", "100")
        assert code == 0
        assert json.loads(out)["f1"] == 1.0

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "evaluate", "--truth", str(bad), "--pred", str(bad),
                           "--margin", "5")
        assert code == 1

    def test_T_mismatch(self, tmp_path, capsys):
        truth = self.write_bkps(tmp_path / "t.json", [50, 100], 100)
        code, _, err = run(capsys, "evaluate", "--truth", truth, "--pred", truth,
                           "--margin", "5", "--T", "90")
        assert code == 1
        assert "T" in err


class TestBench:
    def test_csv_shape_and_determinism_of_inputs(self, capsys):
        code, out, _ = run(capsys, "bench", "--method", "binseg", "--cost", "l2",
                           "--sizes", "300,600", "--trials", "2", "--seed", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "T,mean_ms,std_ms"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [300, 600]
        assert all(float(r[1]) >= 0 for r in rows)

    def test_pelt_scales_with_size(self, capsys):
        # 16x the data; timings are noisy but this margin is wide
        code, out, _ = run(capsys, "bench", "--method", "pelt", "--cost", "l2",
                           "--sizes", "500,8000", "--trials", "2", "--seed", "1")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        means = [float(r.split(",")[1]) for r in rows]
        assert means[1] > means[0]

    def test_opt_quadratic_trend_soft(self, capsys):
        # doubling T at fixed change count should cost ~4x; timing is
        # machine-dependent, so drift outside [3, 5] only warns
        import warnings

        from sigseg.cli import run_bench

        run_bench("opt", "l2", [1000], trials=1, seed=0)  # warm up
        rows = run_bench("opt", "l2", [500, 1000], trials=3, seed=9)
        ratio = rows[1][1] / rows[0][1]
        if not 3.0 <= ratio <= 5.0:
            warnings.warn(f"opt timing ratio {ratio:.2f} outside [3, 5] (soft check)")
        capsys.readouterr()

    def test_rejects_costs_needing_extras(self, capsys):
        code, _, err = run(capsys, "bench", "--method", "opt", "--cost", "ar",
                           "--sizes", "100", "--trials", "1")
        assert code == 2
        assert "not benchable" in err

    def test_bad_sizes(self, capsys):
        code, _, err = run(capsys, "bench", "--method", "opt", "--cost", "l2",
                           "--sizes", "a,b", "--trials", "1")
        assert code == 2
