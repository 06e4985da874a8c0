import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigseg import (
    GeneratorSpec,
    Segmentation,
    Signal,
    generate_pw_constant,
    generate_pw_scale,
    load_csv,
    make_segmentation,
)


class TestSignal:
    def test_1d_becomes_column(self):
        sig = Signal([1.0, 2.0, 3.0])
        assert (sig.T, sig.d) == (3, 1)
        assert sig.data.shape == (3, 1)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            Signal([1.0, np.nan])
        with pytest.raises(ValueError, match="NaN or Inf"):
            Signal([[1.0], [np.inf]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Signal(np.empty((0, 2)))

    def test_immutable(self):
        sig = Signal([[1.0, 2.0]])
        with pytest.raises(ValueError):
            sig.data[0, 0] = 9.0


class TestMakeSegmentation:
    def test_appends_terminal(self):
        seg = make_segmentation([50], 100)
        assert seg.bkps == (50, 100)
        assert seg.n_bkps == 1

    def test_terminal_only(self):
        seg = make_segmentation([100], 100)
        assert seg.bkps == (100,)
        assert seg.n_bkps == 0

    def test_sorts_input(self):
        assert make_segmentation([70, 30, 100], 100).bkps == (30, 70, 100)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_segmentation([30, 30], 100)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            make_segmentation([0], 100)
        with pytest.raises(ValueError):
            make_segmentation([101], 100)

    def test_rejects_empty_with_bad_T(self):
        with pytest.raises(ValueError):
            make_segmentation([], 0)
        assert make_segmentation([], 5).bkps == (5,)

    @given(
        T=st.integers(min_value=1, max_value=200),
        raw=st.lists(st.integers(min_value=1, max_value=200), max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_segments_partition_the_index_range(self, T, raw):
        pts = sorted({v for v in raw if v <= T})
        seg = make_segmentation(pts, T)
        covered = []
        for a, b in seg.segments():
            assert a < b
            covered.extend(range(a + 1, b + 1))
        assert covered == list(range(1, T + 1))


class TestGeneratorSpec:
    def test_infeasible_spacing(self):
        with pytest.raises(ValueError, match="infeasible spacing"):
            GeneratorSpec(T=10, n_bkps=4, min_spacing=3)

    def test_negative_noise(self):
        with pytest.raises(ValueError):
            GeneratorSpec(T=10, noise_std=-1.0)


class TestPwConstant:
    def test_no_change_no_noise_is_constant(self):
        sig, seg = generate_pw_constant(GeneratorSpec(T=100, noise_std=0.0, seed=3))
        assert seg.bkps == (100,)
        assert np.ptp(sig.data) == 0.0

    def test_one_change_plateaus_and_jump_in_range(self):
        spec = GeneratorSpec(T=100, n_bkps=1, min_spacing=10, noise_std=0.0,
                             jump_range=(2.0, 4.0), seed=11)
        sig, seg = generate_pw_constant(spec)
        t = seg.interior[0]
        left, right = sig.data[:t, 0], sig.data[t:, 0]
        assert np.ptp(left) == 0.0 and np.ptp(right) == 0.0
        assert 2.0 <= abs(right[0] - left[0]) <= 4.0

    def test_deterministic(self):
        spec = GeneratorSpec(T=64, d=2, n_bkps=3, min_spacing=5, seed=42)
        s1, g1 = generate_pw_constant(spec)
        s2, g2 = generate_pw_constant(spec)
        assert g1 == g2
        assert np.array_equal(s1.data, s2.data)

    def test_min_spacing_respected(self):
        for seed in range(50):
            spec = GeneratorSpec(T=57, n_bkps=4, min_spacing=7, seed=seed)
            _, seg = generate_pw_constant(spec)
            bounds = [0, *seg.bkps]
            assert min(b - a for a, b in zip(bounds, bounds[1:])) >= 7


class TestPwScale:
    def test_no_change_single_regime(self):
        sig, seg = generate_pw_scale(GeneratorSpec(T=50, jump_range=(1.0, 2.0), seed=0))
        assert seg.bkps == (50,)
        assert sig.T == 50

    def test_variance_grows_across_the_change(self):
        # Scales are assigned in increasing order, so the second regime has
        # the larger spread for nearly every seed; near-tie scale draws can
        # flip the sample variances (97/100 with these parameters).
        wins = 0
        for seed in range(100):
            spec = GeneratorSpec(T=200, n_bkps=1, min_spacing=50, noise_std=0.0,
                                 jump_range=(1.0, 10.0), seed=seed)
            sig, seg = generate_pw_scale(spec)
            t = seg.interior[0]
            wins += sig.data[t:].var() > sig.data[:t].var()
        assert wins >= 95

    def test_deterministic(self):
        spec = GeneratorSpec(T=80, n_bkps=2, min_spacing=10, jump_range=(0.5, 3.0), seed=9)
        s1, g1 = generate_pw_scale(spec)
        s2, g2 = generate_pw_scale(spec)
        assert g1 == g2
        assert np.array_equal(s1.data, s2.data)

    def test_rejects_nonpositive_scale_range(self):
        with pytest.raises(ValueError, match="scale range"):
            generate_pw_scale(GeneratorSpec(T=20, jump_range=(0.0, 2.0)))


class TestLoadCsv:
    def test_plain_numeric(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1.0,2.0\n3.5,4.5\n5.0,6.0\n")
        sig = load_csv(path)
        assert (sig.T, sig.d) == (3, 2)
        assert sig.data[1, 1] == 4.5

    def test_header_detected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("x,y\n1,2\n3,4\n")
        sig = load_csv(path)
        assert (sig.T, sig.d) == (2, 2)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n1,2,3\n")
        with pytest.raises(ValueError, match="ragged"):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("1,2\n\n3,4\n5\n", "ragged input: line 4 "),
        ("x,y\n\n1,2\r\n\n3,oops\n", "non-numeric cell on line 5:"),
    ])
    def test_errors_name_the_physical_line(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match=message):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv(path)


def test_segmentation_requires_terminal():
    with pytest.raises(ValueError):
        Segmentation((30, 50), 100)
