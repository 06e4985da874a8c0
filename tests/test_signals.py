import csv

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


def reference_load_csv(path) -> Signal:
    """load_csv as it was before the NumPy fast path, verbatim apart from
    the byte-order mark fix (utf-8-sig)."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]
    if not rows:
        raise ValueError(f"empty file: {path}")

    start = 0
    try:
        [float(cell) for cell in rows[0]]
    except ValueError:
        start = 1
    if start == len(rows):
        raise ValueError(f"no data rows in {path}")

    width = len(rows[start])
    values = []
    for i, row in enumerate(rows[start:], start=start):
        if len(row) != width:
            raise ValueError(f"ragged input: line {_reference_line_of_row(path, i)} has {len(row)} cells, "
                             f"expected {width}")
        try:
            values.append([float(cell) for cell in row])
        except ValueError as exc:
            raise ValueError(f"non-numeric cell on line {_reference_line_of_row(path, i)}: {exc}") from None
    return Signal(np.array(values))


def _reference_line_of_row(path, index: int) -> int:
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if row and any(cell.strip() for cell in row):
                if index == 0:
                    return reader.line_num
                index -= 1
    raise ValueError(f"{path} changed while being read")


def first_non_finite_line(path) -> int:
    """Physical line of the first row holding a non-finite cell, for a file
    the reference parser read up to Signal's check."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if row and any(cell.strip() for cell in row):
                try:
                    if not np.isfinite([float(cell) for cell in row]).all():
                        return reader.line_num
                except ValueError:  # the header
                    pass
    raise AssertionError("no non-finite row")


def outcome(parse, path):
    """The parsed array's dtype, shape and bytes, or the error's type and message."""
    try:
        data = parse(path).data
    except Exception as exc:
        return type(exc), str(exc)
    return data.dtype, data.shape, data.tobytes()


_ODD_CELLS = ["1_000", "inf", "-inf", "nan", "1e400", '"2.5"', " 3 ", "", "#2", "oops",
              "\u0661\u0662", "0x10", "1,5", "+.5", "\x0c7", "4 #x"]


@st.composite
def csv_cells(draw):
    if draw(st.integers(0, 39)) == 0:
        return draw(st.sampled_from(_ODD_CELLS))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return draw(st.one_of(finite.map(lambda x: "%.17g" % x), finite.map(repr),
                          st.floats(-1e3, 1e3).map(lambda x: "%.3g" % x),
                          st.integers(-10**6, 10**6).map(str)))


@st.composite
def csv_texts(draw):
    """CSV files that are mostly well formed, so both of load_csv's paths run:
    an optional header, blank and whitespace- or comma-only lines, CRLF or CR
    line ends, a rare ragged row, trailing comma, odd cell or byte-order mark."""
    d = draw(st.integers(1, 3))
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["x,y", "t", '"a\nb",c', "1,#2", '"1","2"'])))
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", ",", ",,", "\x0c", " , "])))
            continue
        width = draw(st.integers(1, 4)) if draw(st.integers(0, 19)) == 0 else d
        line = ",".join(draw(csv_cells()) for _ in range(width))
        lines.append(line + "," if draw(st.integers(0, 29)) == 0 else line)
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    return ("\ufeff" if draw(st.integers(0, 9)) == 0 else "") + text


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

    def test_byte_order_mark_keeps_the_first_row(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1.5,2\n3,4\n5,6\n")
        np.testing.assert_array_equal(load_csv(path).data, [[1.5, 2], [3, 4], [5, 6]])

    def test_file_name_suffix_does_not_select_a_decompressor(self, tmp_path):
        path = tmp_path / "plain.csv.gz"
        path.write_text("1,2\n3,4\n")
        np.testing.assert_array_equal(load_csv(path).data, [[1, 2], [3, 4]])

    @pytest.mark.parametrize("text, line", [
        ("1,2\n3,inf\n", 2),
        ("t\n\n1\n\n-nan\n", 5),
        ('"a\nb"\n1\n1e400\n', 4),
        ('"1",2\n, \n3,-Infinity\n', 3),
    ])
    def test_non_finite_cell_names_its_line(self, tmp_path, text, line):
        path = tmp_path / "inf.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match=f"NaN or Inf entries on line {line}$"):
            load_csv(path)

    @pytest.mark.parametrize("text, expected", [
        ("x,y\n", "no data rows in "),
        ("x,y\n\n \n,\n", "no data rows in "),
        ("", "empty file: "),
        ("\n  \n,,\n\x0c\n", "empty file: "),
        ("1,2\n3\x00,4\n", None),
        ("1,2\n1,#2\n", "non-numeric cell on line 2: "),
        ("1,2\n3,4 # note\n", "non-numeric cell on line 2: "),
        ("1,2\r\n\r\n3,4\r\n", [[1, 2], [3, 4]]),
        ("1,2\r3,4\r\r5,6", [[1, 2], [3, 4], [5, 6]]),
        ("1,2\n   \n ,\n,\n\x0c\n3,4\n", [[1, 2], [3, 4]]),
        ("1_000,2\n3,4\n", [[1000, 2], [3, 4]]),
        ('"1",2\n3,"4.5"\n', [[1, 2], [3, 4.5]]),
        ('"a\nb",c\n1,2\n3,4\n', [[1, 2], [3, 4]]),
        ("1,2,\n3,4,\n", "non-numeric cell on line 2: "),
        ("x\n1\n2\n\n3\n", [[1], [2], [3]]),
        (" 1.5 ,\t-2e-3\n", [[1.5, -2e-3]]),
    ])
    def test_dialect_edge_cases(self, tmp_path, text, expected):
        """Pinned outcomes, and each equal to the reference parser's (None:
        the outcome differs across Python versions, so only the parity is
        checked)."""
        path = tmp_path / "edge.csv"
        path.write_bytes(text.encode())
        assert outcome(load_csv, path) == outcome(reference_load_csv, path)
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=expected):
                load_csv(path)
        elif expected is not None:
            got = load_csv(path).data
            np.testing.assert_array_equal(got, expected)

    @settings(max_examples=400, deadline=None)
    @given(text=csv_texts())
    def test_matches_reference_parser(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("diff") / "x.csv"
        path.write_bytes(text.encode())
        got, want = outcome(load_csv, path), outcome(reference_load_csv, path)
        if want == (ValueError, "signal contains NaN or Inf entries"):
            want = (ValueError, f"{want[1]} on line {first_non_finite_line(path)}")
        assert got == want


def test_segmentation_requires_terminal():
    with pytest.raises(ValueError):
        Segmentation((30, 50), 100)
