"""Signal and segmentation data model, synthetic generators, CSV ingestion.

A signal is a T x d matrix of finite reals, time-major.  A segmentation is a
strictly increasing sequence of breakpoint indexes in [1, T] whose last
element is always T; the indexes before T are the change points.  Segment k
covers samples t_k+1 .. t_{k+1} (1-based), i.e. rows t_k .. t_{k+1}-1 of the
data matrix, with the implicit t_0 = 0.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

# Generators use numpy's default PCG64 bit generator; the name is echoed in
# CLI reports so a run can be reproduced from its own output.
RNG_ALGORITHM = "numpy-pcg64"


class Signal:
    """Immutable T x d matrix of observations.

    Accepts any array-like; 1-D input becomes a single-column signal.
    Rejects empty and non-finite data at construction.
    """

    __slots__ = ("_data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ValueError(f"signal must be 1-D or 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("signal needs at least one sample and one dimension")
        if not np.isfinite(arr).all():
            raise ValueError("signal contains NaN or Inf entries")
        arr = arr.copy()
        arr.flags.writeable = False
        self._data = arr

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def T(self) -> int:
        return self._data.shape[0]

    @property
    def d(self) -> int:
        return self._data.shape[1]

    def __len__(self) -> int:
        return self.T

    def __repr__(self) -> str:
        return f"Signal(T={self.T}, d={self.d})"


def as_signal(data) -> Signal:
    """Coerce array-likes to Signal; pass Signal instances through."""
    return data if isinstance(data, Signal) else Signal(data)


@dataclass(frozen=True)
class Segmentation:
    """Sorted breakpoints ending with T; interior points are the changes."""

    bkps: tuple[int, ...]
    T: int

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("segmentation needs T >= 1")
        if not self.bkps:
            raise ValueError("segmentation needs at least the terminal index")
        if self.bkps[-1] != self.T:
            raise ValueError(f"last breakpoint must equal T={self.T}, got {self.bkps[-1]}")
        if self.bkps[0] < 1:
            raise ValueError("breakpoints must be >= 1")
        for lo, hi in zip(self.bkps, self.bkps[1:]):
            if hi <= lo:
                raise ValueError("breakpoints must be strictly increasing")

    @property
    def n_bkps(self) -> int:
        """Number of change points (the terminal T does not count)."""
        return len(self.bkps) - 1

    @property
    def interior(self) -> tuple[int, ...]:
        return self.bkps[:-1]

    def segments(self) -> Iterator[tuple[int, int]]:
        """Yield (start, end) row ranges; segment rows are data[start:end]."""
        prev = 0
        for b in self.bkps:
            yield prev, b
            prev = b

    def __repr__(self) -> str:
        return f"Segmentation(bkps={list(self.bkps)}, T={self.T})"


def make_segmentation(bkps: Sequence[int], T: int) -> Segmentation:
    """Validate and normalize breakpoints: sort, append T when absent.

    Rejects duplicates, indexes outside [1, T], and empty input with T < 1.
    """
    T = _as_index(T, "T")
    cleaned = [_as_index(b, "breakpoint") for b in bkps]
    if T not in cleaned:
        cleaned.append(T)
    cleaned.sort()
    if len(set(cleaned)) != len(cleaned):
        raise ValueError(f"duplicate breakpoints in {sorted(bkps)}")
    if cleaned[0] < 1 or cleaned[-1] > T:
        raise ValueError(f"breakpoints must lie in [1, {T}], got {cleaned}")
    return Segmentation(tuple(cleaned), T)


def _as_index(value, what: str) -> int:
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    iv = int(value)
    if iv != value:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return iv


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for the synthetic piecewise-stationary generators.

    jump_range is the (low, high) interval of per-dimension mean jumps for
    the level generator; the scale generator reads it as the range of
    per-segment noise standard deviations.
    """

    T: int
    d: int = 1
    n_bkps: int = 0
    min_spacing: int = 1
    noise_std: float = 1.0
    jump_range: tuple[float, float] = (1.0, 5.0)
    seed: int = 0

    def __post_init__(self):
        if self.T < 1 or self.d < 1:
            raise ValueError("T and d must be >= 1")
        if self.n_bkps < 0:
            raise ValueError("n_bkps must be >= 0")
        if self.min_spacing < 1:
            raise ValueError("min_spacing must be >= 1")
        if (self.n_bkps + 1) * self.min_spacing > self.T:
            raise ValueError(
                f"infeasible spacing: {self.n_bkps + 1} segments of >= "
                f"{self.min_spacing} samples do not fit in T={self.T}"
            )
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        lo, hi = self.jump_range
        if not (0 <= lo <= hi):
            raise ValueError(f"jump_range must satisfy 0 <= low <= high, got {self.jump_range}")


def _draw_breakpoints(rng: np.random.Generator, T: int, n_bkps: int, min_spacing: int) -> list[int]:
    # Uniform over all breakpoint sets whose K+1 segments each have
    # >= min_spacing samples, via the bijection with (n_bkps)-subsets of a
    # shifted index range.  Rejection-free.
    if n_bkps == 0:
        return [T]
    slack = T - (n_bkps + 1) * min_spacing
    picks = np.sort(rng.choice(slack + n_bkps, size=n_bkps, replace=False))
    bkps = [int(v) - i + (i + 1) * min_spacing for i, v in enumerate(picks)]
    return bkps + [T]


def generate_pw_constant(spec: GeneratorSpec) -> tuple[Signal, Segmentation]:
    """Piecewise constant mean with additive Gaussian noise.

    Per-dimension mean levels start at 0 and jump at each breakpoint by a
    magnitude drawn uniformly from jump_range, with a random sign.  Output is
    a pure function of the spec (seed included).
    """
    rng = np.random.default_rng(spec.seed)
    bkps = _draw_breakpoints(rng, spec.T, spec.n_bkps, spec.min_spacing)
    magnitudes = rng.uniform(spec.jump_range[0], spec.jump_range[1], size=(spec.n_bkps, spec.d))
    signs = rng.choice(np.array([-1.0, 1.0]), size=(spec.n_bkps, spec.d))

    levels = np.zeros((spec.n_bkps + 1, spec.d))
    for k in range(spec.n_bkps):
        levels[k + 1] = levels[k] + signs[k] * magnitudes[k]

    data = np.empty((spec.T, spec.d))
    start = 0
    for k, end in enumerate(bkps):
        data[start:end] = levels[k]
        start = end
    data += spec.noise_std * rng.standard_normal((spec.T, spec.d))
    return Signal(data), make_segmentation(bkps, spec.T)


def generate_pw_scale(spec: GeneratorSpec) -> tuple[Signal, Segmentation]:
    """Zero-mean Gaussian noise with piecewise constant standard deviation.

    Per-segment noise levels are drawn uniformly from jump_range (read as a
    scale range) and assigned in increasing order, so every breakpoint is a
    variance increase.  spec.noise_std is ignored; the scale range governs.
    """
    lo, hi = spec.jump_range
    if lo <= 0:
        raise ValueError("scale range must be positive for the scale generator")
    rng = np.random.default_rng(spec.seed)
    bkps = _draw_breakpoints(rng, spec.T, spec.n_bkps, spec.min_spacing)
    scales = np.sort(rng.uniform(lo, hi, size=spec.n_bkps + 1))

    data = rng.standard_normal((spec.T, spec.d))
    start = 0
    for k, end in enumerate(bkps):
        data[start:end] *= scales[k]
        start = end
    return Signal(data), make_segmentation(bkps, spec.T)


def load_csv(path) -> Signal:
    """Read a signal from CSV: one time step per row, one column per dimension.

    The dialect: comma-separated, '.' decimal point, UTF-8 with an optional
    byte-order mark.  Rows that are empty or hold only whitespace and commas
    are skipped.  If the first remaining row does not parse as numbers it is
    a header and is skipped; every later row must be numeric and as wide as
    the first data row.  Raises ValueError on ragged rows, non-numeric
    cells outside the header, non-finite values and files without data rows,
    naming the physical line where there is one.

    The rows after the header go to NumPy's C reader (`np.loadtxt`).  A file
    it rejects (quoted cells, digit separators such as `1_000`, non-ASCII
    digits, whitespace- or comma-only rows, any error) is parsed again by the
    `csv` module and `float`, which accepts the same cells and words every
    error.  Both give the same correctly rounded doubles.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        first = next((row for row in csv.reader(fh) if not _is_blank(row)), None)
        if first is None:
            raise ValueError(f"empty file: {path}")
        start = 0 if _is_numeric(first) else 1
        if not start:
            fh.seek(0)
        try:
            with warnings.catch_warnings():
                # a header-only file: "no data rows" is raised below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=float)
        except ValueError:
            values = None
    if values is None:
        values = _parse_rows(path, start)
    elif not len(values):
        raise ValueError(f"no data rows in {path}")
    try:
        return Signal(values)
    except ValueError:  # the only check `values` can fail is the finiteness one
        row = int(np.argwhere(~np.isfinite(values))[0, 0])
        raise ValueError(f"signal contains NaN or Inf entries on line "
                         f"{_line_of_row(path, start + row)}") from None


def _parse_rows(path, start: int) -> np.ndarray:
    """load_csv's exact parser: the non-blank rows from `start` on, by
    `csv.reader` and `float`, with line-numbered errors."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh) if not _is_blank(row)]
    if start == len(rows):
        raise ValueError(f"no data rows in {path}")

    width = len(rows[start])
    values = []
    for i, row in enumerate(rows[start:], start=start):
        if len(row) != width:
            raise ValueError(f"ragged input: line {_line_of_row(path, i)} has {len(row)} cells, "
                             f"expected {width}")
        try:
            values.append([float(cell) for cell in row])
        except ValueError as exc:
            raise ValueError(f"non-numeric cell on line {_line_of_row(path, i)}: {exc}") from None
    return np.array(values)


def _is_blank(row: list[str]) -> bool:
    return not any(cell.strip() for cell in row)


def _is_numeric(row: list[str]) -> bool:
    try:
        [float(cell) for cell in row]
    except ValueError:
        return False
    return True


def _line_of_row(path, index: int) -> int:
    """1-based physical line of the index-th non-blank row, for load_csv's
    errors; the file is read again so that parsing keeps no line numbers."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not _is_blank(row):
                if index == 0:
                    return reader.line_num
                index -= 1
    raise ValueError(f"{path} changed while being read")
