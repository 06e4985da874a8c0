"""A fixed reference task, timed next to every job to factor out CPU speed.

On a shared host the same job can take 1.7 times as long from one
minute to the next, while the ratio of a job's time to that of a fixed
task run right before and after it stays within a few percent.  Host load
slows kinds of work unequally, so the task does each of the three kinds
that `sigseg detect` does: parsing CSV text with `csv` and `float` in a
Python loop, summing copied blocks of a Gram matrix (the scalar
kernel-cost path), and evaluating a large batch of intervals from prefix
sums (the vectorised cost path).  Its inputs are built once from a fixed
seed and never depend on sigseg, so a change to the package cannot change
the task.
"""

from __future__ import annotations

import csv
import io
from time import perf_counter

import numpy as np

# Each timing is the mean of this many calls (about 8 ms each).
REPEAT = 2
# setup_s must be in seconds: it is the set-up time divided by the task's
# time, times this, i.e. seconds on a CPU that runs the task in 8 ms.
NOMINAL_SECONDS = 0.008

_rng = np.random.default_rng(12345)
_TEXT = "".join("%.17g,%.17g,%.17g\n" % tuple(row) for row in _rng.standard_normal((400, 3)))
_GRAM = np.exp(-_rng.random((500, 500)))
# The blocks a binary split of 500 samples scores: both sides of 20 cuts.
_BLOCKS = [block for cut in range(10, 500, 25) for block in ((0, cut), (cut, 500))]
_Y = _rng.standard_normal((300, 2))
_SQ = np.concatenate([[0.0], np.cumsum(np.sum(_Y * _Y, axis=1))])
_SM = np.vstack([np.zeros((1, 2)), np.cumsum(_Y, axis=0)])
_STARTS = _rng.integers(0, 150, 35_000)
_ENDS = _STARTS + _rng.integers(1, 150, 35_000)


def task() -> float:
    """One run of the reference task; the result is the same every call."""
    a = np.array([[float(cell) for cell in row] for row in csv.reader(io.StringIO(_TEXT))])
    total = 0.0
    for i in range(1, len(a)):
        head = a[:i, 0].sum()
        total += head * head / i
    for lo, hi in _BLOCKS:
        total += float(np.ascontiguousarray(_GRAM[lo:hi, lo:hi]).sum())
    n = (_ENDS - _STARTS).astype(float)
    s = _SM[_ENDS] - _SM[_STARTS]
    total += float(np.maximum(0.0, _SQ[_ENDS] - _SQ[_STARTS] - np.einsum("ij,ij->i", s, s) / n).sum())
    return total


def seconds() -> float:
    """Seconds one reference task takes now: the mean of REPEAT calls."""
    start = perf_counter()
    for _ in range(REPEAT):
        task()
    return (perf_counter() - start) / REPEAT
