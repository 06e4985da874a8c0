"""Cold set-up of `sigseg detect`: `import sigseg` plus the first job.

    python3 perfbench/cold.py <src dir> <detect arguments...>

runs one job in this fresh interpreter and prints, as the last line, its
set-up seconds and then the seconds of the reference task (reference.py)
timed right after it.  The exit code is the job's.  Only the standard
library is imported before sigseg, so the import is timed cold, numpy
included.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter


def import_sigseg(src: str):
    """Import sigseg from `src`; return the package and the seconds it took.

    Raises ImportError when sigseg is missing there or was already imported
    from elsewhere, so a benchmark never measures another copy.
    """
    sys.path.insert(0, src)
    start = perf_counter()
    import sigseg
    import sigseg.cli
    seconds = perf_counter() - start
    expected = os.path.join(os.path.realpath(src), "sigseg")
    if os.path.dirname(os.path.realpath(sigseg.__file__)) != expected:
        raise ImportError(f"sigseg imported from {sigseg.__file__}, expected {expected}")
    return sigseg, seconds


def main(argv: list[str]) -> int:
    sigseg, import_s = import_sigseg(argv[0])
    start = perf_counter()
    code = sigseg.cli.main(argv[1:])
    setup_s = perf_counter() - start + import_s
    print(setup_s, reference_seconds())
    return code


def reference_seconds() -> float:
    """The reference task's seconds, after one untimed warm-up call."""
    import reference

    reference.task()
    return reference.seconds()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
