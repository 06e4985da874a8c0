"""Hypothesis profiles.

"ci" raises hypothesis' default of 100 examples per test tenfold.  Tests that
set max_examples themselves keep it; the exactness harness
(test_exactness.py) derives its count from the profile, so
`pytest --hypothesis-profile=ci tests/test_exactness.py` runs it ten times
longer than tier-1 does.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=10 * settings.default.max_examples)
