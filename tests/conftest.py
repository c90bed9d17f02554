"""Test-suite configuration: property tests draw the same examples on every run.

The Hypothesis profile derives each test's examples from the test itself,
not from a fresh random seed, and keeps no example database, so a run on a
fresh checkout tries exactly what every other run tries.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
