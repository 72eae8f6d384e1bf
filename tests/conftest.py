"""Test-suite settings: the property tests draw the same examples every run."""

from hypothesis import settings

# Examples come from a fixed seed, and no example database is kept, so
# a run neither depends on nor writes state from earlier runs; each
# test's own ``max_examples`` still applies.
settings.register_profile("levamp", derandomize=True, database=None)
settings.load_profile("levamp")
