"""Hypothesis draws the same examples on every run: each test's generator is
seeded from the test itself, and no example database is replayed. Each
test's own max_examples still applies."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
