"""Test-wide configuration.

Hypothesis runs derandomized and without a per-example deadline, and keeps
no example database, so every run of the suite draws the same examples.
"""

from hypothesis import settings

settings.register_profile("exptrig", derandomize=True, deadline=None, database=None)
settings.load_profile("exptrig")
