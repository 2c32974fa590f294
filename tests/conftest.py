"""Hypothesis profiles.

HYPOTHESIS_PROFILE=ci (set in CI) draws the same examples on every run
and prints the reproduction blob of a failure, so a red CI run replays
locally with the same environment variable.  Without it the default
profile applies.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
