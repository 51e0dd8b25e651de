"""Test-suite configuration: Hypothesis draws the same examples every run.

The ``derandomized`` profile seeds each property test from its own source
and keeps no example database, so two runs of the suite on the same code
test the same inputs and pass or fail together.  Run
``pytest --hypothesis-profile=default`` for fresh random draws.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
