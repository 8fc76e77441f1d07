"""Shared pytest configuration for the test suite.

Registers the Hypothesis ``ci`` profile: every property test explores
one fixed, reproducible set of examples, with no per-example deadline.
CI selects it with ``--hypothesis-profile=ci``; local runs keep the
default randomized exploration.  A derandomized example that fails is a
bug in the code under test, to be fixed rather than suppressed.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
