"""Shared hypothesis profile for the property-test modules, and a fresh
synthesis memo for every test."""
import warnings

import pytest

try:
    from hypothesis import settings
except ImportError:  # the property modules skip themselves
    settings = None

if settings is not None:
    # reproducible draws; the first call of a test may exceed a per-example deadline
    settings.register_profile("cavityswap", derandomize=True, deadline=None)
    # fresh draws on every run, chosen with pytest's --hypothesis-profile,
    # which overrides the default loaded here
    settings.register_profile("cavityswap-random", derandomize=False, deadline=None)
    settings.load_profile("cavityswap")

    # hypothesis reports a falsifying example through libcst, whose import
    # warns; under this suite's warnings-as-errors that report would crash pytest
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            import libcst  # noqa: F401
        except ImportError:
            pass


@pytest.fixture(autouse=True)
def fresh_synthesis_memo():
    """Each test starts with an empty synthesis memo, which keeps only
    prefix classes of exactly two CSWAPs: a test that patches a constant
    the prefix classes are built under builds them under its patch, no
    test reads a table that another one built, and a full-operator search
    of two CSWAPs meets one layer before the final one until a search of
    its gate set has kept the two-CSWAP classes."""
    from cavityswap import synthesis

    synthesis._MEMO = (None, None, None, None)
