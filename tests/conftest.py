"""Shared hypothesis profile for the property-test modules."""
import warnings

try:
    from hypothesis import settings
except ImportError:  # the property modules skip themselves
    settings = None

if settings is not None:
    # reproducible draws; the first call of a test may exceed a per-example deadline
    settings.register_profile("cavityswap", derandomize=True, deadline=None)
    settings.load_profile("cavityswap")

    # hypothesis reports a falsifying example through libcst, whose import
    # warns; under this suite's warnings-as-errors that report would crash pytest
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            import libcst  # noqa: F401
        except ImportError:
            pass
