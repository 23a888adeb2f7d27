"""Setup shared by the test modules."""

import warnings

# Hypothesis imports libcst, where it is installed, to write the patch of a
# failing example.  libcst's import raises a DeprecationWarning, which
# ``-W error`` would turn into a pytest INTERNALERROR that hides the
# falsifying example, so it is imported once here with that warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass
