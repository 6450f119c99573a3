"""Session setup shared by the test modules.

Hypothesis imports `hypothesis.extra._patching` to write the report of a
failing property. That module imports libcst, and some libcst releases
build a `mypy_extensions.TypedDict` that raises a DeprecationWarning.
Under `-W error` the warning becomes an exception inside the report, and
the session ends in INTERNALERROR without the falsifying example. The
module is imported here once, with only DeprecationWarning ignored and
only for that import, so warnings raised by tripsynth still fail the run.
"""
import contextlib
import warnings

with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
