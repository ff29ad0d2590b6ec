"""Exception hierarchy for the repro package.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch a single base class when they do not care about the
specific failure mode.  :func:`require_count` is the integral-count check
the entry points share, each raising its own error class.
"""

import numbers


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphValidationError(ReproError):
    """Raised when a graph or edge list fails structural validation."""


class GraphIOError(ReproError):
    """Raised when reading or writing a graph file fails."""


class PartitioningError(ReproError):
    """Raised when a partitioning strategy is misconfigured or misused."""


class EngineError(ReproError):
    """Raised when the BSP execution engine is misconfigured or fails."""


class BackendError(ReproError):
    """Raised when an execution backend is unknown, misused or produces
    results that disagree with the reference backend."""


class DatasetError(ReproError):
    """Raised when a dataset specification or generator is invalid."""


class AnalysisError(ReproError):
    """Raised when an experiment or analysis routine is misconfigured."""


def require_count(value, what: str, minimum: int, error: type = ReproError) -> int:
    """``value`` as a plain ``int`` of at least ``minimum``.

    ``bool``, floats (``2.5``, ``nan``, ``inf``) and every other
    non-integral value raise ``error`` instead of being silently truncated
    by ``int(...)``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{what} must be an integer >= {minimum}, got {value!r}")
    if value < minimum:
        raise error(f"{what} must be >= {minimum}, got {value!r}")
    return int(value)
