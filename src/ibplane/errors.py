"""Exception hierarchy shared across the package."""


class IBError(Exception):
    """Base class for all ibplane errors."""


class DimensionError(IBError):
    """Shapes, lengths, or index ranges do not match."""


class EmptySampleError(IBError):
    """An operation that needs at least one sample got none."""


class InstanceTooLargeError(IBError):
    """Exhaustive enumeration was requested beyond the instance guard."""


class DivergenceError(IBError):
    """Training produced a non-finite loss or parameter."""


class UnsupportedDegenerateError(IBError):
    """A probability of exactly 0 or 1 where a log-odds ratio is needed."""
