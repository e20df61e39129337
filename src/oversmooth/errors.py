"""Exception types shared across the package."""


class GraphFormatError(ValueError):
    """A graph/dataset text file violates its format."""


class DomainError(ValueError):
    """An operation was called outside its mathematical domain."""


class NumericalError(RuntimeError):
    """A computation produced numerically invalid results (NaN/Inf, failed residual)."""


class InsufficientDataError(ValueError):
    """Not enough usable data points for a fit."""
