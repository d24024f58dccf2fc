"""Exception types shared across the package."""

__all__ = [
    "PrecisionInfeasibleError",
    "OrderMismatchError",
    "NonInvertibleSeriesError",
    "TableFormatError",
]


class PrecisionInfeasibleError(ArithmeticError):
    """The requested target precision cannot be certified at the given
    working precision (truncation and rounding error are no longer
    separable, or a cancellation check detected unstable digits)."""


class OrderMismatchError(ValueError):
    """Arithmetic was attempted on truncated series of different orders."""


class NonInvertibleSeriesError(ZeroDivisionError):
    """Reciprocal requested for a series whose constant term is zero."""


class TableFormatError(ValueError):
    """A coefficient-table file does not match the expected schema."""
