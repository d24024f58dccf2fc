"""Exception types shared across the package."""

__all__ = [
    "PrecisionInfeasibleError",
    "TableFormatError",
]


class PrecisionInfeasibleError(ArithmeticError):
    """The requested target precision cannot be certified at the given
    working precision (truncation and rounding error are no longer
    separable, or a cancellation check detected unstable digits)."""


class TableFormatError(ValueError):
    """A coefficient-table file does not match the expected schema."""
