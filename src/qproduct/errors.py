"""Exceptions shared across the package."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed a configured size cap."""


class PrecisionError(ArithmeticError):
    """Integer rounding failed its error estimate at the maximum working precision."""
