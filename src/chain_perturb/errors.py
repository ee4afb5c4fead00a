"""Typed failure modes shared across the package."""

__all__ = ["DimensionMismatchError", "InvalidRegimeError", "NumericalFailureError"]


class DimensionMismatchError(ValueError):
    """Two objects that must live on the same state space do not."""


class InvalidRegimeError(ValueError):
    """Parameters left the regime in which a quantity is defined or certified."""


class NumericalFailureError(RuntimeError):
    """A numerical routine could not meet its accuracy contract."""
