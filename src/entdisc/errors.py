"""Exception types shared across the package."""

__all__ = ["ValidationError"]


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition or invariant."""
