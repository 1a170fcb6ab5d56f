"""Shared exception types."""


class ParseError(ValueError):
    """Syntax error in a polynomial or formula, with position information."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class UnsupportedInputError(ValueError):
    """Input outside the supported fragment (zero polynomial, quantifier, ...)."""


class InternalBoundError(RuntimeError):
    """A termination bound that should be unreachable was exceeded."""
