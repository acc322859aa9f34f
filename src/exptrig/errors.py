"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside an operation's mathematical domain (arg of 0, Y = 0, ...)."""


class ConvergenceError(RuntimeError):
    """A series could not reach its tolerance (term cap, overflow or underflow)."""
