"""Exception types shared across the quotient toolkit."""

from __future__ import annotations


class QuotientError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(QuotientError):
    """An element lies outside the carrier set of a relation."""


class RelationMismatchError(QuotientError):
    """Values built over different relations were combined."""


class UncertifiedLiftError(QuotientError):
    """`lift` was given something other than a certified congruence report
    that names its map.

    Carries what it was given (a report, or None) so callers can inspect
    the counterexample that blocked the lift.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class UniverseTooLargeError(QuotientError):
    """A bounded term enumeration would exceed the configured size cap.

    `universe_size` is exact up to cap**2 terms and a lower bound past it.
    """

    def __init__(self, universe_size: int, cap: int):
        super().__init__(
            f"term universe has at least {universe_size} elements, exceeding the cap of {cap}"
        )
        self.universe_size = universe_size
        self.cap = cap


class ParseError(QuotientError):
    """Malformed input text; `offset` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
