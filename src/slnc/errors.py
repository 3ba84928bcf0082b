"""Exception hierarchy shared by every slnc module.

A fault has its own class only when a caller can act on it differently;
every other fault is an `SlncError` whose message says what went wrong.
"""


class SlncError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SlncError):
    """A network, code, bundle, or table file is malformed, or describes an invalid network."""


class BudgetExceeded(SlncError):
    """An exhaustive enumeration would exceed the configured budget."""


class FieldTooSmall(SlncError):
    """No code or mixing basis was found over this field; retry with a larger one."""


class Singular(SlncError):
    """A square matrix has no inverse (rank below its dimension)."""


class InconsistentObservation(SlncError):
    """Sink observations match no valid input (corrupted or forged traffic)."""


class DivisionByZero(SlncError, ZeroDivisionError):
    """Division by the zero element of a field."""


class NotADistribution(SlncError):
    """A probability table does not describe a distribution."""
