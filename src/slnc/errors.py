"""Exception hierarchy shared by every slnc module."""


class SlncError(Exception):
    """Base class for all errors raised by this package."""


# -- field / matrix -----------------------------------------------------------

class FieldMismatch(SlncError):
    """Operands do not belong to the same field, or are not canonical elements."""


class DivisionByZero(SlncError, ZeroDivisionError):
    """Division by the zero element of a field."""


class DimensionMismatch(SlncError):
    """A vector or symbol block has the wrong length, or a matrix to invert is not square."""


class Singular(SlncError):
    """A square matrix has no inverse (rank below its dimension)."""


# -- network model ------------------------------------------------------------

class ParseError(SlncError):
    """A network, code, bundle, or table file is malformed."""


class CycleDetected(SlncError):
    """The channel graph is not acyclic."""


class UnreachableSink(SlncError):
    """A declared sink cannot be reached from the source."""


class DuplicateEdgeId(SlncError):
    """Two channels share an id."""


class UnknownSink(SlncError):
    """The named node is not a declared sink."""


class UnknownEdge(SlncError):
    """No channel carries the given id."""


class EmptySet(SlncError):
    """An edge-set argument must be nonempty."""


class SecurityLevelTooLarge(SlncError):
    """The security level is out of range for the network or code."""


# -- code construction --------------------------------------------------------

class DimensionExceedsCapacity(SlncError):
    """Requested code dimension exceeds the multicast capacity."""


class FieldTooSmallForSinks(SlncError):
    """The flow-path construction needs a field at least as large as the sink count."""


class FieldTooSmall(SlncError):
    """The greedy basis search exhausted the field; retry with a larger one."""


class RateTooHigh(SlncError):
    """Message plus key symbols do not fit into the code dimension."""


class InconsistentObservation(SlncError):
    """Sink observations match no valid input (corrupted or forged traffic)."""


# -- oracle -------------------------------------------------------------------

class BudgetExceeded(SlncError):
    """An exhaustive enumeration would exceed the configured budget."""


class InvalidKeyDim(SlncError):
    """Key dimension makes the requested refutation vacuous."""


class NotADistribution(SlncError):
    """A probability table does not describe a distribution."""


# -- entropy profile ----------------------------------------------------------

class MonotonicityViolated(SlncError):
    """The entropy profile decreased; this signals an arithmetic bug."""
