"""Exception types shared across the package."""


class SRingError(Exception):
    """Base class for all errors raised by this package."""


class MalformedExpressionError(SRingError):
    """A ring construction expression is structurally invalid."""


class SizeCapExceededError(SRingError):
    """A construction would realize a ring larger than the configured cap."""


class ZeroInClosureError(SRingError):
    """The multiplicative closure of the given generators contains zero."""


class BudgetExceededError(SRingError):
    """An enumeration or search exceeded its configured budget."""


class EmptySpectrumError(SRingError):
    """No S-prime ideal exists for the given ring and multiplicative set."""
