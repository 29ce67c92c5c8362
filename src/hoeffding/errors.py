"""Exception hierarchy.

Every contract violation raises a dedicated subclass of :class:`HoeffdingError`
so callers can distinguish "you asked past the truncation order" from "this
measure is deterministic" without string matching.
"""


class HoeffdingError(Exception):
    """Base class for all library errors."""


class OrderExceededError(HoeffdingError):
    """A moment of order beyond the measure's truncation was requested."""

    def __init__(self, needed: int, supported: int):
        self.needed = needed
        self.supported = supported
        super().__init__(
            f"order {needed} requested but only orders <= {supported} are available"
        )


class DeterministicMeasureError(HoeffdingError):
    """A configuration probability required to be positive is zero."""


class IndexRangeError(HoeffdingError, ValueError):
    """An index (zero count, arity, order, ...) is outside its valid range."""


class ArityMismatchError(HoeffdingError, ValueError):
    """Two symmetric functions of different arities were combined."""


class ParseError(HoeffdingError, ValueError):
    """An input document does not conform to its grammar."""


class InvalidMomentSequenceError(ParseError):
    """A moment sequence gives a negative configuration probability.

    Carries the first violating pair ``(order, zeros)`` in row order: the
    probability of a fixed configuration with ``zeros`` zeros among
    ``order`` observations is negative.
    """

    def __init__(self, order: int, zeros: int):
        self.order = order
        self.zeros = zeros
        super().__init__(
            f"moment sequence gives a negative configuration probability: a fixed "
            f"configuration with {zeros} zeros among {order} observations has "
            f"probability below 0"
        )


class InternalError(HoeffdingError, AssertionError):
    """A library invariant failed: an exact identity the code relies on does
    not hold. Raised explicitly, so the check survives ``python -O``."""


class ParameterRangeError(HoeffdingError, ValueError):
    """A numeric parameter is outside its admissible range."""


class ZeroDenominatorError(HoeffdingError, ZeroDivisionError):
    """The moment-continuation denominator vanishes at the supplied point."""


class MomentRegionError(HoeffdingError, ValueError):
    """Inputs lie outside the open moment region required by the operation."""


class ReinforcementRangeError(HoeffdingError, ValueError):
    """An urn reinforcement function evaluated outside [0, 1]."""


class UnsamplableKindError(HoeffdingError, TypeError):
    """The measure kind cannot be sampled (truncated moment sequences)."""
