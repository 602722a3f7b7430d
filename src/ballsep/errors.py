"""Exception types shared across the package."""


class BallsepError(Exception):
    """Base class for every bad-input error this package raises; bugs have their own root."""


class DimensionMismatch(BallsepError):
    """Operands live in Euclidean spaces of different dimensions."""


class DimensionTooSmall(BallsepError):
    """Ambient dimension below 2 is not supported."""


class BallsOverlapOrTouch(BallsepError):
    """The two balls intersect or are tangent; no positive gap exists."""


class KInsufficient(BallsepError):
    """The bias half range is smaller than max(|c|, |x|)."""


class ArgumentOutOfRange(BallsepError):
    """An argument lies outside its documented domain."""


class EmptyInstanceList(BallsepError):
    """An operation over ball pairs received no pairs."""


class InternalConsistencyError(Exception):
    """A computed quantity violated an internal invariant; indicates a bug, not bad input."""


class NoConvergence(InternalConsistencyError):
    """An iterative evaluation hit its iteration cap, which valid input stays well inside."""
