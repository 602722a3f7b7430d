"""The package's two exception roots: bad input, and bugs."""


class BallsepError(Exception):
    """Every bad-input error this package raises: an argument outside its domain, balls of
    different or too small dimensions, balls that overlap or touch, a bias half range below
    max(|c|, |x|), or an empty list of pairs.  Its message names the case."""


class InternalConsistencyError(Exception):
    """A bug, not bad input: a computed quantity broke an internal invariant, or an iterative
    evaluation hit its iteration cap, which valid input stays well inside."""
