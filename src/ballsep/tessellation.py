"""Width planning for tessellations by several hyperplanes.

Two balls end up in different cells of a tessellation as soon as one of
its planes separates them, so with per-plane separation probability p
the chance that m independent planes split a pair is 1 - (1 - p)^m
(`achieved_confidence`); `width_for_confidence` inverts that for a
target confidence.  `estimate_all_pairs` measures the chance that every
pair of a collection has one of the same m planes splitting it (in
random-weight mode, one whose direction admits a bias splitting that pair);
it lives in `montecarlo` and is re-exported here with its `MODES`.
"""

from __future__ import annotations

import math

from .errors import ArgumentOutOfRange
from .montecarlo import MODES, estimate_all_pairs  # noqa: F401 (re-exported)

_MAX_WIDTH = 2**63 - 1  # the largest width a signed 64-bit count holds


def _log_miss(per_pair_p: float) -> float:
    """log(1 - p), the log chance that one plane misses the pair; -inf at p = 1."""
    if not 0.0 <= per_pair_p <= 1.0:
        raise ArgumentOutOfRange(f"per-pair probability must lie in [0, 1], got {per_pair_p!r}")
    return -math.inf if per_pair_p == 1.0 else math.log1p(-per_pair_p)


def achieved_confidence(per_pair_p: float, width: int) -> float:
    """1 - (1 - p)^width: the chance that one of `width` independent planes splits the pair."""
    if type(width) is not int or width < 1:  # bool is an int subclass
        raise ArgumentOutOfRange(f"width must be a positive int, got {width!r}")
    return -math.expm1(width * _log_miss(per_pair_p))


def width_for_confidence(per_pair_p: float, target: float) -> int:
    """Smallest m with 1 - (1 - p)^m >= target.

    Comparisons run in log space, so the answer is exact wherever the
    logs are; a short walk around the closed-form guess absorbs any
    ceiling-edge rounding.  Raises ArgumentOutOfRange when no width up
    to 2^63 - 1 reaches the target, p = 0 included.
    """
    log_miss = _log_miss(per_pair_p)
    if not 0.0 < target < 1.0:
        raise ArgumentOutOfRange(f"target confidence must lie in (0, 1), got {target!r}")
    log_allowed = math.log1p(-target)
    # a step of the walk below moves the product by about 1/width of it,
    # so far past this bound one ulp takes more steps than can be walked
    if _MAX_WIDTH * log_miss > log_allowed:
        raise ArgumentOutOfRange(
            f"per-pair probability {per_pair_p!r} needs more than 2**63 - 1 planes "
            f"to reach confidence {target!r}"
        )
    guess = max(1, math.ceil(log_allowed / log_miss))
    while guess > 1 and (guess - 1) * log_miss <= log_allowed:
        guess -= 1
    while guess * log_miss > log_allowed:
        guess += 1
    return guess
