"""Width planning for tessellations by several hyperplanes.

Two balls end up in different cells of a tessellation as soon as one of
its planes separates them, so with per-plane separation probability p
the chance that m independent planes split a pair is 1 - (1 - p)^m;
`plan_width` inverts that for a target confidence.  The harder event
that one shared tessellation splits every pair of a collection at once
is measured by `estimate_all_pairs`, the Monte Carlo sampler that every
estimator runs; it lives in `montecarlo` and is re-exported here with
its `MODES`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ArgumentOutOfRange, InternalConsistencyError
from .montecarlo import MODES, estimate_all_pairs  # noqa: F401 (re-exported)


def width_for_confidence(per_pair_p: float, target: float) -> int:
    """Smallest m with 1 - (1 - p)^m >= target.

    Comparisons run in log space, so the answer is exact wherever the
    logs are; a short walk around the closed-form guess absorbs any
    ceiling-edge rounding.
    """
    if not 0.0 < per_pair_p <= 1.0:
        raise ArgumentOutOfRange(f"per-pair probability must lie in (0, 1], got {per_pair_p!r}")
    if not 0.0 < target < 1.0:
        raise ArgumentOutOfRange(f"target confidence must lie in (0, 1), got {target!r}")
    if per_pair_p == 1.0:
        # every plane separates, so one suffices
        return 1
    log_miss = math.log1p(-per_pair_p)
    log_allowed = math.log1p(-target)
    guess = max(1, math.ceil(log_allowed / log_miss))
    while guess > 1 and (guess - 1) * log_miss <= log_allowed:
        guess -= 1
    while guess * log_miss > log_allowed:
        guess += 1
    return guess


@dataclass(frozen=True)
class WidthPlan:
    """Planned tessellation width for a per-pair probability and target."""

    per_pair_probability: float
    width: int
    target_confidence: float
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise ArgumentOutOfRange(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 < self.per_pair_probability <= 1.0:
            raise ArgumentOutOfRange(
                f"per-pair probability must lie in (0, 1], got {self.per_pair_probability!r}"
            )
        if not 0.0 < self.target_confidence < 1.0:
            raise ArgumentOutOfRange(
                f"target confidence must lie in (0, 1), got {self.target_confidence!r}"
            )
        if not isinstance(self.width, int) or self.width < 1:
            raise ArgumentOutOfRange(f"width must be a positive int, got {self.width!r}")
        if self.width * self._log_miss > math.log1p(-self.target_confidence):
            raise InternalConsistencyError("planned width misses the target confidence")

    @property
    def _log_miss(self) -> float:
        """log(1 - p); -inf at p = 1, where one plane always separates."""
        p = self.per_pair_probability
        return -math.inf if p == 1.0 else math.log1p(-p)

    @property
    def achieved_confidence(self) -> float:
        """1 - (1 - p)^width for the planned width."""
        return -math.expm1(self.width * self._log_miss)


def plan_width(per_pair_p: float, target: float, mode: str = "fully-random") -> WidthPlan:
    """Minimal-width plan meeting the target success probability."""
    return WidthPlan(
        per_pair_probability=per_pair_p,
        width=width_for_confidence(per_pair_p, target),
        target_confidence=target,
        mode=mode,
    )
