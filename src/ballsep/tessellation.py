"""Tessellations by several hyperplanes and width planning.

A set of m hyperplanes cuts space into cells labeled by sign patterns.
Two balls end up in different cells as soon as one plane separates
them, so with per-plane separation probability p the chance that a
width-m tessellation splits a pair is 1 - (1 - p)^m; `plan_width`
inverts that for a target confidence.  `estimate_all_pairs` measures
the harder event that one shared tessellation splits every pair of a
collection at once, drawing all planes for all trials from the same
block-keyed streams as the single-pair estimators, so width 1 with a
single pair reproduces those estimators bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ArgumentOutOfRange,
    DimensionMismatch,
    EmptyInstanceList,
    InternalConsistencyError,
)
from .geometry import (
    Hyperplane,
    SeparationInstance,
    exists_separating_bias_batch,
    separates,
    separates_batch,
    separates_offsets,
)
from .montecarlo import (
    _BLOCK,
    _axis_projections,
    _planar_core,
    _sphere_block,
    Estimate,
    McConfig,
    bernoulli_estimate,
)

MODES = ("fully-random", "random-weight", "random-bias")


@dataclass(frozen=True)
class SignPattern:
    """Cell label: one sign per hyperplane, 0 exactly on the plane."""

    signs: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.signs)


def sign_pattern(point, planes: Sequence[Hyperplane]) -> SignPattern:
    """Signs of the point's offsets from each plane, in plane order."""
    signs = []
    for plane in planes:
        offset = plane.signed_offset(point)
        signs.append(0 if offset == 0.0 else (1 if offset > 0.0 else -1))
    return SignPattern(tuple(signs))


def pair_separated_by_any(inst: SeparationInstance, planes: Sequence[Hyperplane]) -> bool:
    """True iff at least one plane in the list separates the pair.

    Dimensions of every plane are checked before any predicate runs, so
    a malformed list fails loudly even when an early plane separates.
    """
    for plane in planes:
        if plane.dimension != inst.dimension:
            raise DimensionMismatch(
                f"plane dimension {plane.dimension} does not match instance {inst.dimension}"
            )
    return any(separates(plane, inst) for plane in planes)


def _check_collection(instances: Sequence[SeparationInstance]) -> int:
    if len(instances) == 0:
        raise EmptyInstanceList("at least one instance is required")
    dims = {inst.dimension for inst in instances}
    if len(dims) != 1:
        raise DimensionMismatch(f"instances mix dimensions {sorted(dims)}")
    return dims.pop()


def estimate_all_pairs(
    instances: Sequence[SeparationInstance],
    width: int,
    mode: str,
    cfg: McConfig,
) -> Estimate:
    """Chance that one width-m tessellation splits every listed pair.

    Each trial draws `width` hyperplanes according to `mode` and counts
    a hit when every instance is separated by at least one of them.
    Biases share a single range, the widest of the instances' ranges,
    so one bias stream serves the whole collection.  Random-bias mode
    takes a single pair: its planes are normal to the pair's own axis,
    and several pairs have no common axis to share one tessellation.
    """
    n = _check_collection(instances)
    if not isinstance(width, int) or width < 1:
        raise ArgumentOutOfRange(f"width must be a positive int, got {width!r}")
    if mode not in MODES:
        raise ArgumentOutOfRange(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "random-bias" and len(instances) > 1:
        raise ArgumentOutOfRange(
            f"random-bias mode takes one pair, got {len(instances)}: "
            "each pair's planes follow its own axis, so they share no tessellation"
        )
    k_draw = max(inst.bias_half_range for inst in instances)
    cores = _planar_core(instances)
    d = cores[0].dimension
    axes = [_axis_projections(inst) for inst in instances]

    def hits(rng: np.random.Generator, m: int) -> int:
        total = m * width
        weights = biases = None
        if mode != "random-bias":
            weights = _sphere_block(rng, total, d, n)
        if mode != "random-weight":
            biases = rng.uniform(-k_draw, k_draw, total)
        joint = np.ones(m, dtype=bool)
        for inst, core, (proj_a, proj_b) in zip(instances, cores, axes):
            if mode == "fully-random":
                per_plane = separates_batch(weights, biases, core)
            elif mode == "random-weight":
                per_plane = exists_separating_bias_batch(weights, core)
            else:
                per_plane = separates_offsets(proj_a - biases, proj_b - biases, inst)
            joint &= per_plane.reshape(m, width).any(axis=1)
        return int(joint.sum())

    return bernoulli_estimate(cfg, hits, block=max(1, _BLOCK // width))


def width_for_confidence(per_pair_p: float, target: float) -> int:
    """Smallest m with 1 - (1 - p)^m >= target.

    Comparisons run in log space, so the answer is exact wherever the
    logs are; a short walk around the closed-form guess absorbs any
    ceiling-edge rounding.
    """
    if not 0.0 < per_pair_p < 1.0:
        raise ArgumentOutOfRange(
            f"per-pair probability must lie strictly in (0, 1), got {per_pair_p!r}"
        )
    if not 0.0 < target < 1.0:
        raise ArgumentOutOfRange(f"target confidence must lie in (0, 1), got {target!r}")
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
