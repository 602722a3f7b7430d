"""Euclidean balls, ball pairs, and the strict separation predicate.

A hyperplane H[w; b] is the zero locus of u -> (w|u) - b with unit
normal (the "weight" w) and scalar offset (the "bias" b); H[w; b] and
H[-w; -b] are the same point set.  The predicates take planes as the
rows of a weight array and a bias vector.  An open ball pair with a
positive gap between the spheres admits a unique double cone tangent to
both balls; its half angle and the derived quantity q = 1 - sin^2(phi)
are what the closed-form separation probabilities consume, so they are
computed once per validated instance.

All types are immutable after construction and all operations are pure,
so everything here is safe to share across threads or processes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ArgumentOutOfRange,
    BallsOverlapOrTouch,
    DimensionMismatch,
    DimensionTooSmall,
    KInsufficient,
)


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ArgumentOutOfRange(f"{name} must be a one-dimensional real vector")
    if not np.all(np.isfinite(arr)):
        raise ArgumentOutOfRange(f"{name} must contain only finite values")
    arr.flags.writeable = False
    return arr


def _norm(v: np.ndarray) -> float:
    """|v|: sqrt(v.v) as np.linalg.norm computes it, or max|v_i| |v / max|v_i||
    where v.v is not a finite normal double."""
    sq = float(v.dot(v))
    if sys.float_info.min <= sq < math.inf:
        return math.sqrt(sq)
    top = float(np.abs(v).max())  # 0 and inf are their own norm
    return top * math.sqrt(float(np.dot(v / top, v / top))) if 0.0 < top < math.inf else top


def _radius(value) -> float:
    radius = float(value)
    if not 0.0 < radius < math.inf:
        raise ArgumentOutOfRange(f"ball radius must be positive and finite, got {value!r}")
    return radius


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Ball:
    """Open Euclidean ball {u : |center - u| < radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = _as_vector(self.center, "ball center")
        if center.size < 2:
            raise DimensionTooSmall(f"balls need dimension >= 2, got {center.size}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", _radius(self.radius))

    @property
    def dimension(self) -> int:
        return self.center.size


@dataclass(frozen=True, eq=False)
class SeparationInstance:
    """Validated pair of strictly disjoint balls plus the bias half range.

    Construction enforces |c - x| = r + p + gap with gap > 0 and a finite
    bias_half_range >= max(|c|, |x|) > 0.  Derived geometry (center
    distance, gap, axis direction, sine of the tangent-cone half angle,
    q value) is exposed as read-only attributes.  The axis direction is
    oriented from the first ball's center toward the second's.
    """

    ball_a: Ball
    ball_b: Ball
    bias_half_range: float
    # |c - x| = r + p + gap, the norm validation computes
    center_distance: float = field(init=False)

    def __post_init__(self):
        a, b = self.ball_a, self.ball_b
        if not isinstance(a, Ball) or not isinstance(b, Ball):
            raise ArgumentOutOfRange("ball_a and ball_b must be Ball instances")
        if a.dimension != b.dimension:
            raise DimensionMismatch(
                f"balls have different dimensions {a.dimension} and {b.dimension}"
            )
        with np.errstate(over="ignore"):
            dist, k = _pair_checks(a.center, a.radius, b.center, b.radius, self.bias_half_range)
        object.__setattr__(self, "bias_half_range", k)
        object.__setattr__(self, "center_distance", dist)

    @property
    def dimension(self) -> int:
        return self.ball_a.dimension

    @cached_property
    def gap(self) -> float:
        """Distance between the two spheres along the axis (delta > 0)."""
        return _cone(self.center_distance, self.ball_a.radius, self.ball_b.radius)[0]

    @cached_property
    def axis_dir(self) -> np.ndarray:
        """Unit vector from ball_a's center toward ball_b's center."""
        diff = self.ball_b.center - self.ball_a.center
        return _frozen(diff / self.center_distance)

    @cached_property
    def sin_phi(self) -> float:
        """sin of the cone half angle: (p + r) / (p + r + gap), in (0, 1)."""
        return _cone(self.center_distance, self.ball_a.radius, self.ball_b.radius)[1]

    @cached_property
    def q_value(self) -> float:
        """q = 1 - sin^2(phi) = cos^2(phi), in (0, 1)."""
        return _cone(self.center_distance, self.ball_a.radius, self.ball_b.radius)[2]


def _pair_checks(c: np.ndarray, r: float, x: np.ndarray, p: float, k):
    """(|c - x|, float(k)) of balls B(c, r), B(x, p) and bias half range k, or the error
    `SeparationInstance` raises for them; a center that is not finite fails here too.  Call
    it with numpy's overflow warnings off where a coordinate can be large enough to overflow."""
    norms = [_norm(v) for v in (c - x, c, x)]
    for label, norm in zip(("|c - x|", "|c|", "|x|"), norms):
        if norm == math.inf:
            raise ArgumentOutOfRange(f"{label} overflows double precision")
        if norm != norm:
            raise ArgumentOutOfRange(f"{label} is not a number")
    dist, norm_c, norm_x = norms
    if dist <= r + p:
        raise BallsOverlapOrTouch("balls overlap or touch (delta <= 0)")
    k = float(k)
    if not math.isfinite(k):
        raise ArgumentOutOfRange(f"bias half range must be finite, got {k!r}")
    k_min = max(norm_c, norm_x)
    if not k >= k_min:
        raise KInsufficient(f"bias half range {k!r} is below max(|c|, |x|) = {k_min!r}")
    return dist, k


def _cone(dist: float, r: float, p: float) -> tuple[float, float, float]:
    """(gap, sin phi, q = 1 - sin^2 phi) of balls of radii r, p with centers dist apart."""
    sin_phi = (r + p) / dist
    return dist - r - p, sin_phi, 1.0 - sin_phi * sin_phi


def projected_instance(inst: SeparationInstance, center_a, center_b) -> SeparationInstance:
    """`inst` with its centers given in the coordinates of a subspace.

    The new centers are the coordinates of the old ones in an orthonormal
    basis of a subspace that holds both, so every distance and norm the
    predicates see is kept and the radii and bias half range carry over.
    Neither the result nor its balls are validated again: rounding can
    move a norm an ulp past k or close a gap of a few ulps, and that must
    not reject an instance that was already accepted; and the subspace
    may be a line, where a `Ball` needs two coordinates.
    """
    ball_a, ball_b = (
        _unchecked(Ball, center=_frozen(np.array(center, dtype=float)), radius=ball.radius)
        for center, ball in ((center_a, inst.ball_a), (center_b, inst.ball_b))
    )
    kept = {"bias_half_range": inst.bias_half_range, "center_distance": inst.center_distance}
    return _unchecked(SeparationInstance, ball_a=ball_a, ball_b=ball_b, **kept)


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass `cls` holding `fields`, skipping its checks."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def make_instance(ball_a: Ball, ball_b: Ball, k: float) -> SeparationInstance:
    """Validate a ball pair and bias half range; return the instance.

    Raises DimensionMismatch for unequal dimensions, BallsOverlapOrTouch
    when the closed balls intersect, and KInsufficient when k is below
    max(|c|, |x|).
    """
    return SeparationInstance(ball_a, ball_b, k)


def symmetric_instance(
    dim: int,
    sin_phi: float,
    r: float = 1.0,
    p: float = 1.0,
    k_factor: float = 1.0,
) -> SeparationInstance:
    """Instance with balls at -h*e1 and +h*e1 realizing a given sin(phi).

    The centers sit at distance (r + p)/sin_phi apart, so the gap is
    (r + p)(1 - sin_phi)/sin_phi, and the bias half range is k_factor
    times max(|c|, |x|).  Requires 0 < sin_phi < 1 and k_factor >= 1.
    """
    if not 0.0 < sin_phi < 1.0:
        raise ArgumentOutOfRange(f"sin_phi must lie strictly in (0, 1), got {sin_phi!r}")
    if not k_factor >= 1.0:
        raise ArgumentOutOfRange(f"k_factor must be >= 1, got {k_factor!r}")
    if dim < 2:
        raise DimensionTooSmall(f"dimension must be >= 2, got {dim}")
    half = 0.5 * (_radius(r) + _radius(p)) / sin_phi
    if half == math.inf:  # named before the centers are built from it
        raise ArgumentOutOfRange("|c - x| overflows double precision")
    if k_factor * half == math.inf:  # named here, not as the bias half range it makes
        raise ArgumentOutOfRange(f"k_factor {k_factor!r} overflows k = k_factor * max(|c|, |x|)")
    try:
        c, x = np.zeros((2, dim))
    except (ValueError, MemoryError) as exc:  # how numpy refuses a size it cannot allocate
        raise ArgumentOutOfRange(f"dimension {dim} is too large to allocate") from exc
    c[0], x[0] = -half, half
    return make_instance(Ball(c, r), Ball(x, p), k_factor * half)


def separates_batch(
    weights: np.ndarray, biases: np.ndarray, inst: SeparationInstance, *, out=None
) -> np.ndarray:
    """True for each plane H[w; b] that puts the open balls strictly on
    opposite sides.

    weights: array of shape (m, n) whose rows are unit weights, or their
    coordinates in a subspace holding both centers (see
    `projected_instance`); biases: shape (m,).  Returns a boolean array of
    shape (m,).  A tangent plane does not separate; the tie has
    probability zero under every sampling scheme used here.

    `out`, if given, is a pair (offsets, masks) of a float array of shape
    (2, >= m) and a bool array of shape (3, >= m).  The offsets and the
    comparisons are then written into their leading m columns instead of
    new arrays, and the result is a view of `masks`.
    """
    weights = np.asarray(weights, dtype=float)
    biases = np.asarray(biases, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != inst.dimension:
        raise DimensionMismatch(
            f"weights shape {weights.shape} does not match instance dimension {inst.dimension}"
        )
    if biases.shape != (weights.shape[0],):
        raise DimensionMismatch(
            f"biases shape {biases.shape} does not match {weights.shape[0]} weights"
        )
    offsets, masks = _scratch(out, weights.shape[0])
    off_a, off_b = offsets
    _project(weights, inst.ball_a.center, off_a)
    off_a -= biases
    _project(weights, inst.ball_b.center, off_b)
    off_b -= biases
    return separates_offsets(off_a, off_b, inst, masks)


def _scratch(out, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The leading m columns of a predicate's `out` pair, or a new such pair."""
    if out is None:
        return np.empty((2, m)), np.empty((3, m), dtype=bool)
    offsets, masks = out
    return offsets[:, :m], masks[:, :m]


def _project(weights: np.ndarray, vector: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(w|vector) for every row w, written into `out`.

    One coordinate is a column multiply: an (m, 1) @ (1,) matmul gives the
    same bits an order of magnitude slower.
    """
    if weights.shape[1] == 1:
        return np.multiply(weights[:, 0], vector[0], out=out)
    return np.matmul(weights, vector, out=out)


def separates_offsets(off_a, off_b, inst: SeparationInstance, out: np.ndarray) -> np.ndarray:
    """The separation predicate on the offsets (w|c) - b and (w|x) - b.

    `out` is a bool array of shape (3, >= m) whose leading m columns take
    the comparisons; the result is a view of it.
    """
    hit, low, high = out[:, : len(off_a)]
    a, b = inst.ball_a, inst.ball_b
    # ((off_a > r) & (off_b < -p)) | ((off_a < -r) & (off_b > p))
    np.greater(off_a, a.radius, out=hit)
    hit &= np.less(off_b, -b.radius, out=low)
    np.less(off_a, -a.radius, out=low)
    low &= np.greater(off_b, b.radius, out=high)
    hit |= low
    return hit


def exists_separating_bias_batch(
    weights: np.ndarray, inst: SeparationInstance, *, out=None
) -> np.ndarray:
    """True for each weight row that some bias makes separating.

    That holds iff the balls' projections onto span(w) are disjoint:
    |(w | c - x)| > r + p.  The bias (w | v) through the cone vertex then
    works and lies within [-k, k].  As in `separates_batch`, rows of the
    (m, n) array may be unit weights or their coordinates in a subspace
    holding both centers, and `out` is the same (offsets, masks) pair.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != inst.dimension:
        raise DimensionMismatch(
            f"weights shape {weights.shape} does not match instance dimension {inst.dimension}"
        )
    offsets, masks = _scratch(out, weights.shape[0])
    span = _project(weights, inst.ball_a.center - inst.ball_b.center, offsets[0])
    np.abs(span, out=span)
    return np.greater(span, inst.ball_a.radius + inst.ball_b.radius, out=masks[0])
