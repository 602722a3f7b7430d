"""Euclidean balls, ball pairs, and the two strict separation predicates.

A hyperplane H[w; b] is the zero locus of u -> (w|u) - b with unit
normal (the "weight" w) and scalar offset (the "bias" b); H[w; b] and
H[-w; -b] are the same point set.  `separates_batch` asks whether each
plane splits two balls, `exists_separating_bias_batch` whether each
weight admits a bias that does.  Both take planes as the rows of a
weight array and two balls of one dimension: a `Ball` may have any
n >= 1 coordinates, as in the Monte Carlo cores; an instance needs
n >= 2.  An open ball pair with a positive gap between the spheres
admits a unique double cone tangent to both balls; its half angle and
the derived quantity q = 1 - sin^2(phi) are what the closed-form
separation probabilities consume, so they are computed once per
validated instance.

All types are immutable after construction and all operations are pure,
so everything here is safe to share across threads or processes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

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


@dataclass(frozen=True, eq=False)
class Ball:
    """Open Euclidean ball {u : |center - u| < radius} in R^n, n >= 1."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_vector(self.center, "ball center"))
        object.__setattr__(self, "radius", _radius(self.radius))

    @property
    def dimension(self) -> int:
        return self.center.size


@dataclass(frozen=True, eq=False)
class SeparationInstance:
    """Validated pair of strictly disjoint balls plus the bias half range.

    Construction enforces balls of one dimension n >= 2, |c - x| = r + p +
    gap with gap > 0 and a finite bias_half_range >= max(|c|, |x|) > 0.
    The derived geometry is computed once, there, into read-only fields.
    """

    ball_a: Ball
    ball_b: Ball
    bias_half_range: float
    center_distance: float = field(init=False)  # |c - x|, the norm validation computes
    gap: float = field(init=False)  # between the two spheres along the axis, > 0
    sin_phi: float = field(init=False)  # sine of the cone half angle, (r + p) / |c - x|, in (0, 1)
    q_value: float = field(init=False)  # 1 - sin^2(phi) = cos^2(phi), in (0, 1)

    def __post_init__(self):
        a, b = self.ball_a, self.ball_b
        if not isinstance(a, Ball) or not isinstance(b, Ball):
            raise ArgumentOutOfRange("ball_a and ball_b must be Ball instances")
        low = min(a.dimension, b.dimension)
        if low < 2:
            raise DimensionTooSmall(f"balls need dimension >= 2, got {low}")
        _common_dimension(a, b)
        with np.errstate(over="ignore"):
            dist, k = _pair_checks(a.center, a.radius, b.center, b.radius, self.bias_half_range)
        derived = {"bias_half_range": k, "center_distance": dist}
        derived.update(zip(("gap", "sin_phi", "q_value"), _cone(dist, a.radius, b.radius)))
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def dimension(self) -> int:
        return self.ball_a.dimension


def _common_dimension(a: Ball, b: Ball) -> int:
    """The dimension of balls a and b, or the DimensionMismatch of balls in different ones."""
    if a.dimension != b.dimension:
        raise DimensionMismatch(f"balls have different dimensions {a.dimension} and {b.dimension}")
    return a.dimension


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
    weights: np.ndarray, biases: np.ndarray, ball_a: Ball, ball_b: Ball, *, out=None
) -> np.ndarray:
    """True for each plane H[w; b] that puts the open balls strictly on
    opposite sides.

    weights: array of shape (m, n) whose rows are unit weights in the
    balls' R^n; biases: shape (m,).  Returns a boolean array of shape
    (m,).  A tangent plane does not separate; the tie has probability
    zero under every sampling scheme used here.

    `out`, if given, is a pair (offsets, masks) of a float array of shape
    (2, >= m) and a bool array of shape (3, >= m).  The offsets and the
    comparisons are then written into their leading m columns instead of
    new arrays, and the result is a view of `masks`.
    """
    weights = _weights(weights, ball_a, ball_b)
    biases = np.asarray(biases, dtype=float)
    if biases.shape != (weights.shape[0],):
        raise DimensionMismatch(
            f"biases shape {biases.shape} does not match {weights.shape[0]} weights"
        )
    offsets, masks = _scratch(out, weights.shape[0])
    off_a, off_b = offsets
    _project(weights, ball_a.center, off_a)
    off_a -= biases
    _project(weights, ball_b.center, off_b)
    off_b -= biases
    hit, low, high = masks
    # with r, p the radii: ((off_a > r) & (off_b < -p)) | ((off_a < -r) & (off_b > p))
    np.greater(off_a, ball_a.radius, out=hit)
    hit &= np.less(off_b, -ball_b.radius, out=low)
    np.less(off_a, -ball_a.radius, out=low)
    low &= np.greater(off_b, ball_b.radius, out=high)
    hit |= low
    return hit


def _weights(weights, ball_a: Ball, ball_b: Ball) -> np.ndarray:
    """weights as a float array of shape (m, n) for balls in R^n, or a DimensionMismatch."""
    n = _common_dimension(ball_a, ball_b)
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != n:
        raise DimensionMismatch(f"weights shape {weights.shape} does not match ball dimension {n}")
    return weights


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


def exists_separating_bias_batch(
    weights: np.ndarray, ball_a: Ball, ball_b: Ball, *, out=None
) -> np.ndarray:
    """True for each weight row that some bias makes separating.

    That holds iff the balls' projections onto span(w) are disjoint:
    |(w | c - x)| > r + p.  For an instance's balls the bias (w | v)
    through the cone vertex then works and lies within [-k, k].  The
    (m, n) weights and `out` are as in `separates_batch`.
    """
    weights = _weights(weights, ball_a, ball_b)
    offsets, masks = _scratch(out, weights.shape[0])
    span = _project(weights, ball_a.center - ball_b.center, offsets[0])
    np.abs(span, out=span)
    return np.greater(span, ball_a.radius + ball_b.radius, out=masks[0])
