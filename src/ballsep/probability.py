"""Closed-form separation probabilities and the sandwich bounds.

Three sampling schemes over hyperplanes H[w; b]:

* random bias: w fixed to the axis direction, b uniform on [-k, k];
* random weight: w uniform on the unit sphere, b then chosen to pass
  through the tangent-cone vertex;
* fully random: w uniform on the sphere and b uniform on [-k, k],
  independently.

Each scheme admits an exact expression in terms of the instance gap,
the cone half angle phi, and the regularized incomplete beta function
at q = cos^2(phi).  The fully random probability is bounded above by
both partial ones, and the same beta-function sandwich that drives the
proofs is exposed directly as `lemma_bounds`.

Each closed form has one entry, which takes Python floats or float64
columns, one row per cell, with the same bits on both: `_report` of
`_shape(n)` and `_gap(inst)`, and `_lemma` of `_angle(alpha)` and
`_shape(n)`.  `separation_report` and `lemma_bounds` are those entries on
one instance or angle, and `_closed_forms` on a block of cells.  The
transcendental steps are `math` calls, mapped over a column's elements
(`specfun._each`), because numpy's `exp`, `log`, `lgamma` and `**` differ from
`math`'s in the last bit for some arguments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentOutOfRange, InternalConsistencyError
from .geometry import SeparationInstance, _cone
from .specfun import _clamp, _each, _kappa_logs, _log_beta_sum, _reg_inc_betas

# probabilities assembled from independently rounded pieces may land a
# few ulp outside [0, 1] or break the pairwise ordering by float noise;
# anything beyond this slack is treated as a genuine implementation bug
_CONSISTENCY_SLACK = 1e-12
_SQRT_PI = math.sqrt(math.pi)
_LGAMMA_HALF = math.lgamma(0.5)
# the largest dimension `lemma_bounds` and `asymptotic_envelope` take: rounding the lgamma
# values, about a log a, costs their results a few parts in a million here, and more past it
_MAX_DIMENSION = 2**30
_BLOCK = 8192  # cells per column call of sweep and validate; it bounds memory, not values


def _improbable(label: str, value: float) -> InternalConsistencyError:
    side = "is negative" if value < 0.0 else "exceeds 1" if value > 1.0 else "is not a number"
    return InternalConsistencyError(f"{label} = {value!r} {side}")


# _check_unit_interval(values, label): a probability, or each element of a float64 column
# of them, clamped into [0, 1] from within the slack; the first value further out is a bug
_check_unit_interval = functools.partial(_clamp, _CONSISTENCY_SLACK, _improbable)


def p_random_bias(inst: SeparationInstance) -> float:
    """Probability that a uniform bias in [-k, k] separates along the axis.

    With the weight fixed to the unit axis direction the separating
    biases form an interval of length equal to the gap, entirely inside
    [-k, k], so the probability is gap / (2 k).
    """
    return _bias_probability(inst.gap, inst.bias_half_range)


def _bias_probability(gap, k):
    # gap/(2k), correctly rounded even where 2k overflows: floats, or columns
    return _check_unit_interval((0.5 * gap) / k, "random-bias probability")


def p_random_weight(inst: SeparationInstance) -> float:
    """Probability that a uniform unit weight admits a separating bias.

    A direction w works iff its angle with the axis is within phi of a
    right angle's complement, i.e. the axis component exceeds sin(phi)
    in magnitude.  The spherical cap measure reduces to the regularized
    incomplete beta function I(q; (n-1)/2, 1/2) with q = cos^2(phi).
    """
    return separation_report(inst).p_random_weight


def p_fully_random(inst: SeparationInstance) -> float:
    """Probability that an independent uniform (weight, bias) pair separates.

    Averaging the per-direction bias interval length over the sphere
    gives

        (|c - x| / (2 k)) * (q^a / (a B(a, 1/2)) - sin(phi) I(q; a, 1/2))

    with a = (n - 1)/2 and q = cos^2(phi).
    """
    return separation_report(inst).p_fully_random


def lemma_bounds(alpha: float, n: int) -> tuple[float, float, float]:
    """Sandwich around cos^(n-1)(alpha) / (a B(a, 1/2)), a = (n - 1)/2.

    Returns (lower, mid, upper) where

        upper = I(cos^2 alpha; a, 1/2)
        mid   = cos^(n-1)(alpha) / (a B(a, 1/2))
        lower = upper * sin(alpha)

    and lower <= mid <= upper holds for every alpha in (0, pi/2), n >= 2.
    """
    if not 0.0 < alpha < 0.5 * math.pi:
        raise ArgumentOutOfRange(f"alpha must lie strictly in (0, pi/2), got {alpha!r}")
    return _lemma(_angle(alpha), _shape(_dimension(n)))


def _lemma(angle, shape) -> tuple:
    """`lemma_bounds`' (lower, mid, upper) of `_angle(alpha)` and `_shape(n)`: floats, or
    float64 columns, one row per cell."""
    (kappa, ln_kappa, ln_comp, ln_cos, sin_alpha), (a, ln_a, ln_beta) = angle, shape
    upper = _reg_inc_betas(kappa, ln_kappa, ln_comp, a, 0.5, ln_beta)
    mid = _each(math.exp, 2.0 * a * ln_cos - ln_a - ln_beta)  # 2 a = n - 1 exactly
    return upper * sin_alpha, mid, upper


def _angle(alpha) -> tuple:
    """(kappa, log kappa, log(1 - kappa), log cos, sin), kappa = cos^2, of alpha in (0, pi/2):
    a float, or each element of a float64 column."""
    cos = _each(math.cos, alpha)
    squares = _each(functools.partial(pow, exp=2), cos)  # libm's pow, as `** 2` is, not c * c
    return *_kappa_logs(squares), _each(math.log, cos), _each(math.sin, alpha)


def _shape(n: int) -> tuple:
    """(a, log a, log B(a, 1/2)), a = (n - 1)/2, of a checked dimension n >= 2."""
    a = 0.5 * float(n - 1)
    return a, math.log(a), _log_beta_sum(math.lgamma(a), _LGAMMA_HALF, math.lgamma(a + 0.5))


def _dimension(n) -> int:
    """n as an int if it is an int or numpy integer (not bool) from 2 to `_MAX_DIMENSION`."""
    if isinstance(n, (int, np.integer)) and not isinstance(n, bool) and 2 <= n <= _MAX_DIMENSION:
        return int(n)
    raise ArgumentOutOfRange(f"dimension must be an integer from 2 to 2**30, got {n!r}")


def asymptotic_envelope(n: int) -> float:
    """Gamma(n/2) / (Gamma((n+1)/2) sqrt(pi)), the large-n decay envelope.

    Equals 1 / (a B(a, 1/2)) with a = (n - 1)/2 and shrinks like
    sqrt(2 / (pi n)); the fully random probability for a fixed geometry
    is O of this envelope as the dimension grows.
    """
    n = _dimension(n)
    return _envelope(math.lgamma(0.5 * n), math.lgamma(0.5 * (n + 1)))


def _envelope(lgamma_half, lgamma_next):
    # asymptotic_envelope(n) from log Gamma(n/2) and log Gamma((n+1)/2): floats or columns
    return _each(math.exp, lgamma_half - lgamma_next) / _SQRT_PI


@dataclass(frozen=True)
class SeparationReport:
    """All three exact probabilities for one instance.

    `separation_report` range-checks each probability as it computes it;
    construction checks that the fully random one is no larger than
    either partial one (up to float slack).
    """

    p_random_bias: float
    p_random_weight: float
    p_fully_random: float

    def __post_init__(self):
        _check_ordering(self.p_random_bias, self.p_random_weight, self.p_fully_random)


def _check_ordering(p_bias, p_weight, p_full) -> None:
    """Raise if p_full exceeds p_weight or p_bias past the slack: floats, or float64 columns,
    where the first row out of order raises."""
    over_weight = p_full > p_weight + _CONSISTENCY_SLACK
    over_bias = p_full > p_bias + _CONSISTENCY_SLACK
    if type(over_weight) is np.ndarray:  # the first row out of order, if any
        first = np.flatnonzero(over_weight | over_bias)[:1]
        over_weight, over_bias = over_weight[first].any(), over_bias[first].any()
    if over_weight:
        raise InternalConsistencyError("fully random probability exceeds random-weight probability")
    if over_bias:
        raise InternalConsistencyError("fully random probability exceeds random-bias probability")


def separation_report(inst: SeparationInstance) -> SeparationReport:
    """All three closed forms for one validated instance, with one incomplete beta."""
    return SeparationReport(*_report(_shape(inst.dimension), _gap(inst)))


def _gap(inst: SeparationInstance) -> tuple:
    """(q, log q, log(1 - q), sin phi, |c - x| / (2 k), p_bias): what the closed
    forms read of an instance besides its dimension."""
    return _cell(inst.center_distance, inst.ball_a.radius, inst.ball_b.radius, inst.bias_half_range)


def _cell(dist, r, p, k) -> tuple:
    """`_gap` of a checked instance whose balls have radii r and p, centers dist apart:
    floats, or float64 columns."""
    gap, sin_phi, q = _cone(dist, r, p)
    return *_kappa_logs(q), sin_phi, 0.5 * dist / k, _bias_probability(gap, k)


def _closed_forms(dims, gap) -> tuple:
    """(`_shape(n)`, `_report`, `asymptotic_envelope(n)`) of cells with the int column dims and
    the six float64 `_gap` columns gap, as columns with the bits of float calls; the report's
    ordering is left to the caller.  Each distinct lgamma argument is taken once."""
    ns, at = np.unique(dims, return_inverse=True)
    a = 0.5 * (ns - 1)
    # the lgamma arguments of `_shape(n)` and `asymptotic_envelope(n)`, as they form them
    args, where = np.unique(np.concatenate([a, a + 0.5, a + 1.0]), return_inverse=True)
    lgamma_a, lgamma_half, lgamma_next = _each(math.lgamma, args)[where].reshape(3, -1)
    shape = a, _each(math.log, a), _log_beta_sum(lgamma_a, _LGAMMA_HALF, lgamma_half)
    shape = tuple(column[at] for column in shape)
    return shape, _report(shape, gap), _envelope(lgamma_half, lgamma_next)[at]


def _report(shape, gap) -> tuple:
    """(p_bias, p_weight, p_full) of `_shape(n)` and `_gap(inst)`: floats, or float64 columns,
    one row per cell.  Each is range-checked as it is computed: the first cell past
    p_weight's range raises, else the first past p_full's.  Their ordering is left to the
    caller's `_check_ordering`, which `SeparationReport` runs for one instance."""
    a, ln_a, ln_beta = shape
    q, ln_q, ln_comp, sin_phi, scale, p_bias = gap
    beta = _reg_inc_betas(q, ln_q, ln_comp, a, 0.5, ln_beta)
    p_weight = _check_unit_interval(beta, "random-weight probability")
    bracket = _each(math.exp, a * ln_q - ln_a - ln_beta) - sin_phi * p_weight  # q^a / (a B) - s I
    p_full = _check_unit_interval(scale * bracket, "fully random probability")
    return p_bias, p_weight, p_full
