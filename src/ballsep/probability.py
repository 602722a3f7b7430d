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

`separation_report` and `lemma_bounds` evaluate one instance or angle on
floats.  `_report_columns` and `_lemma_columns` evaluate a batch as float64
columns, one per field of `_shape(n)`, `_gap(inst)` and `_angle(alpha)`,
with the same bits.  Each formula is written once, in a helper that takes
floats or columns (`_weight_and_full`, `_sandwich`, `_cell`), and only the
transcendental step differs: a `math` call on floats, and the same call
mapped over the elements on columns (`_exp_each`, `_kappa_columns`,
`_angle_columns`), because numpy's `exp`, `log`, `lgamma` and `**` differ
from `math`'s in the last bit for some arguments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentOutOfRange, InternalConsistencyError
from .geometry import SeparationInstance, _cone
from .specfun import (
    BetaArgs,
    _exp_each,
    _kappa_columns,
    _kappa_logs,
    _log_beta_sum,
    _mapped,
    _reg_inc_betas,
    log_beta,
    reg_inc_beta,
)

# probabilities assembled from independently rounded pieces may land a
# few ulp outside [0, 1] or break the pairwise ordering by float noise;
# anything beyond this slack is treated as a genuine implementation bug
_CONSISTENCY_SLACK = 1e-12
_SQRT_PI = math.sqrt(math.pi)


def _check_unit_interval(value: float, label: str) -> float:
    if value < 0.0:
        if value < -_CONSISTENCY_SLACK:
            raise InternalConsistencyError(f"{label} = {value!r} is negative")
        return 0.0
    if value > 1.0:
        if value > 1.0 + _CONSISTENCY_SLACK:
            raise InternalConsistencyError(f"{label} = {value!r} exceeds 1")
        return 1.0
    return value


def _check_column(values: np.ndarray, label: str) -> np.ndarray:
    """`_check_unit_interval` of each element of a column; the first past the slack raises."""
    outside = (values < -_CONSISTENCY_SLACK) | (values > 1.0 + _CONSISTENCY_SLACK)
    if outside.any():
        _check_unit_interval(float(values[outside.argmax()]), label)
    return np.where(values < 0.0, 0.0, np.where(values > 1.0, 1.0, values))


def p_random_bias(inst: SeparationInstance) -> float:
    """Probability that a uniform bias in [-k, k] separates along the axis.

    With the weight fixed to the unit axis direction the separating
    biases form an interval of length equal to the gap, entirely inside
    [-k, k], so the probability is gap / (2 k).
    """
    return _bias_probability(inst.gap, inst.bias_half_range)


def _bias_probability(gap, k, check=_check_unit_interval):
    # gap/(2k), correctly rounded even where 2k overflows: floats, or columns with `_check_column`
    return check((0.5 * gap) / k, "random-bias probability")


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
    angle = _angle(alpha)
    if n < 2:
        raise ArgumentOutOfRange(f"dimension must be >= 2, got {n}")
    a = 0.5 * (n - 1)
    args = BetaArgs(angle[0], a, 0.5)
    return _sandwich(reg_inc_beta(args), angle, (a, math.log(a), args._log_beta))


def _lemma_columns(angle, shape) -> tuple:
    """`lemma_bounds`' (lower, mid, upper) columns, with its bits, of the rows whose
    `_angle(alpha)` and `_shape(n)` fields are the columns of angle and shape."""
    kappa, ln_kappa, ln_comp, _, _ = angle
    a, _, ln_beta = shape
    upper = _reg_inc_betas(kappa, ln_kappa, ln_comp, a, 0.5, ln_beta)
    return _sandwich(upper, angle, shape, exp=_exp_each)


def _angle(alpha: float) -> tuple:
    """(kappa, log kappa, log(1 - kappa), log cos, sin) of alpha in (0, pi/2), kappa = cos^2."""
    if not 0.0 < alpha < 0.5 * math.pi:
        raise ArgumentOutOfRange(f"alpha must lie strictly in (0, pi/2), got {alpha!r}")
    return *_kappa_logs(math.cos(alpha) ** 2), math.log(math.cos(alpha)), math.sin(alpha)


def _angle_columns(sin_phi: np.ndarray) -> tuple:
    """The `_angle(math.asin(s))` columns, with its bits, of each s of a column in (0, 1),
    whose arcsine lies in the range `_angle` checks."""
    alpha = _mapped(math.asin, sin_phi)
    cos = _mapped(math.cos, alpha)
    squares = _mapped(functools.partial(pow, exp=2), cos)  # libm's, as `** 2`, not c * c
    return *_kappa_columns(squares), _mapped(math.log, cos), _mapped(math.sin, alpha)


def _sandwich(upper, angle, shape, exp=math.exp) -> tuple:
    """lemma_bounds from its upper bound, `_angle(alpha)` and `_shape(n)`: floats, or
    columns with exp `_exp_each`."""
    (*_, ln_cos, sin_alpha), (a, ln_a, ln_beta) = angle, shape
    mid = exp(2.0 * a * ln_cos - ln_a - ln_beta)  # 2 a = n - 1 exactly
    return upper * sin_alpha, mid, upper


def _shape(n: int) -> tuple:
    """(a, log a, log B(a, 1/2)), a = (n - 1)/2: what the closed forms read of n >= 2."""
    if n < 2:
        raise ArgumentOutOfRange(f"dimension must be >= 2, got {n}")
    a = 0.5 * (n - 1)
    return a, math.log(a), log_beta(a, 0.5)


def asymptotic_envelope(n: int) -> float:
    """Gamma(n/2) / (Gamma((n+1)/2) sqrt(pi)), the large-n decay envelope.

    Equals 1 / (a B(a, 1/2)) with a = (n - 1)/2 and shrinks like
    sqrt(2 / (pi n)); the fully random probability for a fixed geometry
    is O of this envelope as the dimension grows.
    """
    if n < 2:
        raise ArgumentOutOfRange(f"dimension must be >= 2, got {n}")
    return _envelope(math.lgamma(0.5 * n), math.lgamma(0.5 * (n + 1)))


def _envelope(lgamma_half: float, lgamma_next: float) -> float:
    # asymptotic_envelope(n) from log Gamma(n/2) and log Gamma((n+1)/2)
    return math.exp(lgamma_half - lgamma_next) / _SQRT_PI


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


def _check_ordering(p_bias: float, p_weight: float, p_full: float) -> None:
    if p_full > p_weight + _CONSISTENCY_SLACK:
        raise InternalConsistencyError("fully random probability exceeds random-weight probability")
    if p_full > p_bias + _CONSISTENCY_SLACK:
        raise InternalConsistencyError("fully random probability exceeds random-bias probability")


def separation_report(inst: SeparationInstance) -> SeparationReport:
    """All three closed forms for one validated instance, with one incomplete beta."""
    n, q, k = inst.dimension, inst.q_value, inst.bias_half_range
    p_bias = _bias_probability(inst.gap, k)
    args = BetaArgs(q, 0.5 * (n - 1), 0.5)
    beta = reg_inc_beta(args)
    shape = (args.y, math.log(args.y), args._log_beta)
    scale = 0.5 * inst.center_distance / k
    p_weight, p_full = _weight_and_full(beta, args._ln_kappa, shape, inst.sin_phi, scale)
    return SeparationReport(p_bias, p_weight, p_full)


def _gap(inst: SeparationInstance) -> tuple:
    """(q, log q, log(1 - q), sin phi, |c - x| / (2 k), p_bias): what the closed
    forms read of an instance besides its dimension."""
    return _cell(inst.center_distance, inst.ball_a.radius, inst.ball_b.radius, inst.bias_half_range)


def _cell(dist, r, p, k, logs=_kappa_logs, check=_check_unit_interval) -> tuple:
    """`_gap` of a checked instance whose balls have radii r and p, centers dist apart:
    floats, or columns with logs `_kappa_columns` and check `_check_column`."""
    gap, sin_phi, q = _cone(dist, r, p)
    return *logs(q), sin_phi, 0.5 * dist / k, _bias_probability(gap, k, check)


def _grid_columns(dims: list, gaps: list) -> tuple:
    """The `_report_columns` of every (n, gap) with n >= 2 in dims and gap a `_gap(inst)` in
    gaps, n-major, and the `asymptotic_envelope` list of dims.  Each distinct lgamma argument
    is taken once, so contiguous dimensions share their Gamma(j/2)."""
    # the lgamma arguments of `_shape(n)` and `asymptotic_envelope(n)`, as they form them
    a, halves, nexts = ([0.5 * (n + j) for n in dims] for j in (-1, 0, 1))
    shifted = [y + 0.5 for y in a]
    lgamma = {x: math.lgamma(x) for x in {0.5, *a, *shifted, *halves, *nexts}}
    lgamma_a, lgamma_shifted = (np.array([lgamma[x] for x in xs]) for xs in (a, shifted))
    a = np.array(a)
    shape = a, _mapped(math.log, a), _log_beta_sum(lgamma_a, lgamma[0.5], lgamma_shifted)
    envelopes = [_envelope(lgamma[x], lgamma[y]) for x, y in zip(halves, nexts)]
    repeated = [np.repeat(column, len(gaps)) for column in shape]
    tiled = [np.tile(column, len(dims)) for column in np.array(gaps).reshape(-1, 6).T]
    return _report_columns(repeated, tiled), envelopes


def _report_columns(shape, gap) -> tuple:
    """`separation_report`'s (p_bias, p_weight, p_full) columns, with its bits, of the rows
    whose `_shape(n)` and `_gap(inst)` fields are the columns of shape and gap.  A row that
    fails a check raises `separation_report`'s error for it: the first row past p_weight's
    range, else p_full's, else the first out of order."""
    a, _, ln_beta = shape
    q, ln_q, ln_comp, sin_phi, scale, p_bias = gap
    beta = _reg_inc_betas(q, ln_q, ln_comp, a, 0.5, ln_beta)
    p_weight, p_full = _weight_and_full(beta, ln_q, shape, sin_phi, scale, _exp_each, _check_column)
    broken = (p_full > p_weight + _CONSISTENCY_SLACK) | (p_full > p_bias + _CONSISTENCY_SLACK)
    if broken.any():
        i = broken.argmax()
        _check_ordering(float(p_bias[i]), float(p_weight[i]), float(p_full[i]))
    return p_bias, p_weight, p_full


def _weight_and_full(
    beta, ln_q, shape: tuple, sin_phi, scale, exp=math.exp, check=_check_unit_interval
) -> tuple:
    """Range-checked p_weight and p_full from beta = I(q; a, 1/2), log q,
    shape = (a, log a, log B(a, 1/2)) and scale = |c - x| / (2 k): floats, or
    columns with exp `_exp_each` and check `_check_column`."""
    a, ln_a, ln_beta = shape
    p_weight = check(beta, "random-weight probability")
    bracket = exp(a * ln_q - ln_a - ln_beta) - sin_phi * p_weight  # q^a / (a B) - s I
    p_full = check(scale * bracket, "fully random probability")
    return p_weight, p_full
