"""Log-beta and the regularized incomplete beta function.

The incomplete beta evaluator follows the classic continued-fraction
scheme with modified Lentz iteration.  When kappa lies past the
symmetry point (y+1)/(y+z+2) the complementary identity
I(kappa; y, z) = 1 - I(1-kappa; z, y) is used so the fraction always
converges quickly.  All prefactors are assembled in log space so large
shape parameters (y of order 1e4) do not overflow or underflow the
intermediate products.

`reg_inc_beta` evaluates one cell on floats; `_reg_inc_betas` evaluates a
float64 column per argument, one row per cell, with the same bits.  The
branch choice, the log-space prefactor and the final division are written
once (`_fraction_setup`, `_assemble`) and take floats or columns, because
+ - * /, abs and comparisons round the same in numpy as in Python.  The
Lentz iteration has a scalar kernel, `_lentz_fraction`, and an array
kernel, `_lentz_fractions`, which repeats the scalar's operations per
element in the same order.  Only the transcendental step differs between
the paths: `lgamma`, `log`, `log1p` and `exp` are always `math` calls, on
a column mapped over its elements (`_mapped`, `_exp_each`, and
`_kappa_columns` for `_kappa_logs`), because numpy's differ from them in
the last bit for some arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentOutOfRange, NoConvergence

_MAX_ITER = 500
_CF_EPS = 1e-15
_CF_TINY = 1e-300
_KAPPA_SLACK = 1e-14


def log_beta(y: float, z: float) -> float:
    """log B(y, z) = log Gamma(y) + log Gamma(z) - log Gamma(y+z) for y, z > 0."""
    if not (y > 0.0 and z > 0.0):
        raise ArgumentOutOfRange(f"log_beta requires y, z > 0, got y={y!r}, z={z!r}")
    return _log_beta_sum(math.lgamma(y), math.lgamma(z), math.lgamma(y + z))


def _log_beta_sum(lgamma_y, lgamma_z, lgamma_yz):
    """log B(y, z) from log Gamma of y, z and y + z: floats or columns."""
    return lgamma_y + lgamma_z - lgamma_yz


def _mapped(function, column) -> np.ndarray:
    """The float64 column of function (a `math` one) at each element of column."""
    return np.fromiter(map(function, column.tolist()), float, len(column))


def _exp_each(column) -> np.ndarray:
    """`math.exp` of each element of a float64 column: the column form of a helper's `exp`."""
    return _mapped(math.exp, column)


@dataclass(frozen=True)
class BetaArgs:
    """Arguments of the regularized incomplete beta function.

    kappa must lie in [0, 1]; values within 1e-14 outside that interval
    (from upstream float arithmetic) are clamped to the nearest endpoint,
    anything further is rejected.  The shape parameters y and z must be
    positive.  Construction also takes the logs `reg_inc_beta` reads: those
    of `_kappa_logs` and log B(y, z), as `_log_beta`, for callers whose other
    terms need it too.
    """

    kappa: float
    y: float
    z: float

    def __post_init__(self):
        kappa, ln_kappa, ln_comp = _kappa_logs(self.kappa)
        y = float(self.y)
        z = float(self.z)
        if not (y > 0.0 and z > 0.0):
            raise ArgumentOutOfRange(f"shape parameters must be positive, got y={y!r}, z={z!r}")
        # frozen, so the normalized fields are stored past __setattr__
        stored = self.__dict__
        stored["kappa"], stored["y"], stored["z"] = kappa, y, z
        stored["_ln_kappa"], stored["_ln_comp"] = ln_kappa, ln_comp
        stored["_log_beta"] = log_beta(y, z)


def _kappa_logs(value) -> tuple:
    """(kappa, log kappa, log(1 - kappa)), the head of a `_reg_inc_betas` row, with
    kappa clamped into [0, 1] from within 1e-14 of it; log 0 is -inf."""
    kappa = float(value)
    if -_KAPPA_SLACK <= kappa < 0.0:
        kappa = 0.0
    elif 1.0 < kappa <= 1.0 + _KAPPA_SLACK:
        kappa = 1.0
    if not 0.0 <= kappa <= 1.0:
        raise ArgumentOutOfRange(f"kappa must lie in [0, 1], got {value!r}")
    ln_kappa = math.log(kappa) if kappa > 0.0 else -math.inf
    return kappa, ln_kappa, math.log1p(-kappa) if kappa < 1.0 else -math.inf


def _kappa_columns(values: np.ndarray) -> tuple:
    """`_kappa_logs` of each element of a float64 column, as three columns with its bits;
    the first element it rejects raises its error."""
    rejected = ~((-_KAPPA_SLACK <= values) & (values <= 1.0 + _KAPPA_SLACK))
    if rejected.any():
        _kappa_logs(float(values[rejected.argmax()]))
    kappa = np.where(values < 0.0, 0.0, np.where(values > 1.0, 1.0, values))
    ln_kappa, ln_comp = np.full((2, len(kappa)), -math.inf)  # log 0
    ln_kappa[kappa > 0.0] = _mapped(math.log, kappa[kappa > 0.0])
    ln_comp[kappa < 1.0] = _mapped(math.log1p, -kappa[kappa < 1.0])
    return kappa, ln_kappa, ln_comp


def reg_inc_beta(args: BetaArgs) -> float:
    """Regularized incomplete beta I(kappa; y, z).

    Endpoints are exact: I(0) = 0 and I(1) = 1 with no floating error.
    """
    kappa = args.kappa
    if not 0.0 < kappa < 1.0:
        return 1.0 if kappa == 1.0 else 0.0
    front, a, b, x, reflected = _fraction_setup(
        kappa, args._ln_kappa, args._ln_comp, args.y, args.z, args._log_beta
    )
    return _assemble(front, _lentz_fraction(a, b, x), a, reflected)


def _reg_inc_betas(kappa, ln_kappa, ln_comp, y, z, ln_beta) -> np.ndarray:
    """`reg_inc_beta` of each row, with the same bits, as a float64 column.

    The arguments are float64 columns of one length, or floats that hold for
    every row: kappa, log kappa and log(1 - kappa) from `_kappa_logs`, valid
    `BetaArgs` shapes y and z, and log B(y, z).  They are not checked here,
    and the logs are not read where kappa is 0 or 1.  All continued fractions
    run as one array iteration, in row order.
    """
    kappa, ln_kappa, ln_comp, y, z, ln_beta = np.broadcast_arrays(
        kappa, ln_kappa, ln_comp, y, z, ln_beta
    )
    values = np.where(kappa == 1.0, 1.0, 0.0)  # exact endpoints, as in `reg_inc_beta`
    inside = np.flatnonzero((0.0 < kappa) & (kappa < 1.0))
    if inside.size:
        cells = (column[inside] for column in (kappa, ln_kappa, ln_comp, y, z, ln_beta))
        front, a, b, x, reflected = _fraction_setup(*cells, exp=_exp_each)
        values[inside] = _assemble(front, _lentz_fractions(a, b, x), a, reflected)
    return values


def _fraction_setup(kappa, ln_kappa, ln_comp, y, z, ln_beta, exp=math.exp) -> tuple:
    """(front, a, b, x, reflected) of I(kappa; y, z) for 0 < kappa < 1.

    The logs are log kappa, log(1 - kappa) and log B(y, z).  I(kappa; y, z)
    is front * F(a, b, x) / a, where F is the continued fraction, or 1 minus
    that when reflected.  The arguments are floats, or columns with exp
    `_exp_each`, and then the results are columns too.
    """
    front = exp(y * ln_kappa + z * ln_comp - ln_beta)
    direct = kappa < (y + 1.0) / (y + z + 2.0)
    if direct is True:
        return front, y, z, kappa, False
    if direct is False:
        return front, z, y, 1.0 - kappa, True
    x = np.where(direct, kappa, 1.0 - kappa)
    return front, np.where(direct, y, z), np.where(direct, z, y), x, ~direct


def _assemble(front, fraction, a, reflected):
    """I(kappa; y, z) from `_fraction_setup`'s front, a and reflected and the fraction F:
    floats, or columns."""
    value = front * fraction / a
    if reflected is False:
        return value
    if reflected is True:
        return 1.0 - value
    return np.where(reflected, 1.0 - value, value)


def _lentz_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction core of I(x; a, b), modified Lentz iteration.

    Converges for x < (a+1)/(a+b+2); callers route the other half of the
    domain through the symmetry relation.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise _not_converged(a, b, x)


def _not_converged(a: float, b: float, x: float) -> NoConvergence:
    return NoConvergence(
        f"incomplete beta continued fraction did not converge in {_MAX_ITER} "
        f"iterations (x={x!r}, a={a!r}, b={b!r})"
    )


def _lentz_fractions(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`_lentz_fraction` of each element of the 1-D float64 arrays a, b and x.

    Each element goes through the scalar kernel's operations in the same
    order, so it gets the same bits, and stops updating once it has
    converged.  If any element is unconverged after `_MAX_ITER` steps,
    the scalar's NoConvergence is raised for the first such element.
    """
    out = np.empty(a.shape)
    live = np.arange(a.size)
    given = (a, b, x)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones(a.shape)
    d = 1.0 - qab * x / qap
    d[np.abs(d) < _CF_TINY] = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        if not live.size:
            return out
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d[np.abs(d) < _CF_TINY] = _CF_TINY
        c = 1.0 + aa / c
        c[np.abs(c) < _CF_TINY] = _CF_TINY
        d = 1.0 / d
        h = h * (d * c)
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d[np.abs(d) < _CF_TINY] = _CF_TINY
        c = 1.0 + aa / c
        c[np.abs(c) < _CF_TINY] = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < _CF_EPS
        if done.any():
            out[live[done]] = h[done]
            left = ~done
            live, a, b, x, qab, qap, qam, c, d, h = (
                v[left] for v in (live, a, b, x, qab, qap, qam, c, d, h)
            )
    if not live.size:
        return out
    first = int(live[0])
    raise _not_converged(*(float(v[first]) for v in given))
