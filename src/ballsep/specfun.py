"""Log-beta and the regularized incomplete beta function.

The incomplete beta evaluator follows the classic continued-fraction
scheme with modified Lentz iteration.  When kappa lies past the
symmetry point (y+1)/(y+z+2) the complementary identity
I(kappa; y, z) = 1 - I(1-kappa; z, y) is used so the fraction always
converges quickly.  All prefactors are assembled in log space so large
shape parameters (y of order 1e4) do not overflow or underflow the
intermediate products.

The incomplete beta has one entry, `_reg_inc_betas`, and each step takes
Python floats or float64 columns, one row per cell, with the same bits on
both.  The branch choice, the log-space prefactor and the final division
are written once (`_fraction_setup`), because + - * /, abs and comparisons
round the same in numpy as in Python.  The input's type picks the two steps
that differ.  The Lentz iteration runs in the scalar kernel `_lentz_fraction`
on floats and in the array kernel `_lentz_fractions` on columns, which
repeats the scalar's operations per element in the same order; the scalar
kernel's step loop finishes the array kernel's last cells.  `lgamma`, `log`,
`log1p` and `exp` are always `math` calls, mapped over a column's elements
by `_each`, because numpy's differ from them in the last bit for some
arguments.
"""

from __future__ import annotations

import math

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


def _each(function, values):
    """function, a `math` one, of a float, or of each element of a float64 column."""
    if type(values) is np.ndarray:
        return np.fromiter(map(function, values.tolist()), float, len(values))
    return function(values)


def _clamp(slack, error, values, label):
    """values, a float or each element of a float64 column, clamped into [0, 1] from within
    slack of it.  The first value further out, or NaN, raises error(label, value)."""
    if type(values) is np.ndarray:
        outside = ~((-slack <= values) & (values <= 1.0 + slack))
        if outside.any():
            raise error(label, float(values[outside.argmax()]))
        return np.where(values < 0.0, 0.0, np.where(values > 1.0, 1.0, values))
    if 0.0 <= values <= 1.0:
        return values
    if -slack <= values <= 1.0 + slack:
        return 0.0 if values < 0.0 else 1.0
    raise error(label, values)


def _kappa_logs(values) -> tuple:
    """(kappa, log kappa, log(1 - kappa)), the head of a `_reg_inc_betas` row, of a float or
    of each element of a float64 column, with kappa clamped into [0, 1] from within 1e-14 of
    it; log 0 is -inf.  The first value further out raises."""
    kappa = _clamp(_KAPPA_SLACK, _kappa_error, values, "kappa")
    ln_kappa = _log_where(math.log, kappa, kappa > 0.0)
    return kappa, ln_kappa, _log_where(math.log1p, -kappa, kappa < 1.0)


def _kappa_error(label: str, value) -> ArgumentOutOfRange:
    return ArgumentOutOfRange(f"{label} must lie in [0, 1], got {value!r}")


def _log_where(function, values, inside):
    """function, `math.log` or `math.log1p`, of values where inside is true, and -inf (log 0)
    where it is false: a float and a bool, or a float64 column and a bool column."""
    if type(values) is not np.ndarray:
        return function(values) if inside else -math.inf
    logs = np.full(len(values), -math.inf)
    logs[inside] = _each(function, values[inside])
    return logs


def _reg_inc_betas(kappa, ln_kappa, ln_comp, y, z, ln_beta):
    """I(kappa; y, z) of floats, or of each row of float64 columns, with the same bits.

    The arguments are kappa, log kappa and log(1 - kappa) from `_kappa_logs`,
    which clamps or rejects kappa, shapes y, z > 0 and log B(y, z) from
    `log_beta`, which rejects the others; they are not checked here.  Endpoints
    are exact, I(0) = 0 and I(1) = 1, and the logs are not read there.  A column
    of kappa may come with floats that hold for every row.  Floats take the
    scalar kernel, columns the array kernel.
    """
    if type(kappa) is not np.ndarray:
        if not 0.0 < kappa < 1.0:
            return 1.0 if kappa == 1.0 else 0.0
        front, a, b, x, direct = _fraction_setup(kappa, ln_kappa, ln_comp, y, z, ln_beta)
        value = front * _lentz_fraction(a, b, x) / a
        return value if direct else 1.0 - value
    kappa, ln_kappa, ln_comp, y, z, ln_beta = np.broadcast_arrays(
        kappa, ln_kappa, ln_comp, y, z, ln_beta
    )
    values = np.where(kappa == 1.0, 1.0, 0.0)
    inside = np.flatnonzero((0.0 < kappa) & (kappa < 1.0))
    if inside.size:
        cells = (column[inside] for column in (kappa, ln_kappa, ln_comp, y, z, ln_beta))
        front, a, b, x, direct = _fraction_setup(*cells)
        value = front * _lentz_fractions(a, b, x) / a
        values[inside] = np.where(direct, value, 1.0 - value)
    return values


def _fraction_setup(kappa, ln_kappa, ln_comp, y, z, ln_beta) -> tuple:
    """(front, a, b, x, direct) of I(kappa; y, z) for 0 < kappa < 1, from its logs as above:
    floats, or columns.  I is front * F(a, b, x) / a where direct, and 1 minus that where
    not, with F the continued fraction."""
    front = _each(math.exp, y * ln_kappa + z * ln_comp - ln_beta)
    direct = kappa < (y + 1.0) / (y + z + 2.0)
    if direct is True:
        return front, y, z, kappa, True
    if direct is False:
        return front, z, y, 1.0 - kappa, False
    x = np.where(direct, kappa, 1.0 - kappa)
    return front, np.where(direct, y, z), np.where(direct, z, y), x, direct


def _lentz_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction core of I(x; a, b), modified Lentz iteration.

    Converges for x < (a+1)/(a+b+2); callers route the other half of the
    domain through the symmetry relation.
    """
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (_CF_TINY if -_CF_TINY < d < _CF_TINY else d)
    return _lentz_steps(a, b, x, 0.0, 1.0, d, d)


def _lentz_steps(a: float, b: float, x: float, m: float, c: float, d: float, h: float) -> float:
    """`_lentz_fraction`'s iteration resumed after step m from its state c, d and h.  m is a
    float, exact up to `_MAX_ITER`, so each sum and product rounds as with an int, and CPython
    runs float-float arithmetic faster.  -t < v < t is abs(v) < t for every double, NaN too."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    tiny = _CF_TINY
    eps = _CF_EPS
    last = _MAX_ITER
    while m < last:
        m += 1.0
        m2 = m + m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        c = 1.0 + aa / c
        c = tiny if -tiny < c < tiny else c
        d = 1.0 / (tiny if -tiny < d < tiny else d)
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        c = 1.0 + aa / c
        c = tiny if -tiny < c < tiny else c
        d = 1.0 / (tiny if -tiny < d < tiny else d)
        delta = d * c
        h *= delta
        if -eps < delta - 1.0 < eps:
            return h
    raise NoConvergence(
        f"incomplete beta continued fraction did not converge in {last} "
        f"iterations (x={x!r}, a={a!r}, b={b!r})"
    )


def _lentz_fractions(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`_lentz_fraction` of each element of the 1-D float64 arrays a, b and x.

    Each element goes through the scalar kernel's operations in the same order, so it gets
    the same bits.  A cell's h goes to out once, at the step it converges; the cell then
    iterates on, unread, and the arrays are compacted to the pending cells only once half
    of them have converged, which spares most gathers.  The scalar kernel finishes the last
    32 or fewer pending cells in index order from their own state, so the first unconverged
    after `_MAX_ITER` steps raises the scalar's error.
    """
    out = np.empty(a.shape)
    live, pending, left = np.arange(a.size), np.ones(a.shape, dtype=bool), a.size
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones(a.shape)
    d = 1.0 - qab * x / qap
    d[np.abs(d) < _CF_TINY] = _CF_TINY
    d = 1.0 / d
    h = d
    m = 0.0
    while left > 32 and m < _MAX_ITER:
        m += 1.0
        m2 = m + m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            d[np.abs(d) < _CF_TINY] = _CF_TINY
            c = 1.0 + aa / c
            c[np.abs(c) < _CF_TINY] = _CF_TINY
            d = 1.0 / d
            delta = d * c
            h = h * delta
        done = pending & (np.abs(delta - 1.0) < _CF_EPS)
        if done.any():
            out[live[done]] = h[done]
            pending ^= done
            left = np.count_nonzero(pending)
            if 2 * left <= live.size:
                live, a, b, x, qab, qap, qam, c, d, h, pending = (
                    v[pending] for v in (live, a, b, x, qab, qap, qam, c, d, h, pending)
                )
    for i, *cell in zip(*(v[pending].tolist() for v in (live, a, b, x, c, d, h))):
        out[i] = _lentz_steps(*cell[:3], m, *cell[3:])
    return out
