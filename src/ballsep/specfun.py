"""Log-beta and the regularized incomplete beta function.

The incomplete beta evaluator follows the classic continued-fraction
scheme with modified Lentz iteration.  When kappa lies past the
symmetry point (y+1)/(y+z+2) the complementary identity
I(kappa; y, z) = 1 - I(1-kappa; z, y) is used so the fraction always
converges quickly.  All prefactors are assembled in log space so large
shape parameters (y of order 1e4) do not overflow or underflow the
intermediate products.

The endpoints, the branch choice, the log-space prefactor and the final
division are written once (`_endpoint`, `_fraction_setup`, `_assemble`);
the Lentz iteration has a scalar kernel, `_lentz_fraction`, for single
calls, and an array kernel, `_lentz_fractions`, for `_reg_inc_betas`.  The
array kernel's values equal the scalar's with `==`: it repeats the
scalar's + - * /, abs and comparisons per element in the same order, and
these are correctly rounded in numpy as in Python.  `lgamma`, `log`,
`log1p` and `exp` stay `math` calls on both paths, because numpy's differ
from them in the last bit for some arguments; a grid takes the logs once
per kappa and per shape, and only the `exp` per cell.
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
    return math.lgamma(y) + math.lgamma(z) - math.lgamma(y + z)


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
    """(kappa, log kappa, log(1 - kappa)), the head of a `_reg_inc_betas` cell, with
    kappa clamped into [0, 1] from within 1e-14 of it; a log is None where it is -inf."""
    kappa = float(value)
    if -_KAPPA_SLACK <= kappa < 0.0:
        kappa = 0.0
    elif 1.0 < kappa <= 1.0 + _KAPPA_SLACK:
        kappa = 1.0
    if not 0.0 <= kappa <= 1.0:
        raise ArgumentOutOfRange(f"kappa must lie in [0, 1], got {value!r}")
    ln_kappa = math.log(kappa) if kappa > 0.0 else None
    return kappa, ln_kappa, math.log1p(-kappa) if kappa < 1.0 else None


def reg_inc_beta(args: BetaArgs) -> float:
    """Regularized incomplete beta I(kappa; y, z).

    Endpoints are exact: I(0) = 0 and I(1) = 1 with no floating error.
    """
    kappa = args.kappa
    exact = _endpoint(kappa)
    if exact is not None:
        return exact
    front, a, b, x, reflected = _fraction_setup(
        kappa, args._ln_kappa, args._ln_comp, args.y, args.z, args._log_beta
    )
    return _assemble(front, _lentz_fraction(a, b, x), a, reflected)


def _reg_inc_betas(cells: list) -> list:
    """`reg_inc_beta` of each cell in cells, with the same bits.

    A cell is (kappa, log kappa, log(1 - kappa), y, z, log B(y, z)): the
    first three from `_kappa_logs`, and y and z valid `BetaArgs` fields.  It
    is not checked here.  All continued fractions run as one array
    iteration, in order.
    """
    values = [_endpoint(cell[0]) for cell in cells]
    inside = [i for i, value in enumerate(values) if value is None]
    if inside:
        setups = [_fraction_setup(*cells[i]) for i in inside]
        _, a, b, x, _ = (np.array(column) for column in zip(*setups))
        fractions = _lentz_fractions(a, b, x).tolist()
        for i, (front, shape, _, _, reflected), fraction in zip(inside, setups, fractions):
            values[i] = _assemble(front, fraction, shape, reflected)
    return values


def _endpoint(kappa: float):
    """I(kappa; y, z) when kappa is 0 or 1, for every y and z; None between."""
    if kappa == 0.0:
        return 0.0
    if kappa == 1.0:
        return 1.0
    return None


def _fraction_setup(
    kappa: float, ln_kappa: float, ln_comp: float, y: float, z: float, ln_beta: float
) -> tuple:
    """(front, a, b, x, reflected) of I(kappa; y, z) for 0 < kappa < 1.

    The logs are log kappa, log(1 - kappa) and log B(y, z).  I(kappa; y, z)
    is front * F(a, b, x) / a, where F is the continued fraction, or 1 minus
    that when reflected.
    """
    ln_front = y * ln_kappa + z * ln_comp - ln_beta
    if kappa < (y + 1.0) / (y + z + 2.0):
        return math.exp(ln_front), y, z, kappa, False
    return math.exp(ln_front), z, y, 1.0 - kappa, True


def _assemble(front: float, fraction: float, a: float, reflected: bool) -> float:
    value = front * fraction / a
    return 1.0 - value if reflected else value


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
