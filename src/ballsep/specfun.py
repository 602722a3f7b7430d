"""Log-beta and the regularized incomplete beta function.

The incomplete beta evaluator follows the classic continued-fraction
scheme with modified Lentz iteration.  When kappa lies past the
symmetry point (y+1)/(y+z+2) the complementary identity
I(kappa; y, z) = 1 - I(1-kappa; z, y) is used so the fraction always
converges quickly.  All prefactors are assembled in log space so large
shape parameters (y of order 1e4) do not overflow or underflow the
intermediate products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ArgumentOutOfRange, NoConvergence, NonPositiveArgument

_MAX_ITER = 500
_CF_EPS = 1e-15
_CF_TINY = 1e-300
_KAPPA_SLACK = 1e-14


def log_beta(y: float, z: float) -> float:
    """log B(y, z) = log Gamma(y) + log Gamma(z) - log Gamma(y+z) for y, z > 0."""
    if not (y > 0.0 and z > 0.0):
        raise NonPositiveArgument(f"log_beta requires y, z > 0, got y={y!r}, z={z!r}")
    return math.lgamma(y) + math.lgamma(z) - math.lgamma(y + z)


@dataclass(frozen=True)
class BetaArgs:
    """Arguments of the regularized incomplete beta function.

    kappa must lie in [0, 1]; values within 1e-14 outside that interval
    (from upstream float arithmetic) are clamped to the nearest endpoint,
    anything further is rejected.  The shape parameters y and z must be
    positive.
    """

    kappa: float
    y: float
    z: float

    def __post_init__(self):
        kappa = float(self.kappa)
        y = float(self.y)
        z = float(self.z)
        if -_KAPPA_SLACK <= kappa < 0.0:
            kappa = 0.0
        elif 1.0 < kappa <= 1.0 + _KAPPA_SLACK:
            kappa = 1.0
        if not 0.0 <= kappa <= 1.0:
            raise ArgumentOutOfRange(f"kappa must lie in [0, 1], got {self.kappa!r}")
        if not (y > 0.0 and z > 0.0):
            raise ArgumentOutOfRange(f"shape parameters must be positive, got y={y!r}, z={z!r}")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)


def reg_inc_beta(args: BetaArgs) -> float:
    """Regularized incomplete beta I(kappa; y, z).

    Endpoints are exact: I(0) = 0 and I(1) = 1 with no floating error.
    """
    kappa, y, z = args.kappa, args.y, args.z
    if kappa == 0.0:
        return 0.0
    if kappa == 1.0:
        return 1.0
    ln_front = y * math.log(kappa) + z * math.log1p(-kappa) - log_beta(y, z)
    if kappa < (y + 1.0) / (y + z + 2.0):
        return math.exp(ln_front) * _lentz_fraction(y, z, kappa) / y
    return 1.0 - math.exp(ln_front) * _lentz_fraction(z, y, 1.0 - kappa) / z


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
    raise NoConvergence(
        f"incomplete beta continued fraction did not converge in {_MAX_ITER} "
        f"iterations (x={x!r}, a={a!r}, b={b!r})"
    )
