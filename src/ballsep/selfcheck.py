"""Cross-checks between the closed forms and their internal structure.

Four independent consistency batteries, each returning a CheckResult:

* the sandwich bounds hold on a dense (alpha, n) grid;
* the chain p_full <= bracket <= leading term <= p_weight, alongside
  p_full <= p_bias, holds on a fixed grid plus random instances;
* the incomplete beta satisfies its reflection identity;
* low-dimension closed forms reduce to arcsin / square-root formulas
  and reproduce two hand-computable reference instances.

Every comparison here pits two different computational routes against
each other, so a sign or factor slip in any one route fails loudly.  The
first three run their closed forms as float64 columns, _CHUNK cells at a
time, with the scalar path's bits; the analytic reductions stay
on the scalar `separation_report` and `reg_inc_beta`, which they test.  The
chain draws its random instances as arrays in their two-dimensional core and
checks them as `SeparationInstance` would, with no instance objects.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import probability
from .geometry import Ball, SeparationInstance, _pair_checks, make_instance, symmetric_instance
from .errors import ArgumentOutOfRange, BallsepError, InternalConsistencyError
from .montecarlo import DEFAULT_SEED, _check_seed
from .specfun import _kappa_logs, _reg_inc_betas, log_beta

GRID_DIMENSIONS = (2, 3, 5, 10, 50)
GRID_SIN_PHI = (0.3, 0.5, 0.8)
GRID_K_FACTORS = (1.0, 2.0)

# cells per array continued fraction; it bounds a battery's memory, not its values
_CHUNK = 1024
_DRAW = 1024  # random chain instances per draw; it bounds memory, and the values follow it


@dataclass
class CheckResult:
    """Outcome of one battery: cell count, failures, worst violation."""

    name: str
    cells: int
    tolerance: float
    worst: float
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        state = "ok" if self.passed else f"FAIL ({len(self.failures)} cells)"
        return (
            f"{self.name}: {state}, {self.cells} cells, "
            f"worst violation {self.worst:.3e} vs tolerance {self.tolerance:.1e}"
        )


def _measure(result: CheckResult, cells, violations, label) -> CheckResult:
    """Record in result the violation of each of the iterable cells, which violations(chunk)
    gives for a list of up to _CHUNK of them; label(cell) names a failing cell."""
    cells = iter(cells)
    while chunk := list(itertools.islice(cells, _CHUNK)):
        for cell, violation in zip(chunk, violations(chunk)):
            result.worst = max(result.worst, violation)
            if violation > result.tolerance:
                result.failures.append(f"{label(cell)}: violation {violation:.6e}")
    return result


def check_lemma_sandwich(alpha_points: int = 100, n_max: int = 200, tol: float = 1e-12) -> CheckResult:
    """lower <= mid <= upper across a dense angle-by-dimension grid."""
    alphas = np.linspace(0.01, 0.5 * math.pi - 0.01, alpha_points).tolist()
    angles = [(alpha, probability._angle(alpha)) for alpha in alphas]
    result = CheckResult("sandwich bounds", alpha_points * (n_max - 1), tol, -math.inf)
    shapes = ((n, probability._shape(n)) for n in range(2, n_max + 1))

    def violations(chunk):
        rows = probability._lemma_rows([(angle, shape) for _, _, angle, shape in chunk])
        return [max(lower - mid, mid - upper) for lower, mid, upper in rows]

    cells = ((n, alpha, angle, shape) for n, shape in shapes for alpha, angle in angles)
    return _measure(result, cells, violations, lambda cell: f"alpha={cell[1]:.6f} n={cell[0]}")


def grid_instances() -> list:
    """Fixed symmetric instances covering the standard test grid."""
    return [
        symmetric_instance(n, s, k_factor=f)
        for n in GRID_DIMENSIONS
        for s in GRID_SIN_PHI
        for f in GRID_K_FACTORS
    ]


def random_instance(rng: np.random.Generator) -> SeparationInstance:
    """Well-posed instance with random dimension, radii, gap, and pose: the one
    instance of `_draw(rng, 1)`, in R^n with zeros past its second coordinate."""
    return _embedded(_draw(rng, 1), 0)


def _embedded(draw: tuple, i: int) -> SeparationInstance:
    """The instance of row i of a `_draw`, in R^n with zeros past its second coordinate."""
    n, r, p, c, x, k, _, _ = draw
    pad = (0, int(n[i]) - 2)
    return make_instance(Ball(np.pad(c[:, i], pad), r[i]), Ball(np.pad(x[:, i], pad), p[i]), k[i])


def _draw(rng: np.random.Generator, m: int) -> tuple:
    """(n, r, p, c, x, k, c.c, x.x) of m random instances, unchecked: n uniform on 2..200,
    radii r, p in [0.1, 5), a gap in [1e-3, 10), centers c = s g and x = c + (r + p + gap) e1
    for g standard normal in R^n and s in [0.1, 3), and k in [1, 3) times max(|c|, |x|).  c, x
    are (2, m) arrays of coordinates along e1 and across it; g's are a normal and a chi(n - 1)."""
    lows = np.array([0.1, 0.1, 1e-3, 0.1, 1.0])[:, None]
    spans = np.array([5.0, 5.0, 10.0, 3.0, 3.0])[:, None] - lows
    n = rng.integers(2, 201, size=m)
    r, p, delta = lows[:3] + spans[:3] * rng.random((3, m))
    g = np.array([rng.standard_normal(m), np.sqrt(2.0 * rng.standard_gamma((n - 1) / 2.0))])
    scale, k_factor = lows[3:] + spans[3:] * rng.random((2, m))
    c = scale * g
    x = np.array([c[0] + (r + p + delta), c[1]])
    cc, xx = np.square(c).sum(axis=0), np.square(x).sum(axis=0)
    return n, r, p, c, x, np.sqrt(np.maximum(cc, xx)) * k_factor, cc, xx


def _random_cells(rng: np.random.Generator, samples: int):
    """(i, n, k, `probability._gap`) of `samples` random instances, _DRAW at a time from rng,
    with every check of `SeparationInstance` but no instance; a draw that fails one is a bug."""
    for start in range(0, samples, _DRAW):
        n, r, p, c, x, k, cc, xx = _draw(rng, min(_DRAW, samples - start))
        squares = np.array([np.square(c - x).sum(axis=0), cc, xx])
        dist, norm_c, norm_x = np.sqrt(squares)
        # np.sqrt is `_pair_checks`'s norm where each square is a finite normal double
        fine = np.all((np.finfo(float).tiny <= squares) & (squares < math.inf), axis=0)
        fine &= (dist > r + p) & np.isfinite(k) & (k >= np.maximum(norm_c, norm_x))
        for i in np.flatnonzero(~fine).tolist():
            try:
                dist[i], k[i] = _pair_checks(c[:, i], r[i], x[:, i], p[i], k[i], cc[i], xx[i])
            except BallsepError as exc:
                raise InternalConsistencyError(f"random[{start + i}] n={n[i]}: {exc}") from exc
        rows = zip(n.tolist(), dist.tolist(), r.tolist(), p.tolist(), k.tolist())
        for i, (dim, dist_i, r_i, p_i, k_i) in enumerate(rows, start):
            yield i, dim, k_i, probability._cell(dist_i, r_i, p_i, k_i)


def _chain_violation(bounds: tuple, report: tuple) -> float:
    (lower, mid, _), (p_bias, p_weight, p_full) = bounds, report
    bracket = mid - lower
    gaps = (p_full - bracket, bracket - mid, mid - p_weight, p_full - p_weight, p_full - p_bias)
    return max(-p_full, *gaps)


def _chain_label(cell) -> str:
    i, n, k, gap = cell
    if i is None:
        return f"grid n={n} sin_phi={gap[3]:.3f} k={k:.4g}"
    return f"random[{i}] n={n} sin_phi={gap[3]:.4f}"


def check_ordering_chain(samples: int = 10000, seed: int = DEFAULT_SEED, tol: float = 1e-12) -> CheckResult:
    """p_full <= bracket <= leading term <= p_weight and p_full <= p_bias.

    Runs the fixed grid first (there the bias-range prefactor can be
    exactly 1, which pins down sign and factor errors deterministically)
    and then `samples` random instances, drawn from `seed`, each kept only
    as the scalars its lemma bounds and report read.
    """
    if type(samples) is not int or samples < 0:
        raise ArgumentOutOfRange(f"samples must be a non-negative int, got {samples!r}")
    _check_seed(seed)
    fixed = grid_instances()
    result = CheckResult("ordering chain", len(fixed) + samples, tol, -math.inf)
    # every probability is pulled through the module attribute so a
    # deliberately broken implementation is observed, not a stale alias
    shape = functools.cache(probability._shape)
    grid = ((None, x.dimension, x.bias_half_range, probability._gap(x)) for x in fixed)
    cells = itertools.chain(grid, _random_cells(np.random.default_rng(seed), samples))

    def violations(chunk):
        rows = [(shape(n), gap) for _, n, _, gap in chunk]
        bounds = probability._lemma_rows([(probability._angle(math.asin(gap[3])), s) for s, gap in rows])
        return list(map(_chain_violation, bounds, probability._report_rows(rows)))

    return _measure(result, cells, violations, _chain_label)


def check_beta_symmetry(tol: float = 1e-11) -> CheckResult:
    """I(kappa; y, z) + I(1 - kappa; z, y) = 1 on a parameter grid."""
    kappas = np.linspace(0.01, 0.99, 99).tolist()
    shapes = (0.5, 1.0, 2.5, 10.0, 50.0)
    result = CheckResult("beta reflection", len(kappas) * len(shapes) ** 2, tol, -math.inf)
    # B(y, z) and B(z, y) are the same sum of lgammas, bit for bit
    pairs = [(y, z, log_beta(y, z)) for y in shapes for z in shapes]

    def violations(chunk):
        kernel = []
        for kappa, y, z, ln_b in chunk:
            kernel += (*_kappa_logs(kappa), y, z, ln_b), (*_kappa_logs(1.0 - kappa), z, y, ln_b)
        values = _reg_inc_betas(*np.array(kernel).T).tolist()
        return [abs(total + mirror - 1.0) for total, mirror in zip(values[::2], values[1::2])]

    cells = ((kappa, y, z, ln_beta) for y, z, ln_beta in pairs for kappa in kappas)
    return _measure(result, cells, violations, lambda c: f"kappa={c[0]:.2f} y={c[1]} z={c[2]}")


def check_analytic_reductions() -> CheckResult:
    """Planar and spatial closed forms against their elementary shapes.

    In dimension 2 the random-weight probability is 1 - 2 phi / pi; in
    dimension 3 it is 1 - sin(phi) and the fully random one collapses
    to |c - x| (1 - sin(phi))^2 / (4 k).  Two concrete instances with
    hand-checkable values are verified as well.
    """
    result = CheckResult(
        name="analytic reductions",
        cells=0,
        tolerance=0.0,
        worst=-math.inf,
    )

    def case(label: str, got: float, want: float, tol: float):
        result.cells += 1
        gap = abs(got - want) - tol
        result.worst = max(result.worst, gap)
        if gap > 0.0:
            result.failures.append(
                f"{label}: got {got!r}, want {want!r}, off by {abs(got - want):.3e}"
            )

    for s in (0.1, 0.3, 0.5, 0.7, 0.9):
        phi = math.asin(s)
        flat = symmetric_instance(2, s)
        case(
            f"dim2 arcsin s={s}",
            probability.p_random_weight(flat),
            1.0 - 2.0 * phi / math.pi,
            1e-10,
        )
        solid = symmetric_instance(3, s)
        case(
            f"dim3 weight s={s}",
            probability.p_random_weight(solid),
            1.0 - s,
            1e-12,
        )
        case(
            f"dim3 full s={s}",
            probability.p_fully_random(solid),
            solid.center_distance * (1.0 - s) ** 2 / (4.0 * solid.bias_half_range),
            1e-12,
        )

    flat_ref = make_instance(Ball([-2.0, 0.0], 1.0), Ball([2.0, 0.0], 1.0), 2.0)
    case("reference dim2 bias", probability.p_random_bias(flat_ref), 0.5, 0.0)
    case("reference dim2 weight", probability.p_random_weight(flat_ref), 2.0 / 3.0, 1e-12)
    case(
        "reference dim2 full",
        probability.p_fully_random(flat_ref),
        math.sqrt(3.0) / math.pi - 1.0 / 3.0,
        1e-12,
    )
    solid_ref = make_instance(
        Ball([0.0, 0.0, 0.0], 1.0), Ball([4.0, 0.0, 0.0], 1.0), 4.0
    )
    case("reference dim3 full", probability.p_fully_random(solid_ref), 0.0625, 1e-14)
    return result


def run_all(ordering_samples: int = 10000, seed: int = DEFAULT_SEED) -> list:
    """Every battery at its standard grid sizes, in a fixed order."""
    return [
        check_lemma_sandwich(),
        check_ordering_chain(samples=ordering_samples, seed=seed),
        check_beta_symmetry(),
        check_analytic_reductions(),
    ]
