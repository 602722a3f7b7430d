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
first three form their cells as float64 columns, with no per-cell objects
or tuples, and pass them to the closed forms' own entries, which give a
column the bits of one call per row; one reducer, `_record`, takes the
violations of `probability._BLOCK` cells at a time.  The chain draws its random
instances in their two-dimensional core, checks them as `SeparationInstance`
would and evaluates them a block at a time, as `sweep` does.  The analytic
reductions call the public functions on single instances.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import probability
from .geometry import Ball, _pair_checks, make_instance, symmetric_instance
from .errors import ArgumentOutOfRange, BallsepError, InternalConsistencyError
from .montecarlo import DEFAULT_SEED, _check_seed
from .specfun import _each, _kappa_logs, _reg_inc_betas, log_beta

GRID_DIMENSIONS = (2, 3, 5, 10, 50)
GRID_SIN_PHI = (0.3, 0.5, 0.8)
GRID_K_FACTORS = (1.0, 2.0)

# chain instances per generator call; it fixes the random stream, not memory, and
# `probability._BLOCK`, the cells per sandwich, chain or reflection column, is a multiple of it
_DRAW = 1024


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


def _record(result: CheckResult, violations: np.ndarray, label: str, *columns) -> None:
    """Record in result a chunk's column of violations, one per cell; a failing cell i is
    named by label formatted with element i of each of columns."""
    result.worst = max(result.worst, float(violations.max()))
    for i in np.flatnonzero(violations > result.tolerance).tolist():
        name = label.format(*(column[i] for column in columns))
        result.failures.append(f"{name}: violation {violations[i]:.6e}")


def check_lemma_sandwich(alpha_points: int = 100, n_max: int = 200, tol: float = 1e-12) -> CheckResult:
    """lower <= mid <= upper across a dense angle-by-dimension grid."""
    alphas = np.linspace(0.01, 0.5 * math.pi - 0.01, alpha_points)
    angles = np.array(probability._angle(alphas))
    shapes = np.array([probability._shape(n) for n in range(2, n_max + 1)]).T
    result = CheckResult("sandwich bounds", alpha_points * (n_max - 1), tol, -math.inf)
    # cell j is (n, alpha) = (2 + j // alpha_points, alphas[j % alpha_points]), n-major
    for start in range(0, result.cells, probability._BLOCK):
        cells = np.arange(start, min(start + probability._BLOCK, result.cells))
        n_at, alpha_at = np.divmod(cells, alpha_points)
        lower, mid, upper = probability._lemma(angles[:, alpha_at], shapes[:, n_at])
        violations = np.maximum(lower - mid, mid - upper)
        _record(result, violations, "alpha={:.6f} n={}", alphas[alpha_at], n_at + 2)
    return result


def grid_instances() -> list:
    """Fixed symmetric instances covering the standard test grid."""
    return [
        symmetric_instance(n, s, k_factor=f)
        for n in GRID_DIMENSIONS
        for s in GRID_SIN_PHI
        for f in GRID_K_FACTORS
    ]


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


def _checked_draw(rng: np.random.Generator, start: int, m: int) -> tuple:
    """(n, |c - x|, r, p, k) of a `_draw` of m instances from rng, the first random[start], with
    every check of `SeparationInstance` but no instance; a draw that fails one is a bug."""
    n, r, p, c, x, k, cc, xx = _draw(rng, m)
    squares = np.array([np.square(c - x).sum(axis=0), cc, xx])
    dist, norm_c, norm_x = np.sqrt(squares)
    # np.sqrt is `_pair_checks`'s norm where each square is a finite normal double
    fine = np.all((np.finfo(float).tiny <= squares) & (squares < math.inf), axis=0)
    fine &= (dist > r + p) & np.isfinite(k) & (k >= np.maximum(norm_c, norm_x))
    for i in np.flatnonzero(~fine).tolist():
        try:
            dist[i], k[i] = _pair_checks(c[:, i], r[i], x[:, i], p[i], k[i])
        except BallsepError as exc:
            raise InternalConsistencyError(f"random[{start + i}] n={n[i]}: {exc}") from exc
    return n, dist, r, p, k


def _random_block(rng: np.random.Generator, start: int, samples: int) -> tuple:
    """(n, |c - x|, r, p, k) of the random instances from random[start], drawn next from rng,
    to the end of its block of `probability._BLOCK` or of `samples`, checked _DRAW at a time."""
    starts = range(start, min(start + probability._BLOCK, samples), _DRAW)
    draws = (_checked_draw(rng, i, min(_DRAW, samples - i)) for i in starts)
    return tuple(map(np.concatenate, zip(*draws)))


def check_ordering_chain(samples: int = 10000, seed: int = DEFAULT_SEED, tol: float = 1e-12) -> CheckResult:
    """p_full <= bracket <= leading term <= p_weight and p_full <= p_bias.

    Runs the fixed grid first (there the bias-range prefactor can be
    exactly 1, which pins down sign and factor errors deterministically)
    and then `samples` random instances, drawn from `seed`, each kept only
    as the columns its lemma bounds and report read.
    """
    if type(samples) is not int or samples < 0:
        raise ArgumentOutOfRange(f"samples must be a non-negative int, got {samples!r}")
    _check_seed(seed)
    fixed = grid_instances()
    result = CheckResult("ordering chain", len(fixed) + samples, tol, -math.inf)
    fields = np.array(
        [(x.center_distance, x.ball_a.radius, x.ball_b.radius, x.bias_half_range) for x in fixed]
    )
    _check_block(result, None, np.array([x.dimension for x in fixed]), *fields.T)
    rng = np.random.default_rng(seed)
    for start in range(0, samples, probability._BLOCK):
        _check_block(result, start, *_random_block(rng, start, samples))
    return result


def _check_block(result: CheckResult, start, n, dist, r, p, k) -> None:
    """Record in result the chain's violations on cells of dimension n, radii r and p, centers
    dist apart and bias half range k: the grid if start is None, else random[start] on."""
    # every probability is pulled through the module attribute so a
    # deliberately broken implementation is observed, not a stale alias
    gap = probability._cell(dist, r, p, k)
    shape, (p_bias, p_weight, p_full), _ = probability._closed_forms(n, gap)
    angles = probability._angle(_each(math.asin, gap[3]))
    lower, mid, _ = probability._lemma(angles, shape)
    bracket = mid - lower
    gaps = (p_full - bracket, bracket - mid, mid - p_weight, p_full - p_weight, p_full - p_bias)
    violations = functools.reduce(np.maximum, gaps, -p_full)
    # a grid cell is named by its k, a random one by its index
    label, first = "grid n={1} sin_phi={2:.3f} k={0:.4g}", k
    if start is not None:
        label, first = "random[{0}] n={1} sin_phi={2:.4f}", np.arange(start, start + len(n))
    _record(result, violations, label, first, n, gap[3])


def check_beta_symmetry(tol: float = 1e-11) -> CheckResult:
    """I(kappa; y, z) + I(1 - kappa; z, y) = 1 on a parameter grid."""
    kappas = np.linspace(0.01, 0.99, 99)
    shapes = (0.5, 1.0, 2.5, 10.0, 50.0)
    result = CheckResult("beta reflection", len(kappas) * len(shapes) ** 2, tol, -math.inf)
    # logs[j] holds the `_kappa_logs` of kappas[j] and of 1 - kappas[j]
    logs = np.array([_kappa_logs(kappas), _kappa_logs(1.0 - kappas)]).transpose(2, 0, 1)
    # B(y, z) and B(z, y) are the same sum of lgammas, bit for bit
    pairs = [(y, z, log_beta(y, z)) for y in shapes for z in shapes]
    params = np.array([((y, z, ln_b), (z, y, ln_b)) for y, z, ln_b in pairs])
    # cell j is kappas[j % 99] at pairs[j // 99]; its rows (kappa, y, z), (1 - kappa, z, y)
    for start in range(0, result.cells, probability._BLOCK):
        cells = np.arange(start, min(start + probability._BLOCK, result.cells))
        pair_at, kappa_at = np.divmod(cells, len(kappas))
        rows = np.concatenate([logs[kappa_at], params[pair_at]], axis=2).reshape(-1, 6)
        values = _reg_inc_betas(*rows.T)
        violations = np.abs(values[::2] + values[1::2] - 1.0)
        y, z = params[pair_at, 0, :2].T
        _record(result, violations, "kappa={:.2f} y={} z={}", kappas[kappa_at], y, z)
    return result


def check_analytic_reductions() -> CheckResult:
    """Planar and spatial closed forms against their elementary shapes.

    In dimension 2 the random-weight probability is 1 - 2 phi / pi; in
    dimension 3 it is 1 - sin(phi) and the fully random one collapses
    to |c - x| (1 - sin(phi))^2 / (4 k).  Two concrete instances with
    hand-checkable values are verified as well.
    """
    result = CheckResult("analytic reductions", 0, 0.0, -math.inf)

    def case(label: str, got: float, want: float, tol: float):
        result.cells += 1
        gap = abs(got - want) - tol
        result.worst = max(result.worst, gap)
        if gap > 0.0:
            off = abs(got - want)
            result.failures.append(f"{label}: got {got!r}, want {want!r}, off by {off:.3e}")

    for s in (0.1, 0.3, 0.5, 0.7, 0.9):
        flat, solid = symmetric_instance(2, s), symmetric_instance(3, s)
        arcsin = 1.0 - 2.0 * math.asin(s) / math.pi
        case(f"dim2 arcsin s={s}", probability.p_random_weight(flat), arcsin, 1e-10)
        case(f"dim3 weight s={s}", probability.p_random_weight(solid), 1.0 - s, 1e-12)
        full = solid.center_distance * (1.0 - s) ** 2 / (4.0 * solid.bias_half_range)
        case(f"dim3 full s={s}", probability.p_fully_random(solid), full, 1e-12)

    flat_ref = make_instance(Ball([-2.0, 0.0], 1.0), Ball([2.0, 0.0], 1.0), 2.0)
    case("reference dim2 bias", probability.p_random_bias(flat_ref), 0.5, 0.0)
    case("reference dim2 weight", probability.p_random_weight(flat_ref), 2.0 / 3.0, 1e-12)
    full = math.sqrt(3.0) / math.pi - 1.0 / 3.0
    case("reference dim2 full", probability.p_fully_random(flat_ref), full, 1e-12)
    solid_ref = make_instance(Ball([0.0, 0.0, 0.0], 1.0), Ball([4.0, 0.0, 0.0], 1.0), 4.0)
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
