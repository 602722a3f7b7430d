"""Monte Carlo estimators with a chunk-invariant, per-block RNG layout.

Samples are organized into fixed logical blocks of 65536.  Block i of a
run with seed s draws from Philox keyed by (splitmix64(s), splitmix64(i)),
never from a shared stream, so the estimate for a given (instance,
samples, seed) triple is byte-identical whatever the chunk count.
Within every block the draw order is weights first, then biases.  The
random-weight and fully random estimates of one run share each block's
weights, drawn once before the biases, so the fully random estimate
stays below the random-weight one sample by sample.  A random-bias
plane is the weight +1 in the pair's one-dimensional axis core, tested
by `separates_batch` like a fully random plane; its block draws only
biases, from the start of its stream, in a pass of its own.

One sampler runs every experiment: `estimate_modes` draws `width` planes
per trial in each requested mode and asks whether every listed pair has a
plane that splits it (in random-weight mode, a plane whose direction admits
a bias that splits that pair).  `estimate_all_pairs` is its one-mode case,
and each single-pair estimator the one-pair, width-1 case of that.

The estimators see a weight only through its projections onto the ball
centers, so they sample in the core of the instances: the span of their
centers, whose dimension d is their rank (1 for centers on a line
through the origin, as in every symmetric instance, and at most 2 for
one pair), and the core is each instance's two balls in coordinates of
that span.  The first d coordinates of a uniform unit vector in R^n are
g / sqrt(|g|^2 + t), with g standard normal in R^d and t chi-square with
n - d degrees of freedom, the law behind the closed forms'
I(q; (n-1)/2, 1/2); a row costs d normals and one chi-square draw
instead of n normals.

Each `estimate_modes` call allocates one workspace, sized for a full
block, and every block of its passes draws and tests its planes in it:
its weights, biases, offsets and masks reuse those arrays, and only the
rare redraw of a near-zero direction allocates.  The in-place draws
have the bits of the allocating calls they stand for, so every stream
is the one those calls gave: `standard_normal(out=)` fills the rows
that `standard_normal((m, d))` returns; a chi-square(t) tail is
2 * standard_gamma(t / 2), numpy's own definition of it; and
uniform(-k, k) is -k + 2k * u, which `random(out=)` scaled by 2k and
shifted by -k reproduces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import starmap
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ArgumentOutOfRange, DimensionMismatch, EmptyInstanceList
from .geometry import (
    Ball,
    SeparationInstance,
    _norm,
    exists_separating_bias_batch,
    separates_batch,
)

DEFAULT_SEED = 42
MODES = ("fully-random", "random-weight", "random-bias")

_BLOCK = 1 << 16
_MAX_TRIAL_PLANES = 1 << 24  # a trial's planes are drawn in one array
_MASK64 = (1 << 64) - 1
_NORM_FLOOR = 1e-12


def _mix64(z: int) -> int:
    # splitmix64 finalizer; full-period bijection on 64-bit words
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _block_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator for block `index` of run `seed`, each keying one Philox word."""
    return np.random.Generator(np.random.Philox(key=_mix64(seed) | (_mix64(index) << 64)))


def _check_seed(seed) -> None:
    if type(seed) is not int or not 0 <= seed <= _MASK64:
        raise ArgumentOutOfRange(f"seed must be a 64-bit unsigned int, got {seed!r}")


@dataclass(frozen=True)
class McConfig:
    """Sample count, seed, and chunk count for one estimation run.

    `chunks` is validated but changes neither the result nor the
    concurrency: blocks always run one after another.
    """

    samples: int
    seed: int = DEFAULT_SEED
    chunks: int = 1

    def __post_init__(self):
        # bool is an int subclass, and True is no count
        if type(self.samples) is not int or self.samples < 1:
            raise ArgumentOutOfRange("samples must be >= 1")
        _check_seed(self.seed)
        if type(self.chunks) is not int or not 1 <= self.chunks <= self.samples:
            raise ArgumentOutOfRange(
                f"chunks must be between 1 and samples, got {self.chunks!r}"
            )


@dataclass(frozen=True)
class Estimate:
    """Bernoulli mean with its plug-in standard error."""

    mean: float
    samples: int
    std_error: float = field(init=False)

    def __post_init__(self):
        se = math.sqrt(self.mean * (1.0 - self.mean) / self.samples)
        object.__setattr__(self, "std_error", se)


def _full_norms(rng: np.random.Generator, draws: np.ndarray, n: int, out=None) -> np.ndarray:
    """Norms in R^n of Gaussian vectors whose first coordinates are the rows.

    The other n - d squared coordinates sum to a chi-square(n - d) draw.
    For d <= 2 the rows' part has the bits of np.linalg.norm(axis=1), at
    under half its cost.  `out`, a (2, m) float array, holds the squared
    norms and the tail instead of new arrays; the norms are its first row.
    """
    m, d = draws.shape
    sq, tail_sq = np.empty((2, m)) if out is None else out
    np.einsum("ij,ij->i", draws, draws, out=sq)
    tail = n - d
    if tail == 1:
        # numpy's chisquare(1) is slower than squaring one normal
        rng.standard_normal(out=tail_sq)
        sq += np.square(tail_sq, out=tail_sq)
    elif tail > 1:
        rng.standard_gamma(tail / 2, out=tail_sq)
        tail_sq *= 2.0
        sq += tail_sq
    return np.sqrt(sq, out=sq)


def _sphere_block(rng: np.random.Generator, m: int, d: int, n: int, *, out=None) -> np.ndarray:
    """First d coordinates of m uniform unit vectors in R^n, an (m, d) array.

    At d = n the rows are the unit vectors themselves.  `out`, if given,
    is a pair of float arrays of shapes (>= m, d) and (2, >= m).  The rows
    are written into the leading m rows of the first and returned as a
    view of it.  The second is scratch for their norms, free for the
    caller again once the rows come back.
    """
    draws, scratch = (np.empty((m, d)), np.empty((2, m))) if out is None else out
    draws = draws[:m]
    rng.standard_normal(out=draws)
    norms = _full_norms(rng, draws, n, scratch[:, :m])
    # a near-zero Gaussian vector has no usable direction; redraw it
    while norms.min() < _NORM_FLOOR:
        bad = norms < _NORM_FLOOR
        redraw = rng.standard_normal((int(bad.sum()), d))
        draws[bad] = redraw
        norms[bad] = _full_norms(rng, redraw, n)
    draws /= norms[:, None]
    return draws


def _planar_core(instances: Sequence[SeparationInstance]) -> list[tuple[Ball, Ball]]:
    """Each instance's two balls in coordinates of an orthonormal basis of the centers' span.

    The core has d = rank dimensions.  The basis comes from Gram-Schmidt
    with one reorthogonalization, taking the centers in order and
    dropping residuals at rounding level, so centers on the coordinate
    axes map to exact coordinates.  Every distance and norm the
    predicates see is kept.  When d = n the pairs are the instances' own
    balls.
    """
    n = instances[0].dimension
    centers = np.array([ball.center for inst in instances for ball in (inst.ball_a, inst.ball_b)])
    with np.errstate(over="ignore"):  # _norm rescales a square that overflows or underflows
        scale = max(map(_norm, centers))
        floor = max(centers.shape) * np.finfo(float).eps * scale
        basis = np.empty((0, n))
        for center in centers:
            if len(basis) == n:
                break
            residual = center - basis.T @ (basis @ center)
            residual -= basis.T @ (basis @ residual)
            norm = _norm(residual)
            if norm > floor:
                basis = np.vstack([basis, residual / norm])
    if len(basis) == n:
        return [(inst.ball_a, inst.ball_b) for inst in instances]
    coords = centers @ basis.T
    return [
        (Ball(coords[2 * i], inst.ball_a.radius), Ball(coords[2 * i + 1], inst.ball_b.radius))
        for i, inst in enumerate(instances)
    ]


def bernoulli_estimate(
    cfg: McConfig,
    block_hits: Callable[[np.random.Generator, int], tuple[int, ...]],
    block: int = _BLOCK,
) -> tuple[Estimate, ...]:
    """Run `block_hits` over every logical block and average each of its counts.

    `block_hits` returns one hit count per estimate.  Hits are summed as
    exact integers, so each mean depends only on the per-block results.
    """
    n_blocks = -(-cfg.samples // block)
    per_block = [
        block_hits(_block_rng(cfg.seed, index), min(block, cfg.samples - index * block))
        for index in range(n_blocks)
    ]
    return tuple(
        Estimate(mean=sum(map(int, hits)) / cfg.samples, samples=cfg.samples)
        for hits in zip(*per_block)
    )


def _uniform(rng: np.random.Generator, k: float, out: np.ndarray) -> np.ndarray:
    """`out` filled with rng.uniform(-k, k) draws, with their bits: numpy computes -k + 2k * u."""
    rng.random(out=out)
    out *= 2.0 * k
    out -= k
    return out


def _trial_hits(per_pair: Iterable[np.ndarray], m: int, width: int, out: np.ndarray) -> int:
    """How many of m trials of `width` planes split every pair, from each pair's plane hits.

    `out`, a bool array of shape (2, >= m), takes the trials that split
    every pair so far and one pair's trial hits.  It shares no memory with
    the plane hits, so every pair's hits may come in one reused mask.
    """
    joint, split = out[:, :m]
    joint.fill(True)
    for hit in per_pair:
        # at width 1 every plane is a trial of its own
        joint &= hit if width == 1 else hit.reshape(m, width).any(axis=1, out=split)
    return np.count_nonzero(joint)


def _axis_core(inst: SeparationInstance) -> tuple[Ball, Ball]:
    """The pair's balls in the coordinate along the axis (x - c)/|c - x|, its
    first nonzero component made positive.

    Fixing the sign convention makes the random-bias estimate invariant
    under swapping the two balls, which flips the axis and so only swaps
    the two balls' centers.
    """
    c, x = inst.ball_a.center, inst.ball_b.center
    axis = (x - c) / inst.center_distance
    if axis[np.flatnonzero(axis)[0]] < 0.0:
        axis = -axis
    return Ball([axis @ c], inst.ball_a.radius), Ball([axis @ x], inst.ball_b.radius)


def _axis_weights(rng: np.random.Generator, rows: int) -> np.ndarray:
    """The weight +1 of each random-bias plane in the axis core: a broadcast, no draw, no memory."""
    return np.broadcast_to(1.0, (rows, 1))


def _block_hits(modes, cores, weights, k: float, width: int, work, rng, m: int) -> tuple[int, ...]:
    """Each mode's count of the block's m trials whose `width` planes split every core pair.

    `weights(rng, rows)` gives the planes' unit weights in core coordinates; the biases,
    uniform on [-k, k], follow.  `work` holds the biases, predicate scratch and trial masks.
    """
    biases, scratch, trials = work
    unit = weights(rng, m * width)
    split = {"random-weight": partial(exists_separating_bias_batch, unit, out=scratch)}
    if any(mode != "random-weight" for mode in modes):
        drawn = _uniform(rng, k, biases[: m * width])
        split["fully-random"] = partial(separates_batch, unit, drawn, out=scratch)
        split["random-bias"] = split["fully-random"]  # a fully random plane, its weight fixed
    return tuple(_trial_hits(starmap(split[mode], cores), m, width, trials) for mode in modes)


def estimate_modes(
    instances: Sequence[SeparationInstance],
    width: int,
    modes: Sequence[str],
    cfg: McConfig,
) -> tuple[Estimate, ...]:
    """Chance that every listed pair has one of `width` planes splitting it, once per mode.

    Each trial draws `width` hyperplanes according to a mode and counts a hit when every
    instance is separated by at least one of them.  In random-weight mode that is a plane
    whose direction admits a separating bias, and each plane may take a different bias for
    each pair, so the pairs need not share one tessellation.  Biases share the widest of the
    instances' ranges, so one bias stream serves them all.  Random-bias mode takes a single
    pair: its planes are normal to the pair's own axis, and several pairs share no axis.  A
    random-bias plane is the weight +1 in the pair's axis core with a drawn bias, tested by
    `separates_batch` like a fully random one, in a pass of its own that draws only biases.
    One pair at width 1 is the single-pair experiment.  The estimates come back in the order
    of `modes`, each as it would alone.
    """
    if len(instances) == 0:
        raise EmptyInstanceList("at least one instance is required")
    dims = {inst.dimension for inst in instances}
    if len(dims) != 1:
        raise DimensionMismatch(f"instances mix dimensions {sorted(dims)}")
    n = dims.pop()
    if type(width) is not int or width < 1:
        raise ArgumentOutOfRange(f"width must be a positive int, got {width!r}")
    if width > _MAX_TRIAL_PLANES:
        raise ArgumentOutOfRange(f"width {width} exceeds 2**24, the most planes one trial draws")
    for mode in modes:
        if mode not in MODES:
            raise ArgumentOutOfRange(f"mode must be one of {MODES}, got {mode!r}")
    if "random-bias" in modes and len(instances) > 1:
        raise ArgumentOutOfRange(
            f"random-bias mode takes one pair, got {len(instances)}: "
            "each pair's planes follow its own axis, so they share no tessellation"
        )
    k_draw = max(inst.bias_half_range for inst in instances)
    if any(mode != "random-weight" for mode in modes) and not math.isfinite(2.0 * k_draw):
        raise ArgumentOutOfRange(
            f"bias half range {k_draw!r} is too wide to draw biases from: 2k overflows"
        )
    weight_modes = [mode for mode in modes if mode != "random-bias"]
    cores = _planar_core(instances) if weight_modes else []
    d = cores[0][0].dimension if cores else 0
    block = max(1, _BLOCK // width)
    rows = block * width
    # One workspace serves every block of both passes; a short block uses
    # its leading rows.  The predicates' (offsets, masks) pair is `scratch`,
    # and its offsets are also `_sphere_block`'s scratch for the norms.
    scratch = (np.empty((2, rows)), np.empty((3, rows), dtype=bool))
    work = (np.empty(rows), scratch, np.empty((2, block), dtype=bool))
    passes = []
    if "random-bias" in modes:
        passes.append((["random-bias"], [_axis_core(*instances)], _axis_weights))
    if weight_modes:
        unit = partial(_sphere_block, d=d, n=n, out=(np.empty((rows, d)), scratch[0]))
        passes.append((weight_modes, cores, unit))
    estimates = {}
    for pass_modes, pass_cores, unit in passes:
        hits = partial(_block_hits, pass_modes, pass_cores, unit, k_draw, width, work)
        estimates.update(zip(pass_modes, bernoulli_estimate(cfg, hits, block)))
    return tuple(estimates[mode] for mode in modes)


def estimate_all_pairs(
    instances: Sequence[SeparationInstance], width: int, mode: str, cfg: McConfig
) -> Estimate:
    """The one-mode case of `estimate_modes`."""
    (estimate,) = estimate_modes(instances, width, (mode,), cfg)
    return estimate


def estimate_p_full(inst: SeparationInstance, cfg: McConfig) -> Estimate:
    """Monte Carlo estimate for independent uniform weight and bias."""
    return estimate_all_pairs([inst], 1, "fully-random", cfg)


def estimate_p_weight(inst: SeparationInstance, cfg: McConfig) -> Estimate:
    """Monte Carlo estimate for a uniform weight with best-case bias."""
    return estimate_all_pairs([inst], 1, "random-weight", cfg)
