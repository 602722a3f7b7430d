"""Independent reference computations used only by the tests.

Nothing here shares code with the package's own evaluators: the
incomplete beta oracle integrates the defining integral with endpoint-
weighted adaptive quadrature, the bias oracle counts separating
hyperplanes over a deterministic grid of offsets, and the sphere oracle
samples weights in the full space R^n; both apply the separation test
written out from its definition.  The random-bias oracle replays the
package's block streams (`_block_rng`, the one thing it imports) with
the bias sampler's original arithmetic.
"""

import math
import warnings

import numpy as np
from scipy import integrate

from ballsep.montecarlo import _block_rng

_QUAD_TOL = 1e-13


def betainc_quadrature(kappa: float, y: float, z: float) -> float:
    """I(kappa; y, z) via the defining integral.

    Adaptive quadrature with the algebraic endpoint weight s^(y-1),
    which absorbs the integrable singularity at 0 for y < 1.  The
    1/B(y, z) normalizer is folded into the integrand so the target
    value stays order one even for large shapes, where the raw integral
    would underflow the absolute tolerance.
    """
    if kappa == 0.0:
        return 0.0
    if kappa == 1.0:
        return 1.0
    scale = math.exp(-(math.lgamma(y) + math.lgamma(z) - math.lgamma(y + z)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _ = integrate.quad(
            lambda s: scale * (1.0 - s) ** (z - 1.0),
            0.0,
            kappa,
            weight="alg",
            wvar=(y - 1.0, 0.0),
            epsabs=_QUAD_TOL,
            epsrel=_QUAD_TOL,
            limit=200,
        )
    return value


def bias_scan_fraction(inst, weight, points: int = 20001) -> float:
    """Fraction of an even bias grid on [-k, k] that separates the pair.

    Midpoint counting over `points` offsets; the result approximates the
    exact bias probability to within one grid spacing over 2k.
    """
    k = inst.bias_half_range
    hits = sum(separates_oracle(weight, float(b), inst) for b in np.linspace(-k, k, points))
    return hits / points


def separates_oracle(weight, bias, inst) -> bool:
    """Whether H[weight; bias] separates the pair, from the definition.

    The weight is normalized, and the plane separates when the offsets
    (w|c) - b and (w|x) - b clear the radii on opposite sides.
    """
    w = np.asarray(weight, dtype=float)
    w = w / np.linalg.norm(w)
    off_a = float(w @ inst.ball_a.center) - bias
    off_b = float(w @ inst.ball_b.center) - bias
    ra, rb = inst.ball_a.radius, inst.ball_b.radius
    return (off_a > ra and off_b < -rb) or (off_a < -ra and off_b > rb)


def full_sphere_block(rng, m: int, n: int) -> np.ndarray:
    """m uniform unit vectors in R^n: n normals per row over their norm."""
    draws = rng.standard_normal((m, n))
    return draws / np.linalg.norm(draws, axis=1)[:, None]


def full_space_rates(instances, width: int, samples: int, seed: int) -> tuple[float, float]:
    """Fully random and random-weight all-pairs rates from full-space weights.

    Each trial draws `width` uniform unit weights in R^n and as many biases
    uniform on the widest bias range; a mode hits when every instance is
    separated by at least one of its planes.  Fully random uses the drawn
    biases, random weight asks only that the centers' projections be more
    than r + p apart.  One pair at width 1 gives p_full and p_weight.
    """
    n = instances[0].dimension
    k = max(inst.bias_half_range for inst in instances)
    rng = np.random.default_rng(seed)
    per_draw = max(1, (1 << 20) // (n * width))
    full = weight = 0
    for start in range(0, samples, per_draw):
        m = min(per_draw, samples - start)
        w = full_sphere_block(rng, m * width, n)
        b = rng.uniform(-k, k, m * width)
        all_full = np.ones(m, dtype=bool)
        all_weight = np.ones(m, dtype=bool)
        for inst in instances:
            ra, rb = inst.ball_a.radius, inst.ball_b.radius
            pa = w @ inst.ball_a.center
            pb = w @ inst.ball_b.center
            split = ((pa - b > ra) & (pb - b < -rb)) | ((pa - b < -ra) & (pb - b > rb))
            apart = np.abs(pa - pb) > ra + rb
            all_full &= split.reshape(m, width).any(axis=1)
            all_weight &= apart.reshape(m, width).any(axis=1)
        full += int(all_full.sum())
        weight += int(all_weight.sum())
    return full / samples, weight / samples


def random_bias_block_rate(inst, width: int, samples: int, seed: int) -> float:
    """Random-bias all-pairs rate of one pair on the package's block streams.

    Block i of a run draws its trials' biases, uniform on [-k, k], from
    `_block_rng(seed, i)`; a block holds 65536 // width trials of `width`
    planes normal to the axis (x - c)/|c - x|, its first nonzero component
    made positive.  Each plane is tested on the offsets (axis|c) - b and
    (axis|x) - b, and a trial hits when one of its planes separates.
    """
    c, x = inst.ball_a.center, inst.ball_b.center
    axis = (x - c) / np.linalg.norm(x - c)
    if axis[np.flatnonzero(axis)[0]] < 0.0:
        axis = -axis
    proj_a, proj_b = float(axis @ c), float(axis @ x)
    ra, rb, k = inst.ball_a.radius, inst.ball_b.radius, inst.bias_half_range
    block = max(1, (1 << 16) // width)
    hits = 0
    for index, start in enumerate(range(0, samples, block)):
        m = min(block, samples - start)
        b = _block_rng(seed, index).uniform(-k, k, m * width)
        off_a, off_b = proj_a - b, proj_b - b
        split = ((off_a > ra) & (off_b < -rb)) | ((off_a < -ra) & (off_b > rb))
        hits += int(split.reshape(m, width).any(axis=1).sum())
    return hits / samples
