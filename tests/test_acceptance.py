"""Acceptance battery: one test per shipped guarantee.

Each test prints one ACCEPTANCE line when its guarantee holds, so a
verbose run reads as a checklist.  Statistical comparisons use the
standard error implied by the closed-form value, sqrt(p (1-p) / N);
the plug-in error of an observed mean of zero would be zero and would
misjudge the near-zero cells of the grid.
"""

import math
import subprocess
import sys
import time

import numpy as np

from ballsep.geometry import Ball, make_instance, symmetric_instance
from ballsep.montecarlo import DEFAULT_SEED, McConfig, estimate_p_full, estimate_p_weight
from ballsep.probability import (
    asymptotic_envelope,
    p_fully_random,
    p_random_bias,
    p_random_weight,
)
from ballsep.selfcheck import (
    check_beta_symmetry,
    check_lemma_sandwich,
    check_ordering_chain,
    grid_instances,
)
from ballsep.specfun import _kappa_logs, _reg_inc_betas, log_beta
from ballsep.tessellation import estimate_all_pairs, width_for_confidence

from _oracles import betainc_quadrature


def _within(mean: float, exact: float, samples: int) -> bool:
    scatter = math.sqrt(exact * (1.0 - exact) / samples)
    return abs(mean - exact) <= 4.0 * scatter + 1e-15


def test_c1_bias_oracle_agreement():
    samples = 10**6
    cfg = McConfig(samples=samples, seed=DEFAULT_SEED)
    start = time.perf_counter()
    hits = 0
    cells = grid_instances()
    for inst in cells:
        mean = estimate_all_pairs([inst], 1, "random-bias", cfg).mean
        if _within(mean, p_random_bias(inst), samples):
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits >= 29, f"only {hits}/30 cells within 4 SE"
    assert elapsed <= 120.0, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE c1: PASS ({hits}/30 cells within 4 SE, {elapsed:.1f}s)")


def test_c2_weight_oracle_agreement_and_reductions():
    samples = 10**6
    cfg = McConfig(samples=samples, seed=DEFAULT_SEED)
    cells = grid_instances()
    for inst in cells:
        mean = estimate_p_weight(inst, cfg).mean
        exact = p_random_weight(inst)
        assert _within(mean, exact, samples), (
            f"n={inst.dimension} sin_phi={inst.sin_phi:.2f} "
            f"k={inst.bias_half_range:.3g}: mean={mean} exact={exact}"
        )
    for s in (0.3, 0.5, 0.8):
        flat = symmetric_instance(2, s)
        arcsine = 2.0 / math.pi * math.asin(math.sqrt(flat.q_value))
        assert abs(p_random_weight(flat) - arcsine) <= 1e-10
        solid = symmetric_instance(3, s)
        ratio = solid.gap / solid.center_distance
        assert abs(p_random_weight(solid) - ratio) <= 1e-12
    print("ACCEPTANCE c2: PASS (30/30 cells within 4 SE; n=2 and n=3 reductions hold)")


def test_c3_full_oracle_agreement_and_reference_values():
    samples = 10**7
    cfg = McConfig(samples=samples, seed=DEFAULT_SEED)
    start = time.perf_counter()
    cells = grid_instances()
    for inst in cells:
        mean = estimate_p_full(inst, cfg).mean
        exact = p_fully_random(inst)
        assert _within(mean, exact, samples), (
            f"n={inst.dimension} sin_phi={inst.sin_phi:.2f} "
            f"k={inst.bias_half_range:.3g}: mean={mean} exact={exact}"
        )
    elapsed = time.perf_counter() - start
    space = make_instance(Ball([0.0, 0.0, 0.0], 1.0), Ball([4.0, 0.0, 0.0], 1.0), 4.0)
    assert abs(p_fully_random(space) - 0.0625) <= 1e-14
    plane = make_instance(Ball([-2.0, 0.0], 1.0), Ball([2.0, 0.0], 1.0), 2.0)
    assert abs(p_fully_random(plane) - (math.sqrt(3.0) / math.pi - 1.0 / 3.0)) <= 1e-12
    assert elapsed <= 600.0, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE c3: PASS (30/30 cells within 4 SE, references hold, {elapsed:.1f}s)")


def test_c4_sandwich_bounds_grid():
    result = check_lemma_sandwich(alpha_points=100, n_max=200, tol=1e-12)
    assert result.passed, result.failures[:3]
    print(f"ACCEPTANCE c4: PASS ({result.cells} cells, worst violation {result.worst:.2e})")


def test_c5_ordering_chain_random_instances():
    result = check_ordering_chain(samples=10000, seed=DEFAULT_SEED)
    assert result.passed, result.failures[:3]
    print(f"ACCEPTANCE c5: PASS ({result.cells} instances, worst violation {result.worst:.2e})")


def test_c6_dimension_decay():
    bound = math.sqrt(2.0 / math.pi) * 1.05
    worst = 0.0
    for n in range(2, 501):
        value = p_fully_random(symmetric_instance(n, 0.5)) * math.sqrt(n)
        worst = max(worst, value)
        assert value <= bound, f"n={n}: {value} > {bound}"
    for n in range(200, 501):
        ratio = asymptotic_envelope(n) / math.sqrt(2.0 / (math.pi * n))
        assert 0.99 <= ratio <= 1.01, f"n={n}: envelope ratio {ratio}"
    print(f"ACCEPTANCE c6: PASS (max p_full*sqrt(n) = {worst:.4f} <= {bound:.4f})")


def test_c7_special_function_accuracy():
    shapes = (0.5, 1.0, 2.5, 10.0, 50.0)
    worst = 0.0
    for y in shapes:
        for z in shapes:
            for kappa in np.linspace(0.01, 0.99, 99):
                kappa = float(kappa)
                got = _reg_inc_betas(*_kappa_logs(kappa), y, z, log_beta(y, z))
                want = betainc_quadrature(kappa, y, z)
                worst = max(worst, abs(got - want))
    assert worst <= 1e-10, f"worst quadrature disagreement {worst}"
    symmetry = check_beta_symmetry(tol=1e-11)
    assert symmetry.passed and symmetry.worst <= 1e-11
    print(
        f"ACCEPTANCE c7: PASS (quadrature worst {worst:.2e}, "
        f"symmetry worst {symmetry.worst:.2e})"
    )


def test_c8_tessellation_consistency():
    inst = make_instance(Ball([-2.0, 0.0], 1.0), Ball([2.0, 0.0], 1.0), 2.0)
    p = p_fully_random(inst)
    trials = 10**4
    for width in (1, 4, 16, 64):
        est = estimate_all_pairs([inst], width, "fully-random", McConfig(samples=trials))
        predicted = -math.expm1(width * math.log1p(-p))
        assert _within(est.mean, predicted, trials), (
            f"width={width}: mean={est.mean} predicted={predicted}"
        )
    assert width_for_confidence(0.5, 0.9) == 4
    print("ACCEPTANCE c8: PASS (widths 1/4/16/64 within 4 SE; planning example holds)")


def test_c9_byte_identical_runs():
    commands = [
        [
            "estimate", "--dim", "3", "--sinphi", "0.5", "--samples", "200000",
            "--seed", "42", "--chunks", "3", "--format", "csv",
        ],
        [
            "estimate", "--c", "-2,0", "--r", "1", "--x", "2,0", "--p", "1",
            "--k", "2", "--samples", "100000",
        ],
        [
            "tessellate", "--dim", "2", "--sinphi", "0.5", "--width", "7",
            "--samples", "20000", "--chunks", "4", "--format", "json",
        ],
    ]
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "ballsep", *argv],
                capture_output=True,
                check=True,
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout, f"stdout differs for {argv}"
        assert runs[0].stdout
    print("ACCEPTANCE c9: PASS (estimation commands byte-identical, chunks > 1 included)")
