import math

import numpy as np
import pytest

from ballsep import probability
from ballsep.errors import ArgumentOutOfRange
from ballsep.selfcheck import (
    check_analytic_reductions,
    check_beta_symmetry,
    check_lemma_sandwich,
    check_ordering_chain,
    grid_instances,
    random_instance,
    run_all,
)
from ballsep.specfun import BetaArgs, log_beta, reg_inc_beta


def test_all_batteries_pass_on_fresh_build():
    results = run_all(ordering_samples=300)
    assert len(results) == 4
    for result in results:
        assert result.passed, result.describe()


def test_describe_reports_cell_counts():
    result = check_lemma_sandwich(alpha_points=10, n_max=5)
    assert result.passed
    assert "40 cells" in result.describe()


def test_grid_covers_thirty_cells():
    grid = grid_instances()
    assert len(grid) == 30
    dims = {inst.dimension for inst in grid}
    assert dims == {2, 3, 5, 10, 50}


def test_random_instances_are_well_posed():
    rng = np.random.default_rng(0)
    for _ in range(200):
        inst = random_instance(rng)
        assert inst.gap > 0.0
        assert inst.bias_half_range >= max(
            np.linalg.norm(inst.ball_a.center), np.linalg.norm(inst.ball_b.center)
        )


def test_beta_symmetry_battery():
    result = check_beta_symmetry()
    assert result.passed
    assert result.cells == 99 * 25


def test_reductions_battery():
    result = check_analytic_reductions()
    assert result.passed


@pytest.mark.parametrize(
    "kwargs", [{"samples": -1}, {"samples": True}, {"seed": -1}, {"seed": 1 << 64}, {"seed": False}]
)
def test_ordering_chain_rejects_bad_samples_and_seed(kwargs):
    with pytest.raises(ArgumentOutOfRange):
        check_ordering_chain(**kwargs)


def test_sign_flip_fault_is_caught(monkeypatch):
    # rebuild the fully random probability with the subtracted term
    # added instead; the ordering chain must reject it on the fixed grid
    def flipped(inst):
        n = inst.dimension
        a = 0.5 * (n - 1)
        incomplete = reg_inc_beta(BetaArgs(inst.q_value, a, 0.5))
        first = math.exp(a * math.log(inst.q_value) - math.log(a) - log_beta(a, 0.5))
        scale = inst.center_distance / (2.0 * inst.bias_half_range)
        return scale * (first + inst.sin_phi * incomplete)

    monkeypatch.setattr(probability, "p_fully_random", flipped)
    result = check_ordering_chain(samples=50)
    assert not result.passed
    assert any("grid" in cell for cell in result.failures)


def test_prefactor_fault_is_caught(monkeypatch):
    original = probability.p_fully_random

    def doubled(inst):
        return min(1.0, 2.0 * original(inst))

    monkeypatch.setattr(probability, "p_fully_random", doubled)
    result = check_ordering_chain(samples=50)
    assert not result.passed
