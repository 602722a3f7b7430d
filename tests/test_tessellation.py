import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballsep.errors import (
    ArgumentOutOfRange,
    DimensionMismatch,
    EmptyInstanceList,
    InternalConsistencyError,
)
from ballsep.geometry import Ball, make_instance, symmetric_instance
from ballsep.montecarlo import McConfig, estimate_p_bias, estimate_p_full, estimate_p_weight
from ballsep.probability import p_fully_random
from ballsep.tessellation import (
    MODES,
    WidthPlan,
    estimate_all_pairs,
    plan_width,
    width_for_confidence,
)


def canonical_plane():
    return make_instance(Ball([-2.0, 0.0], 1.0), Ball([2.0, 0.0], 1.0), 2.0)


def vertical_pair():
    # same geometry as the canonical pair, rotated onto the second axis
    return make_instance(Ball([0.0, -2.0], 1.0), Ball([0.0, 2.0], 1.0), 2.0)


class TestEstimateAllPairs:
    def test_width_one_reduces_to_single_estimators(self):
        inst = canonical_plane()
        cfg = McConfig(samples=70000, seed=13)
        single = {
            "fully-random": estimate_p_full,
            "random-weight": estimate_p_weight,
            "random-bias": estimate_p_bias,
        }
        for mode in MODES:
            tess = estimate_all_pairs([inst], 1, mode, cfg)
            assert tess.mean == single[mode](inst, cfg).mean

    def test_width_one_matches_single_estimators_in_general_pose(self):
        # n = 50 pair off the axes: both paths sample in the same planar core
        rng = np.random.default_rng(50)
        c = rng.standard_normal(50)
        x = c + 6.0 * rng.standard_normal(50) / math.sqrt(50)
        k = 1.5 * max(np.linalg.norm(c), np.linalg.norm(x))
        inst = make_instance(Ball(c, 0.3), Ball(x, 0.2), float(k))
        cfg = McConfig(samples=70000, seed=13)
        for mode, single in (("fully-random", estimate_p_full), ("random-weight", estimate_p_weight)):
            tess = estimate_all_pairs([inst], 1, mode, cfg)
            assert 0.0 < tess.mean < 1.0
            assert tess.mean == single(inst, cfg).mean

    def test_wider_tessellations_separate_more(self):
        inst = canonical_plane()
        cfg = McConfig(samples=10000, seed=3)
        means = [
            estimate_all_pairs([inst], width, "fully-random", cfg).mean
            for width in (1, 4, 16)
        ]
        assert means[0] < means[1] < means[2]

    def test_matches_independent_plane_prediction(self):
        inst = canonical_plane()
        p = p_fully_random(inst)
        for width in (1, 4, 16, 64):
            est = estimate_all_pairs([inst], width, "fully-random", McConfig(samples=10000))
            predicted = -math.expm1(width * math.log1p(-p))
            scatter = math.sqrt(predicted * (1.0 - predicted) / 10000)
            assert abs(est.mean - predicted) <= 4.0 * scatter + 1e-12

    def test_weight_mode_dominates_full_mode(self):
        inst = symmetric_instance(3, 0.6, k_factor=1.5)
        for width in (1, 3):
            cfg = McConfig(samples=20000, seed=17)
            full = estimate_all_pairs([inst], width, "fully-random", cfg)
            weight = estimate_all_pairs([inst], width, "random-weight", cfg)
            assert full.mean <= weight.mean

    def test_bias_mode_beats_full_mode_statistically(self):
        inst = canonical_plane()
        cfg = McConfig(samples=10000, seed=29)
        bias = estimate_all_pairs([inst], 2, "random-bias", cfg)
        full = estimate_all_pairs([inst], 2, "fully-random", cfg)
        assert bias.mean > full.mean + 0.1

    def test_two_pairs_harder_than_each(self):
        pairs = [canonical_plane(), vertical_pair()]
        for mode in ("fully-random", "random-weight"):
            cfg = McConfig(samples=30000, seed=2)
            both = estimate_all_pairs(pairs, 3, mode, cfg).mean
            for alone in pairs:
                assert both <= estimate_all_pairs([alone], 3, mode, cfg).mean

    def test_chunk_invariance(self):
        inst = canonical_plane()
        one = estimate_all_pairs([inst], 5, "fully-random", McConfig(samples=40000, seed=4))
        many = estimate_all_pairs(
            [inst], 5, "fully-random", McConfig(samples=40000, seed=4, chunks=3)
        )
        assert one.mean == many.mean

    def test_input_validation(self):
        inst = canonical_plane()
        cfg = McConfig(samples=10)
        with pytest.raises(EmptyInstanceList):
            estimate_all_pairs([], 1, "fully-random", cfg)
        with pytest.raises(DimensionMismatch):
            estimate_all_pairs([inst, symmetric_instance(3, 0.5)], 1, "fully-random", cfg)
        with pytest.raises(ArgumentOutOfRange):
            estimate_all_pairs([inst], 0, "fully-random", cfg)
        with pytest.raises(ArgumentOutOfRange):
            estimate_all_pairs([inst], 1, "sideways", cfg)
        # each pair's random-bias planes follow its own axis
        with pytest.raises(ArgumentOutOfRange, match="random-bias mode takes one pair, got 2"):
            estimate_all_pairs([inst, vertical_pair()], 1, "random-bias", cfg)


class TestWidthPlanning:
    def test_reference_widths(self):
        assert width_for_confidence(0.5, 0.9) == 4
        assert width_for_confidence(math.sqrt(3.0) / math.pi - 1.0 / 3.0, 0.99) == 19
        assert width_for_confidence(0.9999, 0.5) == 1
        assert width_for_confidence(0.5, 1e-12) == 1

    def test_validation(self):
        with pytest.raises(ArgumentOutOfRange):
            width_for_confidence(0.0, 0.9)
        with pytest.raises(ArgumentOutOfRange):
            width_for_confidence(0.5, 1.0)
        with pytest.raises(ArgumentOutOfRange):
            width_for_confidence(1.0, 1.0)
        with pytest.raises(ArgumentOutOfRange):
            width_for_confidence(1.2, 0.9)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=1e-9, max_value=1.0, exclude_max=True),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-9, exclude_max=True),
    )
    def test_width_is_minimal_and_sufficient(self, p, target):
        m = width_for_confidence(p, target)
        log_miss = math.log1p(-p)
        log_allowed = math.log1p(-target)
        assert m >= 1
        assert m * log_miss <= log_allowed
        if m > 1:
            assert (m - 1) * log_miss > log_allowed

    def test_plan_width_record(self):
        plan = plan_width(0.5, 0.9, "random-bias")
        assert plan.width == 4
        assert plan.mode == "random-bias"
        assert plan.achieved_confidence >= 0.9 - 1e-12

    def test_plan_at_certain_separation(self):
        plan = WidthPlan(1.0, 1, 0.99, "fully-random")
        assert plan.achieved_confidence == 1.0

    def test_certain_separation_needs_one_plane(self):
        assert width_for_confidence(1.0, 0.9) == 1
        assert width_for_confidence(1.0, 1e-12) == 1
        plan = plan_width(1.0, 0.9, "random-weight")
        assert (plan.width, plan.achieved_confidence) == (1, 1.0)

    def test_plan_rejects_inconsistent_width(self):
        with pytest.raises(InternalConsistencyError):
            WidthPlan(0.5, 2, 0.9, "fully-random")

    def test_plan_rejects_bad_fields(self):
        with pytest.raises(ArgumentOutOfRange):
            WidthPlan(0.5, 4, 0.9, "diagonal")
        with pytest.raises(ArgumentOutOfRange):
            WidthPlan(0.0, 4, 0.9, "fully-random")
        with pytest.raises(ArgumentOutOfRange):
            WidthPlan(0.5, 0, 0.9, "fully-random")
