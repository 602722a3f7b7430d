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
from ballsep.geometry import Ball, Hyperplane, make_instance, symmetric_instance
from ballsep.montecarlo import McConfig, estimate_p_bias, estimate_p_full, estimate_p_weight
from ballsep.probability import p_fully_random
from ballsep.tessellation import (
    MODES,
    SignPattern,
    WidthPlan,
    estimate_all_pairs,
    pair_separated_by_any,
    plan_width,
    sign_pattern,
    width_for_confidence,
)


def canonical_plane():
    return make_instance(Ball([-2.0, 0.0], 1.0), Ball([2.0, 0.0], 1.0), 2.0)


def vertical_pair():
    # same geometry as the canonical pair, rotated onto the second axis
    return make_instance(Ball([0.0, -2.0], 1.0), Ball([0.0, 2.0], 1.0), 2.0)


def _interior_point(rng, ball):
    u = rng.standard_normal(ball.dimension)
    u *= rng.uniform(0.0, 0.999) / np.linalg.norm(u)
    return ball.center + ball.radius * u


class TestSignPattern:
    def test_basic_signs(self):
        planes = [
            Hyperplane([1.0, 0.0], 0.0),
            Hyperplane([0.0, 1.0], 2.0),
            Hyperplane([1.0, 0.0], 1.0),
        ]
        assert sign_pattern([1.0, 1.0], planes) == SignPattern((1, -1, 0))
        assert sign_pattern([-3.0, 5.0], planes) == SignPattern((-1, 1, -1))

    def test_origin_against_offset_planes(self):
        planes = [Hyperplane([1.0, 0.0], -1.0), Hyperplane([0.0, 1.0], 1.0)]
        assert sign_pattern([0.0, 0.0], planes) == SignPattern((1, -1))

    def test_empty_plane_list(self):
        pattern = sign_pattern([1.0, 1.0], [])
        assert pattern == SignPattern(())
        assert len(pattern) == 0

    def test_separated_pair_gets_distinct_patterns(self):
        inst = canonical_plane()
        planes = [Hyperplane([1.0, 0.0], 0.0), Hyperplane([0.0, 1.0], 0.5)]
        a = sign_pattern(inst.ball_a.center, planes)
        b = sign_pattern(inst.ball_b.center, planes)
        assert a != b

    def test_interior_points_split_at_separating_plane(self):
        # plane 0 misses the pair, plane 1 separates it; every interior
        # point of one ball must land strictly on the other side of plane 1
        inst = canonical_plane()
        planes = [Hyperplane([0.0, 1.0], 0.9), Hyperplane([1.0, 0.0], 0.1)]
        assert pair_separated_by_any(inst, planes)
        rng = np.random.default_rng(11)
        for _ in range(25):
            sa = _interior_point(rng, inst.ball_a)
            sb = _interior_point(rng, inst.ball_b)
            pa = sign_pattern(sa, planes)
            pb = sign_pattern(sb, planes)
            assert pa.signs[1] == -1
            assert pb.signs[1] == 1


class TestPairSeparatedByAny:
    def test_empty_list_is_false(self):
        assert not pair_separated_by_any(canonical_plane(), [])

    def test_any_semantics(self):
        inst = canonical_plane()
        miss = Hyperplane([0.0, 1.0], 0.0)
        hit = Hyperplane([1.0, 0.0], 0.3)
        assert not pair_separated_by_any(inst, [miss])
        assert pair_separated_by_any(inst, [miss, hit])
        assert pair_separated_by_any(inst, [hit, miss])

    def test_validates_before_answering(self):
        inst = canonical_plane()
        hit = Hyperplane([1.0, 0.0], 0.0)
        bad = Hyperplane([1.0, 0.0, 0.0], 0.0)
        with pytest.raises(DimensionMismatch):
            pair_separated_by_any(inst, [hit, bad])

    def test_superset_of_planes_never_loses(self):
        inst = canonical_plane()
        rng = np.random.default_rng(5)
        for _ in range(50):
            planes = [
                Hyperplane(rng.standard_normal(2), float(rng.uniform(-2, 2)))
                for _ in range(4)
            ]
            for cut in range(1, 4):
                if pair_separated_by_any(inst, planes[:cut]):
                    assert pair_separated_by_any(inst, planes[: cut + 1])


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
            width_for_confidence(1.0, 0.9)
        with pytest.raises(ArgumentOutOfRange):
            width_for_confidence(0.5, 1.0)
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
