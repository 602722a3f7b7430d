import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballsep.errors import ArgumentOutOfRange, DimensionMismatch, EmptyInstanceList
from ballsep.geometry import Ball, make_instance, symmetric_instance
from ballsep.montecarlo import McConfig
from ballsep.probability import p_fully_random
from ballsep.tessellation import achieved_confidence, estimate_all_pairs, width_for_confidence


def canonical_plane():
    return make_instance(Ball([-2.0, 0.0], 1.0), Ball([2.0, 0.0], 1.0), 2.0)


def vertical_pair():
    # same geometry as the canonical pair, rotated onto the second axis
    return make_instance(Ball([0.0, -2.0], 1.0), Ball([0.0, 2.0], 1.0), 2.0)


class TestEstimateAllPairs:
    def test_width_one_pinned_on_the_plane(self):
        # the single-pair experiment at n = 2, whose rank-1 core draws one
        # squared normal for the missing coordinate
        cfg = McConfig(samples=70000, seed=13)
        pinned = {
            "fully-random": 0.2150857142857143,
            "random-weight": 0.6660142857142857,
            "random-bias": 0.49832857142857145,
        }
        for mode, mean in pinned.items():
            assert estimate_all_pairs([canonical_plane()], 1, mode, cfg).mean == mean

    def test_width_one_pinned_in_general_pose(self):
        # n = 50 pair off the axes: the sampler draws in its planar core
        rng = np.random.default_rng(50)
        c = rng.standard_normal(50)
        x = c + 6.0 * rng.standard_normal(50) / math.sqrt(50)
        k = 1.5 * max(np.linalg.norm(c), np.linalg.norm(x))
        inst = make_instance(Ball(c, 0.3), Ball(x, 0.2), float(k))
        cfg = McConfig(samples=70000, seed=13)
        pinned = {"fully-random": 0.008285714285714285, "random-weight": 0.5215}
        for mode, mean in pinned.items():
            tess = estimate_all_pairs([inst], 1, mode, cfg)
            assert 0.0 < tess.mean < 1.0
            assert tess.mean == mean

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
        for width in (0, True):
            with pytest.raises(ArgumentOutOfRange, match="width must be a positive int"):
                estimate_all_pairs([inst], width, "fully-random", cfg)
        with pytest.raises(ArgumentOutOfRange):
            estimate_all_pairs([inst], 1, "sideways", cfg)
        # checked before any plane is drawn
        with pytest.raises(ArgumentOutOfRange, match="width 16777217 exceeds 2\\*\\*24"):
            estimate_all_pairs([inst], 2**24 + 1, "fully-random", cfg)
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

    def test_width_too_large_is_rejected_before_walking(self):
        # p_full of symmetric_instance(1000, 0.5): the guess is 7.8e66
        # planes, where the walk would step down by one forever
        start = time.perf_counter()
        with pytest.raises(ArgumentOutOfRange, match="more than 2\\*\\*63 - 1 planes"):
            width_for_confidence(2.9375131677128833e-67, 0.9)
        assert time.perf_counter() - start < 1.0
        with pytest.raises(ArgumentOutOfRange, match="more than 2\\*\\*63 - 1 planes"):
            width_for_confidence(1e-30, 0.5)
        # below the bound the walk still ends, at the minimal width
        for p in (1e-18, 2.5e-19):
            m = width_for_confidence(p, 0.9)
            assert m * math.log1p(-p) <= math.log1p(-0.9) < (m - 1) * math.log1p(-p)

    def test_guess_one_short_steps_up(self):
        # log(1 - T)/log(1 - p) is 34.0000000000000032 by mpmath, so 35 planes are the fewest
        # that reach T; the ratio of the float logs gives the guess 34, and the walk steps up.
        # achieved_confidence(p, 34) rounds to >= T, so the check is against the exact minimum
        assert width_for_confidence(0.5995161567791838, 0.9999999999999692) == 35

    def test_achieved_confidence(self):
        assert achieved_confidence(1.0, 1) == 1.0
        assert achieved_confidence(0.5, 4) >= 0.9
        assert achieved_confidence(0.5, 3) < 0.9
        # no plane ever separates: the tessellation never splits the pair
        assert achieved_confidence(0.0, 5) == 0.0

    def test_certain_separation_needs_one_plane(self):
        assert width_for_confidence(1.0, 0.9) == 1
        assert width_for_confidence(1.0, 1e-12) == 1
        assert achieved_confidence(1.0, 1) == 1.0

    def test_bad_probability_rejected(self):
        for p in (-0.1, 1.2, math.nan):
            with pytest.raises(ArgumentOutOfRange, match="per-pair probability must lie in"):
                achieved_confidence(p, 4)
            with pytest.raises(ArgumentOutOfRange, match="per-pair probability must lie in"):
                width_for_confidence(p, 0.9)

    def test_bad_width_rejected(self):
        for width in (0, -3, 2.0, True):
            with pytest.raises(ArgumentOutOfRange, match="width must be a positive int"):
                achieved_confidence(1.0, width)
