import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from ballsep.errors import (
    ArgumentOutOfRange,
    BallsOverlapOrTouch,
    DimensionMismatch,
    DimensionTooSmall,
    KInsufficient,
)
from ballsep.geometry import (
    Ball,
    SeparationInstance,
    _pair_checks,
    exists_separating_bias_batch,
    make_instance,
    separates_batch,
    symmetric_instance,
)
from ballsep.montecarlo import _axis_core

from _oracles import bias_scan_fraction, separates_oracle


def _axis_centers(inst):
    """The centers of the pair's axis core, (axis|c) and (axis|x)."""
    ball_a, ball_b = _axis_core(inst)
    return float(*ball_a.center), float(*ball_b.center)


def canonical_plane():
    return make_instance(Ball([-2.0, 0.0], 1.0), Ball([2.0, 0.0], 1.0), 2.0)


def unit(weight):
    w = np.asarray(weight, dtype=float)
    return w / np.linalg.norm(w)


def separates_one(weight, bias, inst):
    """`separates_batch` on the one-row batch H[weight; bias], weight normalized."""
    plane = unit(weight)[None, :], np.array([float(bias)])
    return bool(separates_batch(*plane, inst.ball_a, inst.ball_b)[0])


def bias_exists_one(weight, inst):
    """`exists_separating_bias_batch` on a one-row batch."""
    return bool(exists_separating_bias_batch(unit(weight)[None, :], inst.ball_a, inst.ball_b)[0])


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    r = draw(st.floats(min_value=0.1, max_value=3.0, allow_nan=False))
    p = draw(st.floats(min_value=0.1, max_value=3.0, allow_nan=False))
    delta = draw(st.floats(min_value=0.05, max_value=5.0, allow_nan=False))
    c = np.array([draw(st.floats(min_value=-3.0, max_value=3.0)) for _ in range(n)])
    raw = np.array([draw(st.floats(min_value=-1.0, max_value=1.0)) for _ in range(n)])
    norm = np.linalg.norm(raw)
    axis = raw / norm if norm > 1e-3 else np.eye(n)[0]
    x = c + (r + p + delta) * axis
    k = max(np.linalg.norm(c), np.linalg.norm(x)) * draw(
        st.floats(min_value=1.0, max_value=3.0)
    )
    return make_instance(Ball(c, r), Ball(x, p), float(k))


class TestBall:
    def test_one_coordinate_is_a_ball(self):
        # the Monte Carlo core of a pair on a line through the origin; an instance needs two
        assert Ball([1.0], 1.0).dimension == 1

    @pytest.mark.parametrize("center", [[], [[1.0, 2.0]], 3.0])
    def test_rejects_center_that_is_not_a_vector(self, center):
        with pytest.raises(ArgumentOutOfRange, match="^ball center must be a one-dimensional"):
            Ball(center, 1.0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ArgumentOutOfRange):
            Ball([1.0, 2.0], 0.0)
        with pytest.raises(ArgumentOutOfRange):
            Ball([1.0, 2.0], -1.0)

    def test_rejects_nonfinite_center(self):
        with pytest.raises(ArgumentOutOfRange):
            Ball([1.0, math.inf], 1.0)

    def test_center_is_read_only(self):
        ball = Ball([1.0, 2.0], 1.0)
        with pytest.raises(ValueError):
            ball.center[0] = 9.0
        assert ball.dimension == 2


class TestHyperplane:
    # planes are one-row batches of the predicate
    def test_negated_plane_is_same_point_set(self):
        inst = canonical_plane()
        for b in (-0.7, 0.0, 0.4, 1.2):
            assert separates_one([1.0, 0.0], b, inst) == separates_one([-1.0, 0.0], -b, inst)


class TestInstanceValidation:
    def test_canonical_derived_geometry(self):
        inst = canonical_plane()
        assert inst.dimension == 2
        assert inst.center_distance == 4.0
        assert inst.gap == 2.0
        assert inst.sin_phi == 0.5
        assert inst.q_value == 0.75
        # the centers along the axis (x - c)/|c - x|
        assert _axis_centers(inst) == (-2.0, 2.0)

    def test_asymmetric_radii_geometry(self):
        inst = make_instance(Ball([0.0, 0.0], 2.0), Ball([6.0, 0.0], 1.0), 6.0)
        assert inst.gap == 3.0
        assert inst.sin_phi == 0.5

    def test_overlap_and_touch_rejected(self):
        with pytest.raises(BallsOverlapOrTouch, match=r"balls overlap or touch \(delta <= 0\)"):
            make_instance(Ball([0.0, 0.0], 1.0), Ball([1.5, 0.0], 1.0), 5.0)
        with pytest.raises(BallsOverlapOrTouch):
            make_instance(Ball([0.0, 0.0], 1.0), Ball([2.0, 0.0], 1.0), 5.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            make_instance(Ball([0.0, 0.0], 1.0), Ball([9.0, 0.0, 0.0], 1.0), 20.0)

    @pytest.mark.parametrize("c, x", [([0.0], [9.0]), ([0.0], [9.0, 0.0]), ([0.0, 0.0], [9.0])])
    def test_dimension_one_rejected(self, c, x):
        # named before the mismatch of a pair that has both faults
        with pytest.raises(DimensionTooSmall, match=r"^balls need dimension >= 2, got 1$"):
            make_instance(Ball(c, 1.0), Ball(x, 1.0), 20.0)

    @pytest.mark.parametrize("other", [[9.0, 0.0], None])
    def test_balls_that_are_not_balls_rejected(self, other):
        with pytest.raises(ArgumentOutOfRange, match="^ball_a and ball_b must be Ball instances$"):
            SeparationInstance(Ball([0.0, 0.0], 1.0), other, 20.0)

    @pytest.mark.parametrize("c, x", [([math.nan, 0.0], [3.0, 0.0]), ([0.0, 0.0], [3.0, math.nan])])
    def test_pair_checks_name_a_center_that_is_not_a_number(self, c, x):
        # a Ball holds finite centers only, so this is reached by calling the checks
        # directly, as selfcheck's chain does with its drawn columns
        with pytest.raises(ArgumentOutOfRange, match=re.escape("|c - x| is not a number")):
            _pair_checks(np.array(c), 1.0, np.array(x), 1.0, 5.0)

    def test_insufficient_k_rejected(self):
        with pytest.raises(KInsufficient):
            make_instance(Ball([-2.0, 0.0], 1.0), Ball([2.0, 0.0], 1.0), 1.9)

    @pytest.mark.parametrize("k", [math.inf, math.nan])
    def test_nonfinite_k_rejected(self, k):
        with pytest.raises(ArgumentOutOfRange, match=r"must be finite"):
            make_instance(Ball([-2.0, 0.0], 1.0), Ball([2.0, 0.0], 1.0), k)

    @pytest.mark.parametrize(
        "c, x, label",
        [
            ([0.0, 1.0], [1.3e308, 1.3e308], "|c - x|"),
            ([1.5e308, 1.5e308], [1.5e308, 1.4e308], "|c|"),
            ([1.7e308, 0.0], [-1.7e308, 0.0], "|c - x|"),
            ([-1e308, 0.0], [1e308, 0.0], "|c - x|"),
        ],
    )
    def test_overflowing_norm_rejected_without_warning(self, c, x, label):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArgumentOutOfRange, match=re.escape(f"{label} overflows")):
                make_instance(Ball(c, 1.0), Ball(x, 1.0), 1e307)

    @pytest.mark.parametrize(
        "c, x",
        [
            # v.v overflows: the norm is taken on v over its largest entry
            ([-1e155, 0.0], [1e155, 0.0]),
            ([1e155, 0.0], [1.1e155, 0.0]),
            ([0.0, 1.0], [3e300, 4e300]),
            # v.v underflows to 0 or to a subnormal
            ([0.0, 0.0], [4e-300, 0.0]),
            ([3e-160, 0.0], [0.0, 4e-160]),
        ],
    )
    def test_norms_whose_square_leaves_the_normal_range(self, c, x):
        dist = math.hypot(*np.subtract(c, x))
        k = max(math.hypot(*c), math.hypot(*x))
        radius = 0.25 * dist
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inst = make_instance(Ball(c, radius), Ball(x, radius), k)
        assert inst.center_distance == pytest.approx(dist, rel=4e-16, abs=0.0)
        # |c| and |x| are right too: k passes and a k just below it does not
        with pytest.raises(KInsufficient):
            make_instance(Ball(c, radius), Ball(x, radius), 0.999 * k)

    def test_large_finite_norms_unchanged(self):
        c, x = np.array([-3e153, 1e153]), np.array([4e153, -2e152])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inst = make_instance(Ball(c, 1.0), Ball(x, 1.0), 1e154)
        assert inst.center_distance == np.linalg.norm(c - x)
        with pytest.raises(KInsufficient, match=re.escape(repr(float(np.linalg.norm(x))))):
            make_instance(Ball(c, 1.0), Ball(x, 1.0), 1e153)

    def test_center_distance_is_the_validated_norm(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 50, 10**4):
            c, x = rng.standard_normal(n), 10.0 + rng.standard_normal(n)
            inst = make_instance(Ball(c, 0.5), Ball(x, 0.5), 1e6)
            # stored at validation, not recomputed on first use
            assert "center_distance" in vars(inst)
            assert inst.center_distance == float(np.linalg.norm(c - x))

    def test_swap_symmetry(self):
        inst = canonical_plane()
        swapped = make_instance(inst.ball_b, inst.ball_a, inst.bias_half_range)
        assert swapped.gap == inst.gap
        assert swapped.sin_phi == inst.sin_phi
        assert swapped.q_value == inst.q_value
        # the axis flips, and its sign convention only swaps the core's centers
        assert _axis_centers(swapped) == _axis_centers(inst)[::-1]


class TestSymmetricGenerator:
    def test_realizes_requested_geometry(self):
        inst = symmetric_instance(5, 0.3, r=2.0, p=0.5, k_factor=2.0)
        assert inst.dimension == 5
        assert_allclose(inst.sin_phi, 0.3, rtol=1e-14)
        half = 0.5 * inst.center_distance
        assert_allclose(inst.bias_half_range, 2.0 * half, rtol=1e-14)
        assert_allclose(inst.ball_a.center, [-half, 0, 0, 0, 0], rtol=1e-14)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ArgumentOutOfRange):
            symmetric_instance(3, 0.0)
        with pytest.raises(ArgumentOutOfRange):
            symmetric_instance(3, 1.0)
        with pytest.raises(ArgumentOutOfRange):
            symmetric_instance(3, 0.5, k_factor=0.5)
        with pytest.raises(DimensionTooSmall):
            symmetric_instance(1, 0.5)

    @pytest.mark.parametrize("dim", [1 << 61, 1 << 63])
    def test_unallocatable_dimension_is_bad_input(self, dim):
        # numpy refuses both sizes without allocating: 2^61 doubles overflow the
        # byte count and 2^63 is past its largest dimension
        with pytest.raises(ArgumentOutOfRange, match=f"^dimension {dim} is too large to allocate$"):
            symmetric_instance(dim, 0.5)


class TestSeparationPredicate:
    def test_axis_plane_interval(self):
        inst = canonical_plane()
        assert separates_one([1.0, 0.0], 0.0, inst)
        assert separates_one([1.0, 0.0], 0.999, inst)
        # tangency does not separate: the spheres meet the plane
        assert not separates_one([1.0, 0.0], 1.0, inst)
        assert not separates_one([1.0, 0.0], -1.0, inst)
        assert not separates_one([1.0, 0.0], 1.5, inst)
        assert not separates_one([0.0, 1.0], 0.0, inst)

    def test_batch_matches_scalar(self):
        inst = canonical_plane()
        rng = np.random.default_rng(7)
        weights = rng.standard_normal((64, 2))
        weights /= np.linalg.norm(weights, axis=1)[:, None]
        biases = rng.uniform(-2.0, 2.0, 64)
        got = separates_batch(weights, biases, inst.ball_a, inst.ball_b)
        want = [separates_oracle(w, float(b), inst) for w, b in zip(weights, biases)]
        assert got.tolist() == want

    def test_batch_shape_validation(self):
        balls = canonical_plane().ball_a, canonical_plane().ball_b
        for weights in (np.ones((4, 3)), np.ones(2), np.ones((4, 2, 1))):
            with pytest.raises(DimensionMismatch, match=r"does not match ball dimension 2$"):
                separates_batch(weights, np.zeros(len(weights)), *balls)
            with pytest.raises(DimensionMismatch, match=r"does not match ball dimension 2$"):
                exists_separating_bias_batch(weights, *balls)
        with pytest.raises(DimensionMismatch):
            separates_batch(np.ones((4, 2)), np.zeros(5), *balls)

    def test_balls_of_different_dimensions_rejected(self):
        message = "^balls have different dimensions 2 and 3$"
        balls = Ball([-2.0, 0.0], 1.0), Ball([2.0, 0.0, 0.0], 1.0)
        for weights in (np.ones((4, 2)), np.ones((4, 3))):
            with pytest.raises(DimensionMismatch, match=message):
                separates_batch(weights, np.zeros(4), *balls)
            with pytest.raises(DimensionMismatch, match=message):
                exists_separating_bias_batch(weights, *balls)

    def test_separates_implies_bias_exists(self):
        inst = canonical_plane()
        rng = np.random.default_rng(11)
        weights = rng.standard_normal((512, 2))
        weights /= np.linalg.norm(weights, axis=1)[:, None]
        biases = rng.uniform(-2.0, 2.0, 512)
        sep = separates_batch(weights, biases, inst.ball_a, inst.ball_b)
        can = exists_separating_bias_batch(weights, inst.ball_a, inst.ball_b)
        assert not np.any(sep & ~can)

    def test_diagonal_weight_against_grid_scan(self):
        # independent check of the separating-bias interval length for a
        # tilted weight: |w.(x - c)| - (r + p) over the full bias range
        inst = canonical_plane()
        w = np.array([math.sqrt(0.5), math.sqrt(0.5)])
        assert bias_exists_one(w, inst)
        span = abs(float(w @ (inst.ball_b.center - inst.ball_a.center)))
        expected = (span - 2.0) / (2.0 * inst.bias_half_range)
        got = bias_scan_fraction(inst, w)
        assert abs(got - expected) < 2.0 / 20001 + 1e-12

    def test_steep_weight_has_no_bias(self):
        inst = canonical_plane()
        w = np.array([math.sin(0.3), math.cos(0.3)])
        # axis component sin(0.3) < sin(phi) = 0.5, so no bias works
        assert not bias_exists_one(w, inst)
        assert bias_scan_fraction(inst, w) == 0.0


class TestRigidMotionEquivariance:
    @settings(max_examples=40, deadline=None)
    @given(instances(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_geometry_is_pose_independent(self, inst, motion_seed):
        rng = np.random.default_rng(motion_seed)
        n = inst.dimension
        q_mat, r_mat = np.linalg.qr(rng.standard_normal((n, n)))
        q_mat = q_mat * np.sign(np.diag(r_mat))
        t = rng.uniform(-2.0, 2.0, n)
        moved_c = q_mat @ inst.ball_a.center + t
        moved_x = q_mat @ inst.ball_b.center + t
        k = max(np.linalg.norm(moved_c), np.linalg.norm(moved_x)) + 1.0
        moved = make_instance(
            Ball(moved_c, inst.ball_a.radius), Ball(moved_x, inst.ball_b.radius), float(k)
        )
        assert_allclose(moved.gap, inst.gap, rtol=1e-9, atol=1e-12)
        assert_allclose(moved.sin_phi, inst.sin_phi, rtol=1e-9)
        assert_allclose(moved.q_value, inst.q_value, rtol=1e-9, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(instances(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_predicate_is_pose_independent(self, inst, motion_seed):
        rng = np.random.default_rng(motion_seed)
        n = inst.dimension
        q_mat, r_mat = np.linalg.qr(rng.standard_normal((n, n)))
        q_mat = q_mat * np.sign(np.diag(r_mat))
        t = rng.uniform(-2.0, 2.0, n)
        moved_c = q_mat @ inst.ball_a.center + t
        moved_x = q_mat @ inst.ball_b.center + t
        k = max(np.linalg.norm(moved_c), np.linalg.norm(moved_x)) + 1.0
        moved = make_instance(
            Ball(moved_c, inst.ball_a.radius), Ball(moved_x, inst.ball_b.radius), float(k)
        )
        w = rng.standard_normal(n)
        if np.linalg.norm(w) < 1e-6:
            w = np.eye(n)[0]
        w = unit(w)
        b = float(rng.uniform(-k, k))
        # the plane transported by the same motion classifies identically
        # unless the offset sits within float noise of a tangency
        moved_w = q_mat @ w
        margins = [
            abs(abs(float(w @ ball.center) - b) - ball.radius)
            for ball in (inst.ball_a, inst.ball_b)
        ]
        if min(margins) > 1e-7:
            moved_b = b + float(moved_w @ t)
            assert separates_one(moved_w, moved_b, moved) == separates_one(w, b, inst)
