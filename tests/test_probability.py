import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from ballsep import geometry, probability
from ballsep.errors import BallsepError, InternalConsistencyError
from ballsep.geometry import Ball, make_instance, symmetric_instance
from ballsep.probability import (
    SeparationReport,
    asymptotic_envelope,
    lemma_bounds,
    p_fully_random,
    p_random_bias,
    p_random_weight,
    separation_report,
)
from ballsep.specfun import _kappa_logs

from _oracles import betainc_quadrature


def canonical_plane():
    return make_instance(Ball([-2.0, 0.0], 1.0), Ball([2.0, 0.0], 1.0), 2.0)


def canonical_space():
    return make_instance(Ball([0.0, 0.0, 0.0], 1.0), Ball([4.0, 0.0, 0.0], 1.0), 4.0)


class TestClosedForms:
    def test_canonical_plane_values(self):
        inst = canonical_plane()
        assert p_random_bias(inst) == 0.5
        assert_allclose(p_random_weight(inst), 2.0 / 3.0, rtol=1e-13)
        assert_allclose(p_fully_random(inst), math.sqrt(3.0) / math.pi - 1.0 / 3.0, rtol=1e-13)

    def test_canonical_space_values(self):
        inst = canonical_space()
        assert p_random_bias(inst) == 0.25
        assert_allclose(p_random_weight(inst), 0.5, rtol=1e-13)
        assert abs(p_fully_random(inst) - 0.0625) < 1e-14

    def test_plane_weight_reduces_to_arcsin(self):
        for s in (0.05, 0.2, 0.5, 0.77, 0.95):
            inst = symmetric_instance(2, s)
            want = 1.0 - 2.0 * math.asin(s) / math.pi
            assert_allclose(p_random_weight(inst), want, atol=1e-10)

    def test_space_closed_forms(self):
        for s in (0.05, 0.2, 0.5, 0.77, 0.95):
            inst = symmetric_instance(3, s, k_factor=1.5)
            assert_allclose(p_random_weight(inst), 1.0 - s, atol=1e-12)
            want_full = inst.center_distance * (1.0 - s) ** 2 / (4.0 * inst.bias_half_range)
            assert_allclose(p_fully_random(inst), want_full, atol=1e-12)

    def test_bias_probability_is_gap_over_range(self):
        inst = make_instance(Ball([-3.0, 0.0], 0.5), Ball([3.0, 0.0], 1.5), 10.0)
        assert p_random_bias(inst) == inst.gap / 20.0

    def test_bias_and_full_survive_an_overflowing_range(self):
        # 2k overflows at k = 1e308, but gap/(2k) = 1e-308 is a double
        inst = make_instance(Ball([-1.0, 0.0], 1.0), Ball([3.0, 0.0], 1.0), 1e308)
        assert p_random_bias(inst) == 1e-308
        assert 0.0 < p_fully_random(inst) < p_random_bias(inst)

    def test_weight_matches_quadrature(self):
        for n in (2, 3, 7, 20, 51):
            for s in (0.3, 0.5, 0.8):
                inst = symmetric_instance(n, s)
                want = betainc_quadrature(inst.q_value, 0.5 * (n - 1), 0.5)
                assert_allclose(p_random_weight(inst), want, atol=1e-10)

    def test_monotone_in_gap_at_fixed_range(self):
        k = 25.0
        probs = []
        for delta in np.geomspace(0.01, 10.0, 25):
            dist = 2.0 + delta
            inst = make_instance(
                Ball([-0.5 * dist, 0.0, 0.0, 0.0], 1.0),
                Ball([0.5 * dist, 0.0, 0.0, 0.0], 1.0),
                k,
            )
            probs.append(
                (p_random_bias(inst), p_random_weight(inst), p_fully_random(inst))
            )
        for later, earlier in zip(probs[1:], probs[:-1]):
            assert later[0] > earlier[0]
            assert later[1] > earlier[1]
            assert later[2] > earlier[2]

    def test_extreme_instances_stay_in_range(self):
        narrow = symmetric_instance(500, 0.999)
        for fn in (p_random_bias, p_random_weight, p_fully_random):
            value = fn(narrow)
            assert 0.0 <= value <= 1.0
        assert p_fully_random(narrow) <= p_random_weight(narrow)
        assert p_fully_random(narrow) <= p_random_bias(narrow)

    def test_wide_gap_limit_saturates_weight(self):
        # gap huge relative to the radii: almost every direction admits a cut
        far = symmetric_instance(3, 1e-9)
        assert p_random_weight(far) == pytest.approx(1.0, abs=1e-8)

    def test_vanishing_gap_limits(self):
        # gap shrinking to zero kills both the bias and the joint probability
        for delta in (1e-3, 1e-6, 1e-9):
            dist = 2.0 + delta
            inst = make_instance(
                Ball([0.0, 0.0, 0.0], 1.0), Ball([dist, 0.0, 0.0], 1.0), 8.0
            )
            assert 0.0 < p_random_bias(inst) <= delta
            assert 0.0 < p_fully_random(inst) < p_random_bias(inst)
        assert p_fully_random(inst) < 1e-10


class TestLemmaBounds:
    def test_reference_triples(self):
        lower, mid, upper = lemma_bounds(math.pi / 6.0, 3)
        assert_allclose((lower, mid, upper), (0.25, 0.375, 0.5), rtol=1e-13)
        lower, mid, upper = lemma_bounds(math.pi / 4.0, 2)
        assert_allclose(
            (lower, mid, upper),
            (0.25 * math.sqrt(2.0), math.sqrt(2.0) / math.pi, 0.5),
            rtol=1e-13,
        )

    def test_sandwich_holds_on_small_grid(self):
        for n in (2, 3, 4, 10, 40):
            for alpha in np.linspace(0.05, 1.5, 30):
                lower, mid, upper = lemma_bounds(float(alpha), n)
                assert lower <= mid + 1e-12
                assert mid <= upper + 1e-12

    def test_domain_validation(self):
        for alpha in (0.0, math.pi / 2.0):
            with pytest.raises(BallsepError, match=r"^alpha must lie strictly in \(0, pi/2\)"):
                lemma_bounds(alpha, 3)
        with pytest.raises(BallsepError, match=r"^dimension must be an integer .*, got 1$"):
            lemma_bounds(0.5, 1)


class TestEnvelope:
    def test_small_dimension_values(self):
        assert_allclose(asymptotic_envelope(2), 2.0 / math.pi, rtol=1e-14)
        assert_allclose(asymptotic_envelope(3), 0.5, rtol=1e-14)

    def test_tracks_inverse_sqrt_decay(self):
        for n in (200, 350, 500):
            ratio = asymptotic_envelope(n) / math.sqrt(2.0 / (math.pi * n))
            assert 0.99 < ratio < 1.01

    def test_monotone_decreasing(self):
        values = [asymptotic_envelope(n) for n in range(2, 120)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_equals_leading_coefficient(self):
        # same number as 1 / (a B(a, 1/2)) with a = (n-1)/2
        from ballsep.specfun import log_beta

        for n in (2, 3, 9, 33):
            a = 0.5 * (n - 1)
            coeff = math.exp(-math.log(a) - log_beta(a, 0.5))
            assert_allclose(asymptotic_envelope(n), coeff, rtol=1e-13)

    def test_rejects_small_dimension(self):
        with pytest.raises(BallsepError, match=r"^dimension must be an integer .*, got 1$"):
            asymptotic_envelope(1)


# what the closed forms and symmetric_instance take as a dimension: an int or numpy integer
# from 2 to 2**30, and nothing else
_BAD_DIMENSIONS = {
    "one": (1, "1"),
    "zero": (0, "0"),
    "negative": (-5, "-5"),
    "numpy one": (np.int64(1), "np.int64(1)"),
    "past the bound": (2**30 + 1, "1073741825"),
    "numpy past the bound": (np.int64(2**53), "np.int64(9007199254740992)"),
    "past a double": (10**400, str(10**400)),
    "half-integer": (2.5, "2.5"),
    "integral float": (3.0, "3.0"),
    "numpy float": (np.float64(3), "np.float64(3.0)"),
    "nan": (math.nan, "nan"),
    "inf": (math.inf, "inf"),
    "string": ("7", "'7'"),
    "bool": (True, "True"),
    "numpy bool": (np.True_, "np.True_"),
    "unhashable": ([3], "[3]"),
}
_DIMENSION_TAKERS = [
    functools.partial(lemma_bounds, 0.4),
    asymptotic_envelope,
    functools.partial(symmetric_instance, sin_phi=0.5),
]


class TestDimension:
    @pytest.mark.parametrize("value, shown", _BAD_DIMENSIONS.values(), ids=_BAD_DIMENSIONS)
    @pytest.mark.parametrize("closed_form", _DIMENSION_TAKERS)
    def test_rejects(self, closed_form, value, shown):
        with pytest.raises(BallsepError) as error:
            closed_form(value)
        assert str(error.value) == f"dimension must be an integer from 2 to 2**30, got {shown}"

    def test_accepts_numpy_integers(self):
        for n in (np.int64(7), np.uint8(7), np.int32(7)):
            assert lemma_bounds(0.4, n) == lemma_bounds(0.4, 7)
            assert asymptotic_envelope(n) == asymptotic_envelope(7)

    @pytest.mark.parametrize("n", [2**30, np.int64(2**30)])
    def test_evaluates_at_the_bound(self, n):
        # large-n forms, each within 1e-9 of the true value here: the envelope is about
        # sqrt(2 / (pi n)), I(cos^2 alpha; a, 1/2) about erfc(sqrt(-a log cos^2 alpha)) and
        # the middle term cos^(n-1)(alpha) times the envelope; at the bound the closed forms
        # meet them to a few parts in a million
        alpha, a = 2.0**-15, 0.5 * (2**30 - 1)
        log_kappa = math.log1p(-math.sin(alpha) ** 2)
        envelope = math.sqrt(2.0 / (math.pi * 2**30))
        assert_allclose(asymptotic_envelope(n), envelope, rtol=5e-6)
        lower, mid, upper = lemma_bounds(alpha, n)
        assert_allclose(upper, math.erfc(math.sqrt(-a * log_kappa)), rtol=5e-6)
        assert_allclose(mid, math.exp(a * log_kappa) * envelope, rtol=5e-6)
        assert 0.0 < lower <= mid <= upper < 1.0


class TestReport:
    def test_report_matches_functions(self):
        inst = canonical_plane()
        report = separation_report(inst)
        assert report.p_random_bias == p_random_bias(inst)
        assert report.p_random_weight == p_random_weight(inst)
        assert report.p_fully_random == p_fully_random(inst)

    def test_report_rejects_out_of_range(self, monkeypatch):
        # each probability is range-checked where it is computed; a valid
        # instance has gap < 2 k, so this one is built with a pair check that
        # lets a bias range below its floor through
        with monkeypatch.context() as patch:
            patch.setattr(geometry, "_pair_checks", lambda c, r, x, p, k: (4.0, k))
            short = make_instance(Ball([-2.0, 0.0], 0.5), Ball([2.0, 0.0], 0.5), 1.0)
        with pytest.raises(InternalConsistencyError, match="random-bias probability = 1.5"):
            separation_report(short)
        monkeypatch.setattr(probability, "_reg_inc_betas", lambda *args: 1.5)
        with pytest.raises(InternalConsistencyError, match="random-weight probability = 1.5"):
            separation_report(canonical_plane())
        monkeypatch.setattr(probability, "_reg_inc_betas", lambda *args: 1.0 + 1e-13)
        assert separation_report(canonical_plane()).p_random_weight == 1.0
        # a probability that is not a number is a bug too, on floats and on columns
        for values in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(InternalConsistencyError, match="^p = nan is not a number$"):
                probability._check_unit_interval(values, "p")

    def test_report_rejects_broken_ordering(self):
        with pytest.raises(InternalConsistencyError):
            SeparationReport(0.5, 0.3, 0.4)
        with pytest.raises(InternalConsistencyError):
            SeparationReport(0.1, 0.6, 0.4)


class TestSignificantlySmaller:
    """How much less often a fully random plane separates than a partly random one.

    With scale = |c - x| / (2k) and bracket = q^a / (a B(a, 1/2)) - sin(phi) I(q; a, 1/2),
    the fully random form is scale * bracket, so against random bias it loses a factor
    exponential in n and against random weight a factor of order n:
    * p_full / p_bias = bracket / (1 - sin phi), exactly, as the gap is |c - x|(1 - sin phi);
    * p_full / p_weight tends to scale cos^2(phi) / ((n - 1) sin phi) from below, short of it
      by a relative amount in (0, 2 / (n sin^2 phi)].
    """

    @staticmethod
    def cells():
        # the grid cells where neither p_weight nor p_full underflows past 1e-300
        cells = []
        for n in (10, 10**2, 10**3, 10**4, 10**5):
            for s in (0.1, 0.5, 0.9):
                inst = symmetric_instance(n, s)
                report = separation_report(inst)
                if min(report.p_random_weight, report.p_fully_random) >= 1e-300:
                    cells.append((n, inst, report))
        return cells

    @staticmethod
    def exact(n, inst):
        # (I(q; a, 1/2), bracket) at 50 digits, of the instance's own sin phi
        with mpmath.workdps(50):
            sin = mpmath.mpf(inst.sin_phi)
            q, a = 1 - sin**2, mpmath.mpf(n - 1) / 2
            beta = mpmath.betainc(a, 0.5, 0, q, regularized=True)
            return beta, q**a / (a * mpmath.beta(a, 0.5)) - sin * beta

    def test_ten_cells_are_in_range(self):
        cells = self.cells()
        assert [(n, round(inst.sin_phi, 12)) for n, inst, _ in cells] == [
            (10, 0.1), (10, 0.5), (10, 0.9), (100, 0.1), (100, 0.5), (100, 0.9),
            (1000, 0.1), (1000, 0.5), (10**4, 0.1), (10**5, 0.1),
        ]

    def test_against_random_bias(self):
        for n, inst, report in self.cells():
            _, bracket = self.exact(n, inst)
            want = float(bracket / (1 - mpmath.mpf(inst.sin_phi)))
            assert_allclose(report.p_fully_random / report.p_random_bias, want, rtol=1e-9)

    def test_against_random_weight(self):
        # measured n sin^2(phi) x shortfall: 0.080 at (10, 0.1) up to 1.990 at (10^5, 0.1)
        for n, inst, report in self.cells():
            s, scale = inst.sin_phi, inst.center_distance / (2.0 * inst.bias_half_range)
            law = scale * inst.q_value / ((n - 1) * s)
            beta, bracket = self.exact(n, inst)
            with mpmath.workdps(50):
                exact = 1 - (bracket / beta) / ((1 - mpmath.mpf(s) ** 2) / ((n - 1) * mpmath.mpf(s)))
            for shortfall in (1.0 - report.p_fully_random / report.p_random_weight / law, exact):
                assert 0.0 < shortfall <= 2.0 / (n * s * s), (n, s, shortfall)


def _general_pose(rng, n, sin_phi):
    r, p = (float(v) for v in rng.uniform(0.5, 2.0, size=2))
    axis = rng.standard_normal(n)
    axis /= np.linalg.norm(axis)
    c = rng.standard_normal(n) * (r + p) / (sin_phi * math.sqrt(n))
    x = c + (r + p) / sin_phi * axis
    k = max(np.linalg.norm(c), np.linalg.norm(x)) * float(rng.uniform(1.0, 2.0))
    return make_instance(Ball(c, r), Ball(x, p), float(k))


# (n, sin_phi, p_bias, p_weight, p_full) of _general_pose(default_rng([n, 17]), n, s)
# for s = 0.01, 0.05, 0.3 in turn, as evaluated by one incomplete beta per
# closed form; the shared evaluation must reproduce them bit for bit
_POSED_REPORTS = [
    (2, 0.01, 0.2494505711926243, 0.9936336961682543, 0.15789757622439252),
    (2, 0.05, 0.20355300219425332, 0.9681557335266796, 0.1258634020168315),
    (2, 0.3, 0.187968927830562, 0.8060266319586434, 0.09814356314205847),
    (3, 0.01, 0.21705775689879606, 0.9900000000000005, 0.10744358966490399),
    (3, 0.05, 0.2995356061194624, 0.9500000000000005, 0.14227941290674453),
    (3, 0.3, 0.47428888034681654, 0.7000000000000002, 0.1660011081213856),
    (50, 0.01, 0.24681847662183554, 0.9444757928143717, 0.025848927855547977),
    (50, 0.05, 0.1905256590295851, 0.7275118217243279, 0.014095326887086803),
    (50, 0.3, 0.16270759886826008, 0.032447778616748184, 0.00035222823859783057),
    (10000, 0.01, 0.3249074956139283, 0.3173347067560325, 0.0005468650658970089),
    (10000, 0.05, 0.21609401397819977, 5.651703684767444e-07, 2.391845502841234e-10),
    (10000, 0.3, 0.21848629772315964, 4.4857245454830933e-207, 4.238001554735638e-211),
]


class TestSharedIncompleteBeta:
    def test_report_evaluates_the_beta_once(self, monkeypatch):
        calls = []

        original = probability._reg_inc_betas

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(probability, "_reg_inc_betas", counted)
        report = separation_report(canonical_space())
        assert len(calls) == 1
        assert report.p_random_weight == original(*calls[0])

    @pytest.mark.parametrize("n", [2, 3, 50, 10**4])
    def test_general_pose_values_unchanged(self, n):
        rng = np.random.default_rng([n, 17])
        for row in (row for row in _POSED_REPORTS if row[0] == n):
            inst = _general_pose(rng, n, row[1])
            report = separation_report(inst)
            got = (report.p_random_bias, report.p_random_weight, report.p_fully_random)
            assert got == row[2:]
            assert got == (p_random_bias(inst), p_random_weight(inst), p_fully_random(inst))


_ROW_DIMS = sorted(
    {*range(2, 301), *range(19990, 20001), 10**5}
    | {int(n) for n in np.geomspace(300, 10**5, 60)}
)
_ROW_SINES = (1e-9, 1e-8, 1e-4, 1e-2, 0.05, 0.2, 0.5, 0.8, 0.95, 0.999, 1.0 - 1e-8)


def _report_rows(rows):
    # `_report` of the (`_shape(n)`, `_gap(inst)`) rows as one column call, with its ordering
    # checked, one (p_bias, p_weight, p_full) tuple per row
    columns = np.array([(*shape, *gap) for shape, gap in rows], dtype=float).reshape(-1, 9).T
    report = probability._report(columns[:3], columns[3:])
    probability._check_ordering(*report)
    return list(zip(*(column.tolist() for column in report)))


def _float_rows(rows):
    # the same rows, one float call of `_report` each, with its ordering checked
    reports = [probability._report(shape, gap) for shape, gap in rows]
    for report in reports:
        probability._check_ordering(*report)
    return reports


def _rows(dims, instances):
    # the rows of sweep: one shape per dimension and one gap per instance, n-major
    shapes = [probability._shape(n) for n in dims]
    gaps = [probability._gap(inst) for inst in instances]
    return _report_rows([(shape, gap) for shape in shapes for gap in gaps])


class TestReportRows:
    def test_rows_equal_scalar_reports(self):
        # one row per (n, instance), n-major, as sweep prints them
        planar = [symmetric_instance(2, s) for s in _ROW_SINES]
        rows = _rows(_ROW_DIMS, planar)
        cells = [(n, s) for n in _ROW_DIMS for s in _ROW_SINES]
        shape = functools.cache(probability._shape)
        want = [(shape(n), probability._gap(symmetric_instance(n, s))) for n, s in cells]
        assert rows == _float_rows(want)
        assert any(inst.q_value == 1.0 for inst in planar)

    @pytest.mark.parametrize("n", [2, 3, 50, 1000, 19995, 10**5])
    def test_rows_equal_separation_report(self, n):
        # an n-dimensional symmetric instance has the planar one's geometry
        planar = [symmetric_instance(2, s) for s in _ROW_SINES]
        for inst, row in zip(planar, _rows([n], planar)):
            spread = symmetric_instance(n, inst.sin_phi)
            assert (spread.q_value, spread.sin_phi) == (inst.q_value, inst.sin_phi)
            report = separation_report(spread)
            assert row == (report.p_random_bias, report.p_random_weight, report.p_fully_random)

    def test_rows_are_checked(self, monkeypatch):
        inst = canonical_plane()
        monkeypatch.setattr(probability, "_reg_inc_betas", lambda q, *_: np.full(q.shape, 1.5))
        with pytest.raises(InternalConsistencyError, match="random-weight probability = 1.5"):
            _rows([2, 3], [inst])
        near = 1.0 + 1e-13
        monkeypatch.setattr(probability, "_reg_inc_betas", lambda q, *_: np.full(q.shape, near))
        assert [row[1] for row in _rows([2], [inst])] == [1.0]
        # a fully random probability above the random-weight one breaks the ordering
        monkeypatch.setattr(probability, "_reg_inc_betas", lambda q, *_: np.zeros(q.shape))
        with pytest.raises(InternalConsistencyError, match="exceeds random-weight"):
            _rows([2], [inst])


def _gap_of(q, scale):
    # a `_gap` row of q, which `_kappa_logs` clamps, with sin phi = sqrt(1 - q) and
    # p_bias = scale (1 - sin phi), as a symmetric instance has
    kappa, ln_q, ln_comp = _kappa_logs(q)
    sin_phi = math.sqrt(1.0 - kappa)
    return kappa, ln_q, ln_comp, sin_phi, scale, scale * (1.0 - sin_phi)


_DIMENSION = st.floats(math.log(2.0), math.log(1e6)).map(lambda u: round(math.exp(u)))
# q exactly 0 or 1, and within 1e-14 outside [0, 1], where `_kappa_logs` clamps it
_ENDS = (0.0, 1.0, -1e-14, -5e-324, 1.0 + 1e-14, math.nextafter(1.0, 2.0))


@st.composite
def _grids(draw):
    """(dims, gaps): contiguous or scattered dimensions from 2 to about 10^6, and
    gaps whose q lies on both sides of the branch point, at 0 and 1 and past them."""
    if draw(st.booleans()):
        start = draw(_DIMENSION)
        dims = list(range(start, start + draw(st.integers(1, 30))))
    else:
        dims = sorted(draw(st.sets(_DIMENSION, min_size=1, max_size=6)))
    a = 0.5 * (draw(st.sampled_from(dims)) - 1)
    branch = (a + 1.0) / (a + 2.5)  # I(q; a, 1/2) reflects from here up

    def near_branch(ulps):
        q = branch
        for _ in range(abs(ulps)):
            q = math.nextafter(q, math.copysign(2.0, ulps))
        return q

    sines = st.floats(math.log(1e-9), math.log(1.0 - 1e-9)).map(lambda u: 1.0 - math.exp(u) ** 2)
    qs = st.one_of(sines, st.sampled_from(_ENDS), st.integers(-3, 3).map(near_branch))
    gaps = draw(st.lists(st.builds(_gap_of, qs, st.floats(0.05, 1.0)), min_size=1, max_size=6))
    return dims, gaps


class TestColumnCore:
    @settings(max_examples=60, deadline=None)
    @given(_grids())
    def test_grid_equals_scalar_rows(self, grid):
        # sweep's grid, n-major, through the block evaluator sweep and the validate chain
        # call, and the same rows as columns of `_shape` and `_gap`
        dims, gaps = grid
        rows = [(probability._shape(n), gap) for n in dims for gap in gaps]
        want = _float_rows(rows)
        cells = np.repeat(dims, len(gaps)), np.tile(np.array(gaps).T, len(dims))
        shape, report, envelopes = probability._closed_forms(*cells)
        probability._check_ordering(*report)
        assert list(zip(*(column.tolist() for column in report))) == want
        assert list(zip(*(column.tolist() for column in shape))) == [shape for shape, _ in rows]
        assert envelopes.tolist() == [asymptotic_envelope(n) for n in dims for _ in gaps]
        assert _report_rows(rows) == want

    # I(q; a, 1/2) moved on the rows with sin phi above 1/2, on floats and columns: past 1,
    # to 1, which makes p_full negative, and to 0, which puts p_full above it
    BROKEN = {
        "random-weight probability = 1.5 exceeds 1": lambda beta, s: beta + (s > 0.5) * (1.5 - beta),
        "fully random probability = .* is negative": lambda beta, s: beta + (s > 0.5) * (1.0 - beta),
        "exceeds random-weight probability": lambda beta, s: beta * (s <= 0.5),
    }

    @pytest.mark.parametrize("fault", list(BROKEN))
    def test_broken_row_raises_the_scalar_error(self, monkeypatch, fault):
        move, beta = self.BROKEN[fault], probability._reg_inc_betas
        # (1 - q) ** 0.5 is sin phi on a float and on a column
        monkeypatch.setattr(
            probability, "_reg_inc_betas", lambda q, *rest: move(beta(q, *rest), (1.0 - q) ** 0.5)
        )
        instances = [symmetric_instance(n, s) for n in (2, 7, 300) for s in (0.2, 0.4, 0.6, 0.9)]
        rows = [(probability._shape(inst.dimension), probability._gap(inst)) for inst in instances]
        with pytest.raises(InternalConsistencyError, match=fault) as scalar:
            _float_rows(rows)
        with pytest.raises(InternalConsistencyError) as column:
            _report_rows(rows)
        assert str(column.value) == str(scalar.value)
        with pytest.raises(InternalConsistencyError) as report:
            for inst in instances:
                separation_report(inst)
        assert str(report.value) == str(scalar.value)

    def test_out_of_range_incomplete_beta_raises_the_scalar_error(self, monkeypatch):
        # q rounds to 1, so I = 1; the first value past the slack is named
        values = np.array([1.0, 1.0 + 5e-13, 1.0 + 3e-12, 1.5])
        monkeypatch.setattr(probability, "_reg_inc_betas", lambda q, *_: values[: q.size])
        with pytest.raises(InternalConsistencyError) as scalar:
            probability._check_unit_interval(1.0 + 3e-12, "random-weight probability")
        with pytest.raises(InternalConsistencyError) as column:
            _rows([2], [symmetric_instance(2, 1e-9)] * 4)
        assert str(column.value) == str(scalar.value)
        assert str(scalar.value) == "random-weight probability = 1.000000000003 exceeds 1"


class TestLogBetaOncePerDimension:
    # log B(a, 1/2) is lgamma at a and a + 1/2 and the constant log Gamma(1/2);
    # each dimension takes it once and hands it to both the incomplete beta and
    # the first term q^a / (a B(a, 1/2))
    @pytest.fixture
    def lgammas(self, monkeypatch):
        calls = []
        original = math.lgamma

        def counted(x):
            calls.append(x)
            return original(x)

        monkeypatch.setattr(math, "lgamma", counted)
        return calls

    def test_separation_report(self, lgammas):
        separation_report(canonical_space())
        assert len(lgammas) == 2

    def test_lemma_bounds(self, lgammas):
        lemma_bounds(0.4, 7)
        assert len(lgammas) == 2

    def test_report_rows(self, lgammas):
        dims, planar = [2, 3, 50, 1000], [symmetric_instance(2, s) for s in _ROW_SINES]
        _rows(dims, planar)
        assert len(lgammas) == 2 * len(dims)
