import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from ballsep.errors import ArgumentOutOfRange, NoConvergence
from ballsep import specfun
from ballsep.specfun import _kappa_logs, _reg_inc_betas, log_beta

from _oracles import betainc_quadrature


class TestGammaBeta:
    def test_log_beta_rejects_nonpositive(self):
        for y, z in ((0.0, 1.0), (-1.5, 2.0), (1.0, 0.0), (2.0, -0.5), (math.nan, 1.0)):
            with pytest.raises(ArgumentOutOfRange, match="log_beta requires y, z > 0"):
                log_beta(y, z)

    def test_beta_classic_values(self):
        assert log_beta(1.0, 1.0) == 0.0
        assert_allclose(math.exp(log_beta(0.5, 0.5)), math.pi, rtol=1e-14)
        assert_allclose(math.exp(log_beta(1.0, 0.5)), 2.0, rtol=1e-14)
        # B(y, z) = (y-1)! (z-1)! / (y+z-1)! at integers
        assert_allclose(math.exp(log_beta(3.0, 4.0)), 2.0 * 6.0 / 720.0, rtol=1e-14)

    def test_log_beta_symmetry(self):
        assert log_beta(2.5, 7.0) == log_beta(7.0, 2.5)


class TestKappaLogs:
    def test_rejects_far_out_kappa(self):
        for kappa in (-0.5, 1.001, math.nan):
            with pytest.raises(ArgumentOutOfRange, match="kappa must lie in"):
                _kappa_logs(kappa)

    def test_clamps_near_kappa(self):
        assert _kappa_logs(-5e-15) == (0.0, -math.inf, 0.0)
        assert _kappa_logs(1.0 + 5e-15) == (1.0, 0.0, -math.inf)


# kappa at and inside [0, 1], within 1e-14 outside it, where `_kappa_logs` clamps it, and
# further out, where it rejects it
_SLACK = specfun._KAPPA_SLACK
_KAPPAS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -5e-324, math.nextafter(1.0, 2.0), -_SLACK, 1.0 + _SLACK]),
    st.sampled_from([math.nextafter(-_SLACK, -1.0), math.nextafter(1.0 + _SLACK, 2.0), math.nan]),
    st.floats(0.0, 1.0),
    st.floats(-2.0 * _SLACK, 0.0),
    st.floats(1.0, 1.0 + 2.0 * _SLACK),
)


class TestKappaColumns:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_KAPPAS, max_size=12))
    def test_columns_equal_scalar_logs(self, values):
        # one column call against one float call per element
        want = []
        try:
            want += [_kappa_logs(value) for value in values]
        except ArgumentOutOfRange as scalar:
            with pytest.raises(ArgumentOutOfRange) as column:
                _kappa_logs(np.array(values))
            assert str(column.value) == str(scalar)
            return
        got = list(zip(*(column.tolist() for column in _kappa_logs(np.array(values)))))
        # repr tells -0.0 from 0.0, which == does not
        assert got == want and repr(got) == repr(want)


def _beta(kappa, y, z):
    # I(kappa; y, z) through its one entry, on floats
    return _reg_inc_betas(*_kappa_logs(kappa), y, z, log_beta(y, z))


class TestRegIncBeta:
    def test_endpoints_exact(self):
        assert _beta(0.0, 2.5, 0.5) == 0.0
        assert _beta(1.0, 2.5, 0.5) == 1.0

    def test_uniform_shape_is_identity(self):
        for kappa in (0.1, 0.25, 0.5, 0.9):
            assert_allclose(_beta(kappa, 1.0, 1.0), kappa, rtol=1e-14)

    def test_half_half_is_arcsine(self):
        for kappa in (0.05, 0.3, 0.75, 0.99):
            want = 2.0 / math.pi * math.asin(math.sqrt(kappa))
            assert_allclose(_beta(kappa, 0.5, 0.5), want, rtol=1e-13)

    def test_known_quarter_values(self):
        # I(0.75; 1/2, 1/2) = 2/3 and I(0.75; 1, 1/2) = 1/2 by hand
        assert_allclose(_beta(0.75, 0.5, 0.5), 2.0 / 3.0, rtol=1e-14)
        assert_allclose(_beta(0.75, 1.0, 0.5), 0.5, rtol=1e-14)

    def test_monotone_in_kappa(self):
        grid = np.linspace(0.0, 1.0, 201)
        for y, z in ((0.5, 0.5), (2.0, 3.0), (24.5, 0.5)):
            values = [_beta(float(k), y, z) for k in grid]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_matches_quadrature_grid(self):
        shapes = (0.5, 1.0, 2.5, 10.0, 50.0)
        for y in shapes:
            for z in shapes:
                for kappa in (0.01, 0.2, 0.5, 0.8, 0.99):
                    want = betainc_quadrature(kappa, y, z)
                    got = _beta(kappa, y, z)
                    assert_allclose(got, want, atol=1e-10, rtol=1e-10)

    def test_large_shapes_finite(self):
        # log-space prefactor keeps huge shapes inside float range
        value = _beta(0.999, 5000.0, 0.5)
        assert 0.0 < value < 1.0

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_ITER", 2)
        with pytest.raises(NoConvergence):
            _beta(0.5, 8.0, 9.0)


# sweep's incomplete betas: I(cos^2 phi; (n-1)/2, 1/2) over n = 2 .. 10^5 and
# sin phi = 1e-9 .. 1 - 1e-8; 1e-9 rounds q to 1.0, and both branches occur
SWEEP_DIMS = sorted(
    {*range(2, 301), *range(19990, 20001), 10**5}
    | {int(n) for n in np.geomspace(300, 10**5, 60)}
)
SWEEP_SINES = (1e-9, 1e-8, 1e-4, 1e-2, 0.05, 0.2, 0.5, 0.8, 0.95, 0.999, 1.0 - 1e-8)


def _cell(kappa, y, z):
    # a `_reg_inc_betas` row: kappa and the logs a sweep hoists (not read
    # at kappa 0 or 1), then the shapes and log B
    logs = (math.log(kappa), math.log1p(-kappa)) if 0.0 < kappa < 1.0 else (math.nan, math.nan)
    return (kappa, *logs, y, z, log_beta(y, z))


def _columns(cells):
    # the six float64 argument columns of `_reg_inc_betas`, one row per cell
    return np.array(cells, dtype=float).reshape(-1, 6).T


def _sweep_cells():
    return [
        _cell(1.0 - s * s, 0.5 * (n - 1), 0.5) for n in SWEEP_DIMS for s in SWEEP_SINES
    ]


class TestArrayKernel:
    def test_cells_equal_scalar_bits(self):
        # one column call against one float call per row
        cells = _sweep_cells()
        want = [specfun._reg_inc_betas(*cell) for cell in cells]
        assert specfun._reg_inc_betas(*_columns(cells)).tolist() == want
        inside = [c for c in cells if 0.0 < c[0] < 1.0]
        reflected = [y for q, _, _, y, z, _ in inside if not q < (y + 1.0) / (y + z + 2.0)]
        assert 0 < len(reflected) < len(inside)
        assert any(c[0] == 1.0 for c in cells)

    def test_fractions_equal_scalar_kernel(self):
        rng = np.random.default_rng(5)
        a = np.exp(rng.uniform(math.log(0.1), math.log(1e5), 3000))
        b = np.exp(rng.uniform(math.log(0.1), math.log(1e5), 3000))
        # x below the symmetry point (a + 1)/(a + b + 2), where the fraction converges
        x = rng.uniform(0.0, 1.0, 3000) * (a + 1.0) / (a + b + 2.0)
        got = specfun._lentz_fractions(a, b, x).tolist()
        want = [specfun._lentz_fraction(*cell) for cell in zip(a.tolist(), b.tolist(), x.tolist())]
        assert got == want

    def test_first_denominator_of_zero_is_guarded(self):
        # I(q; (n - 1)/2, 1/2) at n = 2^30 and sin phi = 5.285799583645255e-05: 1 - q rounds
        # so that x = 1 - q lies past (a + 1)/(a + b + 2) on the reflected branch, and the
        # first Lentz denominator 1 - (a + b) x / (a + 1) is exactly 0, which _CF_TINY replaces
        cell = _cell(0.9999999972060323, (2**30 - 1) / 2, 0.5)
        _, a, b, x, direct = specfun._fraction_setup(*cell)
        assert not direct and 1.0 - (a + b) * x / (a + 1.0) == 0.0
        value = _reg_inc_betas(*cell)
        assert math.isfinite(value)
        assert _reg_inc_betas(*_columns([cell] * 40)).tolist() == [value] * 40
        # mpmath's betainc at 50 digits; the error left is log B's at this n
        assert_allclose(value, 0.0832645166635504, rtol=1e-5, atol=0)

    def test_no_cells(self):
        assert specfun._reg_inc_betas(*_columns([])).shape == (0,)
        assert specfun._lentz_fractions(*np.empty((3, 0))).shape == (0,)

    def test_endpoints_are_exact(self):
        cells = [_cell(0.0, 2.0, 0.5), _cell(1.0, 2.0, 0.5)]
        assert specfun._reg_inc_betas(*_columns(cells)).tolist() == [0.0, 1.0]

    def test_iteration_cap_names_first_unconverged_cell(self, monkeypatch):
        # the cap is read at call time; the first cell converges in one step,
        # the second is reflected
        cells = [(1e-12, 4.0, 0.5), (0.5, 8.0, 9.0), (0.3, 2.0, 3.0)]
        monkeypatch.setattr(specfun, "_MAX_ITER", 2)
        with pytest.raises(NoConvergence) as scalar:
            specfun._reg_inc_betas(*_cell(*cells[1]))
        with pytest.raises(NoConvergence) as array:
            specfun._reg_inc_betas(*_columns([_cell(*c) for c in cells]))
        assert str(array.value) == str(scalar.value)
        assert "did not converge in 2 iterations (x=0.5, a=9.0, b=8.0)" in str(array.value)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.integers(1, 100), st.just(1024)), st.integers(0, 2**32 - 1))
    def test_tail_handoff_keeps_scalar_bits(self, size, seed):
        # sizes around the 32 cells the scalar kernel finishes, and past them; x up to just
        # below the symmetry point, where cells take the most steps, so they converge apart
        rng = np.random.default_rng(seed)
        a, b = np.exp(rng.uniform(math.log(0.1), math.log(1e4), (2, size)))
        x = (1.0 - 10.0 ** -rng.uniform(0.0, 6.0, size)) * (a + 1.0) / (a + b + 2.0)
        got = specfun._lentz_fractions(a, b, x).tolist()
        want = [specfun._lentz_fraction(*cell) for cell in zip(a.tolist(), b.tolist(), x.tolist())]
        assert list(map(repr, got)) == list(map(repr, want))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 400),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
        st.one_of(st.none(), st.integers(1, 40)),
    )
    def test_converged_cells_iterate_on_across_compactions(self, size, fast, seed, cap):
        # fast cells (one or two steps) among slow ones (up to about 40) in one array: a fast
        # cell converges while the slow ones keep the live set from compacting, and iterates
        # on until they do; every cell keeps the scalar's bits, and under a cap the error is
        # the scalar's for the first cell that does not converge, in the array part or the tail
        rng = np.random.default_rng(seed)
        a, b = np.exp(rng.uniform(math.log(0.1), math.log(1e4), (2, size)))
        slow = rng.random(size) >= fast
        below = np.where(slow, 1.0 - 10.0 ** -rng.uniform(0.0, 8.0, size), 1e-12)
        x = below * (a + 1.0) / (a + b + 2.0)
        cells = list(zip(a.tolist(), b.tolist(), x.tolist()))
        with pytest.MonkeyPatch.context() as patch:
            if cap is not None:
                patch.setattr(specfun, "_MAX_ITER", cap)
            try:
                want = [specfun._lentz_fraction(*cell) for cell in cells]
            except NoConvergence as scalar:
                with pytest.raises(NoConvergence) as array:
                    specfun._lentz_fractions(a, b, x)
                assert str(array.value) == str(scalar)
                return
            got = specfun._lentz_fractions(a, b, x).tolist()
        assert list(map(repr, got)) == list(map(repr, want))

    # cells converging in 1, 9 and 24 steps; a cap of 23 stops the last one step short
    _FAST, _SLOWER, _SLOWEST = (4.0, 0.5, 1e-12), (8.0, 9.0, 0.45), (100.0, 100.0, 0.495)

    @pytest.mark.parametrize(
        "cells, cap, first",
        [
            # 8 cells converge at the first step and leave 32 to the scalar kernel, which
            # finishes cell 8 and reaches the cap on cell 9
            ([_FAST] * 8 + [_SLOWER, _SLOWEST] * 16, 23, 9),
            # 37 cells are still live in the array kernel when it reaches the cap
            ([_FAST] * 3 + [_SLOWEST] * 37, 23, 3),
        ],
        ids=["in the scalar tail", "in the array part"],
    )
    def test_iteration_cap_in_the_tail_and_the_array(self, monkeypatch, cells, cap, first):
        monkeypatch.setattr(specfun, "_MAX_ITER", cap)
        with pytest.raises(NoConvergence) as scalar:
            specfun._lentz_fraction(*cells[first])
        for cell in cells[:first]:
            specfun._lentz_fraction(*cell)
        with pytest.raises(NoConvergence) as array:
            specfun._lentz_fractions(*np.array(cells).T)
        assert str(array.value) == str(scalar.value)
        assert f"did not converge in {cap} iterations (x={cells[first][2]!r}," in str(array.value)
