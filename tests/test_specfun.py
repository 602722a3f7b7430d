import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ballsep.errors import ArgumentOutOfRange, NoConvergence, NonPositiveArgument
from ballsep import specfun
from ballsep.specfun import BetaArgs, log_beta, reg_inc_beta

from _oracles import betainc_quadrature


class TestGammaBeta:
    def test_log_beta_rejects_nonpositive(self):
        for y, z in ((0.0, 1.0), (-1.5, 2.0), (1.0, 0.0), (2.0, -0.5), (math.nan, 1.0)):
            with pytest.raises(NonPositiveArgument, match="log_beta requires y, z > 0"):
                log_beta(y, z)

    def test_beta_classic_values(self):
        assert log_beta(1.0, 1.0) == 0.0
        assert_allclose(math.exp(log_beta(0.5, 0.5)), math.pi, rtol=1e-14)
        assert_allclose(math.exp(log_beta(1.0, 0.5)), 2.0, rtol=1e-14)
        # B(y, z) = (y-1)! (z-1)! / (y+z-1)! at integers
        assert_allclose(math.exp(log_beta(3.0, 4.0)), 2.0 * 6.0 / 720.0, rtol=1e-14)

    def test_log_beta_symmetry(self):
        assert log_beta(2.5, 7.0) == log_beta(7.0, 2.5)


class TestBetaArgs:
    def test_rejects_far_out_kappa(self):
        with pytest.raises(ArgumentOutOfRange):
            BetaArgs(-0.5, 1.0, 1.0)
        with pytest.raises(ArgumentOutOfRange):
            BetaArgs(1.001, 1.0, 1.0)
        with pytest.raises(ArgumentOutOfRange):
            BetaArgs(math.nan, 1.0, 1.0)

    def test_clamps_near_kappa(self):
        assert BetaArgs(-5e-15, 1.0, 1.0).kappa == 0.0
        assert BetaArgs(1.0 + 5e-15, 1.0, 1.0).kappa == 1.0

    def test_rejects_nonpositive_shapes(self):
        with pytest.raises(ArgumentOutOfRange):
            BetaArgs(0.5, 0.0, 1.0)
        with pytest.raises(ArgumentOutOfRange):
            BetaArgs(0.5, 1.0, -2.0)


class TestRegIncBeta:
    def test_endpoints_exact(self):
        assert reg_inc_beta(BetaArgs(0.0, 2.5, 0.5)) == 0.0
        assert reg_inc_beta(BetaArgs(1.0, 2.5, 0.5)) == 1.0

    def test_uniform_shape_is_identity(self):
        for kappa in (0.1, 0.25, 0.5, 0.9):
            assert_allclose(reg_inc_beta(BetaArgs(kappa, 1.0, 1.0)), kappa, rtol=1e-14)

    def test_half_half_is_arcsine(self):
        for kappa in (0.05, 0.3, 0.75, 0.99):
            want = 2.0 / math.pi * math.asin(math.sqrt(kappa))
            assert_allclose(reg_inc_beta(BetaArgs(kappa, 0.5, 0.5)), want, rtol=1e-13)

    def test_known_quarter_values(self):
        # I(0.75; 1/2, 1/2) = 2/3 and I(0.75; 1, 1/2) = 1/2 by hand
        assert_allclose(reg_inc_beta(BetaArgs(0.75, 0.5, 0.5)), 2.0 / 3.0, rtol=1e-14)
        assert_allclose(reg_inc_beta(BetaArgs(0.75, 1.0, 0.5)), 0.5, rtol=1e-14)

    def test_monotone_in_kappa(self):
        grid = np.linspace(0.0, 1.0, 201)
        for y, z in ((0.5, 0.5), (2.0, 3.0), (24.5, 0.5)):
            values = [reg_inc_beta(BetaArgs(float(k), y, z)) for k in grid]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_matches_quadrature_grid(self):
        shapes = (0.5, 1.0, 2.5, 10.0, 50.0)
        for y in shapes:
            for z in shapes:
                for kappa in (0.01, 0.2, 0.5, 0.8, 0.99):
                    want = betainc_quadrature(kappa, y, z)
                    got = reg_inc_beta(BetaArgs(kappa, y, z))
                    assert_allclose(got, want, atol=1e-10, rtol=1e-10)

    def test_large_shapes_finite(self):
        # log-space prefactor keeps huge shapes inside float range
        value = reg_inc_beta(BetaArgs(0.999, 5000.0, 0.5))
        assert 0.0 < value < 1.0

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_ITER", 2)
        with pytest.raises(NoConvergence):
            reg_inc_beta(BetaArgs(0.5, 8.0, 9.0))
