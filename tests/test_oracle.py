import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmc_sde.models import ClarkCameronModel, Payoff
from mlmc_sde.oracle import cc_exact_usq_mean, znv_second_moment
from mlmc_sde.calibrate import square_moments
from mlmc_sde.schemes import LevelSampler, sample_many


class TestZnvSecondMoment:
    def test_spot_values(self):
        # exact rationals: 131/256 at level 1 and 13/32 when the drift vanishes
        assert znv_second_moment(1, 1.0, 1.0) == 131.0 / 256.0
        assert znv_second_moment(1, 0.0, 1.0) == 13.0 / 32.0
        assert znv_second_moment(2, 1.0, 1.0) == 323.0 / 4096.0

    def test_returns_a_float(self):
        # a plain float, also where the exact value rounds to inf
        for value in (znv_second_moment(3), znv_second_moment(1, 1e100, 1.0)):
            assert type(value) is float

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            znv_second_moment(0)

    def test_overflow_rounds_to_inf(self):
        assert znv_second_moment(1, 1e100, 1.0) == math.inf

    @given(mu=st.floats(0.0, 4.0), horizon=st.floats(0.25, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_asymptotic_ratio_one_quarter(self, mu, horizon):
        # the 2^{-2l} group dominates, so successive levels shrink fourfold
        hi = znv_second_moment(24, mu, horizon)
        lo = znv_second_moment(25, mu, horizon)
        assert lo / hi == pytest.approx(0.25, rel=1e-4)

    @given(level=st.integers(1, 8))
    @settings(max_examples=8, deadline=None)
    def test_polynomial_in_quarter(self, level):
        # Y(l) = A 16^-l + B 8^-l + C 4^-l with the hard-coded coefficient groups
        a = 3.0 / 16.0 + 1.0
        b = 0.25 + 2.0
        c = 5.0 / 8.0
        expected = a * 16.0**-level + b * 8.0**-level + c * 4.0**-level
        assert znv_second_moment(level, 1.0, 1.0) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.slow
    @pytest.mark.parametrize("mu", [0.0, 4.0])
    def test_monte_carlo_cross_validation(self, mu):
        # the mu = 1 sweep at M = 10^6 lives in the acceptance suite
        model = ClarkCameronModel(mu=mu)
        sampler = LevelSampler(model, Payoff("u-squared"), "nv")
        for level in range(1, 6):
            sample = sample_many(sampler, level, 250_000, seed=314, experiment=900 + level)
            mc, se = square_moments(sample.records)
            reference = znv_second_moment(level, mu, 1.0)
            assert abs(mc - reference) < 4 * se


class TestExactSquareMean:
    def test_values(self):
        assert cc_exact_usq_mean(1.0, 1.0, 0.0) == pytest.approx(5.0 / 6.0, rel=1e-15)
        assert cc_exact_usq_mean(0.0, 1.0, 0.0) == pytest.approx(0.5, rel=1e-15)
        assert cc_exact_usq_mean(1.0, 0.0, 0.5) == 0.0

    def test_shifted_start(self):
        # s0^2 T + s0 mu T^2 + mu^2 T^3 / 3 + T^2 / 2
        assert cc_exact_usq_mean(2.0, 1.0, 0.5) == pytest.approx(0.25 + 1.0 + 4.0 / 3.0 + 0.5)

    def test_returns_a_float(self):
        # a plain float, also where the exact value rounds to inf
        for value in (cc_exact_usq_mean(), cc_exact_usq_mean(1e200, 1.0, 0.0)):
            assert type(value) is float

    def test_overflow_rounds_to_inf(self):
        assert cc_exact_usq_mean(1e200, 1.0, 0.0) == math.inf
