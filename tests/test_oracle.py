import csv
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmc_sde.cli import main
from mlmc_sde.models import ClarkCameronModel, Payoff
from mlmc_sde.oracle import cc_exact_cos_mean, cc_exact_usq_mean, znv_second_moment
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


def riccati_cos_mean(mu, horizon, s0, steps=2000):
    """E[cos U_T] from an RK4 solution of the Riccati system of the
    Feynman-Kac equation of E[exp(-1/2 int S^2 dt)]: f = exp(-a s0^2 / 2 -
    b s0 - c) with a' = 1 - a^2, b' = a (mu - b), c' = a / 2 + mu b - b^2 / 2
    from zero."""
    def rates(y):
        a, b, _ = y
        return (1.0 - a * a, a * (mu - b), 0.5 * a + mu * b - 0.5 * b * b)

    y, h = (0.0, 0.0, 0.0), horizon / steps
    for _ in range(steps):
        k1 = rates(y)
        k2 = rates([v + 0.5 * h * k for v, k in zip(y, k1)])
        k3 = rates([v + 0.5 * h * k for v, k in zip(y, k2)])
        k4 = rates([v + h * k for v, k in zip(y, k3)])
        y = tuple(v + h / 6.0 * (p + 2.0 * q + 2.0 * r + w)
                  for v, p, q, r, w in zip(y, k1, k2, k3, k4))
    a, b, c = y
    return math.exp(-0.5 * a * s0 * s0 - b * s0 - c)


PAPER_CONFIG = Path(__file__).resolve().parent.parent / "scripts" / "clark_cameron_benchmark.cfg"


class TestExactCosMean:
    @pytest.mark.parametrize("horizon", [0.25, 1.0, 3.0])
    def test_zero_drift_identity(self, horizon):
        assert cc_exact_cos_mean(0.0, horizon, 0.0) == pytest.approx(
            math.cosh(horizon) ** -0.5, rel=1e-15)

    @pytest.mark.parametrize("mu, horizon, s0", [(1.0, 1.0, 0.0), (0.5, 2.0, -0.7),
                                                 (-1.5, 0.5, 1.2), (0.0, 1.0, 0.8)])
    def test_matches_the_riccati_solution(self, mu, horizon, s0):
        assert cc_exact_cos_mean(mu, horizon, s0) == pytest.approx(
            riccati_cos_mean(mu, horizon, s0), rel=1e-12)

    def test_paper_value(self):
        assert cc_exact_cos_mean(1.0, 1.0, 0.0) == pytest.approx(0.7145564080, abs=5e-11)

    def test_paper_sweep_against_the_closed_form(self, tmp_path, capsys):
        # the shipped config at its own seed 401: every estimate within 4 eps of
        # the truth, and the splitting scheme at the finest level never deeper
        assert main(["run", "--config", str(PAPER_CONFIG), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        lines = [line for line in (tmp_path / "run.csv").read_text().splitlines()
                 if not line.startswith("#")]
        rows = list(csv.DictReader(lines))
        truth = cc_exact_cos_mean(1.0, 1.0, 0.0)
        assert {row["coupling"] for row in rows} == {"gs", "gs-nv"} and len(rows) == 10
        for row in rows:
            assert abs(float(row["estimate"]) - truth) <= 4.0 * float(row["epsilon"]), row
        depth = {(row["coupling"], row["epsilon"]): int(row["L"]) for row in rows}
        for (coupling, epsilon), last in depth.items():
            if coupling == "gs-nv":
                assert last <= depth[("gs", epsilon)]
