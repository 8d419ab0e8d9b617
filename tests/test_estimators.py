import math
import tracemalloc
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlmc_sde import calibrate, estimators, schemes
from mlmc_sde.estimators import (
    EXP_RATES,
    EXP_TABLE,
    EXP_V0,
    EXP_VARF,
    EXP_VLAST,
    MissingLastLevelVariance,
    MultilevelPlan,
    NonpositiveVariance,
    PlanTooLarge,
    SamplingError,
    ZeroWeakConstant,
    calibrated_plans,
    crude_mc,
    ml2r_last_level,
    ml2r_plan,
    ml2r_theta,
    ml2r_weights,
    mlmc_last_level,
    mlmc_plan,
    mlmc_sample_sizes,
    rate_pilots,
    run_multilevel,
)
from mlmc_sde.models import ClarkCameronModel, HestonModel, Payoff
from mlmc_sde.oracle import cc_exact_usq_mean
from mlmc_sde.paths import MAX_LEVEL
from mlmc_sde.schemes import LevelSampler, path_steps, sample_many
from path_reference import block_values

CC = ClarkCameronModel(mu=1.0)
USQ = Payoff("u-squared")


def gs_costs(last):
    """Path steps per sample of gs MLMC: the one-step crude-gs at level 0,
    then 2 fine paths of 2^l steps and 1 coarse path of 2^(l-1)."""
    return np.array([1.0] + [2.5 * 2.0**level for level in range(1, last + 1)])


class TestLastLevel:
    def test_exact_log_ratio(self):
        assert mlmc_last_level(math.sqrt(2.0) * 2.0**-10, 1.0, 1.0) == 10
        assert mlmc_last_level(math.sqrt(2.0) * 2.0**-10, 1.0, 2.0) == 5

    def test_tiny_constant_clamps_to_one(self):
        assert mlmc_last_level(0.25, 1e-6, 2.0) == 1

    def test_zero_constant_rejected(self):
        with pytest.raises(ZeroWeakConstant):
            mlmc_last_level(0.1, 0.0, 1.0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            mlmc_last_level(0.0, 1.0, 1.0)

    def test_level_cap(self):
        assert mlmc_last_level(math.sqrt(2.0) * 2.0**-12, 1.0, 1.0) == 12
        with pytest.raises(estimators.LevelTooDeep):
            mlmc_last_level(math.sqrt(2.0) * 2.0**-13, 1.0, 1.0)
        with pytest.raises(estimators.LevelTooDeep):
            ml2r_last_level(1e-30, 1.0, 1.0)


class TestSampleSizes:
    def test_single_level(self):
        np.testing.assert_array_equal(mlmc_sample_sizes(1.0, [1.0], [1.0]), [2])

    def test_epsilon_scaling(self):
        variances = [0.5, 0.1, 0.02]
        costs = gs_costs(2)
        coarse = mlmc_sample_sizes(0.1, variances, costs)
        fine = mlmc_sample_sizes(0.05, variances, costs)
        # quadrupling before the ceiling: within one unit of exactly 4x
        assert (fine >= 4 * (coarse - 1)).all()
        assert (fine <= 4 * coarse).all()

    def test_zero_variance_level_floors_to_one(self):
        sizes = mlmc_sample_sizes(0.5, [1.0, 0.0, 0.25], gs_costs(2))
        assert sizes[1] == 1
        assert sizes[0] > 1

    def test_all_zero_variance(self):
        np.testing.assert_array_equal(
            mlmc_sample_sizes(0.5, [0.0, 0.0, 0.0], gs_costs(2)), [1, 1, 1]
        )

    def test_sizes_below_two_to_the_63_are_kept(self):
        # unit costs: M_l = 2 eps^-2 sqrt(V_l) sum_j sqrt(V_j), exact in powers of 2
        np.testing.assert_array_equal(
            mlmc_sample_sizes(1.0, [2.0**60, 2.0**60], [1.0, 1.0]), [2**62, 2**62])

    @pytest.mark.parametrize("epsilon, variance",
                             [(0.5, 2.0**60), (math.nan, 1.0), (1e-200, 1.0)])
    def test_size_past_int64_is_refused(self, epsilon, variance):
        # a cast to int64 would wrap to INT64_MIN and clamp to 1 sample
        with pytest.raises(PlanTooLarge):
            mlmc_sample_sizes(epsilon, [variance], [1.0])


def level_costs(kind, coupling, last, nv_level0="averaged"):
    return estimators._level_costs(estimators._level_tags(kind, coupling, last, nv_level0))


class TestPathSteps:
    def test_tables(self):
        np.testing.assert_array_equal(level_costs("mlmc", "gs", 3), [1.0, 5.0, 10.0, 20.0])
        np.testing.assert_array_equal(level_costs("mlmc", "gs-nv", 3), [1.0, 5.0, 10.0, 36.0])
        np.testing.assert_array_equal(level_costs("mlmc", "nv", 2, "single"), [1.0, 10.0, 20.0])
        np.testing.assert_array_equal(level_costs("mlmc", "nv", 2, "averaged"), [2.0, 10.0, 20.0])
        np.testing.assert_array_equal(level_costs("mlmc", "gs-nv", 1), [1.0, 9.0])
        np.testing.assert_array_equal(level_costs("ml2r", "nv", 2, "single"), [1.0, 10.0, 20.0])
        np.testing.assert_array_equal(level_costs("ml2r", "gs", 2), [1.0, 5.0, 10.0])


class TestMlmcPlan:
    def test_reduces_to_sample_sizes_on_model_table(self):
        epsilon, alpha, c1, beta, c2 = 2.0**-6, 1.0, 0.2, 2.0, 0.3
        plan = mlmc_plan("gs", epsilon, alpha, c1, beta, c2, v0=c2)
        last = mlmc_last_level(epsilon, c1, alpha)
        table = c2 * 2.0 ** (-beta * np.arange(last + 1))
        np.testing.assert_array_equal(
            plan.sizes, mlmc_sample_sizes(epsilon, table, gs_costs(last))
        )

    def test_monotone_sizes_for_decaying_variance(self):
        plan = mlmc_plan("gs", 2.0**-7, 1.0, 0.3, 2.0, 0.5, v0=0.5)
        assert (np.diff(plan.sizes) <= 0).all()

    def test_gs_nv_requires_last_level_variance(self):
        with pytest.raises(MissingLastLevelVariance):
            mlmc_plan("gs-nv", 0.01, 2.0, 0.1, 2.0, 0.3, v0=0.4)

    def test_gs_nv_level_tags(self):
        plan = mlmc_plan("gs-nv", 2.0**-8, 2.0, 0.1, 2.0, 0.3, v0=0.4, v_last=0.01)
        assert plan.level_tags[0] == "crude-gs"
        assert plan.level_tags[-1] == "gs-nv"
        assert set(plan.level_tags[1:-1]) <= {"gs"}
        assert path_steps(plan.level_tags[-1], plan.last_level) == 4.5 * 2.0**plan.last_level

    def test_nv_level0_tags(self):
        plan = mlmc_plan("nv", 0.05, 2.0, 0.1, 2.0, 0.3, v0=0.4, nv_level0="averaged")
        assert plan.level_tags[0] == "level0-nv-averaged"
        plan = mlmc_plan("nv", 0.05, 2.0, 0.1, 2.0, 0.3, v0=0.4, nv_level0="single")
        assert plan.level_tags[0] == "crude-nv"
        assert path_steps(plan.level_tags[1], 1) == 5.0 * 2.0

    def test_plan_past_int64_is_refused(self):
        # level 0 alone would be sized at 6.9e17 and levels 1-2 at 1 sample
        with pytest.raises(PlanTooLarge):
            mlmc_plan("gs", 2.0**-4, 1.0, 0.16, 2.0, 1e30, v0=0.5)

    def test_direct_variance_table_override(self):
        table = np.array([0.4, 0.1, 0.05])
        plan = mlmc_plan("gs", 2.0**-4, 1.0, 0.17, 2.0, 0.3, v0=0.4, variance_table=table)
        assert plan.last_level == 2
        np.testing.assert_array_equal(
            plan.sizes, mlmc_sample_sizes(2.0**-4, table, gs_costs(2))
        )


# the rates the heston_call.cfg pilots fit (seed 41, --pilot-m 100000): alpha 2,
# beta 3 and these c2 and varf
HESTON_C2, HESTON_VARF = 0.0002416145807501572, 1.2687698876135427

# explicit ml2r_plan inputs (coupling, eps, alpha, beta, c2, varf, horizon) and
# the sizes of levels 0..L they are planned with
ML2R_SIZES = [
    pytest.param(("gs", 2.0**-2, 2.0, 2.0, 0.1, 0.8, 1.0), [58, 14], id="gs-depth1"),
    pytest.param(("gs", 2.0**-3, 2.0, 2.0, 0.1, 0.8, 0.5), [479, 178], id="gs-depth1-T-half"),
    pytest.param(("gs", 2.0**-4, 1.0, 2.0, 0.1, 0.8, 1.0), [1417, 166, 235], id="gs-depth2"),
    pytest.param(("gs", 2.0**-9, 1.0, 2.0, 0.1, 0.8, 1.0),
                 [1540867, 269135, 104245, 6857, 38789], id="gs-depth4"),
    pytest.param(("gs", 2.0**-9, 1.0, 2.0, 0.1, 0.8, 0.5),
                 [3401147, 990056, 127287, 360021], id="gs-depth3-T-half"),
    pytest.param(("gs", 2.0**-11, 1.0, 2.0, 0.15, 1.2, 2.0),
                 [19493698, 1964608, 690185, 275199, 9104, 102999], id="gs-depth5-T-2"),
    pytest.param(("nv", 2.0**-4, 1.0, 2.0, 0.1, 0.8, 0.5), [3678, 1446], id="nv-depth1-T-half"),
    pytest.param(("nv", 2.0**-5, 2.0, 2.0, 0.1, 0.8, 1.0), [5622, 682, 351], id="nv-depth2"),
    pytest.param(("nv", 2.0**-8, 1.0, 1.5, 0.3, 0.8, 0.5), [2127810, 362921, 610357],
                 id="nv-depth2-T-half"),
    pytest.param(("nv", 2.0**-7, 2.0, 3.0, HESTON_C2, HESTON_VARF, 1.0), [25424, 145, 53],
                 id="heston-eps-2^-7"),
    pytest.param(("nv", 2.0**-9, 2.0, 3.0, HESTON_C2, HESTON_VARF, 1.0), [406771, 2318, 843],
                 id="heston-eps-2^-9"),
    pytest.param(("nv", 2.0**-9, 2.0, 3.0, HESTON_C2, HESTON_VARF, 0.5), [490558, 10517],
                 id="heston-eps-2^-9-T-half"),
]


class TestMl2r:
    def test_weights_spot_case(self):
        w, suffix = ml2r_weights(1, 1.0)
        np.testing.assert_allclose(w, [-1.0, 2.0])
        np.testing.assert_allclose(suffix, [1.0, 2.0])

    @given(last=st.integers(1, 6), alpha=st.sampled_from([0.5, 1.0, 1.5, 2.0]))
    @settings(max_examples=40, deadline=None)
    def test_weight_sum_identity(self, last, alpha):
        w, suffix = ml2r_weights(last, alpha)
        assert abs(w.sum() - 1.0) < 1e-12
        assert suffix[0] == pytest.approx(1.0, abs=1e-12)
        assert suffix[-1] == w[-1] > 0

    @given(last=st.integers(1, MAX_LEVEL), alpha=st.floats(1e-15, 1e3))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_weights_match_the_loop_reference(self, last, alpha):
        # the per-weight loop: the same products, in the same order, bit for bit
        ref = np.zeros(last + 1)
        for j in range(last + 1):
            gap = last - j
            den = 1.0
            for k in [*range(1, j + 1), *range(1, gap + 1)]:
                den *= 1.0 - 2.0 ** (-k * alpha)
            ref[j] = (-1.0) ** gap * 2.0 ** (-0.5 * alpha * gap * (gap + 1)) / den
        w, suffix = ml2r_weights(last, alpha)
        assert w.tobytes() == ref.tobytes()
        assert suffix.tobytes() == np.cumsum(ref[::-1])[::-1].tobytes()

    def test_vanishing_factor_gives_non_finite_weights(self):
        # 1 - 2^-alpha rounds to 0: the weights cannot be formed, and the plan is refused
        w, suffix = ml2r_weights(2, 1e-17)
        assert not np.isfinite(w).any() and not np.isfinite(suffix[1:]).any()
        with pytest.raises(PlanTooLarge):
            ml2r_plan("gs", 2.0, 1e-17, 2.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("args, culprit", [
        # 1 - 2^-alpha rounds to 0: theta is finite, the suffix weights are not
        (("gs", 2.0, 1e-17, 2.0, 1.0, 1.0, 1.0), "at alpha = 1e-17: nan"),
        # T^(-beta/2) overflows: theta is not finite
        (("gs", 2.0**-4, 1.0, 100.0, 1.0, 1.0, 1e-10), "theta = inf, "),
    ], ids=["weights", "theta"])
    def test_non_finite_theta_or_weight_is_named(self, args, culprit):
        with pytest.raises(PlanTooLarge) as exc:
            ml2r_plan(*args)
        message = str(exc.value)
        assert message.startswith("a planned sample size is not finite: theta = ")
        assert "max |suffix weight| at alpha = " in message
        assert culprit in message and "\n" not in message

    def test_last_level_formula(self):
        assert ml2r_last_level(math.sqrt(5.0) * 2.0**-4, 1.0, 1.0) == 2

    def test_last_level_clamps(self):
        assert ml2r_last_level(0.9, 2.0, 1.0) == 1

    @pytest.mark.parametrize("epsilon", [10.0, 100.0, 1e12])
    def test_last_level_large_eps_is_floor(self, epsilon):
        # the term under the root goes negative here; the floor level applies
        assert ml2r_last_level(epsilon, 1.0, 1.0) == 1

    def test_theta(self):
        assert ml2r_theta(2.0, 0.3, 0.3, 1.0) == pytest.approx(1.0)
        assert ml2r_theta(2.0, 0.3, 1.2, 1.0) == pytest.approx(0.5)
        with pytest.raises(NonpositiveVariance):
            ml2r_theta(2.0, 0.3, 0.0, 1.0)

    @pytest.mark.parametrize("coupling,per_step", [("nv", 5.0), ("gs", 2.5)])
    def test_allocation_charges_path_steps(self, coupling, per_step):
        # M_l sqrt(C_l) / s_l is one constant over every level, with C_0 = 1,
        # s_0 = 1 + theta and, at l >= 1, C_l = per_step 2^l and
        # s_l = theta |W_l| (2^(-beta l/2) + 2^(-beta (l-1)/2)); the sizes are
        # rounded up, so they hold it to their rounding
        epsilon, alpha, beta, c2, varf = 2.0**-9, 1.0, 2.0, 0.1, 0.8
        plan = ml2r_plan(coupling, epsilon, alpha, beta, c2, varf, 1.0)
        theta = ml2r_theta(beta, c2, varf, 1.0)
        levels = np.arange(1, plan.last_level + 1)
        decay = 2.0 ** (-0.5 * beta * levels) + 2.0 ** (-0.5 * beta * (levels - 1))
        s = np.append(1.0 + theta, theta * np.abs(plan.weights[1:]) * decay)
        costs = np.append(1.0, per_step * 2.0**levels)
        ratio = plan.sizes * np.sqrt(costs) / s
        assert plan.last_level >= 2 and plan.sizes.min() >= 100
        np.testing.assert_allclose(ratio, ratio[0], rtol=0.01)

    @pytest.mark.parametrize("args, sizes", ML2R_SIZES)
    def test_pinned_sizes(self, args, sizes):
        plan = ml2r_plan(*args)
        assert plan.last_level == len(sizes) - 1
        np.testing.assert_array_equal(plan.sizes, sizes)

    def test_plan_structure(self):
        plan = ml2r_plan("nv", 2.0**-5, 2.0, 2.0, 0.1, 0.8, 1.0)
        assert plan.kind == "ml2r"
        assert plan.level_tags[0] == "crude-nv"
        np.testing.assert_array_equal(
            estimators._level_costs(plan.level_tags),
            [1.0] + [5.0 * 2.0**level for level in range(1, plan.last_level + 1)])
        assert plan.weights[0] == pytest.approx(1.0)
        assert (plan.sizes >= 1).all()

    def test_plan_past_int64_is_refused(self):
        # every level would be sized at 1 sample
        with pytest.raises(PlanTooLarge):
            ml2r_plan("gs", 2.0**-4, 1.0, 2.0, 1e300, 0.8, 1.0)

    def test_rejects_bad_variances(self):
        with pytest.raises(NonpositiveVariance):
            ml2r_plan("gs", 0.05, 1.0, 2.0, -0.1, 0.8, 1.0)
        with pytest.raises(NonpositiveVariance):
            ml2r_plan("gs", 0.05, 1.0, 2.0, 0.1, 0.0, 1.0)


def small_plan(coupling="gs-nv", epsilon=2.0**-4):
    return mlmc_plan(coupling, epsilon, 2.0, 0.08, 2.0, 1.7, v0=0.5, v_last=0.4)


class TestRunner:
    def test_degenerate_run_is_zero(self, zero_noise):
        result = run_multilevel(small_plan(), CC, USQ, seed=3)
        assert result.estimate == 0.0
        assert sum(s.aborted for s in result.level_stats) == 0

    def test_single_level_plan_is_plain_average(self):
        plan = MultilevelPlan("mlmc", "gs", 1.0, 0, np.array([5000]), np.ones(1),
                              ("crude-gs",))
        result = run_multilevel(plan, CC, USQ, seed=4, experiment=2)
        sampler = LevelSampler(CC, USQ, "crude-gs")
        direct = block_values(sampler, 0, 5000, seed=4, experiment=2)
        # the block means, folded in block order: block 0's mean moved by the
        # gap to block 1's, weighted by block 1's share of the samples
        first, second = direct[:4096].mean(), direct[4096:].mean()
        assert result.estimate == first + 904 * ((second - first) / 5000)

    def test_worker_invariance(self, pooled):
        # several blocks at every level, so each level is two tasks or more
        plan = small_plan(epsilon=2.0**-6)
        assert min(plan.sizes) > BLOCK
        solo = run_multilevel(plan, CC, USQ, seed=5, workers=1)
        duo = run_multilevel(plan, CC, USQ, seed=5, workers=2)
        assert pooled == [2, 2, 2]
        assert solo.estimate == duo.estimate

    def test_cost_model_exact(self):
        plan = small_plan()
        result = run_multilevel(plan, CC, USQ, seed=6)
        # gs-nv: 2.5 2^l path steps per gs sample and 4.5 2^L at the last level
        costs = np.append(gs_costs(plan.last_level - 1), 4.5 * 2.0**plan.last_level)
        assert result.cost_units == np.sum(plan.sizes * costs)
        assert result.cost_units == plan.cost_units

    @pytest.mark.parametrize("plan", [
        mlmc_plan("gs", 2.0**-4, 2.0, 0.08, 2.0, 1.7, v0=0.5),
        mlmc_plan("gs-nv", 2.0**-4, 2.0, 0.08, 2.0, 1.7, v0=0.5, v_last=0.4),
        mlmc_plan("nv", 2.0**-4, 2.0, 0.08, 2.0, 1.7, v0=0.5, nv_level0="averaged"),
        mlmc_plan("nv", 2.0**-4, 2.0, 0.08, 2.0, 1.7, v0=0.5, nv_level0="single"),
        ml2r_plan("gs", 2.0**-4, 1.0, 2.0, 0.1, 0.8, 1.0),
        ml2r_plan("nv", 2.0**-4, 1.0, 2.0, 0.1, 0.8, 1.0),
    ], ids=["mlmc-gs", "mlmc-gs-nv", "mlmc-nv-averaged", "mlmc-nv-single", "ml2r-gs",
            "ml2r-nv"])
    def test_realized_cost_is_planned_cost(self, plan, monkeypatch):
        drawn = []
        draw = estimators.sample_many

        def counted(*args, **kwargs):
            sample = draw(*args, **kwargs)
            drawn.append(sample.cost_units)
            return sample

        monkeypatch.setattr(estimators, "sample_many", counted)
        result = run_multilevel(plan, CC, USQ, seed=6)
        assert len(drawn) == plan.last_level + 1
        assert result.cost_units == sum(drawn) == plan.cost_units

    def test_weighted_levels_enter_estimate(self):
        plan = small_plan(epsilon=2.0**-5)
        result = run_multilevel(plan, CC, USQ, seed=7, experiment=3)
        total = 0.0
        for level in range(plan.last_level + 1):
            sampler = LevelSampler(CC, USQ, plan.level_tags[level])
            values = block_values(sampler, level, int(plan.sizes[level]), seed=7, experiment=3)
            total += plan.weights[level] * values.mean()
        assert result.estimate == pytest.approx(total, rel=1e-12)

    def test_fixed_resolution_unbiasedness(self):
        # averaged over repetitions, the estimator matches a direct Monte
        # Carlo of the finest-level scheme within 3 combined standard errors
        plan = MultilevelPlan("mlmc", "gs", 0.1, 2,
                              np.array([4000, 2000, 1000]), np.ones(3),
                              ("crude-gs", "gs", "gs"))
        estimates = np.array([
            run_multilevel(plan, CC, USQ, seed=100 + k, experiment=4).estimate
            for k in range(100)
        ])
        direct = crude_mc(CC, USQ, "gs", level=2, m=400_000, seed=9, experiment=5)
        se = np.sqrt(estimates.var(ddof=1) / estimates.size + direct.sem**2)
        assert abs(estimates.mean() - direct.mean) < 3 * se

    def test_abort_rate_gate(self):
        # starting above the mean with vol-of-vol at the Feller bound drives
        # the explicit scheme negative often
        fragile = HestonModel(kappa=2.0, theta=0.02, sigma=0.28, v0=0.05)
        plan = MultilevelPlan("mlmc", "gs", 1.0, 1, np.array([4000, 2000]),
                              np.ones(2), ("crude-gs", "gs"))
        # the count is over the level's planned size
        with pytest.raises(SamplingError, match=r"^level 1: \d+/2000 samples aborted$"):
            run_multilevel(plan, fragile, Payoff("heston-call", 0.05, 1.0), seed=11)

    def test_aborted_samples_are_counted_from_the_records(self):
        fragile = HestonModel(kappa=2.0, theta=0.02, sigma=0.28, v0=0.05)
        sampler = LevelSampler(fragile, Payoff("heston-call", 0.05, 1.0), "gs")
        sample = sample_many(sampler, 1, 2000, seed=11)
        values = block_values(sampler, 1, 2000, seed=11)
        assert sample.aborted == np.count_nonzero(~np.isfinite(values)) > 0

    def test_reflect_policy_keeps_running(self):
        fragile = HestonModel(kappa=2.0, theta=0.02, sigma=0.28, v0=0.05,
                              negative_variance="reflect")
        plan = MultilevelPlan("mlmc", "gs", 1.0, 1, np.array([4000, 2000]),
                              np.ones(2), ("crude-gs", "gs"))
        result = run_multilevel(plan, fragile, Payoff("heston-call", 0.05, 1.0), seed=11)
        assert np.isfinite(result.estimate)
        assert sum(s.aborted for s in result.level_stats) == 0


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated during a second call of
    fn(); the first makes the imports of a process's first draw."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """A level holds one batch of values at a time, whatever its size: 10^6
    level-0 samples hold 7.6 MiB as values, one batch of them 128 KiB."""

    LIMIT = 2 * 2**20

    def test_sample_many_holds_one_batch(self):
        sampler = LevelSampler(CC, USQ, "crude-gs")
        assert traced_peak(lambda: sample_many(sampler, 0, 10**6, seed=1)) < self.LIMIT

    def test_run_holds_one_batch(self):
        plan = MultilevelPlan("mlmc", "gs", 1.0, 0, np.array([10**6]), np.ones(1),
                              ("crude-gs",))
        assert traced_peak(lambda: run_multilevel(plan, CC, USQ, seed=1)) < self.LIMIT


class TestCrude:
    def test_constant_payoff_zero_variance(self, zero_noise):
        stats = crude_mc(CC, Payoff("cos-u"), "gs", level=2, m=100, seed=1)
        assert stats.variance == 0.0

    def test_level_eight_mean_near_exact(self):
        truth = cc_exact_usq_mean(1.0, 1.0, 0.0)
        stats = crude_mc(CC, USQ, "nv", level=8, m=100_000, seed=13, experiment=6)
        assert abs(stats.mean - truth) < 3 * stats.sem + 0.02

    def test_heston_call_finite_variance(self):
        stats = crude_mc(HestonModel(), Payoff("heston-call", 0.05, 1.0), "nv",
                         level=5, m=20_000, seed=15, experiment=7)
        assert stats.variance > 0
        assert np.isfinite(stats.mean)
        assert stats.aborted == 0

    def test_bad_scheme_rejected(self):
        with pytest.raises(ValueError):
            crude_mc(CC, USQ, "euler", level=2, m=100, seed=1)


@dataclass(frozen=True)
class LadderSampler:
    """Deterministic level samples: mean -2^-(l+1) and variance 4^-min(l, 3),
    so the variance decay stalls after level 3 (half the samples sit one
    standard deviation above the mean, half below)."""

    coupling: str = "gs"
    model = CC  # sample_many sizes its batches by model.d

    def with_coupling(self, coupling):
        return replace(self, coupling=coupling)

    def sample(self, level, counts, streams):
        index = np.concatenate([np.arange(m) for m in counts])
        signs = np.where(index % 2 == 0, 1.0, -1.0)
        return -(2.0 ** -(level + 1)) + 2.0 ** -min(level, 3) * signs


def record_keys(monkeypatch):
    """Log (coupling, level, experiment) of every draw made through calibrate."""
    keys = []
    draw = estimators.cal.sample_many

    def counted(sampler, level, m, seed, experiment=0, workers=1):
        keys.append((sampler.coupling, level, experiment))
        return draw(sampler, level, m, seed, experiment, workers)

    monkeypatch.setattr(estimators.cal, "sample_many", counted)
    return keys


class TestRatePilots:
    @pytest.mark.parametrize("coupling, weak, var", [
        ("gs", "gs", "gs"), ("nv", "nv", "nv"), ("gs-nv", "nv", "gs")])
    def test_each_rate_on_its_scheme(self, coupling, weak, var, monkeypatch):
        keys = record_keys(monkeypatch)
        weak_stats, var_stats = rate_pilots(LevelSampler(CC, USQ, coupling), [1, 2], 200, 3)
        # a scheme that drives both rates is drawn once
        assert keys == [(scheme, level, EXP_RATES)
                        for scheme in dict.fromkeys((weak, var)) for level in (1, 2)]
        for scheme, stats in ((weak, weak_stats), (var, var_stats)):
            assert stats == calibrate.pilot_stats(LevelSampler(CC, USQ, scheme), [1, 2], 200,
                                                  3, EXP_RATES)


class TestCalibratedPlans:
    def test_variance_table_past_the_inflection(self, monkeypatch):
        m = 1000
        keys = []
        draw = estimators.sample_many

        def counted(sampler, level, m, seed, experiment=0, workers=1):
            keys.append((sampler.coupling, level, experiment))
            return draw(sampler, level, m, seed, experiment, workers)

        monkeypatch.setattr(estimators, "sample_many", counted)
        monkeypatch.setattr(estimators.cal, "sample_many", counted)
        epsilons = (2.0**-2, 2.0**-3, 2.0**-4)
        plans = calibrated_plans(LadderSampler(), "mlmc", epsilons, m, seed=1)

        # alpha = 1 and c1 = 1/2 from the means put the last levels at 2, 3, 4;
        # the pilot variances leave their line at level 3 and snap beta to 3/2
        assert [p.last_level for p in plans] == [2, 3, 4]
        unbiased = m / (m - 1)
        direct = unbiased * np.array([1.0, 2.0**-2, 2.0**-4, 2.0**-6])
        table = np.append(direct, direct[3] * 2.0**-1.5)
        for plan, last in zip(plans[1:], (3, 4)):
            expected = mlmc_sample_sizes(plan.epsilon, table[:last + 1], gs_costs(last))
            np.testing.assert_array_equal(plan.sizes, expected)
        # below the inflection the fitted variance model sizes the levels
        model = unbiased * np.array([1.0, 0.5 * 2.0**-1.5, 0.5 * 2.0**-3])
        np.testing.assert_array_equal(
            plans[0].sizes,
            mlmc_sample_sizes(2.0**-2, model, gs_costs(2)))

        assert len(keys) == len(set(keys))
        assert sorted(k[1] for k in keys if k[2] == EXP_TABLE) == [1, 2, 3]


def ladder_sizes(epsilon, last, m):
    """Sizes of the gs plan that ``calibrated_plans`` makes from LadderSampler
    pilots of m samples per level: alpha = 1, c1 = 1/2, beta = 3/2 and
    c2 = 1/2 from the rate pilot, whose variances leave their line at level
    3 (see TestCalibratedPlans)."""
    unbiased = m / (m - 1)
    if last < 3:
        variances = unbiased * 0.5 * 2.0 ** (-1.5 * np.arange(last + 1))
        variances[0] = unbiased
    else:
        direct = unbiased * np.array([1.0, 2.0**-2, 2.0**-4, 2.0**-6])
        variances = np.append(direct, direct[3] * 2.0 ** (-1.5 * np.arange(1, last - 2)))
    return mlmc_sample_sizes(epsilon, variances, gs_costs(last))


def record_blocks(monkeypatch):
    """Log (coupling, seed, experiment, level, block index, samples) of every
    block drawn through sample_many."""
    blocks = []
    sample = schemes._sample_block

    def recorded(task):
        sampler, level, counts, streams = task
        blocks.extend((sampler.coupling, s.seed, s.experiment, s.level, s.index, count)
                      for count, s in zip(counts, streams))
        return sample(task)

    monkeypatch.setattr(schemes, "_sample_block", recorded)
    return blocks


@dataclass(frozen=True)
class ZeroHeadSampler(LadderSampler):
    """LadderSampler whose first two blocks are all zero: no rate can be
    fitted on them."""

    def sample(self, level, counts, streams):
        values = super().sample(level, counts, streams)
        starts = np.cumsum([0, *counts])
        for stream, lo, hi in zip(streams, starts, starts[1:]):
            if stream.index < 2:
                values[lo:hi] = 0.0
        return values


# LadderSampler plans whose cost_units (about 0.01 M and 4.3 M) lie below and
# above the 0.91 M path steps of their pilots at two blocks
CHEAP_EPS = (2.0**-2, 2.0**-3, 2.0**-4)
DEAR_EPS = (2.0**-7, 2.0**-8)
BLOCK = schemes.BLOCK_SAMPLES


class TestPilotBudget:
    """Each pilot level starts at two blocks and grows, by whole blocks up to
    the pilot_m cap, only while it costs fewer path steps than the plans."""

    def test_cheap_run_stops_at_two_blocks(self, monkeypatch):
        keys = record_keys(monkeypatch)
        plans = calibrated_plans(LadderSampler(), "mlmc", CHEAP_EPS, 100_000, seed=1)
        assert plans[0].pilot_samples == 2 * BLOCK
        assert sum(plan.cost_units for plan in plans) < plans[0].pilot_steps
        assert len(keys) == len(set(keys)) == 8  # rate levels 1..4, v0, table levels 1..3
        for plan, last in zip(plans, (2, 3, 4)):
            np.testing.assert_array_equal(plan.sizes, ladder_sizes(plan.epsilon, last, 2 * BLOCK))

    @pytest.mark.parametrize("pilot_m", [3 * BLOCK + 1000, 100_000])
    def test_dear_run_grows_to_its_cost(self, pilot_m, monkeypatch):
        first = calibrated_plans(LadderSampler(), "mlmc", DEAR_EPS, 2 * BLOCK, seed=1)
        budget = sum(plan.cost_units for plan in first)
        per_sample = first[0].pilot_steps / (2 * BLOCK)
        assert budget > first[0].pilot_steps
        grown = min(pilot_m, math.ceil(budget / per_sample / BLOCK) * BLOCK)
        assert grown == (pilot_m if pilot_m < 100_000 else 10 * BLOCK)

        blocks = record_blocks(monkeypatch)
        plans = calibrated_plans(LadderSampler(), "mlmc", DEAR_EPS, pilot_m, seed=1)
        assert plans[0].pilot_samples == grown
        assert plans[0].pilot_steps == grown * per_sample
        for plan, last in zip(plans, (7, 8)):
            assert plan.last_level == last
            np.testing.assert_array_equal(plan.sizes, ladder_sizes(plan.epsilon, last, grown))
        # no block drawn twice, and every pilot level holds its blocks 0..k-1
        streams = {}
        for coupling, seed, experiment, level, index, count in blocks:
            streams.setdefault((coupling, experiment, level), []).append((index, count))
        assert len(blocks) == len(set(blocks)) and len(streams) == 8
        whole, part = divmod(grown, BLOCK)
        expected = [(i, BLOCK) for i in range(whole)] + ([(whole, part)] if part else [])
        for drawn in streams.values():
            assert sorted(drawn) == expected

    def test_no_block_drawn_twice_across_calls(self, monkeypatch):
        blocks, memo = record_blocks(monkeypatch), {}
        deep = calibrated_plans(LadderSampler(), "mlmc", [2.0**-9], 100_000, seed=1,
                                pilots=memo)
        assert deep[0].pilot_samples == 100_000
        # a later call on the same memo reads its 10 blocks from the 24 whole blocks kept
        plans = calibrated_plans(LadderSampler(), "mlmc", DEAR_EPS, 100_000, seed=1,
                                 pilots=memo)
        assert plans[0].pilot_samples == 10 * BLOCK
        assert len(blocks) == len(set(blocks))
        alone = calibrated_plans(LadderSampler(), "mlmc", DEAR_EPS, 100_000, seed=1)
        for plan, own in zip(plans, alone):
            np.testing.assert_array_equal(plan.sizes, own.sizes)

    @pytest.mark.parametrize("pilot_m", [1000, 2 * BLOCK])
    def test_cap_within_two_blocks_draws_once_at_the_cap(self, pilot_m, monkeypatch):
        keys = []
        draw = estimators.cal.sample_many

        # sample_many's first-draw signature: a draw of later blocks only would fail here
        def counted(sampler, level, m, seed, experiment=0, workers=1):
            keys.append((sampler.coupling, level, m, experiment))
            return draw(sampler, level, m, seed, experiment, workers)

        monkeypatch.setattr(estimators.cal, "sample_many", counted)
        plans = calibrated_plans(LadderSampler(), "mlmc", DEAR_EPS, pilot_m, seed=1)
        assert len(keys) == len(set(keys)) == 8
        assert {key[2] for key in keys} == {pilot_m}
        assert plans[0].pilot_samples == pilot_m
        for plan, last in zip(plans, (7, 8)):
            np.testing.assert_array_equal(plan.sizes, ladder_sizes(plan.epsilon, last, pilot_m))

    def test_plan_failing_below_the_cap_uses_the_cap(self):
        with pytest.raises(calibrate.ZeroMean):
            calibrated_plans(ZeroHeadSampler(), "mlmc", CHEAP_EPS, 2 * BLOCK, seed=1)
        plans = calibrated_plans(ZeroHeadSampler(), "mlmc", CHEAP_EPS, 3 * BLOCK, seed=1)
        assert plans[0].pilot_samples == 3 * BLOCK

    def test_both_rounds_use_the_pool(self, monkeypatch):
        tasks = []

        class Pool:
            def map(self, fn, batch):
                batch = list(batch)
                tasks.append(len(batch))
                return map(fn, batch)

        monkeypatch.setattr(schemes.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(schemes, "POOL_PATH_STEPS", 0)
        monkeypatch.setattr(schemes, "_pool", lambda workers: Pool())
        plans = calibrated_plans(LadderSampler(), "mlmc", DEAR_EPS, 100_000, seed=1, workers=2)
        assert plans[0].pilot_samples == 10 * BLOCK
        # 8 pilot levels at two blocks, then their blocks 2..9
        assert tasks == [2] * 16


@dataclass(frozen=True)
class Horizon:
    horizon: float


@dataclass(frozen=True)
class PilotFreeSampler:
    """A sampler whose every pilot must come from the memo: drawing fails."""

    coupling: str
    model: Horizon

    def with_coupling(self, coupling):
        return replace(self, coupling=coupling)

    def sample(self, level, counts, streams):
        raise AssertionError("no pilot may be drawn")


def pilot_memo(sampler, m, seed, v0, v_last, varf):
    """The pilots ``calibrated_plans`` reads with all four rates fixed, by
    memo key, each with the given variance."""
    def stats(variance, level):
        return calibrate.LevelStats(level, m, 0.0, variance, variance, 0.0)

    memo = {}
    for tag in ("crude-gs", "level0-nv-averaged"):
        memo[(sampler.with_coupling(tag), 0, m, seed, EXP_V0)] = stats(v0, 0)
    memo[(sampler.with_coupling("crude-nv"), 5, m, seed, EXP_VARF)] = stats(varf, 5)
    for last in range(1, MAX_LEVEL + 1):
        memo[(sampler, last, m, seed, EXP_VLAST + last)] = stats(v_last, last)
    return memo


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
PLAIN_INPUTS = dict(alpha=1.0, c1=0.16, beta=2.0, c2=1.0, v0=1.0, v_last=1.0, varf=1.0,
                    horizon=1.0)


class TestPlannerInputs:
    """Every positive finite planner input gives a plan or a SamplingFailure
    (exit 3): no other exception and no warning, from the planners and from
    calibrated_plans with all four rates fixed."""

    @given(kind_coupling=st.sampled_from([("mlmc", "gs"), ("mlmc", "nv"), ("mlmc", "gs-nv"),
                                          ("ml2r", "gs"), ("ml2r", "nv")]),
           epsilon=POSITIVE, alpha=POSITIVE, c1=POSITIVE, beta=POSITIVE, c2=POSITIVE,
           v0=POSITIVE, v_last=POSITIVE, varf=POSITIVE, horizon=POSITIVE)
    # the CLI's five float extremes (tests/test_cli.py, test_float_extremes)
    @example(**{**PLAIN_INPUTS, "beta": 100.0, "horizon": 1e-10},
             kind_coupling=("ml2r", "gs"), epsilon=2.0**-4)
    @example(**{**PLAIN_INPUTS, "beta": 2200.0, "c2": 1e300, "horizon": 0.658},
             kind_coupling=("ml2r", "gs"), epsilon=2.0**-8)
    @example(**PLAIN_INPUTS, kind_coupling=("mlmc", "gs"), epsilon=2e154)
    @example(**{**PLAIN_INPUTS, "c1": 5e-324}, kind_coupling=("mlmc", "gs"), epsilon=4.0)
    @example(**{**PLAIN_INPUTS, "alpha": 1e-17}, kind_coupling=("ml2r", "gs"), epsilon=2.0)
    @settings(derandomize=True, deadline=None, max_examples=1500)
    def test_plan_or_sampling_failure(self, kind_coupling, epsilon, alpha, c1, beta, c2,
                                      v0, v_last, varf, horizon):
        kind, coupling = kind_coupling
        sampler = PilotFreeSampler(coupling, Horizon(horizon))
        memo = pilot_memo(sampler, 100, 1, v0, v_last, varf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                if kind == "mlmc":
                    direct = mlmc_plan(coupling, epsilon, alpha, c1, beta, c2, v0, v_last)
                else:
                    direct = ml2r_plan(coupling, epsilon, alpha, beta, c2, varf, horizon)
            except calibrate.SamplingFailure as exc:
                direct = type(exc)
            try:
                plan, = calibrated_plans(sampler, kind, [epsilon], 100, 1, alpha=alpha, c1=c1,
                                         beta=beta, c2=c2, pilots=memo)
            except calibrate.SamplingFailure as exc:
                plan = type(exc)
        if isinstance(plan, type):
            assert plan is direct
        else:
            np.testing.assert_array_equal(plan.sizes, direct.sizes)
            np.testing.assert_array_equal(plan.weights, direct.weights)
            assert plan.sizes.min() >= 1
