"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Seeds are fixed; the
statistical gates use the tolerances stated with each criterion.
"""

import numpy as np
import pytest

from mlmc_sde.calibrate import (
    fit_variance_rate,
    fit_weak_rate,
    pilot_stats,
    square_moments,
    stats_from_sample,
)
from mlmc_sde.estimators import (
    ml2r_weights,
    mlmc_last_level,
    mlmc_plan,
    run_multilevel,
)
from mlmc_sde.models import ClarkCameronModel, HestonModel, Payoff
from mlmc_sde.oracle import cc_exact_usq_mean, znv_second_moment
from mlmc_sde.paths import LevelGrid, RngStream, sample_level_path
from mlmc_sde.schemes import LevelSampler, coupling_errors, sample_many, simulate_path
from path_reference import antithetic_swap, coarsen

CC = ClarkCameronModel(mu=1.0)


def _gate(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _slope(levels, values):
    return float(np.polyfit(np.asarray(levels, float), np.log2(values), 1)[0])


@pytest.fixture(scope="module")
def strong_order_errors():
    levels = list(range(2, 8))
    self_mse, pair_mse = coupling_errors(CC, levels, 100_000, seed=3, experiment=1)
    return levels, self_mse, pair_mse


def test_criterion_01_strong_order(strong_order_errors):
    levels, self_mse, _ = strong_order_errors
    slope = _slope(levels, self_mse)
    _gate("criterion 1 (splitting-scheme strong order)",
          abs(slope - (-1.0)) <= 0.15, f"slope {slope:.3f}, target -1 +- 0.15")


def test_criterion_02_coupling_order(strong_order_errors):
    levels, _, pair_mse = strong_order_errors
    slope = _slope(levels, pair_mse)
    _gate("criterion 2 (averaged-splitting vs Milstein-type coupling order)",
          abs(slope - (-2.0)) <= 0.2, f"slope {slope:.3f}, target -2 +- 0.2")


def test_criterion_03_oracle_equivalence():
    spot = znv_second_moment(1, 1.0, 1.0)
    assert spot == 131.0 / 256.0
    sampler = LevelSampler(CC, Payoff("u-squared"), "nv")
    worst = 0.0
    for level in range(1, 7):
        # two workers give the records of one, bit for bit, in about half the time
        sample = sample_many(sampler, level, 1_000_000, seed=31, experiment=60 + level,
                             workers=2)
        # the mean of Z^2 and its standard error from the block records, as
        # oracle-check reads them
        mc, se = square_moments(sample.records)
        z = (mc - znv_second_moment(level, 1.0, 1.0)) / se
        worst = max(worst, abs(z))
    _gate("criterion 3 (closed-form second-moment equivalence)",
          worst <= 4.0, f"max |z| = {worst:.2f} over levels 1..6 at M=1e6, gate 4")


def test_criterion_04_variance_decay_smooth_payoff():
    payoff = Payoff("cos-u")
    levels = list(range(2, 7))
    slopes = {}
    for coupling in ("gs-nv", "nv"):
        sampler = LevelSampler(CC, payoff, coupling)
        moments = [
            stats_from_sample(sample_many(sampler, l, 100_000, seed=5, experiment=2)).second_moment
            for l in levels
        ]
        slopes[coupling] = _slope(levels, moments)
    ok = all(abs(s - (-2.0)) <= 0.25 for s in slopes.values())
    _gate("criterion 4 (variance decay, smooth payoff)", ok,
          f"slopes gs-nv {slopes['gs-nv']:.3f}, nv {slopes['nv']:.3f}, target -2 +- 0.25")


def test_criterion_05_nonsmooth_payoff_rates():
    sampler = LevelSampler(CC, Payoff("u-plus"), "nv")
    stats = pilot_stats(sampler, range(1, 5), 100_000, seed=13, experiment=4)
    weak = fit_weak_rate(stats)
    var = fit_variance_rate(stats)
    ok = weak.order == 1.5 and var.order == 1.5
    _gate("criterion 5 (non-smooth payoff rates)", ok,
          f"alpha {weak.order} (raw {weak.raw_slope:.3f}), "
          f"beta {var.order} (raw {var.raw_slope:.3f}), target 3/2 each")


def test_criterion_06_end_to_end_rmse():
    payoff = Payoff("u-squared")
    truth = cc_exact_usq_mean(1.0, 1.0, 0.0)
    pilot_m = 100_000
    nv = LevelSampler(CC, payoff, "nv")
    gs = LevelSampler(CC, payoff, "gs")
    weak = fit_weak_rate(pilot_stats(nv, range(1, 5), pilot_m, seed=101, experiment=11))
    var = fit_variance_rate(pilot_stats(gs, range(1, 5), pilot_m, seed=101, experiment=12))
    v0 = stats_from_sample(
        sample_many(gs.with_coupling("crude-gs"), 0, pilot_m, 101, 13)
    ).variance
    ratios, coverage = [], []
    for k in (4, 5, 6):
        epsilon = 2.0**-k
        last = mlmc_last_level(epsilon, weak.constant, weak.order)
        v_last = stats_from_sample(
            sample_many(gs.with_coupling("gs-nv"), last, pilot_m, 101, 140 + last)
        ).variance
        plan = mlmc_plan("gs-nv", epsilon, weak.order, weak.constant,
                         var.order, var.constant, v0, v_last)
        errors = np.array([
            run_multilevel(plan, CC, payoff, seed=2000 + run, experiment=31).estimate - truth
            for run in range(100)
        ])
        ratios.append(float(np.sqrt(np.mean(errors**2))) / epsilon)
        coverage.append(int(np.sum(np.abs(errors) <= 2 * epsilon)))
    ok = all(r <= 1.5 for r in ratios) and coverage[-1] >= 95
    _gate("criterion 6 (end-to-end RMSE, 100 runs per epsilon)", ok,
          "RMSE/eps = " + ", ".join(f"{r:.2f}" for r in ratios)
          + f" (gate 1.5); runs within 2 eps at 2^-6: {coverage[-1]}/100 (gate 95)")


def test_criterion_07_complexity_slope():
    payoff = Payoff("cos-u")
    pilot_m = 100_000
    gs = LevelSampler(CC, payoff, "gs")
    nv = LevelSampler(CC, payoff, "nv")
    weak_gs = fit_weak_rate(pilot_stats(gs, range(1, 5), pilot_m, seed=401, experiment=11))
    weak_nv = fit_weak_rate(pilot_stats(nv, range(1, 5), pilot_m, seed=401, experiment=11))
    var_gs = fit_variance_rate(pilot_stats(gs, range(1, 5), pilot_m, seed=401, experiment=12))
    v0 = stats_from_sample(
        sample_many(gs.with_coupling("crude-gs"), 0, pilot_m, 401, 13)
    ).variance
    log_eps, log_cost, per_coupling = [], [], {}
    for coupling, weak in (("gs", weak_gs), ("gs-nv", weak_nv)):
        costs = []
        for k in range(4, 9):
            epsilon = 2.0**-k
            v_last = None
            if coupling == "gs-nv":
                last = mlmc_last_level(epsilon, weak.constant, weak.order)
                v_last = stats_from_sample(
                    sample_many(gs.with_coupling("gs-nv"), last, 20_000, 401, 140 + last)
                ).variance
            plan = mlmc_plan(coupling, epsilon, weak.order, weak.constant,
                             var_gs.order, var_gs.constant, v0, v_last)
            costs.append(plan.cost_units)
            log_eps.append(-float(k))
            log_cost.append(np.log2(plan.cost_units))
        per_coupling[coupling] = _slope([-k for k in range(4, 9)], costs)
    pooled = float(np.polyfit(log_eps, log_cost, 1)[0])
    _gate("criterion 7 (complexity slope over the epsilon sweep)",
          abs(pooled - (-2.0)) <= 0.3,
          f"pooled slope {pooled:.3f} (gs {per_coupling['gs']:.3f}, "
          f"gs-nv {per_coupling['gs-nv']:.3f}), target -2 +- 0.3")


def test_criterion_08_weight_identity():
    worst = 0.0
    for last in range(1, 7):
        for alpha in (0.5, 1.0, 1.5, 2.0):
            w, _ = ml2r_weights(last, alpha)
            worst = max(worst, abs(w.sum() - 1.0))
    w, suffix = ml2r_weights(1, 1.0)
    spot = np.allclose(w, [-1.0, 2.0], atol=1e-14) and np.allclose(suffix, [1.0, 2.0], atol=1e-14)
    _gate("criterion 8 (bias-cancelling weight identity)",
          worst <= 1e-12 and spot,
          f"max |sum w - 1| = {worst:.2e}; spot case L=1, alpha=1 gives w = (-1, 2)")


def test_criterion_09_heston_sanity():
    model = HestonModel()  # benchmark parameters
    xi_ok = model.xi == 0.89875
    call = Payoff("heston-call", rate=0.05, maturity=1.0)
    crude = sample_many(LevelSampler(model, call, "crude-gs"), 5, 1_000_000, seed=43,
                        experiment=72)
    aborts_ok = crude.aborted == 0
    stats = pilot_stats(LevelSampler(model, call, "nv"), range(1, 5), 100_000,
                        seed=41, experiment=71)
    weak = fit_weak_rate(stats)
    _gate("criterion 9 (Heston sanity)",
          xi_ok and aborts_ok and weak.order == 2.0,
          f"xi = {model.xi} (exact), aborted = {crude.aborted}/1e6 at level 5, "
          f"snapped alpha = {weak.order} (raw {weak.raw_slope:.3f})")


def test_criterion_10_invariant_suite(pooled):
    checks = []

    # antithetic unbiasedness, both models, smooth payoff, 3 combined SE
    payoff = Payoff("cos-u")
    m = 100_000
    for model, seed in ((CC, 23), (HestonModel(), 24)):
        grid = LevelGrid(2, 1.0)
        path = sample_level_path(RngStream(seed, 1, 2, 0), grid, 2, m=m)
        paired = 0.5 * (payoff(simulate_path("gs", model, grid, path.dw))
                        + payoff(simulate_path("gs", model, grid, antithetic_swap(path.dw))))
        other = sample_level_path(RngStream(seed, 2, 2, 0), grid, 2, m=m)
        independent = payoff(simulate_path("gs", model, grid, other.dw))
        gap = paired.mean() - independent.mean()
        se = np.sqrt(paired.var(ddof=1) / m + independent.var(ddof=1) / m)
        checks.append(("antithetic unbiasedness", abs(gap) < 3 * se))

    # coarse path invariant under the pair swap, bit for bit
    grid, cgrid = LevelGrid(3, 1.0), LevelGrid(2, 1.0)
    path = sample_level_path(RngStream(31, 0, 3, 0), grid, 2, m=512)
    direct = simulate_path("gs", CC, cgrid, coarsen(path.dw))
    swapped = simulate_path("gs", CC, cgrid, coarsen(antithetic_swap(path.dw)))
    checks.append(("coarse-path swap invariance", np.array_equal(direct, swapped)))

    # identical results whatever the worker count; every level of this plan
    # has two blocks or more, so at two workers each goes to the pool
    plan = mlmc_plan("gs-nv", 2.0**-6, 2.0, 0.08, 2.0, 1.7, v0=0.5, v_last=0.4)
    solo = run_multilevel(plan, CC, Payoff("u-squared"), seed=5, workers=1)
    duo = run_multilevel(plan, CC, Payoff("u-squared"), seed=5, workers=2)
    checks.append(("worker-count determinism", solo.estimate == duo.estimate
                   and pooled == [2] * (plan.last_level + 1)))

    # Stratonovich correction identity at random states
    rng = np.random.default_rng(8)
    for model, states in ((CC, rng.normal(scale=2.0, size=(200, 2))),
                          (HestonModel(), np.stack([rng.normal(size=200),
                                                    rng.uniform(0.3, 2.5, 200)], axis=-1))):
        total = model.stratonovich_drift(states).copy()
        for j in (1, 2):
            total += 0.5 * model.jacobian_product(j, j, states)
        checks.append(("stratonovich identity",
                       bool(np.allclose(total, model.drift(states), atol=1e-12))))

    ok = all(flag for _, flag in checks)
    detail = "; ".join(f"{name} {'ok' if flag else 'FAILED'}" for name, flag in checks)
    _gate("criterion 10 (invariant suite)", ok, detail)
