"""Optimal multilevel plans and the estimator runner.

Plans are built from calibrated rates: the plain multilevel estimator
weights every level 1 and sizes levels from the variance model; the
weighted (Richardson-Romberg) variant carries suffix-sum weights that
cancel successive bias-expansion terms, with fully explicit parameters.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import calibrate as cal
from .calibrate import LevelStats, stats_from_sample
from .models import Payoff, SdeModel
from .schemes import COUPLING_COSTS, LevelSampler, sample_many

# experiment ids of the pilot streams, kept apart from every other phase's
EXP_RATES = 11
EXP_V0 = 12
EXP_VLAST = 13  # plus the last level
EXP_VARF = 14
EXP_TABLE = EXP_VLAST + 64


class ZeroWeakConstant(ValueError):
    """The weak-error constant is zero; the last level cannot be sized."""


class MissingLastLevelVariance(ValueError):
    """The gs-nv plan needs a pilot variance for its final level."""


class NonpositiveVariance(ValueError):
    """A variance that must be positive was zero or negative."""


class SamplingError(RuntimeError):
    """Too many samples aborted at some level of a run."""


@dataclass(frozen=True)
class MultilevelPlan:
    """Levels, sample sizes, estimator weights and cost weights of one run."""

    kind: str                 # "mlmc" | "ml2r"
    coupling: str             # "gs" | "nv" | "gs-nv"
    epsilon: float
    last_level: int
    sizes: np.ndarray         # samples per level
    weights: np.ndarray       # level weights (all ones for mlmc)
    lam: np.ndarray           # cost weights lambda_l
    level_tags: tuple[str, ...] = field(default=())

    @property
    def cost_units(self) -> float:
        levels = np.arange(self.last_level + 1)
        return float(np.sum(self.sizes * self.lam * 2.0**levels))

    @property
    def total_samples(self) -> int:
        return int(np.sum(self.sizes))


@dataclass(frozen=True)
class EstimatorResult:
    estimate: float
    level_stats: list[LevelStats]
    cost_units: float
    seconds: float
    aborted: int


def mlmc_last_level(epsilon: float, c1: float, alpha: float) -> int:
    """ceil(log2(sqrt(2) |c1| / eps) / alpha), floored at 1."""
    if epsilon <= 0.0 or alpha <= 0.0:
        raise ValueError("need epsilon > 0 and alpha > 0")
    if c1 == 0.0:
        raise ZeroWeakConstant("c1 = 0: supply a floor or a fixed last level")
    raw = math.log2(math.sqrt(2.0) * abs(c1) / epsilon) / alpha
    return max(1, math.ceil(raw - 1e-9))


def mlmc_sample_sizes(epsilon: float, last_level: int, variances, lam) -> np.ndarray:
    """Cost-optimal sizes M_l = ceil(2 eps^-2 sqrt(V_l / (lam_l 2^l)) * sum_j sqrt(lam_j 2^j V_j))."""
    variances = np.asarray(variances, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if variances.shape != (last_level + 1,) or lam.shape != (last_level + 1,):
        raise ValueError("variances and lambda must cover levels 0..last_level")
    if np.any(variances < 0.0):
        raise ValueError("variances must be nonnegative")
    levels = np.arange(last_level + 1)
    if not variances.any():
        return np.ones(last_level + 1, dtype=int)
    budget = np.sum(np.sqrt(lam * 2.0**levels * variances))
    raw = 2.0 / epsilon**2 * np.sqrt(variances / (lam * 2.0**levels)) * budget
    return np.maximum(1, np.ceil(raw - 1e-9).astype(int))


def default_lambdas(coupling: str, last_level: int, nv_level0: str = "averaged") -> np.ndarray:
    """Per-level cost weights: each level's path steps per sample (from
    COUPLING_COSTS) over 2^l, relative to level 0."""
    costs = np.array([COUPLING_COSTS[tag]
                      for tag in _level_tags("mlmc", coupling, last_level, nv_level0)])
    steps = costs[:, 0] + 0.5 * costs[:, 1]
    return steps / steps[0]


def _level_tags(kind: str, coupling: str, last_level: int, nv_level0: str) -> tuple[str, ...]:
    if coupling == "gs":
        return ("crude-gs",) + ("gs",) * last_level
    if coupling == "nv":
        first = "crude-nv" if nv_level0 == "single" else "level0-nv-averaged"
        return (first,) + ("nv",) * last_level
    if coupling == "gs-nv":
        if kind == "ml2r":
            raise ValueError("the weighted estimator pairs with gs or nv couplings")
        return ("crude-gs",) + ("gs",) * (last_level - 1) + ("gs-nv",)
    raise ValueError(f"unknown coupling {coupling!r}")


def mlmc_plan(coupling: str, epsilon: float, alpha: float, c1: float,
              beta: float, c2: float, v0: float, v_last: float | None = None,
              nv_level0: str = "averaged",
              variance_table: np.ndarray | None = None) -> MultilevelPlan:
    """Build the plain multilevel plan from calibrated rates and pilots.

    Intermediate-level variances default to the model c2 2^(-beta l); a
    direct ``variance_table`` (levels 0..L) overrides them when the model
    is not trusted.  The gs-nv coupling additionally needs the pilot
    variance of its final level.
    """
    last = mlmc_last_level(epsilon, c1, alpha)
    lam = default_lambdas(coupling, last, nv_level0)
    if variance_table is not None:
        variances = np.asarray(variance_table, dtype=float).copy()
        if variances.shape != (last + 1,):
            raise ValueError("variance table must cover levels 0..last_level")
    else:
        variances = c2 * 2.0 ** (-beta * np.arange(last + 1))
        variances[0] = v0
    if coupling == "gs-nv":
        if v_last is None and variance_table is None:
            raise MissingLastLevelVariance("gs-nv needs a pilot variance at the last level")
        if v_last is not None:
            variances[last] = v_last
    sizes = mlmc_sample_sizes(epsilon, last, variances, lam)
    return MultilevelPlan(
        kind="mlmc",
        coupling=coupling,
        epsilon=epsilon,
        last_level=last,
        sizes=sizes,
        weights=np.ones(last + 1),
        lam=lam,
        level_tags=_level_tags("mlmc", coupling, last, nv_level0),
    )


def ml2r_weights(last_level: int, alpha: float):
    """Bias-cancelling weights w_j and their suffix sums W_l.

    w_j alternates in sign with magnitude 2^(-alpha (L-j)(L-j+1)/2) over
    the product of (1 - 2^(-k alpha)) factors; the w_j sum to 1, so the
    leading suffix sum W_0 is 1 and the estimator stays unbiased at fixed
    resolution.
    """
    if last_level < 1 or alpha <= 0.0:
        raise ValueError("need last_level >= 1 and alpha > 0")
    w = np.zeros(last_level + 1)
    for j in range(last_level + 1):
        gap = last_level - j
        num = 2.0 ** (-0.5 * alpha * gap * (gap + 1))
        den = 1.0
        for k in range(1, j + 1):
            den *= 1.0 - 2.0 ** (-k * alpha)
        for k in range(1, gap + 1):
            den *= 1.0 - 2.0 ** (-k * alpha)
        w[j] = (-1.0) ** gap * num / den
    suffix = np.cumsum(w[::-1])[::-1].copy()
    return w, suffix


def ml2r_last_level(epsilon: float, alpha: float, horizon: float = 1.0) -> int:
    """floor of the explicit depth formula, floored at 1."""
    if epsilon <= 0.0 or alpha <= 0.0:
        raise ValueError("need epsilon > 0 and alpha > 0")
    half_log_t = 0.5 + math.log2(horizon)
    inner = half_log_t**2 + 2.0 / alpha * math.log2(math.sqrt(1.0 + 4.0 * alpha) / epsilon)
    raw = math.sqrt(inner) + math.log2(horizon) - 0.5
    return max(1, math.floor(raw + 1e-9))


def ml2r_theta(beta: float, c2: float, varf: float, horizon: float = 1.0) -> float:
    """theta = T^(-beta/2) sqrt(c2 / varf), balancing level 0 against the couplings."""
    if varf <= 0.0:
        raise NonpositiveVariance("varf must be positive")
    if c2 <= 0.0:
        raise NonpositiveVariance("c2 must be positive")
    return horizon ** (-0.5 * beta) * math.sqrt(c2 / varf)


def ml2r_allocation(last_level: int, alpha: float, beta: float, theta: float) -> np.ndarray:
    """Normalized per-level sampling fractions q of the weighted estimator."""
    _, suffix = ml2r_weights(last_level, alpha)
    q = np.zeros(last_level + 1)
    q[0] = 1.0 + theta
    for level in range(1, last_level + 1):
        decay = 2.0 ** (-0.5 * beta * level) + 2.0 ** (-0.5 * beta * (level - 1))
        q[level] = theta * abs(suffix[level]) * decay / math.sqrt(2.0**level + 2.0 ** (level - 1))
    return q / q.sum()


def ml2r_plan(coupling: str, epsilon: float, alpha: float, beta: float,
              c2: float, varf: float, horizon: float = 1.0,
              nv_level0: str = "single") -> MultilevelPlan:
    """Weighted multilevel plan with fully explicit allocation.

    ``varf`` is the payoff variance V(f(X_T)) estimated by a crude run.
    Cost accounting carries unit lambda weights.
    """
    last = ml2r_last_level(epsilon, alpha, horizon)
    _, suffix = ml2r_weights(last, alpha)
    theta = ml2r_theta(beta, c2, varf, horizon)
    q = ml2r_allocation(last, alpha, beta, theta)

    coupled = sum(
        abs(suffix[level])
        * (2.0 ** (-0.5 * beta * level) + 2.0 ** (-0.5 * beta * (level - 1)))
        * math.sqrt(2.0**level + 2.0 ** (level - 1))
        for level in range(1, last + 1)
    )
    effort = q[0] + sum(q[level] * (2.0**level + 2.0 ** (level - 1)) for level in range(1, last + 1))
    n_star = (
        (1.0 + 0.5 / (alpha * (last + 1)))
        * varf * (1.0 + theta * (1.0 + coupled)) ** 2
        / (epsilon**2 * effort)
    )
    sizes = np.maximum(1, np.ceil(q * n_star - 1e-9).astype(int))
    return MultilevelPlan(
        kind="ml2r",
        coupling=coupling,
        epsilon=epsilon,
        last_level=last,
        sizes=sizes,
        weights=suffix,
        lam=np.ones(last + 1),
        level_tags=_level_tags("ml2r", coupling, last, nv_level0),
    )


def run_multilevel(plan: MultilevelPlan, model: SdeModel, payoff: Payoff,
                   seed: int, experiment: int = 0, workers: int = 1,
                   horizon: float = 1.0, degenerate: bool = False,
                   abort_tolerance: float = 0.01) -> EstimatorResult:
    """Run the estimator: sum over levels of weight_l * mean(Z^l samples).

    Streams are independent across (level, block), so the estimate is a
    pure function of (seed, plan) whatever the worker count.  A level
    whose aborted-sample fraction exceeds ``abort_tolerance`` fails the
    run.
    """
    start = time.perf_counter()
    base = LevelSampler(model, payoff, "gs", horizon=horizon, degenerate=degenerate)
    estimate = 0.0
    stats: list[LevelStats] = []
    aborted = 0
    for level in range(plan.last_level + 1):
        sampler = base.with_coupling(plan.level_tags[level])
        sample = sample_many(sampler, level, int(plan.sizes[level]), seed, experiment, workers)
        if sample.aborted > abort_tolerance * sample.values.size:
            raise SamplingError(
                f"level {level}: {sample.aborted}/{sample.values.size} samples aborted"
            )
        level_stats = stats_from_sample(sample)
        stats.append(level_stats)
        aborted += sample.aborted
        estimate += plan.weights[level] * level_stats.mean
    seconds = time.perf_counter() - start
    return EstimatorResult(float(estimate), stats, plan.cost_units, seconds, aborted)


def crude_mc(model: SdeModel, payoff: Payoff, scheme: str = "nv", level: int = 5,
             m: int = 10_000, seed: int = 0, experiment: int = 0,
             workers: int = 1, horizon: float = 1.0,
             degenerate: bool = False) -> LevelStats:
    """Plain Monte Carlo of f at one discretization level (payoff-variance pilot)."""
    sampler = LevelSampler(model, payoff, f"crude-{scheme}", horizon=horizon,
                           degenerate=degenerate)
    return cal.pilot_stats(sampler, [level], m, seed, experiment, workers)[0]


def rate_pilot(sampler: LevelSampler, levels, m: int, seed: int,
               workers: int = 1, memo: dict | None = None) -> list[LevelStats]:
    """Pilot level statistics of ``sampler`` that rates are fitted to."""
    return cal.pilot_stats(sampler, levels, m, seed, EXP_RATES, workers, memo)


def calibrated_plans(sampler: LevelSampler, kind: str, epsilons, pilot_m: int,
                     seed: int, workers: int = 1, nv_level0: str = "averaged",
                     pilot_levels=range(1, 5), alpha: float | None = None,
                     c1: float | None = None, beta: float | None = None,
                     c2: float | None = None, pilots: dict | None = None) -> list[MultilevelPlan]:
    """Calibrate from pilots, then plan one estimator of ``kind`` ("mlmc" or
    "ml2r") on ``sampler.coupling`` per epsilon.

    The weak rate comes from the bias-driving scheme (nv for the nv and
    gs-nv couplings) and the variance rate from the variance-driving one;
    rates passed in replace the fitted ones, and with all four passed no
    rate pilot is drawn.  The pilots are the rate pilots, v0, v_last per
    last level (gs-nv), varf (ml2r) and the direct part of the variance
    table, which replaces the variance model where the rate pilot shows an
    inflection at or below the last level.  Every pilot level is drawn
    through the memo ``pilots`` (see ``calibrate.pilot_stats``), so it is
    drawn once across the epsilons, and across calls that share the memo.
    """
    pilots = {} if pilots is None else pilots

    def variance(s: LevelSampler, level: int, experiment: int) -> float:
        return cal.pilot_stats(s, [level], pilot_m, seed, experiment, workers, pilots)[0].variance

    coupling = sampler.coupling
    weak_coupling = "nv" if coupling in ("nv", "gs-nv") else "gs"
    var_coupling = "gs" if coupling in ("gs", "gs-nv") else "nv"
    var_stats = var_fit = None
    if None in (alpha, c1, beta, c2):
        weak = cal.fit_weak_rate(rate_pilot(sampler.with_coupling(weak_coupling), pilot_levels,
                                            pilot_m, seed, workers, pilots))
        var_stats = rate_pilot(sampler.with_coupling(var_coupling), pilot_levels,
                               pilot_m, seed, workers, pilots)
        var_fit = cal.fit_variance_rate(var_stats)
        alpha = weak.order if alpha is None else alpha
        c1 = weak.constant if c1 is None else c1
        beta = var_fit.order if beta is None else beta
        c2 = var_fit.constant if c2 is None else c2

    if kind == "ml2r":
        varf = variance(sampler.with_coupling("crude-nv"), 5, EXP_VARF)
        return [ml2r_plan(coupling, epsilon, alpha, beta, c2, varf, sampler.horizon)
                for epsilon in epsilons]
    if kind != "mlmc":
        raise ValueError(f"unknown estimator kind {kind!r}")

    v0 = variance(sampler.with_coupling(_level_tags(kind, coupling, 1, nv_level0)[0]), 0, EXP_V0)
    inflection = None if var_fit is None else cal.detect_inflection(var_stats, var_fit)
    plans = []
    for epsilon in epsilons:
        last = mlmc_last_level(epsilon, c1, alpha)
        v_last = variance(sampler, last, EXP_VLAST + last) if coupling == "gs-nv" else None
        table = None
        if inflection is not None and last >= inflection:
            # extrapolates past the break at the caller's beta, else the snapped pilot rate
            table = cal.variance_table(sampler.with_coupling(var_coupling), last, inflection,
                                       beta, pilot_m, seed, EXP_TABLE, workers, v0, pilots)
        plans.append(mlmc_plan(coupling, epsilon, alpha, c1, beta, c2, v0, v_last, nv_level0,
                               variance_table=table))
    return plans
