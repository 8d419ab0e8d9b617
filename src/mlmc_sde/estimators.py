"""Optimal multilevel plans and the estimator runner.

Plans are built from calibrated rates: the plain multilevel estimator
weights every level 1 and sizes each level from its pilot variance, or
from the variance model where no pilot drew it; the
weighted (Richardson-Romberg) variant carries suffix-sum weights that
cancel successive bias-expansion terms, with fully explicit parameters.
Both size their levels with one allocation, ``mlmc_sample_sizes``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import calibrate as cal
from .calibrate import LevelStats, SamplingFailure, stats_from_records
from .models import Payoff, SdeModel
from .paths import MAX_LEVEL
from .schemes import BLOCK_SAMPLES, LevelSampler, path_steps, sample_many

# experiment ids of the streams of every phase, the pilots' and the commands'
EXP_RATES = 11
EXP_V0 = 12
EXP_VLAST = 13  # + last level
EXP_VARF = 14
EXP_STRONG = 21
EXP_DECAY = 22  # + coupling index
EXP_ORACLE = 23
EXP_RUN = 31  # + eps index

# the schemes whose pilots fit the (weak, variance) rates of each coupling:
# gs-nv's bias is that of its finest, splitting-scheme level and its level
# variances are those of the gs coupling below it
RATE_COUPLINGS = {"gs": ("gs", "gs"), "nv": ("nv", "nv"), "gs-nv": ("nv", "gs")}

# largest fraction of aborted samples a level of a run may have
ABORT_TOLERANCE = 0.01


@dataclass(frozen=True)
class MultilevelPlan:
    """Levels, sample sizes, estimator weights and level samplers of one run.

    A plan holds only what the run needs; how the rates it was made from
    were found is the ``Calibration`` that ``calibrated_plans`` returns.
    """

    kind: str                 # "mlmc" | "ml2r"
    epsilon: float
    last_level: int
    sizes: np.ndarray         # samples per level
    weights: np.ndarray       # level weights (all ones for mlmc)
    level_tags: tuple[str, ...]  # the coupling each level is sampled with

    @property
    def cost_units(self) -> float:
        """Path steps of the planned samples."""
        return float(np.sum(self.sizes * _level_costs(self.level_tags)))


@dataclass(frozen=True)
class Calibration:
    """The pilot round that made the plans of ``calibrated_plans``: what it
    read and the rates it planned with."""

    samples: int                # samples per pilot level
    steps: float                # path steps of every pilot level the round read
    rates: tuple[float, ...]    # the (alpha, c1, beta, c2) planned with


@dataclass(frozen=True)
class EstimatorResult:
    estimate: float
    level_stats: list[LevelStats]
    cost_units: float
    seconds: float


def mlmc_last_level(epsilon: float, c1: float, alpha: float) -> int:
    """ceil(log2(sqrt(2) |c1| / eps) / alpha), floored at 1.  A level past
    MAX_LEVEL, or a c1 of 0, which sizes no last level, is a ``SamplingFailure``."""
    if epsilon <= 0.0 or alpha <= 0.0:
        raise ValueError("need epsilon > 0 and alpha > 0")
    if c1 == 0.0:
        raise SamplingFailure("c1 = 0: a zero weak constant cannot size the last level")
    ratio = math.sqrt(2.0) * abs(c1) / epsilon
    # -inf where the ratio underflows to 0 or the quotient overflows: the floor level
    raw = math.log2(ratio) / alpha - 1e-9 if ratio > 0.0 else -math.inf
    if raw > MAX_LEVEL:
        raise SamplingFailure(f"eps {epsilon:g} needs level {raw:.1f}, beyond {MAX_LEVEL}")
    return 1 if raw < 1.0 else math.ceil(raw)


def mlmc_sample_sizes(epsilon: float, variances, costs) -> np.ndarray:
    """Cost-optimal sizes M_l = ceil(2 eps^-2 sqrt(V_l / C_l) * sum_j sqrt(C_j V_j)),
    C_l the cost of one sample of level l.

    This is the one allocation of both estimators: ``ml2r_plan`` passes its
    effective variances.  A size that overflows is refused by ``_round_sizes``.
    """
    variances = np.asarray(variances, dtype=float)
    costs = np.asarray(costs, dtype=float)
    if variances.ndim != 1 or costs.shape != variances.shape:
        raise ValueError("variances and costs must both cover levels 0..last_level")
    if np.any(variances < 0.0):
        raise ValueError("variances must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        budget = np.sum(np.sqrt(costs * variances))
        # numpy's eps^2 overflows to inf and underflows to 0 without raising
        raw = 2.0 / np.float64(epsilon) ** 2 * np.sqrt(variances / costs) * budget
    return _round_sizes(raw)


def _round_sizes(raw: np.ndarray) -> np.ndarray:
    """Whole sample sizes, at least 1; a ``SamplingFailure`` unless every raw
    size is below 2^63, the first size int64 cannot hold (which also rejects NaN)."""
    if not np.all(raw < 2.0**63):
        raise SamplingFailure(f"a planned sample size of {np.max(raw):.3g} is not below 2^63")
    return np.maximum(1, np.ceil(raw - 1e-9).astype(int))


def _level_costs(level_tags) -> np.ndarray:
    """Path steps per sample of each level, level l sampled with level_tags[l]."""
    return np.array([path_steps(tag, level) for level, tag in enumerate(level_tags)])


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


def _plan(kind: str, coupling: str, epsilon: float, variances: np.ndarray,
          weights: np.ndarray, nv_level0: str) -> MultilevelPlan:
    """The plan of ``kind`` on levels 0..len(variances) - 1, each sampled with
    its coupling tag and sized by ``mlmc_sample_sizes`` at its path steps."""
    last = variances.size - 1
    tags = _level_tags(kind, coupling, last, nv_level0)
    sizes = mlmc_sample_sizes(epsilon, variances, _level_costs(tags))
    return MultilevelPlan(kind, epsilon, last, sizes, weights, tags)


def mlmc_plan(coupling: str, epsilon: float, alpha: float, c1: float,
              beta: float, c2: float, v0: float, v_last: float | None = None,
              nv_level0: str = "averaged", direct=()) -> MultilevelPlan:
    """Build the plain multilevel plan from calibrated rates and pilots.

    The variances of levels 0..L are those of ``calibrate.variance_table``:
    v0 at level 0, the pilot's own variance at each level of ``direct`` (the
    variance-rate pilot's stats), the line c2 2^(-beta l) at every other
    level.  The gs-nv coupling always needs the pilot variance ``v_last`` of
    its final level, which replaces the value there.
    """
    last = mlmc_last_level(epsilon, c1, alpha)
    variances = cal.variance_table(direct, last, beta, c2, v0)
    if coupling == "gs-nv":
        if v_last is None:
            raise SamplingFailure("gs-nv needs a pilot variance at the last level")
        variances[last] = v_last
    return _plan("mlmc", coupling, epsilon, variances, np.ones(last + 1), nv_level0)


def ml2r_weights(last_level: int, alpha: float):
    """Bias-cancelling weights w_j and their suffix sums W_l.

    w_j alternates in sign with magnitude 2^(-alpha (L-j)(L-j+1)/2) over
    the product of (1 - 2^(-k alpha)) factors; the w_j sum to 1, so the
    leading suffix sum W_0 is 1 and the estimator stays unbiased at fixed
    resolution.
    """
    if last_level < 1 or alpha <= 0.0:
        raise ValueError("need last_level >= 1 and alpha > 0")
    factors = [1.0 - 2.0 ** (-k * alpha) for k in range(1, last_level + 1)]
    gaps = range(last_level, -1, -1)
    num = [(-1.0) ** gap * 2.0 ** (-0.5 * alpha * gap * (gap + 1)) for gap in gaps]
    den = [math.prod(factors[:j] + factors[:gap]) for j, gap in enumerate(gaps)]
    # a factor that rounds to 0 gives non-finite weights, which the plan refuses
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = np.divide(num, den)
        suffix = np.cumsum(w[::-1])[::-1].copy()
    return w, suffix


def ml2r_last_level(epsilon: float, alpha: float, horizon: float) -> int:
    """floor of the explicit depth formula, floored at 1; a ``SamplingFailure``
    past MAX_LEVEL."""
    if epsilon <= 0.0 or alpha <= 0.0:
        raise ValueError("need epsilon > 0 and alpha > 0")
    half_log_t = 0.5 + math.log2(horizon)
    inner = half_log_t**2 + 2.0 / alpha * math.log2(math.sqrt(1.0 + 4.0 * alpha) / epsilon)
    # negative for large epsilon, NaN (inf * 0) once 2 / alpha overflows at
    # epsilon = 1: the floor level applies
    inner = max(0.0, inner)
    raw = math.sqrt(inner) + math.log2(horizon) - 0.5 + 1e-9
    if raw >= MAX_LEVEL + 1:
        raise SamplingFailure(f"eps {epsilon:g} needs level {raw:.1f}, beyond {MAX_LEVEL}")
    return max(1, math.floor(raw))


def ml2r_theta(beta: float, c2: float, varf: float, horizon: float) -> float:
    """theta = T^(-beta/2) sqrt(c2 / varf), balancing level 0 against the couplings."""
    if varf <= 0.0:
        raise SamplingFailure("varf must be positive")
    if c2 <= 0.0:
        raise SamplingFailure("c2 must be positive")
    try:
        scale = horizon ** (-0.5 * beta)
    except OverflowError:  # ml2r_plan refuses a theta that is not finite
        scale = math.inf
    return scale * math.sqrt(c2 / varf)


def ml2r_plan(coupling: str, epsilon: float, alpha: float, beta: float,
              c2: float, varf: float, horizon: float) -> MultilevelPlan:
    """Weighted multilevel plan with fully explicit allocation.

    ``varf`` is the payoff variance V(f(X_T)) estimated by a crude run.
    Level 0 is the single-order crude sampler.  The levels are sized by
    ``mlmc_sample_sizes``, each charged its path steps per sample
    (``path_steps``), on the effective variances
    V_l = (1/2 + 1/(4 alpha (L+1))) varf s_l^2 with s_0 = 1 + theta and
    s_l = theta |W_l| (2^(-beta l/2) + 2^(-beta (l-1)/2)) for l >= 1, W the
    suffix weights: the allocation M_l proportional to s_l / sqrt(C_l) with
    the explicit total of the weighted estimator.  A theta or a suffix
    weight that is not finite fails the plan with a ``SamplingFailure``.
    """
    last = ml2r_last_level(epsilon, alpha, horizon)
    theta = ml2r_theta(beta, c2, varf, horizon)
    _, suffix = ml2r_weights(last, alpha)
    if not (math.isfinite(theta) and np.isfinite(suffix).all()):
        raise SamplingFailure(f"a planned sample size is not finite: theta = {theta:.3g}, max "
                           f"|suffix weight| at alpha = {alpha:.3g}: {np.max(np.abs(suffix)):.3g}")
    levels = np.arange(1, last + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        decay = 2.0 ** (-0.5 * beta * levels) + 2.0 ** (-0.5 * beta * (levels - 1))
        s = np.concatenate(([1.0 + theta], theta * np.abs(suffix[1:]) * decay))
        variances = (0.5 + 0.25 / (alpha * (last + 1))) * varf * s**2
    return _plan("ml2r", coupling, epsilon, variances, suffix, "single")


def run_multilevel(plan: MultilevelPlan, model: SdeModel, payoff: Payoff,
                   seed: int, experiment: int = 0, workers: int = 1) -> EstimatorResult:
    """Run the estimator: sum over levels of weight_l * mean(Z^l samples).

    Streams are independent across (level, block), so the estimate is a
    pure function of (seed, plan) whatever the worker count.  A level
    whose aborted-sample fraction exceeds ``ABORT_TOLERANCE`` fails the
    run.  The cost is the path steps of the samples drawn.  Each level is
    read from its block records (``sample_many``), so it holds one batch of
    values at a time, whatever its size.
    """
    start = time.perf_counter()
    estimate = cost = 0.0
    stats: list[LevelStats] = []
    for level in range(plan.last_level + 1):
        sampler = LevelSampler(model, payoff, plan.level_tags[level])
        m = int(plan.sizes[level])
        sample = sample_many(sampler, level, m, seed, experiment, workers)
        if sample.aborted > ABORT_TOLERANCE * m:
            raise SamplingFailure(f"level {level}: {sample.aborted}/{m} samples aborted")
        level_stats = stats_from_records(level, sample.records)
        stats.append(level_stats)
        cost += sample.cost_units
        estimate += plan.weights[level] * level_stats.mean
    seconds = time.perf_counter() - start
    return EstimatorResult(float(estimate), stats, cost, seconds)


def crude_mc(model: SdeModel, payoff: Payoff, scheme: str = "nv", level: int = 5,
             m: int = 10_000, seed: int = 0, experiment: int = 0,
             workers: int = 1) -> LevelStats:
    """Plain Monte Carlo of f at one discretization level.  No code in the
    package calls it: the tests do, and ``perfbench/spans.py`` times it."""
    sampler = LevelSampler(model, payoff, f"crude-{scheme}")
    return cal.pilot_stats(sampler, [level], m, seed, experiment, workers)[0]


def calibrated_plans(sampler: LevelSampler, kind: str, epsilons, pilot_m: int, seed: int,
                     workers: int = 1, nv_level0: str = "averaged", pilot_levels=range(1, 5),
                     alpha: float | None = None, c1: float | None = None,
                     beta: float | None = None, c2: float | None = None,
                     pilots: dict | None = None) -> tuple[Calibration, list[MultilevelPlan]]:
    """Calibrate from pilots, then plan one estimator of ``kind`` ("mlmc" or
    "ml2r") on ``sampler.coupling`` per epsilon.

    Every calibration pilot is drawn here, and only here.  Each rate is
    fitted on the ``EXP_RATES`` pilot of the scheme that drives it
    (``RATE_COUPLINGS``), a scheme that drives both being drawn once.  Rates
    passed in replace the fitted ones: the weak-rate pilot is drawn only
    where alpha or c1 is not passed in, and the variance-rate pilot only
    where beta or c2 is not.  The depth of every epsilon is checked before
    any other pilot.  Then come v0, v_last per last level
    (gs-nv) and varf (ml2r).  An mlmc plan sizes each level that the
    variance-rate pilot drew from that pilot's own variance, where c2 is
    fitted; every other level of 1..L takes the line c2 2^(-beta l), and a
    c2 passed in keeps the line at every level (``mlmc_plan``).  Every
    pilot level is read through ``calibrate.pilot_stats`` on the one memo
    ``pilots`` of block records, so no block is drawn twice: not across the
    epsilons, nor across the rounds, nor across calls that share the memo.

    The pilot is sized by the run it plans, in whole blocks of
    ``BLOCK_SAMPLES`` samples, with ``pilot_m`` samples per level as the
    cap.  Every pilot level is drawn at m0 = min(pilot_m, 2 blocks) and
    every epsilon planned.  Only if those pilots cost fewer path steps than
    the plans' ``cost_units`` does every level grow, by its later blocks,
    to the blocks that cost as much (at most ``pilot_m``), before every
    epsilon is planned again.  A plan that fails on a pilot below the cap
    is made again on the pilot at the cap.  Returns the ``Calibration`` of
    the round that made the plans, beside them: its samples per level, the
    path steps of the pilots that round read (not those of an earlier
    round), and its rates.
    """
    if kind not in ("mlmc", "ml2r"):
        raise ValueError(f"unknown estimator kind {kind!r}")
    pilots = {} if pilots is None else pilots
    coupling, horizon = sampler.coupling, sampler.model.horizon
    given = (alpha, c1, beta, c2)

    def plan_every_epsilon(m: int) -> tuple[Calibration, list[MultilevelPlan]]:
        """The round's calibration and plans, with m samples per pilot level."""
        read = {}  # (tag, level, experiment) -> path steps of the pilot read

        def pilot(tag: str, levels, experiment: int) -> list[LevelStats]:
            read.update({(tag, level, experiment): m * path_steps(tag, level) for level in levels})
            return cal.pilot_stats(replace(sampler, coupling=tag), levels, m, seed, experiment,
                                   workers, pilots)

        alpha, c1, beta, c2 = given
        weak_tag, var_tag = RATE_COUPLINGS[coupling]
        # each rate pilot is drawn only for a rate that is not passed in
        weak = pilot(weak_tag, pilot_levels, EXP_RATES) if None in (alpha, c1) else None
        var = pilot(var_tag, pilot_levels, EXP_RATES) if None in (beta, c2) else None
        if weak is not None:
            fit = cal.fit_weak_rate(weak)
            alpha, c1 = fit.order if alpha is None else alpha, fit.constant if c1 is None else c1
        if var is not None:
            fit = cal.fit_variance_rate(var)
            beta, c2 = fit.order if beta is None else beta, fit.constant if c2 is None else c2
        direct = var if given[3] is None else ()  # a c2 passed in keeps the line

        # a level past the cap fails before the pilots that depend on it
        lasts = [mlmc_last_level(epsilon, c1, alpha) if kind == "mlmc"
                 else ml2r_last_level(epsilon, alpha, horizon) for epsilon in epsilons]
        if kind == "ml2r":
            varf = pilot("crude-nv", [5], EXP_VARF)[0].variance
            plans = [ml2r_plan(coupling, epsilon, alpha, beta, c2, varf, horizon)
                     for epsilon in epsilons]
        else:
            v0 = pilot(_level_tags(kind, coupling, 1, nv_level0)[0], [0], EXP_V0)[0].variance
            plans = []
            for epsilon, last in zip(epsilons, lasts):
                v_last = (pilot(coupling, [last], EXP_VLAST + last)[0].variance
                          if coupling == "gs-nv" else None)
                plans.append(mlmc_plan(coupling, epsilon, alpha, c1, beta, c2, v0, v_last,
                                       nv_level0, direct))
        return Calibration(m, sum(read.values()), (alpha, c1, beta, c2)), plans

    m = min(pilot_m, 2 * BLOCK_SAMPLES)  # samples per level of every pilot of a round
    try:
        calibration, plans = plan_every_epsilon(m)
        budget = sum(plan.cost_units for plan in plans)
        if calibration.steps < budget and m < pilot_m:
            blocks = math.ceil(budget * m / calibration.steps / BLOCK_SAMPLES)
            m = min(pilot_m, blocks * BLOCK_SAMPLES)
            calibration, plans = plan_every_epsilon(m)
    except SamplingFailure:
        if m == pilot_m:
            raise
        calibration, plans = plan_every_epsilon(pilot_m)
    return calibration, plans
