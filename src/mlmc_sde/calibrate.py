"""Pilot estimation of level statistics and log2 rate regression.

The bias model is E[Z^l] ~ c1 (1 - 2^alpha) / 2^(alpha l) and the variance
model is V(Z^l) ~ c2 / 2^(beta l).  Orders are fitted by unweighted least
squares on log2 scale and snapped to the nearest half-integer (every rate
this machinery is used to detect is a half-integer); the raw slope is kept
for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .schemes import LevelSample, LevelSampler, sample_many


class ZeroMean(ValueError):
    """All usable level means vanish; log-scale regression is impossible."""


class IllConditioned(ValueError):
    """Fewer than two usable points were supplied to a rate fit."""


class NoUsableSamples(ValueError):
    """Every sample of a level aborted or came out non-finite."""


@dataclass(frozen=True)
class LevelStats:
    """Per-level sample statistics of Z^l."""

    level: int
    samples: int
    mean: float
    variance: float
    second_moment: float
    sem: float
    aborted: int = 0


@dataclass(frozen=True)
class RateFit:
    """Snapped decay order with its constant and the raw regression slope."""

    order: float
    constant: float
    raw_slope: float
    intercept: float
    residuals: np.ndarray = field(default_factory=lambda: np.zeros(0))


def stats_from_values(level: int, values: np.ndarray, aborted: int = 0) -> LevelStats:
    finite = values[np.isfinite(values)]
    n = finite.size
    aborted = aborted + (values.size - n)
    if n == 0:
        raise NoUsableSamples(f"level {level}: no usable samples")
    mean = float(finite.mean())
    # a single sample carries a mean but no variance information
    variance = float(finite.var(ddof=1)) if n >= 2 else 0.0
    second = float(np.mean(finite**2))
    return LevelStats(level, n, mean, variance, second, float(np.sqrt(variance / n)), aborted)


def stats_from_sample(sample: LevelSample) -> LevelStats:
    return stats_from_values(sample.level, sample.values)


def pilot_stats(sampler: LevelSampler, levels, m: int, seed: int,
                experiment: int = 0, workers: int = 1,
                memo: dict | None = None) -> list[LevelStats]:
    """Estimate mean and variance of Z^l with independent streams per level.

    ``memo`` maps (sampler, level, m, seed, experiment) to the statistics
    already drawn under that stream key; levels found there are not drawn
    again, and new ones are added.
    """
    if m < 2:
        raise ValueError("pilot size must be at least 2")
    memo = {} if memo is None else memo
    out = []
    for level in levels:
        key = (sampler, level, m, seed, experiment)
        if key not in memo:
            memo[key] = stats_from_sample(sample_many(sampler, level, m, seed, experiment, workers))
        out.append(memo[key])
    return out


def snap_half(x: float) -> float:
    """Nearest multiple of 1/2, floored at the smallest admissible order."""
    return max(round(2.0 * x) / 2.0, 0.5)


def _log2_line(levels: np.ndarray, logs: np.ndarray):
    slope, intercept = np.polyfit(levels, logs, 1)
    residuals = logs - (slope * levels + intercept)
    return float(slope), float(intercept), residuals


def _usable(stats, values):
    levels = np.array([s.level for s in stats], dtype=float)
    vals = np.asarray(values, dtype=float)
    keep = np.isfinite(vals) & (vals != 0.0)
    if not keep.any():
        raise ZeroMean("every level statistic is zero")
    if keep.sum() < 2:
        raise IllConditioned("need at least two usable levels")
    return levels[keep], vals[keep]


def fit_weak_rate(stats: list[LevelStats]) -> RateFit:
    """Fit (alpha, c1) from level means.

    The intercept of the log2|mean| line equals log2(|c1| (2^alpha - 1));
    the sign of c1 is opposite to the sign of the means, because the level
    mean carries the factor (1 - 2^alpha) < 0.
    """
    levels, means = _usable(stats, [s.mean for s in stats])
    slope, intercept, residuals = _log2_line(levels, np.log2(np.abs(means)))
    alpha = snap_half(-slope)
    magnitude = 2.0**intercept / (2.0**alpha - 1.0)
    sign = 1.0 if means[0] > 0 else -1.0
    return RateFit(alpha, -sign * magnitude, slope, intercept, residuals)


def fit_variance_rate(stats: list[LevelStats]) -> RateFit:
    """Fit (beta, c2) from level variances; c2 = 2^intercept > 0."""
    levels, variances = _usable(stats, [s.variance for s in stats])
    slope, intercept, residuals = _log2_line(levels, np.log2(variances))
    beta = snap_half(-slope)
    return RateFit(beta, 2.0**intercept, slope, intercept, residuals)


def detect_inflection(stats: list[LevelStats], fit: RateFit,
                      threshold_log2: float = 0.5):
    """Smallest level whose log2 variance leaves the fitted line.

    Returns None when every level stays within ``threshold_log2`` of the
    raw regression line; used to decide whether the asymptotic variance
    model can size the estimator or direct estimates are needed.
    """
    for s in stats:
        if s.variance <= 0.0:
            continue
        predicted = fit.intercept + fit.raw_slope * s.level
        if abs(np.log2(s.variance) - predicted) > threshold_log2:
            return s.level
    return None


def variance_table(sampler: LevelSampler, last_level: int, inflection: int,
                   beta_theoretical: float, m: int, seed: int,
                   experiment: int = 0, workers: int = 1,
                   v0: float | None = None, memo: dict | None = None) -> np.ndarray:
    """Per-level variances: direct Monte Carlo up to the inflection level,
    decaying extrapolation V_hat(inflection) * 2^(-beta (l - inflection)) beyond.

    A known level-0 variance ``v0`` takes the place of the level-0 draw;
    the direct draws go through ``pilot_stats`` and its ``memo``.
    """
    if inflection > last_level:
        raise ValueError("inflection level beyond the last level")
    table = np.zeros(last_level + 1)
    if v0 is not None:
        table[0] = v0
    direct = range(0 if v0 is None else 1, inflection + 1)
    stats = pilot_stats(sampler, direct, m, seed, experiment, workers, memo)
    table[direct.start:direct.stop] = [s.variance for s in stats]
    pivot = table[inflection]
    for level in range(inflection + 1, last_level + 1):
        table[level] = pivot * 2.0 ** (-beta_theoretical * (level - inflection))
    return table
