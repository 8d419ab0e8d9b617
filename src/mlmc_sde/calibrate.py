"""Pilot estimation of level statistics and log2 rate regression.

The bias model is E[Z^l] ~ c1 (1 - 2^alpha) / 2^(alpha l) and the variance
model is V(Z^l) ~ c2 / 2^(beta l).  Orders are fitted by unweighted least
squares on log2 scale and snapped to the nearest half-integer (every rate
this machinery is used to detect is a half-integer); the raw slope is kept
for diagnostics.

Level statistics are read from the fold ``schemes.central_moments`` of a
level's per-block records, so they depend only on the stream and the sample
size, not on the worker count or the batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .paths import RngStream
from .schemes import BLOCK_SAMPLES, LevelSampler, central_moments, sample_many


class SamplingFailure(Exception):
    """Base of every failure of the sampling or the fits drawn from it (exit 3)."""


class ZeroMean(SamplingFailure, ValueError):
    """No level statistic is finite and nonzero; log-scale regression is impossible."""


class IllConditioned(SamplingFailure, ValueError):
    """Fewer than two usable points were supplied to a rate fit."""


class NoUsableSamples(SamplingFailure, ValueError):
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
    kurtosis: float = math.nan  # n M4 / M2^2, nan where M2^2 is 0


@dataclass(frozen=True)
class RateFit:
    """Snapped decay order with its constant and the raw regression slope."""

    order: float
    constant: float
    raw_slope: float
    intercept: float
    residuals: np.ndarray = field(default_factory=lambda: np.zeros(0))


def stats_from_records(level: int, records: np.ndarray) -> LevelStats:
    """``LevelStats`` of the samples behind ``block_records`` rows; the
    aborted samples are those that are not finite."""
    n, mean, m2, _, m4 = central_moments(records)
    if n == 0:
        raise NoUsableSamples(f"level {level}: no usable samples")
    # a single sample carries a mean but no variance information
    variance = m2 / (n - 1.0) if n >= 2 else 0.0
    # M2^2 underflows to 0 below M2 of about 1e-162, where M2 itself is not 0
    return LevelStats(level, int(n), mean, variance, mean * mean + m2 / n,
                      math.sqrt(variance / n), int(records[:, 0].sum() - n),
                      n * m4 / (m2 * m2) if m2 * m2 else math.nan)


def square_moments(records: np.ndarray) -> tuple[float, float]:
    """Mean of Z^2 over the finite samples of ``block_records`` rows,
    mean^2 + M2/n, and its standard error: sqrt(s^2 / n), where the sample
    variance of Z^2 is s^2 = (M4 + 4 mean M3 + 4 mean^2 M2 - M2^2 / n) / (n - 1).
    A statistic that overflows, or has no samples to read, is not finite."""
    n, mean, m2, m3, m4 = map(np.float64, central_moments(records))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        var = (m4 + 4.0 * mean * m3 + 4.0 * mean * mean * m2 - m2 * m2 / n) / (n - 1.0)
        return float(mean * mean + m2 / n), float(np.sqrt(var / n))


def pilot_stats(sampler: LevelSampler, levels, m: int, seed: int,
                experiment: int = 0, workers: int = 1,
                memo: dict | None = None) -> list[LevelStats]:
    """Estimate mean and variance of Z^l with independent streams per level.

    ``memo`` maps (sampler, block stream, block samples) to the record
    (``block_records`` row) drawn under that key: a pure function of the
    key, whatever the draw it came from.  A read of m samples looks up the
    keys of its blocks; since whole blocks are prefixes of any larger draw
    and a short last block is found only by a read of the same size, those
    missing are the last ones.  A level draws them, and only them, in at
    most one ``sample_many`` call and adds them to the memo.  Its
    statistics are those of one draw of m samples, and no block is drawn
    twice.
    """
    if m < 2:
        raise ValueError("pilot size must be at least 2")
    memo = {} if memo is None else memo
    out = []
    for level in levels:
        keys = [(sampler, RngStream(seed, experiment, level, i),
                 min(BLOCK_SAMPLES, m - i * BLOCK_SAMPLES)) for i in range(-(-m // BLOCK_SAMPLES))]
        first = next((i for i, key in enumerate(keys) if key not in memo), len(keys))
        if first < len(keys):
            tail = sample_many(sampler, level, m, seed, experiment, workers, first)
            memo.update(zip(keys[first:], tail.records))
        out.append(stats_from_records(level, np.array([memo[key] for key in keys])))
    return out


def snap_half(x: float) -> float:
    """Nearest multiple of 1/2, floored at the smallest admissible order."""
    return max(round(2.0 * x) / 2.0, 0.5)


def log2_line(xs, values):
    """Least-squares line of log2(values) against xs, and every log2 value.

    Points whose log2 is not finite (a zero, negative or non-finite value)
    are left out of the fit; slope and intercept are NaN when fewer than two
    distinct xs remain.
    """
    xs = np.asarray(xs, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log2(np.asarray(values, dtype=float))
    keep = np.isfinite(logs)
    if np.unique(xs[keep]).size < 2:
        return float("nan"), float("nan"), logs
    slope, intercept = np.polyfit(xs[keep], logs[keep], 1)
    return float(slope), float(intercept), logs


def _usable(stats, values):
    levels = np.array([s.level for s in stats], dtype=float)
    vals = np.asarray(values, dtype=float)
    keep = np.isfinite(vals) & (vals != 0.0)
    if not keep.any():
        raise ZeroMean("no level statistic is finite and nonzero")
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
    slope, intercept, logs = log2_line(levels, np.abs(means))
    alpha = snap_half(-slope)
    magnitude = 2.0**intercept / (2.0**alpha - 1.0)
    sign = 1.0 if means[0] > 0 else -1.0
    return RateFit(alpha, -sign * magnitude, slope, intercept, logs - (slope * levels + intercept))


def fit_variance_rate(stats: list[LevelStats]) -> RateFit:
    """Fit (beta, c2) from level variances; c2 = 2^intercept > 0."""
    levels, variances = _usable(stats, [s.variance for s in stats])
    slope, intercept, logs = log2_line(levels, variances)
    beta = snap_half(-slope)
    return RateFit(beta, 2.0**intercept, slope, intercept, logs - (slope * levels + intercept))


def variance_table(direct: list[LevelStats], last_level: int, beta: float,
                   c2: float, v0: float) -> np.ndarray:
    """Per-level variances of levels 0..last_level, the one rule that sizes
    every plain multilevel plan: ``v0`` at level 0, a pilot's own variance
    at each level 1..last_level of ``direct``, and the line c2 2^(-beta l)
    at every other level.  With no ``direct`` stats it is the line.

    A pure builder: the pilots are drawn by the caller
    (``estimators.calibrated_plans``), and direct levels outside
    1..last_level are not read.
    """
    with np.errstate(over="ignore"):
        variances = c2 * 2.0 ** (-beta * np.arange(last_level + 1))
    variances[0] = v0
    for s in direct:
        if 1 <= s.level <= last_level:
            variances[s.level] = s.variance
    return variances
