import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmc_sde import calibrate, schemes
from mlmc_sde.calibrate import (
    LevelStats,
    SamplingFailure,
    central_moments,
    fit_variance_rate,
    fit_weak_rate,
    log2_line,
    pilot_stats,
    snap_half,
    stats_from_records,
    variance_table,
)
from mlmc_sde.models import ClarkCameronModel, Payoff
from mlmc_sde.schemes import BLOCK_SAMPLES, LevelSampler, block_records, sample_many
from path_reference import block_values

CC = ClarkCameronModel(mu=1.0)
# the refusal of both rate fits where log2_line draws no line
TOO_FEW_LEVELS = "^need two distinct levels with a finite, nonzero statistic$"


class FakeSampler:
    """Stream-driven sampler producing prescribed distributions, for unit tests."""

    coupling = "gs"
    model = CC  # sample_many sizes its batches by model.d

    def __init__(self, kind, value=1.0):
        self.kind = kind
        self.value = value

    def sample(self, level, counts, streams):
        values = [self.block(m, stream) for m, stream in zip(counts, streams)]
        return np.concatenate(values)

    def block(self, m, stream):
        gen = stream.generator()
        if self.kind == "constant":
            values = np.full(m, self.value)
        elif self.kind == "rademacher":
            values = (2 * gen.integers(0, 2, size=m) - 1).astype(float)
        elif self.kind == "normal":
            values = gen.normal(0.0, np.sqrt(self.value), size=m)
        else:
            raise ValueError(self.kind)
        return values


def stats_for(levels, means=None, variances=None, m=1000):
    means = means if means is not None else [1.0] * len(levels)
    variances = variances if variances is not None else [1.0] * len(levels)
    return [
        LevelStats(l, m, mu, var, var + mu**2, np.sqrt(var / m))
        for l, mu, var in zip(levels, means, variances)
    ]


class TestStats:
    def test_basic_moments(self):
        s = stats_from_records(2, block_records(np.array([1.0, 3.0, 5.0])))
        assert s.mean == 3.0
        assert s.variance == 4.0
        assert s.second_moment == pytest.approx(35.0 / 3.0)
        assert s.sem == pytest.approx(np.sqrt(4.0 / 3.0))

    def test_nan_counts_as_aborted(self):
        s = stats_from_records(1, block_records(np.array([1.0, np.nan, 2.0, np.inf])))
        assert s.aborted == 2
        assert s.samples == 2
        assert s.mean == 1.5

    def test_all_bad_rejected(self):
        with pytest.raises(SamplingFailure, match="^level 0: no usable samples$"):
            stats_from_records(0, block_records(np.array([np.nan, np.nan])))

    def test_overflowing_moments_are_infinite(self):
        # the squares of these finite samples overflow: the statistics read
        # inf, with no numpy warning (an error under this suite's filter)
        s = stats_from_records(1, block_records(np.array([1e200, -1e200, 3e200])))
        assert s.mean == pytest.approx(1e200)
        assert s.variance == s.second_moment == s.sem == np.inf


def two_pass(values):
    """(n, mean, M2, M3, M4) of the finite values, each central sum taken
    over the deviations from the mean of all of them."""
    finite = values[np.isfinite(values)]
    d = finite - finite.mean()
    return finite.size, finite.mean(), np.sum(d**2), np.sum(d**3), np.sum(d**4)


def partition_records(values, sizes):
    """Records of consecutive blocks of the given sizes, each at most a block."""
    return np.concatenate([block_records(part)
                           for part in np.split(values, np.cumsum(sizes)[:-1])])


def skewed(size):
    """Shifted lognormal values: a mean far from 0 and a large third moment."""
    return 3.0 + np.random.default_rng(8).lognormal(0.0, 0.7, size=size)


# block sizes of a level's partition into blocks
PARTITIONS = {
    "partial-last-block": [BLOCK_SAMPLES] * 3 + [777],
    "one-sample-blocks": [1] * 300,
    "mixed": [1, BLOCK_SAMPLES, 3, 1, 2000, 1, 500],
}


class TestBlockFold:
    """Level statistics are the block-order fold of per-block records."""

    @pytest.mark.parametrize("poisoned", [False, True], ids=["finite", "nan-inf"])
    @pytest.mark.parametrize("sizes", PARTITIONS.values(), ids=PARTITIONS)
    def test_fold_matches_two_pass(self, sizes, poisoned):
        values = skewed(sum(sizes))
        if poisoned:  # in the one-sample partition, blocks with no finite sample
            values[[0, 5, 17, 250]] = [np.nan, np.inf, -np.inf, np.nan]
        n, *moments = central_moments(partition_records(values, sizes))
        ref_n, *ref = two_pass(values)
        assert n == ref_n
        moments[1], ref[1] = moments[1] / (n - 1), ref[1] / (n - 1)  # the variances
        np.testing.assert_allclose(moments, ref, rtol=1e-13, atol=0.0)

    def test_finite_block_reads_alike_beside_a_poisoned_block(self):
        # alone, the finite block's batch skips the masks; beside a block
        # with a nan and an inf, one batch holds both and applies them
        values = skewed(2 * BLOCK_SAMPLES)
        first, second = values[:BLOCK_SAMPLES], values[BLOCK_SAMPLES:]
        second[[3, 40]] = [np.nan, np.inf]
        alone = block_records(first)
        beside = block_records(values)
        assert alone.shape == (1, 6)
        assert beside[0].tobytes() == alone[0].tobytes()
        size, n, *moments = beside[1]
        ref_n, *ref = two_pass(second)
        assert size == BLOCK_SAMPLES and n == ref_n == BLOCK_SAMPLES - 2
        np.testing.assert_allclose(moments, ref, rtol=1e-13, atol=0.0)

    def test_kurtosis_matches_two_pass(self):
        values = skewed(3 * BLOCK_SAMPLES + 777)
        n, _, m2, _, m4 = two_pass(values)
        s = stats_from_records(0, block_records(values))
        assert s.kurtosis == pytest.approx(n * m4 / m2**2, rel=1e-13)

    def test_kurtosis_of_signs_is_one(self):
        signs = np.tile([1.0, -1.0], BLOCK_SAMPLES + 5)
        assert stats_from_records(0, block_records(signs)).kurtosis == 1.0
        assert np.isnan(stats_from_records(0, block_records(np.full(10, 2.0))).kurtosis)

    def test_kurtosis_where_the_squared_m2_underflows(self):
        # M2 = 5e-321 is not 0, but its square is
        s = stats_from_records(1, block_records(np.array([0.0, 1e-160])))
        assert s.variance > 0.0 and np.isnan(s.kurtosis)

    def test_overflow_in_a_later_block_leaves_the_variance_infinite(self):
        # block 1's M3 is inf - inf; it stays out of the variance, silently
        values = np.append(np.ones(BLOCK_SAMPLES), [1e200, -1e200, 3e200])
        s = stats_from_records(1, block_records(values))
        assert np.isfinite(s.mean)
        assert s.variance == s.second_moment == s.sem == np.inf

    def test_no_usable_sample_in_any_block(self):
        with pytest.raises(SamplingFailure, match="^level 0: no usable samples$"):
            stats_from_records(0, block_records(np.full(BLOCK_SAMPLES + 3, np.nan)))

    def test_values_give_the_streamed_statistics(self):
        sampler = LevelSampler(CC, Payoff("u-squared"), "nv")
        m = 2 * BLOCK_SAMPLES + 100
        streamed = stats_from_records(2, sample_many(sampler, 2, m, seed=9, experiment=4).records)
        values = block_values(sampler, 2, m, seed=9, experiment=4)
        assert stats_from_records(2, block_records(values)) == streamed

    def test_worker_count_invariance(self, pooled):
        sampler = LevelSampler(CC, Payoff("u-squared"), "gs")
        solo, duo = (stats_from_records(2, sample_many(sampler, 2, 3 * BLOCK_SAMPLES + 5, seed=6,
                                                       workers=workers).records)
                     for workers in (1, 2))
        assert pooled == [2]
        assert solo == duo

    def test_batching_invariance(self, monkeypatch):
        sampler = LevelSampler(CC, Payoff("u-squared"), "gs-nv")
        batched = stats_from_records(1, sample_many(sampler, 1, 5 * BLOCK_SAMPLES + 5,
                                                    seed=6).records)
        monkeypatch.setattr(schemes, "BATCH_BLOCKS", 1)
        alone = stats_from_records(1, sample_many(sampler, 1, 5 * BLOCK_SAMPLES + 5,
                                                  seed=6).records)
        assert alone == batched


class TestPilot:
    def test_constant_sampler(self):
        stats = pilot_stats(FakeSampler("constant", 2.5), [0, 1, 2], 100, seed=1)
        for s in stats:
            assert s.mean == 2.5
            assert s.variance == 0.0

    def test_rademacher_moments(self):
        stats = pilot_stats(FakeSampler("rademacher"), [0], 1_000_000, seed=2)[0]
        assert abs(stats.mean) < 3e-3
        assert abs(stats.variance - 1.0) < 0.01

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            pilot_stats(FakeSampler("constant"), [0], 1, seed=1)

    def test_variance_estimator_unbiased(self):
        estimates = [
            pilot_stats(FakeSampler("normal", 1.0), [0], 500, seed=3, experiment=k)[0].variance
            for k in range(200)
        ]
        estimates = np.array(estimates)
        se = estimates.std(ddof=1) / np.sqrt(estimates.size)
        assert abs(estimates.mean() - 1.0) < 3 * se

    def test_independent_streams_per_level(self):
        a, b = pilot_stats(FakeSampler("normal", 1.0), [3, 4], 100, seed=4)
        assert a.mean != b.mean


class TestPilotGrowth:
    """A pilot grown through the memo, by its later blocks only, has the
    statistics of the pilot drawn at its final size."""

    @pytest.mark.parametrize("coupling", ["gs", "nv", "gs-nv", "crude-nv",
                                          "level0-nv-averaged"])
    def test_grown_pilot_is_the_pilot_at_its_size(self, coupling):
        sampler = LevelSampler(CC, Payoff("u-squared"), coupling)
        cap = 3 * BLOCK_SAMPLES + 100  # a partial last block
        grown, capped = {}, {}
        for memo in (grown, capped):
            pilot_stats(sampler, [1, 2], 2 * BLOCK_SAMPLES, 5, 7, memo=memo)
        # 2 -> 3 blocks, then on to the cap; and 2 blocks straight to the cap
        for memo, m in ((grown, 3 * BLOCK_SAMPLES), (grown, cap), (capped, cap)):
            assert pilot_stats(sampler, [1, 2], m, 5, 7, memo=memo) == \
                pilot_stats(sampler, [1, 2], m, 5, 7)

    def test_each_block_is_drawn_once(self, monkeypatch):
        sampler, memo, draws = FakeSampler("normal"), {}, []
        sizes = [2 * BLOCK_SAMPLES + 10, BLOCK_SAMPLES, 3 * BLOCK_SAMPLES + 10,
                 2 * BLOCK_SAMPLES + 10, 2 * BLOCK_SAMPLES + 20]
        alone = [pilot_stats(sampler, [0], m, 1) for m in sizes]
        draw = calibrate.sample_many

        def counted(sampler, level, m, seed, experiment=0, workers=1, first_block=0):
            draws.append((m, first_block))
            return draw(sampler, level, m, seed, experiment, workers, first_block)

        monkeypatch.setattr(calibrate, "sample_many", counted)
        assert [pilot_stats(sampler, [0], m, 1, memo=memo) for m in sizes] == alone
        # whole blocks serve any read that covers them; a short last block is
        # no prefix of a larger draw, so only a read of its own size finds it
        assert draws == [(2 * BLOCK_SAMPLES + 10, 0), (3 * BLOCK_SAMPLES + 10, 2),
                         (2 * BLOCK_SAMPLES + 20, 2)]


class TestLog2Line:
    def test_one_x_has_no_line(self):
        slope, intercept, logs = log2_line([3], [0.25])
        assert np.isnan(slope) and np.isnan(intercept)
        np.testing.assert_array_equal(logs, [-2.0])

    @pytest.mark.parametrize("xs, values", [
        ([2, 2, 2], [0.5, 0.25, 0.125]),  # repeated xs fix no line
        ([1, 1, 2], [0.5, 0.25, 0.0]),    # the only other x has no finite log
    ])
    def test_one_distinct_x_has_no_line(self, xs, values):
        slope, intercept, _ = log2_line(xs, values)
        assert np.isnan(slope) and np.isnan(intercept)

    def test_unusable_values_are_dropped(self):
        xs = [0, 1, 2, 3, 4, 5, 6]
        values = [0.5, 0.0, -1.0, np.nan, np.inf, 0.125, 0.03]
        slope, intercept, logs = log2_line(xs, values)
        kept = [0, 5, 6]
        expected = np.polyfit(np.array(kept, float), np.log2([values[i] for i in kept]), 1)
        assert (slope, intercept) == tuple(expected)
        assert logs[1] == -np.inf and logs[4] == np.inf
        assert np.isnan(logs[[2, 3]]).all()

    def test_equals_polyfit_bit_for_bit(self):
        gen = np.random.default_rng(5)
        xs = np.array([1.0, 1.0, 2.0, 3.0, 3.0, 4.0])  # a pooled fit repeats xs
        values = gen.uniform(0.01, 2.0, xs.size)
        slope, intercept, logs = log2_line(xs, values)
        expected = np.polyfit(xs, np.log2(values), 1)
        assert (slope, intercept) == (expected[0], expected[1])
        np.testing.assert_array_equal(logs, np.log2(values))


class TestWeakFit:
    def test_exact_order_one(self):
        # means generated from the bias model with c1 = -1, alpha = 1 are +2^-l
        fit = fit_weak_rate(stats_for([1, 2, 3, 4], means=[0.5, 0.25, 0.125, 0.0625]))
        assert fit.order == 1.0
        assert fit.constant == pytest.approx(-1.0, abs=1e-12)
        assert fit.raw_slope == pytest.approx(-1.0, abs=1e-12)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-12)

    def test_exact_order_two(self):
        fit = fit_weak_rate(stats_for([1, 2, 3, 4], means=[4.0**-l for l in range(1, 5)]))
        assert fit.order == 2.0

    def test_sign_follows_means(self):
        fit = fit_weak_rate(stats_for([1, 2, 3], means=[-0.5, -0.25, -0.125]))
        assert fit.constant == pytest.approx(1.0, abs=1e-12)

    @given(
        alpha=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
        c1=st.floats(0.05, 5.0),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_recovery_from_model(self, alpha, c1, sign):
        c1 = sign * c1
        means = [c1 * (1 - 2.0**alpha) / 2.0 ** (alpha * l) for l in range(1, 5)]
        fit = fit_weak_rate(stats_for([1, 2, 3, 4], means=means))
        assert fit.order == alpha
        assert fit.constant == pytest.approx(c1, rel=1e-10)

    def test_zero_means_rejected(self):
        with pytest.raises(SamplingFailure, match=TOO_FEW_LEVELS):
            fit_weak_rate(stats_for([1, 2, 3], means=[0.0, 0.0, 0.0]))

    def test_single_usable_point_rejected(self):
        with pytest.raises(SamplingFailure, match=TOO_FEW_LEVELS):
            fit_weak_rate(stats_for([1, 2], means=[0.5, 0.0]))

    def test_reference_rates_for_smooth_payoff(self):
        # Milstein-type coupling on the smooth payoff: order 1 bias, order 2 variance
        sampler = LevelSampler(CC, Payoff("cos-u"), "gs")
        stats = pilot_stats(sampler, range(1, 5), 10_000, seed=17, experiment=5)
        assert fit_weak_rate(stats).order == 1.0
        assert fit_variance_rate(stats).order == 2.0


class TestVarianceFit:
    def test_exact(self):
        fit = fit_variance_rate(stats_for([1, 2, 3, 4], variances=[4.0**-l for l in range(1, 5)]))
        assert fit.order == 2.0
        assert fit.constant == pytest.approx(1.0, rel=1e-12)

    def test_constant_positive(self):
        fit = fit_variance_rate(stats_for([1, 2, 3], variances=[0.3, 0.15, 0.075]))
        assert fit.constant > 0

    @pytest.mark.parametrize("value", [0.0, np.inf])
    def test_refusal_names_both_causes(self, value):
        # every statistic infinite is refused like every statistic zero, and
        # the message covers both
        with pytest.raises(SamplingFailure, match=TOO_FEW_LEVELS):
            fit_variance_rate(stats_for([1, 2, 3], variances=[value] * 3))


class TestLineRule:
    @pytest.mark.parametrize("fit", [fit_weak_rate, fit_variance_rate])
    def test_one_level_twice_is_refused(self, fit):
        # two finite, nonzero statistics at one level draw no line
        with pytest.raises(SamplingFailure, match=TOO_FEW_LEVELS):
            fit(stats_for([2, 2], means=[0.5, 0.25], variances=[0.5, 0.25]))

    def test_sign_and_residuals_from_the_kept_levels(self):
        # a zero mean at level 1 is left out: the sign is that of level 2's
        # mean, and one residual is read per kept level
        means = [0.0] + [-(1 - 2.0) / 2.0**l for l in range(2, 5)]
        fit = fit_weak_rate(stats_for([1, 2, 3, 4], means=means))
        assert (fit.order, fit.constant) == (1.0, pytest.approx(-1.0, rel=1e-12))
        assert fit.residuals.shape == (3,)


class TestSnap:
    @given(st.floats(-0.24, 0.24), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_snaps_within_band(self, jitter, half_steps):
        target = half_steps / 2.0
        assert snap_half(target + jitter) == target

    def test_floor(self):
        assert snap_half(-1.3) == 0.5
        assert snap_half(0.1) == 0.5


class TestVarianceTable:
    """One rule: v0 at level 0, a direct level's own variance, else the line."""

    def test_line_without_direct_levels(self):
        np.testing.assert_array_equal(variance_table([], 3, 2.0, 0.3, v0=0.9),
                                      [0.9, 0.3 / 4.0, 0.3 / 16.0, 0.3 / 64.0])
        line = 0.3 * 2.0 ** (-1.5 * np.arange(3))
        np.testing.assert_array_equal(variance_table([], 2, 1.5, 0.3, v0=0.9)[1:], line[1:])

    def test_direct_levels_take_their_own_variance(self):
        direct = stats_for([1, 2], variances=[0.5, 0.3])
        table = variance_table(direct, 4, 2.0, 0.8, v0=0.9)
        np.testing.assert_array_equal(table, [0.9, 0.5, 0.3, 0.8 / 64.0, 0.8 / 256.0])

    def test_levels_outside_one_to_last_are_not_read(self):
        # level 1 lies below the pilot and takes the line; levels 4-5 lie above L
        direct = stats_for([0, 2, 3, 4, 5], variances=[7.0, 0.3, 0.2, 0.1, 0.05])
        table = variance_table(direct, 3, 2.0, 0.8, v0=0.9)
        np.testing.assert_array_equal(table, [0.9, 0.2, 0.3, 0.2])

    def test_zero_variances_give_a_zero_table(self):
        table = variance_table(stats_for([1, 2, 3], variances=[0.0] * 3), 3, 2.0, 1.0, v0=0.0)
        np.testing.assert_array_equal(table, np.zeros(4))
        assert variance_table(stats_for([1], variances=[0.0]), 3, 2.0, 1.0, v0=1.0).tolist() == [
            1.0, 0.0, 1.0 / 16.0, 1.0 / 64.0]
