import functools
import hashlib
import inspect
import os
import re

import numpy as np
import pytest

from mlmc_sde import schemes
from mlmc_sde.calibrate import stats_from_records
from mlmc_sde.estimators import crude_mc
from mlmc_sde.models import ClarkCameronModel, HestonModel, Payoff
from mlmc_sde.paths import RngStream, sample_level_path
from mlmc_sde.schemes import (
    BLOCK_SAMPLES,
    COUPLINGS,
    LevelMoments,
    LevelSampler,
    block_records,
    central_moments,
    coupling_errors,
    gs_step,
    nv_step,
    path_steps,
    sample_level,
    sample_many,
    simulate_path,
)
from path_reference import (
    antithetic_swap,
    block_streams,
    block_values,
    coarsen,
    rademacher_coarse,
)

CC = ClarkCameronModel(mu=1.0)
HESTON = HestonModel()
COS = Payoff("cos-u")
USQ = Payoff("u-squared")


def where_step(model, x, h, dw, ascending):
    """The single-path splitting step: each sample of x (m, n) takes the
    composition order np.where(ascending, up, down) picks."""
    up = down = model.drift_flow(tuple(x.T), 0.5 * h)
    for j in range(1, model.d + 1):
        up = model.diffusion_flow(j, up, dw[:, j - 1])
    for j in range(model.d, 0, -1):
        down = model.diffusion_flow(j, down, dw[:, j - 1])
    y = tuple(np.where(ascending, a, b) for a, b in zip(up, down))
    return np.stack(model.drift_flow(y, 0.5 * h), axis=-1)


def where_path(model, level, dw, ascending):
    """Terminal states of single paths stepped by where_step over the 2^level
    steps of the model's horizon; ascending is a bool (m, steps) array."""
    x, steps = model.initial_state(dw.shape[0]), 2**level
    for k in range(steps):
        x = where_step(model, x, model.horizon / steps, dw[:, :, k], ascending[:, k])
    return x


def exchange_mask(flags):
    """nv_step's uint64 exchange mask: all ones where flags is true."""
    return np.where(flags, np.uint64(2**64 - 1), np.uint64(0))


class TestSteps:
    def test_nv_step_hand_values(self):
        # one step from equal halves, exchanged where eta <= 0, gives the path
        # on eta and its twin; the dW1 dW2 product appears only in the
        # descending composition
        x = np.zeros((2, 2))
        dw = np.array([[1.0, 1.0]])
        np.testing.assert_allclose(nv_step(CC, x, 1.0, dw, exchange_mask([True])),
                                   [[1.5, 2.0], [0.5, 2.0]])
        np.testing.assert_allclose(nv_step(CC, x, 1.0, dw, exchange_mask([False])),
                                   [[0.5, 2.0], [1.5, 2.0]])

    def test_nv_step_mixed_signs_batch(self):
        x = np.zeros((4, 2))
        dw = np.ones((2, 2))
        out = nv_step(CC, x, 1.0, dw, exchange_mask(np.array([1, -1]) <= 0))
        np.testing.assert_allclose(out, [[0.5, 2.0], [1.5, 2.0], [1.5, 2.0], [0.5, 2.0]])

    @pytest.mark.parametrize("model", [CC, HESTON], ids=["clark-cameron", "heston"])
    def test_nv_step_batch_equals_single_samples(self, model):
        # each sample of a mixed-exchange batch of distinct halves is stepped
        # bit for bit as if alone, zero increments included
        rng = np.random.default_rng(43)
        m, h = 12, 0.125
        x = np.stack([rng.normal(size=2 * m), rng.uniform(0.3, 2.5, size=2 * m)], axis=-1)
        dw = rng.normal(scale=np.sqrt(h), size=(m, 2))
        dw[::3, 1] = 0.0
        dw[1::4] = 0.0
        exchange = exchange_mask(rng.random(m) < 0.5)
        assert set(exchange) == {0, 2**64 - 1}
        batch = nv_step(model, x, h, dw, exchange)
        for i in range(m):
            rows = [i, m + i]
            alone = nv_step(model, x[rows], h, dw[i:i + 1], exchange[i:i + 1])
            np.testing.assert_array_equal(batch[rows], alone)

    @pytest.mark.parametrize("model", [CC, HESTON], ids=["clark-cameron", "heston"])
    def test_nv_step_exchange_matches_where_bit_for_bit(self, model):
        # the first half ascends, the second descends, and each sample's
        # halves land where np.where on its exchange flag would put them, bit
        # for bit: NaN payloads, infinities and signed zeros pass through
        rng = np.random.default_rng(53)
        h = 0.125
        nan = np.array(0x7FF8_0000_0000_0123, dtype=np.uint64).view(np.float64)
        # no -inf variance: Heston's flows reject a negative variance
        special = [(nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (-0.0, 1.0), (0.0, 1.0),
                   (0.3, nan), (0.3, np.inf), (0.3, -0.0), (0.3, 0.0)]
        rows = [[u, v] for u, v in special] + [[u, v] for u, v in zip(
            rng.normal(size=8), rng.uniform(0.3, 2.5, size=8))]
        # every row once in each half, once exchanged and once kept
        up = np.repeat(np.array(rows), 2, axis=0)
        down = np.roll(up, 5, axis=0)
        flags = np.tile([False, True], len(rows))
        dw = rng.normal(scale=np.sqrt(h), size=(len(up), 2))
        dw[-6:-3] = -0.0
        with np.errstate(all="ignore"):
            out = nv_step(model, np.concatenate([up, down]), h, dw, exchange_mask(flags))
            a = where_step(model, up, h, dw, True)
            b = where_step(model, down, h, dw, False)
        swapped = flags[:, None]
        expected = np.concatenate([np.where(swapped, b, a), np.where(swapped, a, b)])
        np.testing.assert_array_equal(out.view(np.uint64), expected.view(np.uint64))
        # the two orders differ, so the exchange is exercised
        with np.errstate(all="ignore"):
            assert not np.array_equal(a, where_step(model, up, h, dw, False), equal_nan=True)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    @pytest.mark.parametrize("model", [CC, HESTON], ids=["clark-cameron", "heston"])
    def test_nv_pair_matches_single_path_steps(self, model, dtype):
        # over 8 steps of mixed signs the pair is, bit for bit, the single
        # path stepped by where_step on eta > 0 and its twin on the other
        # order: a zero sign makes the path descend and the twin ascend, and
        # NaN payloads, infinities and signed zeros pass through
        path = sample_level_path(RngStream(59, 0, 3, 0), model, 3, m=64)
        dw, eta = path.dw.copy(order="F"), path.eta.astype(dtype, order="F")
        eta[::7, 1::3] = 0
        dw[0, 0, 3] = np.array(0x7FF8_0000_0000_0123, dtype=np.uint64).view(np.float64)
        dw[1, 1, 2], dw[2, 0, 5] = np.inf, -np.inf
        dw[3, :, 4:] = -0.0
        ascending = eta > 0
        assert ascending.any() and not ascending.all() and (eta == 0).any()
        with np.errstate(all="ignore"):
            pair = simulate_path("nv", model, 3, dw, eta)
            expected = np.concatenate([where_path(model, 3, dw, ascending),
                                       where_path(model, 3, dw, ~ascending)])
            descending = simulate_path("nv", model, 3, dw, np.where(eta == 0, -1, eta))
            ascends = simulate_path("nv", model, 3, dw, np.where(eta == 0, 1, eta))
        np.testing.assert_array_equal(pair.view(np.uint64), expected.view(np.uint64))
        assert pair.tobytes() == descending.tobytes()
        # the two orders differ, so the choice is exercised
        assert pair.tobytes() != ascends.tobytes()

    @pytest.mark.parametrize("model", [CC, HESTON, HestonModel(negative_variance="reflect")])
    def test_gs_step_batch_equals_single_samples(self, model):
        # each sample of a mixed batch is stepped bit for bit as if alone;
        # the zero increments and v < 0 states cover skipped and NaN terms
        rng = np.random.default_rng(47)
        m, h = 12, 0.125
        x = np.stack([rng.normal(size=m), rng.uniform(0.3, 2.5, size=m)], axis=-1)
        x[::5, 1] = -0.5
        dw = rng.normal(scale=np.sqrt(h), size=(m, 2))
        dw[::3, 1] = 0.0
        dw[1::4] = 0.0
        batch = gs_step(model, x, h, dw)
        for i in range(m):
            alone = gs_step(model, x[i:i + 1], h, dw[i:i + 1])
            np.testing.assert_array_equal(batch[i:i + 1], alone)

    def test_gs_step_hand_value(self):
        out = gs_step(CC, np.array([[0.0, 0.0]]), 1.0, np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(out, [[0.5, 2.0]])

    def test_gs_step_zero_increment_ito_correction(self):
        # dw = 0 leaves x + b h - (1/2) sum_j (d sigma^j) sigma^j h
        h = 0.25
        x = np.array([[0.0, 1.0]])
        out = gs_step(HESTON, x, h, np.zeros((1, 2)))
        v_expected = 1.0 + HESTON.kappa * (HESTON.theta - 1.0) * h - 0.25 * HESTON.sigma**2 * h
        assert out[0, 1] == pytest.approx(v_expected, rel=1e-14)
        assert out[0, 0] == pytest.approx((HESTON.rate - 0.5) * h, rel=1e-12)

    def test_single_step_delegation(self):
        dw = np.array([[[0.4], [-0.2]]])
        eta = np.array([[-1]], dtype=np.int8)
        np.testing.assert_array_equal(
            simulate_path("nv", CC, 0, dw, eta),
            nv_step(CC, CC.initial_state(2), 1.0, dw[:, :, 0], exchange_mask(eta[:, 0] <= 0)),
        )
        np.testing.assert_array_equal(
            simulate_path("gs", CC, 0, dw),
            gs_step(CC, CC.initial_state(1), 1.0, dw[:, :, 0]),
        )

    def test_zero_noise_paths_follow_drift(self):
        for level in (0, 2, 5):
            dw = np.zeros((1, 2, 2**level))
            eta = np.ones((1, 2**level), dtype=np.int8)
            for kind, paths in (("nv", 2), ("gs", 1)):
                out = simulate_path(kind, CC, level, dw, eta)
                np.testing.assert_allclose(out, [[0.0, 1.0]] * paths, atol=1e-14)

    def test_s_coordinate_ignores_signs(self):
        path = sample_level_path(RngStream(3, 0, 3, 0), CC, 3, m=64)
        plus = simulate_path("nv", CC, 3, path.dw, path.eta)
        minus = simulate_path("nv", CC, 3, path.dw, -path.eta)
        np.testing.assert_array_equal(plus[:, 1], minus[:, 1])
        assert not np.array_equal(plus[:64, 0], minus[:64, 0])
        # the twin is the path on the negated signs
        assert plus[64:].tobytes() == minus[:64].tobytes()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            simulate_path("gs", CC, 2, np.zeros((1, 2, 3)))
        with pytest.raises(ValueError):
            simulate_path("nv", CC, 2, np.zeros((1, 2, 4)))
        with pytest.raises(ValueError):
            simulate_path("euler", CC, 2, np.zeros((1, 2, 4)))

    @pytest.mark.parametrize("shape", [(1, 4), (3, 4), (5, 3), (4,)])
    def test_signs_match_the_increments(self, shape):
        # one sign per sample and step: no broadcast of one row over samples
        dw = np.zeros((5, 2, 4))
        with pytest.raises(ValueError, match=re.escape(f"signs shaped {shape}, increments "
                                                       f"{dw.shape}")):
            simulate_path("nv", CC, 2, dw, np.ones(shape, dtype=np.int8))

    @pytest.mark.parametrize("kind", ["nv", "gs"])
    @pytest.mark.parametrize("model", [CC, HESTON], ids=["clark-cameron", "heston"])
    def test_flags_read_the_derived_arrays(self, model, kind):
        # a path reading swapped or pairwise increments per step is the path
        # on the array paths.py builds, bit for bit, and an nv path's twin is
        # the path on the negated signs
        path = sample_level_path(RngStream(19, 0, 3, 0), model, 3, m=64)
        dw, eta = path.dw, path.eta
        coarse_dw, coarse_eta = coarsen(dw), rademacher_coarse(eta)
        pairs = [
            ((3, dw, eta, False), (3, dw, eta)),
            ((3, dw, eta, True), (3, antithetic_swap(dw), eta)),
            ((3, dw, -eta, True), (3, antithetic_swap(dw), -eta)),
            ((2, dw, eta, False), (2, coarse_dw, coarse_eta)),
            ((2, dw, -eta, False), (2, coarse_dw, -coarse_eta)),
        ]
        for read, built in pairs:
            got = simulate_path(kind, model, *read)
            assert got.tobytes() == simulate_path(kind, model, *built).tobytes()
            if kind == "nv":
                level, dws, signs = built
                twin = np.split(got, 2)[1]
                negated = np.split(simulate_path(kind, model, level, dws, -signs), 2)[0]
                assert twin.tobytes() == negated.tobytes()

    def test_flag_validation(self):
        with pytest.raises(ValueError):  # no pair to swap on one step
            simulate_path("gs", CC, 0, np.zeros((1, 2, 1)), swap=True)
        with pytest.raises(ValueError):  # a path reads its grid's steps or twice that
            simulate_path("gs", CC, 1, np.zeros((1, 2, 3)))
        with pytest.raises(ValueError):
            simulate_path("gs", CC, 1, np.zeros((1, 2, 6)))
        with pytest.raises(ValueError):  # signs as long as the increments read pairwise
            simulate_path("nv", CC, 1, np.zeros((1, 2, 4)),
                          np.ones((1, 2), dtype=np.int8))


class TestOneOrderPaths:
    """An nv path simulated without its twin is rows [:m] of the pair."""

    @pytest.mark.parametrize("level", [0, 3, 5], ids=["1-step", "8-steps", "32-steps"])
    @pytest.mark.parametrize("model", [CC, HESTON], ids=["clark-cameron", "heston"])
    def test_equals_the_pair_rows(self, model, level):
        # bit for bit on the grid's own increments, swapped ones and ones read
        # pairwise, with zero signs, NaN payloads, infinities and signed zeros
        m, reads = 64, []
        for finer in (0, 1):
            path = sample_level_path(RngStream(61, 0, level + finer, 0), model, level + finer,
                                     m=m)
            dw, eta = path.dw.copy(order="F"), path.eta.copy(order="F")
            eta[::5, ::3] = 0
            dw[0, 0, -1] = np.array(0x7FF8_0000_0000_0123, dtype=np.uint64).view(np.float64)
            dw[1, 1, 0], dw[2, 0, -1] = np.inf, -np.inf
            dw[3] = -0.0
            reads.append((dw, eta, False))
            if level and not finer:
                reads.append((dw, eta, True))
        assert len(reads) == (3 if level else 2)
        for dw, eta, swap in reads:
            with np.errstate(all="ignore"):
                pair = simulate_path("nv", model, level, dw, eta, swap)
                alone = simulate_path("nv", model, level, dw, eta, swap, twin=False)
            assert alone.shape == (m, model.n) and alone.T.flags.c_contiguous
            assert alone.tobytes() == pair[:m].tobytes()
            if not swap and dw.shape[-1] == 2**level:
                with np.errstate(all="ignore"):
                    reference = where_path(model, level, dw, eta > 0)
                assert alone.tobytes() == reference.tobytes()

    def test_kernel_rows(self, monkeypatch):
        # a path used without its twin is stepped alone: crude-nv kernel calls
        # carry m rows, and the calls of couplings that use the twins 2m; the
        # coarse path of coupling_errors is stepped alone too.  Every step runs
        # two drift half-flows, each over all of the kernel's rows
        rows, flows, step, flow = [], [], schemes.nv_step, HestonModel.drift_flow

        def counted(model, x, *args):
            rows.append(x.shape[0])
            return step(model, x, *args)

        def counted_flow(model, c, t):
            flows.append(c[0].shape[0])
            return flow(model, c, t)

        monkeypatch.setattr(schemes, "nv_step", counted)
        monkeypatch.setattr(HestonModel, "drift_flow", counted_flow)
        m, call = 24, Payoff("heston-call", rate=HESTON.rate)
        for coupling, level, expected in (("crude-nv", 0, [m]), ("crude-nv", 3, [m] * 8),
                                          ("level0-nv-averaged", 0, [2 * m]),
                                          ("nv", 3, [2 * m] * 20), ("gs-nv", 3, [2 * m] * 16)):
            rows.clear()
            flows.clear()
            sample_level(HESTON, call, coupling, level, m, RngStream(5))
            assert rows == expected, coupling
            assert flows == [r for r in expected for _ in range(2)], coupling
        rows.clear()
        flows.clear()
        coupling_errors(HESTON, [3], m, seed=5)
        assert rows == [2 * m] * 8 + [m] * 4
        assert flows == [r for r in rows for _ in range(2)]


class TestLayout:
    @pytest.mark.parametrize("model", [CC, HESTON], ids=["clark-cameron", "heston"])
    def test_states_are_coordinate_major(self, model):
        path = sample_level_path(RngStream(6), model, 1, m=32)
        x, pair = model.initial_state(32), model.initial_state(64)
        nv = nv_step(model, pair, 0.5, path.dw[:, :, 0], exchange_mask(path.eta[:, 0] <= 0))
        gs = gs_step(model, x, 0.5, path.dw[:, :, 0])
        # a C-order state steps to the same values, stored coordinate-major
        gs_c = gs_step(model, np.ascontiguousarray(x), 0.5, path.dw[:, :, 0])
        assert gs_c.tobytes() == gs.tobytes()
        for state, rows in ((x, 32), (pair, 64), (nv, 64), (gs, 32), (gs_c, 32)):
            assert state.shape == (rows, model.n) and state.T.flags.c_contiguous

    @pytest.mark.parametrize("level", [1, 6])
    @pytest.mark.parametrize("kind", ["nv", "gs"])
    @pytest.mark.parametrize("model", [CC, HESTON], ids=["clark-cameron", "heston"])
    def test_c_order_inputs_give_the_same_path(self, model, kind, level):
        # a direct caller passing C-order arrays gets the sampling path's result
        path = sample_level_path(RngStream(11, 0, level, 0), model, level, m=64)
        dw, eta = np.ascontiguousarray(path.dw), np.ascontiguousarray(path.eta)
        assert not dw.flags.f_contiguous and not eta.flags.f_contiguous
        expected = simulate_path(kind, model, level, path.dw, path.eta)
        assert simulate_path(kind, model, level, dw, eta).tobytes() == expected.tobytes()


class TestLevelSampleAlgebra:
    def test_gs_level_one_linear_payoff_identity(self):
        # coupling the two-step scheme, its swap and the one-step scheme leaves
        # only the drift-weighted dW1 total: Z = mu T (dw1_1 + dw1_2) / 4
        rng = np.random.default_rng(17)
        dw = rng.normal(size=(50, 2, 2)) * np.sqrt(0.5)
        fine = simulate_path("gs", CC, 1, dw)[:, 0]
        anti = simulate_path("gs", CC, 1, antithetic_swap(dw))[:, 0]
        coarse = simulate_path("gs", CC, 0, coarsen(dw))[:, 0]
        z = 0.5 * (fine + anti) - coarse
        np.testing.assert_allclose(z, 0.25 * (dw[:, 0, 0] + dw[:, 0, 1]), atol=1e-12)

    def test_level0_averaged_composition(self):
        # average of the two composition orders on the same increments
        a, b = 0.7, -0.4
        dw = np.array([[[a], [b]]])
        ones = np.ones((1, 1), dtype=np.int8)
        u_plus, u_minus = simulate_path("nv", CC, 0, dw, ones)[:, 0]
        # the twin is the path on the negated sign
        assert u_minus == simulate_path("nv", CC, 0, dw, -ones)[0, 0]
        assert u_plus == pytest.approx(0.5 * a)
        assert u_minus == pytest.approx(0.5 * a + a * b)
        assert 0.5 * (u_plus + u_minus) == pytest.approx(0.5 * a + 0.5 * a * b)

    @pytest.mark.parametrize("coupling,level", [
        ("gs", 2), ("nv", 2), ("gs-nv", 2),
        ("crude-gs", 0), ("crude-nv", 0), ("level0-nv-averaged", 0),
    ])
    def test_zero_noise_sample_vanishes(self, coupling, level, zero_noise):
        values = sample_level(CC, USQ, coupling, level, 8, RngStream(1))
        np.testing.assert_allclose(values, 0.0, atol=1e-14)

    def test_level_couplings_require_level_one(self):
        with pytest.raises(ValueError):
            sample_level(CC, USQ, "gs", 0, 4, RngStream(1))

    def test_unknown_coupling(self):
        with pytest.raises(ValueError):
            sample_level(CC, USQ, "qmc", 1, 4, RngStream(1))

    # the crude samplers double as the level-0 samplers of gs and single-nv
    # MLMC; the level0-* cases check them in that role, at level 0
    LEVEL0_ROLES = {"level0-gs": "crude-gs", "level0-nv-single": "crude-nv"}

    @pytest.mark.parametrize(
        "tag,fine,coarse",
        sorted([(name, len(f), len(c)) for name, (f, c) in COUPLINGS.items()]
               + [(role, *map(len, COUPLINGS[c])) for role, c in LEVEL0_ROLES.items()]),
    )
    def test_cost_accounting(self, tag, fine, coarse, monkeypatch, zero_noise):
        coupling = self.LEVEL0_ROLES.get(tag, tag)
        level = 0 if tag.startswith("level0") else 3
        grid_levels = []
        simulate = schemes.simulate_path

        def counted(kind, model, grid_level, *args, **kwargs):
            # an nv simulation with twin runs each path with its twin
            call = inspect.signature(simulate).bind(kind, model, grid_level, *args, **kwargs)
            call.apply_defaults()
            pair = kind == "nv" and call.arguments["twin"]
            grid_levels.extend([grid_level] * (2 if pair else 1))
            return simulate(kind, model, grid_level, *args, **kwargs)

        monkeypatch.setattr(schemes, "simulate_path", counted)
        values = sample_level(CC, COS, coupling, level, 5, RngStream(2))
        # the paths simulated per sample, on the fine and the coarse grid, are
        # the paths used
        assert sorted(grid_levels, reverse=True) == [level] * fine + [level - 1] * coarse
        expected = 5 * (fine * 2**level + (coarse * 2 ** (level - 1) if coarse else 0))
        assert values.size * path_steps(coupling, level) == expected

    def test_aborted_counts_nonfinite(self):
        values = sample_level(CC, COS, "gs", 1, 4, RngStream(3))
        assert LevelMoments(block_records(values), 1, "gs").aborted == 0
        poisoned = values.copy()
        poisoned[1] = np.nan
        assert LevelMoments(block_records(poisoned), 1, "gs").aborted == 1


class TestCouplingStatistics:
    def test_antithetic_unbiasedness(self):
        # mean of (f(fine) + f(swapped fine))/2 matches an independent mean of
        # f(fine) within 3 combined standard errors, for both models
        m = 100_000
        for model, seed in ((CC, 23), (HESTON, 24)):
            path = sample_level_path(RngStream(seed, 1, 2, 0), model, 2, m=m)
            fine = COS(simulate_path("gs", model, 2, path.dw))
            anti = COS(simulate_path("gs", model, 2, antithetic_swap(path.dw)))
            paired = 0.5 * (fine + anti)
            other = sample_level_path(RngStream(seed, 2, 2, 0), model, 2, m=m)
            independent = COS(simulate_path("gs", model, 2, other.dw))
            gap = paired.mean() - independent.mean()
            se = np.sqrt(paired.var(ddof=1) / m + independent.var(ddof=1) / m)
            assert abs(gap) < 3 * se

    def test_coarse_term_invariant_under_swap(self):
        # the swap changes no pair sum, so the coarse path is bit-identical
        path = sample_level_path(RngStream(31, 0, 3, 0), CC, 3, m=256)
        for model in (CC, HESTON):
            direct = simulate_path("gs", model, 2, coarsen(path.dw))
            swapped = simulate_path("gs", model, 2, coarsen(antithetic_swap(path.dw)))
            np.testing.assert_array_equal(direct, swapped)

    def test_fine_and_swapped_exchangeable(self):
        # same-draw comparison: the swap changes the path but not the law
        path = sample_level_path(RngStream(37, 0, 3, 0), CC, 3, m=100_000)
        eta = path.eta
        fine = COS(simulate_path("nv", CC, 3, path.dw, eta))
        anti = COS(simulate_path("nv", CC, 3, antithetic_swap(path.dw), eta))
        diff = fine - anti
        assert abs(diff.mean()) < 3 * diff.std(ddof=1) / np.sqrt(diff.size)
        sq_diff = fine**2 - anti**2
        assert abs(sq_diff.mean()) < 3 * sq_diff.std(ddof=1) / np.sqrt(sq_diff.size)

    @pytest.mark.parametrize("coupling", ["gs", "nv", "gs-nv"])
    def test_level_mean_telescopes(self, coupling):
        # E[Z^l] equals the gap between independently estimated level means
        m, level = 200_000, 2
        scheme = "gs" if coupling == "gs" else "nv"
        sampler = LevelSampler(CC, COS, coupling)
        z = sample_many(sampler, level, m, seed=41, experiment=1)
        if coupling == "gs-nv":
            fine = crude_mc(CC, COS, "nv", level, m, seed=41, experiment=2)
            coarse = crude_mc(CC, COS, "gs", level - 1, m, seed=41, experiment=3)
        else:
            fine = crude_mc(CC, COS, scheme, level, m, seed=41, experiment=2)
            coarse = crude_mc(CC, COS, scheme, level - 1, m, seed=41, experiment=3)
        z_stats = stats_from_records(level, z.records)
        z_mean, z_se = z_stats.mean, z_stats.sem
        gap = fine.mean - coarse.mean
        se = np.sqrt(z_se**2 + fine.sem**2 + coarse.sem**2)
        assert abs(z_mean - gap) < 3 * se


class TestSampleMany:
    def test_matches_single_call_blocks(self):
        sampler = LevelSampler(CC, COS, "gs")
        combined = sample_many(sampler, 2, 6000, seed=5, experiment=9)
        first = sampler.sample(2, 4096, RngStream(5, 9, 2, 0))
        second = sampler.sample(2, 6000 - 4096, RngStream(5, 9, 2, 1))
        np.testing.assert_array_equal(
            combined.records, block_records(np.concatenate([first, second])))

    def test_worker_count_invariance(self, pooled):
        sampler = LevelSampler(CC, USQ, "nv")
        solo = sample_many(sampler, 2, 10_000, seed=6, experiment=9, workers=1)
        duo = sample_many(sampler, 2, 10_000, seed=6, experiment=9, workers=2)
        assert pooled == [2]
        assert solo.records.tobytes() == duo.records.tobytes()

    @pytest.mark.parametrize("cores,pools", [(2, [2]), (None, [])])
    def test_pool_bounded_by_cores(self, cores, pools, monkeypatch):
        # --workers 8 on a machine with `cores` cores; the fake pool maps in
        # this process, so no worker process starts
        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        monkeypatch.setattr(schemes, "POOL_PATH_STEPS", 0)
        monkeypatch.setattr(schemes, "ProcessPoolExecutor", FakePool)
        # a fresh cache, so neither a pool cached by another test is reused
        # nor the fake one left behind
        monkeypatch.setattr(schemes, "_pool", functools.cache(schemes._pool.__wrapped__))
        sampler = LevelSampler(CC, USQ, "nv")
        pooled = sample_many(sampler, 1, 3 * schemes.BLOCK_SAMPLES, seed=6, workers=8)
        assert started == pools
        serial = sample_many(sampler, 1, 3 * schemes.BLOCK_SAMPLES, seed=6, workers=1)
        np.testing.assert_array_equal(pooled.records, serial.records)

    def test_a_pool_starts_only_from_the_threshold(self, monkeypatch):
        # crude-gs draws 64 path steps a sample at level 6, so m samples are
        # POOL_PATH_STEPS path steps and m - 1 are 64 short; both calls make
        # two tasks at two workers
        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(schemes, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(schemes, "_pool", functools.cache(schemes._pool.__wrapped__))
        sampler = LevelSampler(CC, USQ, "crude-gs")
        m = schemes.POOL_PATH_STEPS // int(path_steps("crude-gs", 6))
        below = sample_many(sampler, 6, m - 1, seed=9, workers=2)
        serial = sample_many(sampler, 6, m - 1, seed=9, workers=1)
        assert below.records.tobytes() == serial.records.tobytes()
        # the coupling errors draw 28 path steps a sample at level 3, so three
        # blocks are below it too
        errors = coupling_errors(CC, [3], 3 * BLOCK_SAMPLES, seed=9, workers=2)
        assert b"".join(a.tobytes() for a in errors) == b"".join(
            a.tobytes() for a in coupling_errors(CC, [3], 3 * BLOCK_SAMPLES, seed=9, workers=1))
        assert started == []
        sample_many(sampler, 6, m, seed=9, workers=2)
        assert started == [2]

    def test_prefix_stability_across_total_size(self):
        sampler = LevelSampler(CC, COS, "gs")
        small = block_values(sampler, 1, 2000, seed=7, experiment=9)
        large = block_values(sampler, 1, 4096, seed=7, experiment=9)
        np.testing.assert_array_equal(small, large[:2000])
        # so the record of a whole block is the same in every draw that holds it
        short = sample_many(sampler, 1, BLOCK_SAMPLES + 10, seed=7, experiment=9)
        long = sample_many(sampler, 1, 3 * BLOCK_SAMPLES, seed=7, experiment=9)
        assert short.records[:1].tobytes() == long.records[:1].tobytes()


class TestCouplingErrors:
    def test_zero_noise_errors_vanish(self, zero_noise):
        self_mse, pair_mse = coupling_errors(CC, [2, 3], 64, seed=1)
        np.testing.assert_allclose(self_mse, 0.0, atol=1e-28)
        np.testing.assert_allclose(pair_mse, 0.0, atol=1e-28)

    def test_pair_error_matches_exact_value(self):
        # for this model the averaged splitting scheme and the Milstein-type
        # scheme differ only through the half-step drift term, so the mean
        # squared gap is exactly mu^2 T h^2 / 4
        levels = [2, 4]
        _, pair_mse = coupling_errors(CC, levels, 150_000, seed=51, experiment=4)
        for level, got in zip(levels, pair_mse):
            expected = 0.25 * (1.0 / 2**level) ** 2
            assert got == pytest.approx(expected, rel=0.05)

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            coupling_errors(CC, [0], 16, seed=1)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_gap_that_is_not_finite_reads_nan(self, seed):
        # Milstein-type gs paths go negative in the variance at this sigma,
        # and the negative-variance policy "error" aborts them; the nv paths
        # stay positive
        self_mse, pair_mse = coupling_errors(HestonModel(sigma=0.9), [1, 2], 1000, seed)
        assert np.isnan(pair_mse).all()
        assert np.isfinite(self_mse).all()

    @pytest.mark.parametrize("model", [CC, HESTON], ids=["clark-cameron", "heston"])
    def test_worker_count_invariance(self, model, pooled):
        # several blocks per level, the last one short; level 3 is one task
        # for one worker and two for two
        levels, m = [3, 6], 3 * BLOCK_SAMPLES + 5
        solo = coupling_errors(model, levels, m, seed=4, experiment=2, workers=1)
        duo = coupling_errors(model, levels, m, seed=4, experiment=2, workers=2)
        assert pooled == [2, 2]
        assert b"".join(a.tobytes() for a in solo) == b"".join(a.tobytes() for a in duo)


@pytest.fixture
def batches(monkeypatch):
    """(block counts, increment bytes) of every draw, in the order made."""
    seen = []
    draw = schemes.sample_level_path

    def recorded(stream, model, level, m=1, signs=True):
        path = draw(stream, model, level, m, signs)
        seen.append((m, path.dw.nbytes))
        return path

    monkeypatch.setattr(schemes, "sample_level_path", recorded)
    return seen


def deepest_level(blocks: int, d: int = 2) -> int:
    """The deepest level at which one batch holds ``blocks`` whole blocks of
    d-dimensional increments within ``schemes.BATCH_INCREMENTS``."""
    return (schemes.BATCH_INCREMENTS // (blocks * BLOCK_SAMPLES * d)).bit_length() - 1


class TestBatches:
    """Consecutive blocks sampled in one kernel call give the values, and so
    the records, of the blocks sampled one by one."""

    # (level, samples, blocks per batch) at d = 2, each with a short last
    # block: four blocks in one batch, two in one batch, and two batches of one
    CASES = [(deepest_level(4), 3 * BLOCK_SAMPLES + 100, [4]),
             (deepest_level(2), BLOCK_SAMPLES + 100, [2]),
             (deepest_level(2) + 1, BLOCK_SAMPLES + 100, [1, 1])]

    @pytest.mark.parametrize("level,m,sizes", CASES)
    @pytest.mark.parametrize("coupling", sorted(COUPLINGS))
    @pytest.mark.parametrize("model,payoff", [(CC, USQ), (HESTON, Payoff("heston-call"))],
                             ids=["clark-cameron", "heston"])
    def test_sample_many_equals_the_blocks(self, model, payoff, coupling, level, m, sizes,
                                           batches):
        batched = sample_many(LevelSampler(model, payoff, coupling), level, m, seed=13,
                              experiment=5)
        assert [len(counts) for counts, _ in batches] == sizes
        blocks = block_streams(m, 13, 5, level)
        alone = np.concatenate([sample_level(model, payoff, coupling, level, count, stream)
                                for count, stream in blocks])
        together = sample_level(model, payoff, coupling, level, *zip(*blocks))
        assert together.tobytes() == alone.tobytes()
        assert batched.records.tobytes() == block_records(alone).tobytes()

    @pytest.mark.parametrize("model", [CC, HESTON], ids=["clark-cameron", "heston"])
    def test_coupling_errors_equal_the_blocks(self, model):
        levels, m = [5, 6, 7], BLOCK_SAMPLES + 100
        self_mse, pair_mse = [], []
        for level in levels:
            # each block alone, then the block-order fold of its records
            parts = [schemes._coupling_block((model, level, (count,), (stream,)))
                     for count, stream in block_streams(m, 21, 3, level)]
            self_mse.append(central_moments(np.concatenate([p[0] for p in parts]))[1])
            pair_mse.append(central_moments(np.concatenate([p[1] for p in parts]))[1])
        got = coupling_errors(model, levels, m, seed=21, experiment=3)
        assert got[0].tobytes() == np.array(self_mse).tobytes()
        assert got[1].tobytes() == np.array(pair_mse).tobytes()

    def test_batches_stay_in_budget(self, batches):
        # six blocks per level; at the last level one block alone is past the
        # budget
        m = 5 * BLOCK_SAMPLES + 1
        for level in range(0, deepest_level(1) + 2):
            batches.clear()
            sample_many(LevelSampler(CC, COS, "crude-gs"), level, m, seed=3)
            counts = [count for block, _ in batches for count in block]
            assert counts == [count for count, _ in block_streams(m, 3, 0, level)]
            for block, nbytes in batches:
                assert len(block) <= schemes.BATCH_BLOCKS
                assert nbytes <= 8 * schemes.BATCH_INCREMENTS or len(block) == 1
        coupling_errors(CC, [deepest_level(2)], 3 * BLOCK_SAMPLES, seed=3)
        assert [len(block) for block, _ in batches[-2:]] == [2, 1]

    @pytest.mark.parametrize("blocks", [2, 3, 5, 8])
    def test_two_workers_get_two_tasks(self, blocks, monkeypatch):
        # the fake pool maps in this process and counts the tasks it is given
        tasks = []

        class FakePool:
            def __init__(self, max_workers):
                pass

            def map(self, fn, given, chunksize=1):
                given = list(given)
                tasks.append(len(given))
                return map(fn, given)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(schemes, "POOL_PATH_STEPS", 0)
        monkeypatch.setattr(schemes, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(schemes, "_pool", functools.cache(schemes._pool.__wrapped__))
        sampler = LevelSampler(CC, USQ, "nv")
        m = blocks * BLOCK_SAMPLES - 7
        pooled = sample_many(sampler, 1, m, seed=8, workers=2)
        assert tasks and tasks[0] >= 2
        serial = sample_many(sampler, 1, m, seed=8, workers=1)
        assert pooled.records.tobytes() == serial.records.tobytes()

    def test_workers_leave_a_draw_below_the_pool_alone(self, monkeypatch):
        # two nv blocks at level 1 are 81 920 path steps, below
        # POOL_PATH_STEPS: they run here, batched as at one worker
        sizes, block = {}, schemes._sample_block

        def counted(task):
            sizes.setdefault(workers, []).append(len(task[2]))
            return block(task)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(schemes, "_sample_block", counted)
        sampler = LevelSampler(CC, USQ, "nv")
        for workers in (1, 2):
            sample_many(sampler, 1, 2 * BLOCK_SAMPLES, seed=8, workers=workers)
        assert sizes == {1: [2], 2: [2]}


# (seed, experiment, samples): two blocks, the second one short
GOLDEN_DRAW = (29, 7, 4096 + 64)

GOLDEN_SAMPLES = {
    # sha256 prefix of the bytes of the values sample_many reduces
    # (path_reference.block_values); crude-* and
    # level0-* at level 0, the level couplings at level 3
    ("clark-cameron", "crude-gs"): "95bfb440b1af4226",
    ("clark-cameron", "crude-nv"): "9069a9429be1c131",
    ("clark-cameron", "gs"): "8129cffec839bb9a",
    ("clark-cameron", "gs-nv"): "cbcb143a1e2bb10b",
    ("clark-cameron", "level0-nv-averaged"): "f920bfaae81710d4",
    ("clark-cameron", "nv"): "2269db3f2eb28c15",
    ("heston", "crude-gs"): "8e49243098605b33",
    ("heston", "crude-nv"): "c56dbec1f3b41cf9",
    ("heston", "gs"): "992d72ed504a53ea",
    ("heston", "gs-nv"): "296199081968dea9",
    ("heston", "level0-nv-averaged"): "31e6520061ed3f29",
    ("heston", "nv"): "c557a368b21cd92b",
}


# the same draw at more steps, where a path's composition order changes from
# step to step: (model, coupling, level) -> sha256 prefix as above; the two
# blocks share one kernel call up to deepest_level(2) and are a batch each
# above it
GOLDEN_MULTISTEP = {
    ("clark-cameron", "crude-nv", 3): "db3aa70c5ebed41b",
    ("clark-cameron", "gs-nv", 4): "a07f27eb47923b42",
    ("clark-cameron", "gs-nv", 5): "006c26631eeb5519",
    ("clark-cameron", "level0-nv-averaged", 3): "0d089b4afb5f563b",
    ("clark-cameron", "nv", 4): "da4d4d1b5d1d27ba",
    ("clark-cameron", "nv", 5): "c4fd98c41885e761",
    ("heston", "crude-nv", 3): "731e4159f8e7f870",
    ("heston", "gs-nv", 4): "f3f52549a275ce69",
    ("heston", "gs-nv", 5): "da1827afc145b260",
    ("heston", "level0-nv-averaged", 3): "952c02caff03ec07",
    ("heston", "nv", 4): "b2c9b5993407a90b",
    ("heston", "nv", 5): "52042520b635089e",
}

# sha256 prefix of the bytes of coupling_errors(..., [1, 5], ...)'s two arrays
GOLDEN_COUPLING_ERRORS = {"clark-cameron": "ad5b46cddf7fc12b", "heston": "b8785e37c3aaebb6"}

GOLDEN_MODELS = {"clark-cameron": (CC, COS),
                 "heston": (HESTON, Payoff("heston-call", rate=HESTON.rate))}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class TestGoldenSamples:
    """Pin the sampled values bit for bit: a kernel rewrite must leave every
    coupling's stream unchanged for the same (seed, experiment, level)."""

    @pytest.mark.parametrize("model_name,coupling", sorted(GOLDEN_SAMPLES))
    def test_sample_bytes(self, model_name, coupling):
        model, payoff = GOLDEN_MODELS[model_name]
        level = 0 if coupling.startswith(("crude-", "level0-")) else 3
        seed, experiment, m = GOLDEN_DRAW
        values = block_values(LevelSampler(model, payoff, coupling), level, m, seed, experiment)
        assert digest(values.tobytes()) == GOLDEN_SAMPLES[model_name, coupling]

    @pytest.mark.parametrize("model_name,coupling,level", sorted(GOLDEN_MULTISTEP))
    def test_multistep_sample_bytes(self, model_name, coupling, level, batches):
        model, payoff = GOLDEN_MODELS[model_name]
        seed, experiment, m = GOLDEN_DRAW
        sampler = LevelSampler(model, payoff, coupling)
        sample = sample_many(sampler, level, m, seed, experiment)
        assert [len(counts) for counts, _ in batches] == ([2] if level <= deepest_level(2)
                                                           else [1, 1])
        values = block_values(sampler, level, m, seed, experiment)
        assert digest(values.tobytes()) == GOLDEN_MULTISTEP[model_name, coupling, level]
        assert sample.records.tobytes() == block_records(values).tobytes()

    @pytest.mark.parametrize("model_name", sorted(GOLDEN_COUPLING_ERRORS))
    def test_coupling_error_bytes(self, model_name):
        seed, experiment, m = GOLDEN_DRAW
        self_mse, pair_mse = coupling_errors(GOLDEN_MODELS[model_name][0], [1, 5], m, seed,
                                             experiment)
        got = digest(self_mse.tobytes() + pair_mse.tobytes())
        assert got == GOLDEN_COUPLING_ERRORS[model_name]

    def test_covers_every_coupling(self):
        for model_name in ("clark-cameron", "heston"):
            assert {c for name, c in GOLDEN_SAMPLES if name == model_name} == set(COUPLINGS)
