import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmc_sde.models import (
    ClarkCameronModel,
    HestonModel,
    NegativeSqrtArgument,
    Payoff,
    SdeModel,
    build_model,
)

CC = ClarkCameronModel(mu=1.0)
HESTON = HestonModel()  # benchmark parameters: r=0.05, kappa=0.5, theta=0.9, sigma=0.05

finite_coord = st.floats(-3.0, 3.0)
positive_var = st.floats(0.05, 4.0)


def state(u, v):
    return np.array([[u, v]], dtype=float)


def coords(u, v):
    """The one-sample state (u, v) as the flows take it: a coordinate tuple."""
    return tuple(state(u, v).T)


def random_states(model, rng, count):
    if isinstance(model, HestonModel):
        u = rng.normal(size=count)
        v = rng.uniform(0.3, 2.5, size=count)
        return np.stack([u, v], axis=-1)
    return rng.normal(scale=2.0, size=(count, 2))


class TestPayoff:
    def test_labels(self):
        x = state(0.5, 1.2)
        assert Payoff("cos-u")(x) == pytest.approx(np.cos(0.5))
        assert Payoff("u-squared")(x) == pytest.approx(0.25)
        assert Payoff("u-plus")(x) == pytest.approx(0.5)
        assert Payoff("u-plus")(state(-0.5, 0.0)) == pytest.approx(0.0)
        call = Payoff("heston-call", rate=0.05, maturity=1.0)
        assert call(x) == pytest.approx(np.exp(-0.05) * (np.exp(0.5) - 1.0))
        assert call(state(-1.0, 1.0)) == pytest.approx(0.0)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            Payoff("delta")(state(0.0, 0.0))


class TestStratonovichDrift:
    def test_clark_cameron_is_constant(self):
        # vanishing self-corrections: the corrected drift equals (0, mu)
        out = CC.stratonovich_drift(state(3.7, -1.2))
        np.testing.assert_allclose(out, [[0.0, 1.0]], atol=1e-15)

    def test_heston_value(self):
        out = HESTON.stratonovich_drift(state(0.0, 1.0))
        np.testing.assert_allclose(out, [[-0.45, -0.050625]], rtol=1e-12)

    @given(u=finite_coord, v=positive_var, seed=st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_correction_identity(self, u, v, seed):
        # stratonovich drift plus half the summed self Jacobian products is the Ito drift
        for model in (CC, HESTON):
            x = state(u, v)
            total = model.stratonovich_drift(x).copy()
            for j in range(1, model.d + 1):
                total += 0.5 * model.jacobian_product(j, j, x)
            np.testing.assert_allclose(total, model.drift(x), atol=1e-12)


class TestFlows:
    def test_zero_time_is_identity(self):
        for model in (CC, HESTON):
            x = coords(0.3, 1.4)
            np.testing.assert_array_equal(model.drift_flow(x, 0.0), x)
            for j in (1, 2):
                np.testing.assert_array_equal(model.diffusion_flow(j, x, np.zeros(1)), x)

    @given(s=st.floats(0.01, 1.0), t=st.floats(0.01, 1.0), u=finite_coord, v=positive_var)
    @settings(max_examples=40, deadline=None)
    def test_drift_flow_semigroup(self, s, t, u, v):
        for model in (CC, HESTON):
            x = coords(u, v)
            two_hops = model.drift_flow(model.drift_flow(x, s), t)
            one_hop = model.drift_flow(x, s + t)
            np.testing.assert_allclose(two_hops, one_hop, atol=1e-10)

    def test_clark_cameron_flows(self):
        np.testing.assert_allclose(CC.drift_flow(coords(0, 0), 1.0), [[0.0], [1.0]])
        np.testing.assert_allclose(CC.diffusion_flow(1, coords(0, 2), np.array([0.5])),
                                   [[1.0], [2.0]])
        np.testing.assert_allclose(CC.diffusion_flow(2, coords(1, 0), np.array([0.25])),
                                   [[1.0], [0.25]])

    def test_heston_drift_half_step(self):
        # (1 - xi) exp(-kappa/4) + xi with a unit step split in half
        out = HESTON.drift_flow(coords(0.0, 1.0), 0.5)
        assert out[1][0] == pytest.approx(0.9776035792859797, rel=1e-12)

    def test_heston_diffusion_flows(self):
        x = coords(0.0, 1.0)
        out = HESTON.diffusion_flow(2, x, np.zeros(1))
        assert out[1][0] == pytest.approx(1.0)
        out = HESTON.diffusion_flow(1, x, np.array([0.3]))
        assert out[0][0] == pytest.approx(0.3)
        assert out[1][0] == pytest.approx(1.0)

    def test_heston_flow_rejects_negative_variance(self):
        for j in (1, 2):
            with pytest.raises(NegativeSqrtArgument):
                HESTON.diffusion_flow(j, coords(0.0, -0.1), np.array([0.1]))

    def test_heston_zero_increment_keeps_the_variance(self):
        # flow 2 at w = 0 returns sqrt(v)^2: nonnegative and within 2 ulp of v,
        # in both orders of the composed step too
        rng = np.random.default_rng(23)
        v = np.concatenate([[0.0, 5e-324, 1e-310, 1e-300, 1.4], rng.uniform(0.0, 4.0, 4000)])
        u = rng.normal(size=v.size)
        zero = np.zeros(v.size)
        got = [HESTON.diffusion_flow(2, (u, v), zero)[1]]
        for down in ((u, v), (u.copy(), v.copy())):
            up, down = HESTON.diffusion_orders((u, v), down, np.stack([zero, zero]))
            got += [up[1], down[1]]
        for out in got:
            assert (out >= 0.0).all()
            assert (np.abs(out - v) <= 2 * np.spacing(v)).all()

    def test_heston_drift_flow_is_its_expression_tree(self):
        # the in-place drift flow is the closed form evaluated operation for
        # operation, and leaves its input as it was
        rng = np.random.default_rng(29)
        nan = np.array(0x7FF8_0000_0000_0123, dtype=np.uint64).view(np.float64)
        u = np.concatenate([[nan, np.inf, -0.0, 0.3], rng.normal(size=60)])
        v = np.concatenate([[1.0, 1.0, 0.0, nan], rng.uniform(0.0, 3.0, size=60)])
        kept = u.tobytes() + v.tobytes()
        for t in (0.0, 1 / 64, 0.5, 3.0):
            decay = np.exp(-HESTON.kappa * t)
            xi = HESTON.xi
            expected = (u + (HESTON.rate - 0.5 * xi) * t
                        + (v - xi) * (decay - 1.0) / (2.0 * HESTON.kappa),
                        v * decay + xi * (1.0 - decay))
            with np.errstate(invalid="ignore"):
                got = HESTON.drift_flow((u, v), t)
            for a, b in zip(got, expected):
                assert a.tobytes() == b.tobytes()
        assert u.tobytes() + v.tobytes() == kept

    @given(v=st.floats(0.0, 3.0), t=st.floats(0.0, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_heston_drift_flow_variance_floor(self, v, t):
        out = HESTON.drift_flow(coords(0.0, v), t)
        assert out[1][0] >= min(v, HESTON.xi) - 1e-12

    def test_flow_field_consistency(self):
        # (flow(x, eps) - x)/eps approaches the vector field at first order
        rng = np.random.default_rng(5)
        for model in (CC, HESTON):
            x = random_states(model, rng, 20)
            fields = [model.stratonovich_drift(x)] + [
                model.diffusion(j, x) for j in range(1, model.d + 1)
            ]
            c = tuple(x.T)
            flows = [lambda e, m=model: np.stack(m.drift_flow(c, e), axis=-1)] + [
                (lambda e, m=model, jj=j:
                 np.stack(m.diffusion_flow(jj, c, np.full(len(x), e)), axis=-1))
                for j in range(1, model.d + 1)
            ]
            for field, flow in zip(fields, flows):
                errs = [
                    np.max(np.abs((flow(eps) - x) / eps - field))
                    for eps in (1e-2, 1e-3, 1e-4)
                ]
                assert errs[2] <= errs[0] + 1e-9
                assert errs[2] < 1e-3


def per_flow(model, up, down, w):
    """The default composition of diffusion_flow calls, which a model's own
    diffusion_orders must equal bit for bit."""
    return SdeModel.diffusion_orders(model, up, down, w)


# a Heston model whose flow-2 shift sigma w / 2 is large against sqrt(v)
STIFF_HESTON = HestonModel(kappa=2.0, theta=0.5, sigma=1.0)


class TestDiffusionOrders:
    @pytest.mark.parametrize("shared", [False, True], ids=["halves", "up-is-down"])
    @pytest.mark.parametrize("model", [CC, HESTON, STIFF_HESTON],
                             ids=["clark-cameron", "heston", "stiff-heston"])
    def test_equals_the_per_flow_composition(self, model, shared):
        # random batches with v = 0 rows and large |w|, bit for bit; the inputs
        # are left as they were
        rng = np.random.default_rng(31)
        m = 400
        up = tuple(random_states(model, rng, m).T)
        down = up if shared else tuple(random_states(model, rng, m).T)
        for c in (up, down):
            c[1][::7] = 0.0
        w = rng.normal(scale=rng.choice([0.1, 3.0, 50.0, 1e3], size=m), size=(model.d, m))
        w[:, ::11] = 0.0
        kept = [c.tobytes() for c in up + down + (w,)]
        got = model.diffusion_orders(up, down, w)
        expected = per_flow(model, up, down, w)
        for a, b in zip(got, expected):
            for ca, cb in zip(a, b):
                assert np.asarray(ca).tobytes() == np.asarray(cb).tobytes()
        assert [c.tobytes() for c in up + down + (w,)] == kept

    @pytest.mark.parametrize("negative", ["none", "up", "down", "both", "up-is-down"])
    @pytest.mark.parametrize("model", [HESTON, STIFF_HESTON], ids=["heston", "stiff-heston"])
    def test_heston_raises_exactly_on_a_negative_start(self, model, negative):
        # one check per starting variance; v = -0.0, v = 0, NaN and a large
        # shift never raise, and neither order's later root can
        v = np.array([1.0, 0.0, -0.0, np.nan, 1e-300])
        w = np.array([[0.3, -2.0, 1.0, 0.5, 4.0], [-1e3, -50.0, 3.0, 0.5, -4.0]])
        up = (np.zeros(5), v.copy())
        down = (np.ones(5), v[::-1].copy())
        if negative in ("up", "both", "up-is-down"):
            up[1][2] = -1e-300
        if negative in ("down", "both"):
            down[1][0] = -0.1
        if negative == "up-is-down":
            down = up
        for orders in (model.diffusion_orders, functools.partial(per_flow, model)):
            if negative == "none":
                orders(up, down, w)
            else:
                with pytest.raises(NegativeSqrtArgument):
                    orders(up, down, w)


class TestJacobianProducts:
    def test_finite_difference_check(self):
        rng = np.random.default_rng(11)
        eps = 1e-5
        for model in (CC, HESTON):
            x = random_states(model, rng, 200)
            for j in range(1, model.d + 1):
                for k in range(1, model.d + 1):
                    direction = model.diffusion(k, x)
                    fd = (model.diffusion(j, x + eps * direction)
                          - model.diffusion(j, x - eps * direction)) / (2 * eps)
                    jp = model.jacobian_product(j, k, x)
                    np.testing.assert_allclose(fd, jp, rtol=1e-6, atol=1e-6)


def stacked(terms, like):
    """A coordinate tuple of milstein_terms as the stacked (m, n) array, zeros for None."""
    return np.stack([np.zeros_like(like) if t is None else np.broadcast_to(t, like.shape)
                     for t in terms], axis=-1)


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMilsteinTerms:
    @pytest.mark.parametrize("model", [
        CC, HESTON, HestonModel(negative_variance="reflect")])
    def test_matches_stacked_coefficients(self, model):
        # the coordinate form is bit for bit the stacked closed forms, with
        # v < 0 states so a NaN (error policy) lands where the stacked form has it
        rng = np.random.default_rng(29)
        x = random_states(model, rng, 64)
        x[::4, 1] = -rng.uniform(0.1, 1.0, size=16)
        drift, sigma, jac = model.milstein_terms(tuple(x.T))
        assert_same_bits(stacked(drift, x[:, 0]), model.drift(x))
        assert list(sigma) == list(range(1, model.d + 1))
        for j, col in sigma.items():
            assert_same_bits(stacked(col, x[:, 0]), model.diffusion(j, x))
        assert list(jac) == sorted(jac)
        for j in range(1, model.d + 1):
            for k in range(1, model.d + 1):
                col = jac.get((j, k), (None,) * model.n)
                assert_same_bits(stacked(col, x[:, 0]), model.jacobian_product(j, k, x))


class TestHestonValidation:
    def test_benchmark_xi(self):
        assert HESTON.xi == pytest.approx(0.89875, abs=0.0)

    def test_rejects_negative_xi(self):
        # 2 kappa theta >= sigma^2 holds but xi < 0
        with pytest.raises(ValueError):
            HestonModel(kappa=0.5, theta=0.9, sigma=1.4)

    def test_rejects_attainable_boundary(self):
        with pytest.raises(ValueError):
            HestonModel(kappa=0.5, theta=0.1, sigma=0.5)

    def test_rejects_nonpositive_v0(self):
        with pytest.raises(ValueError):
            HestonModel(v0=0.0)

    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            HestonModel(negative_variance="clip")

    def test_reflect_policy_clips(self):
        model = HestonModel(negative_variance="reflect")
        out = model.diffusion(1, state(0.0, -1.0))
        assert out[0, 0] == 0.0

    def test_error_policy_propagates_nan(self):
        out = HESTON.diffusion(1, state(0.0, -1.0))
        assert np.isnan(out[0, 0])


def test_build_model_dispatch():
    assert isinstance(build_model("clark-cameron", mu=2.0), ClarkCameronModel)
    assert isinstance(build_model("heston"), HestonModel)
    with pytest.raises(ValueError):
        build_model("ornstein")


@pytest.mark.parametrize("name", ["clark-cameron", "heston"])
def test_model_holds_its_horizon(name):
    assert build_model(name).horizon == 1.0
    assert build_model(name, horizon=0.25).horizon == 0.25
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            build_model(name, horizon=bad)
