import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmc_sde.models import ClarkCameronModel
from mlmc_sde.paths import RngStream, sample_level_path
from path_reference import OddStepCount, antithetic_swap, coarsen, rademacher_coarse


# d = 2 and horizon 1, the model every draw below is sized by
CC = ClarkCameronModel()


class TestStreams:
    def test_same_coordinates_same_output(self):
        a = sample_level_path(RngStream(9, 1, 3, 0), CC, 3, m=16)
        b = sample_level_path(RngStream(9, 1, 3, 0), CC, 3, m=16)
        np.testing.assert_array_equal(a.dw, b.dw)
        np.testing.assert_array_equal(a.eta, b.eta)

    def test_distinct_coordinates_differ(self):
        base = sample_level_path(RngStream(9, 1, 3, 0), CC, 3, m=16)
        for stream in (RngStream(9, 1, 3, 1), RngStream(9, 2, 3, 0), RngStream(8, 1, 3, 0)):
            other = sample_level_path(stream, CC, 3, m=16)
            assert not np.array_equal(base.dw, other.dw)

    def test_shapes_and_signs(self):
        path = sample_level_path(RngStream(1), CC, 4, m=7)
        assert path.dw.shape == (7, 2, 16)
        assert path.eta.shape == (7, 16)
        assert set(np.unique(path.eta)) <= {-1, 1}

    def test_sign_free_draw_keeps_increments(self):
        # the signs are drawn last, so skipping them leaves the increments as they are
        full = sample_level_path(RngStream(5, 2, 3, 1), CC, 3, m=9)
        bare = sample_level_path(RngStream(5, 2, 3, 1), CC, 3, m=9, signs=False)
        assert bare.dw.tobytes() == full.dw.tobytes()
        assert bare.eta.shape == (9, 0) and bare.eta.dtype == np.int8
        assert rademacher_coarse(bare.eta).shape == (9, 0)

    def test_increment_variance(self):
        # 10^6 draws at level 3, horizon 1: each increment ~ N(0, 1/8)
        path = sample_level_path(RngStream(77, 0, 3, 0), CC, 3, m=62_500)
        draws = path.dw.ravel()
        assert draws.size == 1_000_000
        target = 0.125
        se = target * np.sqrt(2.0 / (draws.size - 1))
        assert abs(draws.var(ddof=1) - target) < 3 * se

    def test_rademacher_mean(self):
        path = sample_level_path(RngStream(78, 0, 3, 0), CC, 3, m=62_500)
        signs = path.eta.ravel().astype(float)
        assert abs(signs.mean()) < 3.0 / np.sqrt(signs.size)


class TestLayout:
    """Increments and signs are stored step-major (Fortran order), so the
    slices a kernel reads per step are contiguous."""

    def test_draws_equal_the_c_order_stream_in_fortran_order(self):
        stream, d, steps, m = RngStream(9, 1, 3, 2), 2, 8, 16
        path = sample_level_path(stream, CC, 3, m)
        gen = stream.generator()
        dw = gen.standard_normal((m, d, steps)) * math.sqrt(1.0 / steps)
        eta = 2 * gen.integers(0, 2, size=(m, steps), dtype=np.int8) - 1
        assert path.dw.flags.f_contiguous and not path.dw.flags.c_contiguous
        assert path.eta.flags.f_contiguous and not path.eta.flags.c_contiguous
        assert path.dw.tobytes() == dw.tobytes()
        assert path.eta.dtype == np.int8 and path.eta.tobytes() == eta.tobytes()

    def test_batch_rows_are_each_blocks_own_draw(self):
        # per block: one C-order normal draw, then one int8 sign draw, from its
        # own stream; at level 6 the 4096-sample block is drawn in pieces
        d, steps, counts = 2, 64, (4096, 100)
        streams = (RngStream(9, 1, 6, 0), RngStream(9, 1, 6, 1))
        batch = sample_level_path(streams, CC, 6, counts)
        assert batch.dw.flags.f_contiguous and batch.eta.flags.f_contiguous
        dws, etas = [], []
        for stream, m in zip(streams, counts):
            gen = stream.generator()
            dws.append(gen.standard_normal((m, d, steps)) * math.sqrt(1.0 / steps))
            etas.append(2 * gen.integers(0, 2, size=(m, steps), dtype=np.int8) - 1)
        assert batch.dw.tobytes() == np.concatenate(dws).tobytes()
        assert batch.eta.tobytes() == np.concatenate(etas).tobytes()
        bare = sample_level_path(streams, CC, 6, counts, signs=False)
        assert bare.dw.tobytes() == batch.dw.tobytes() and bare.eta.shape == (4196, 0)

    def test_step_slices_are_contiguous(self):
        path = sample_level_path(RngStream(4), CC, 3, m=5)
        for k in range(8):
            assert path.dw[:, :, k].T.flags.c_contiguous
            assert path.eta[:, k].flags.c_contiguous

    def test_derived_arrays_keep_the_order(self):
        path = sample_level_path(RngStream(4), CC, 3, m=5)
        for derived in (coarsen(path.dw), antithetic_swap(path.dw),
                        rademacher_coarse(path.eta), -path.eta):
            assert derived.flags.f_contiguous and not derived.flags.c_contiguous


class TestCoarsen:
    def test_pairwise_sums(self):
        fine = np.array([[0.1, 0.2, -0.3, 0.4]])
        np.testing.assert_allclose(coarsen(fine), [[0.3, 0.1]])

    def test_zeros(self):
        assert not coarsen(np.zeros((3, 2, 8))).any()

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_total_increment_preserved(self, seed):
        dw = np.random.default_rng(seed).normal(size=(4, 2, 8))
        np.testing.assert_allclose(coarsen(dw).sum(axis=-1), dw.sum(axis=-1), atol=1e-12)

    def test_odd_rejected(self):
        with pytest.raises(OddStepCount):
            coarsen(np.zeros((1, 2, 3)))


class TestAntitheticSwap:
    def test_pair_exchange(self):
        fine = np.array([[0.1, 0.2, -0.3, 0.4]])
        np.testing.assert_array_equal(antithetic_swap(fine), [[0.2, 0.1, 0.4, -0.3]])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_involution_and_coarse_invariance(self, seed):
        dw = np.random.default_rng(seed).normal(size=(4, 2, 8))
        swapped = antithetic_swap(dw)
        np.testing.assert_array_equal(antithetic_swap(swapped), dw)
        # pair sums are symmetric, bit for bit
        np.testing.assert_array_equal(coarsen(swapped), coarsen(dw))

    def test_odd_rejected(self):
        with pytest.raises(OddStepCount):
            antithetic_swap(np.zeros((1, 2, 5)))


class TestRademacherCoarse:
    def test_odd_position_subvector(self):
        eta = np.array([[1, -1, 1, -1]], dtype=np.int8)
        np.testing.assert_array_equal(rademacher_coarse(eta), [[1, 1]])

    def test_all_plus(self):
        eta = np.ones((2, 8), dtype=np.int8)
        assert (rademacher_coarse(eta) == 1).all()

    def test_length_two(self):
        eta = np.array([[-1, 1]], dtype=np.int8)
        np.testing.assert_array_equal(rademacher_coarse(eta), [[-1]])

    def test_negation_commutes(self):
        eta = np.array([[1, -1, -1, 1, 1, 1, -1, -1]], dtype=np.int8)
        np.testing.assert_array_equal(rademacher_coarse(-eta), -rademacher_coarse(eta))

    def test_odd_rejected(self):
        with pytest.raises(OddStepCount):
            rademacher_coarse(np.ones((1, 5), dtype=np.int8))
