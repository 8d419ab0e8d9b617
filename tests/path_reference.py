"""Reference arrays for the increments a coupled sample derives.

``schemes.simulate_path`` never builds these arrays: it reads the coarse
increments, the antithetic swap and the coarse signs from the fine draw step
by step.  The tests build them here, independently of those per-step reads,
and compare the paths simulated on them.  Each keeps the step-major
(Fortran) order of ``paths.sample_level_path``.

``schemes.sample_many`` keeps no values, only per-block records; the tests
that pin values read them from the block kernel with ``block_values``.
"""

import numpy as np

from mlmc_sde.paths import RngStream
from mlmc_sde.schemes import BLOCK_SAMPLES, sample_level


class OddStepCount(ValueError):
    """Pairwise coarsening was requested on an odd number of steps."""


def _require_even(steps: int):
    if steps % 2 != 0:
        raise OddStepCount(f"need an even number of steps, got {steps}")


def coarsen(dw: np.ndarray) -> np.ndarray:
    """Aggregate fine increments pairwise onto the next coarser grid."""
    _require_even(dw.shape[-1])
    return dw[..., 0::2] + dw[..., 1::2]


def antithetic_swap(dw: np.ndarray) -> np.ndarray:
    """Exchange each successive pair of fine increments (an involution)."""
    _require_even(dw.shape[-1])
    out = np.empty_like(dw)
    out[..., 0::2] = dw[..., 1::2]
    out[..., 1::2] = dw[..., 0::2]
    return out


def rademacher_coarse(eta: np.ndarray) -> np.ndarray:
    """Odd-position subvector (1st, 3rd, ...) driving the coarse-grid scheme."""
    _require_even(eta.shape[-1])
    return np.asfortranarray(eta[..., 0::2])


def block_streams(m, seed, experiment, level):
    """(count, stream) of each fixed block of m samples."""
    return [(min(BLOCK_SAMPLES, m - start), RngStream(seed, experiment, level, index))
            for index, start in enumerate(range(0, m, BLOCK_SAMPLES))]


def block_values(sampler, level, m, seed, experiment=0):
    """The m values of Z^level that ``sample_many`` reduces: one
    ``sample_level`` call per fixed block, concatenated in block order."""
    return np.concatenate([
        sample_level(sampler.model, sampler.payoff, sampler.coupling, level, count, stream)
        for count, stream in block_streams(m, seed, experiment, level)])
