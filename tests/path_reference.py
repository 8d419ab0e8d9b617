"""Reference arrays for the increments a coupled sample derives.

``schemes.simulate_path`` never builds these arrays: it reads the coarse
increments, the antithetic swap and the coarse signs from the fine draw step
by step.  The tests build them here, independently of those per-step reads,
and compare the paths simulated on them.  Each keeps the step-major
(Fortran) order of ``paths.sample_level_path``.
"""

import numpy as np


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
