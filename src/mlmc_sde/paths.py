"""Coupled randomness for one multilevel sample.

A level-l sample needs fine-grid Brownian increments, their coarse-grid
aggregation, the antithetic pair swap and a Rademacher sign sequence with
its coarse-grid subsampling.  Increment arrays have shape (m, d, steps)
for a batch of m samples; sign arrays have shape (m, steps).  Both are
stored step-major (Fortran order: memory (steps, d, m) and (steps, m)),
so the (m, d) increments and (m,) signs of one step, and each coordinate's
row of them, are contiguous; ``coarsen``, ``antithetic_swap`` and
``rademacher_coarse`` keep that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1

# deepest level any command samples: at d = 2 one block of 4096 samples holds
# 256 MiB of increments at level 12, and each further level doubles that
MAX_LEVEL = 12


class OddStepCount(ValueError):
    """Pairwise coarsening was requested on an odd number of steps."""


@dataclass(frozen=True)
class LevelGrid:
    """Uniform grid with 2^level steps of size horizon / 2^level."""

    level: int
    horizon: float = 1.0

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")

    @property
    def steps(self) -> int:
        return 2**self.level

    @property
    def step(self) -> float:
        # division by a power of two is exact, so step * steps == horizon
        return self.horizon / self.steps


@dataclass(frozen=True)
class RngStream:
    """Counter-style stream: output is a pure function of the coordinates.

    Distinct (seed, experiment, level, index) tuples give statistically
    independent generators, so any sample block can be produced on any
    worker with no shared state.  ``index`` counts fixed-size blocks of
    samples rather than single samples; the block size is a module
    constant, so partitioning never depends on the worker count.
    """

    seed: int
    experiment: int = 0
    level: int = 0
    index: int = 0

    def generator(self) -> np.random.Generator:
        key = [self.seed & _MASK64, self.experiment, self.level, self.index]
        return np.random.default_rng(np.random.SeedSequence(key))


@dataclass(frozen=True)
class LevelPath:
    """Fine Brownian increments and the Rademacher signs of one batch."""

    dw: np.ndarray
    eta: np.ndarray


def sample_level_path(stream: RngStream, grid: LevelGrid, d: int, m: int = 1,
                      signs: bool = True) -> LevelPath:
    """Draw fresh N(0, h_l) increments and +-1 signs for m coupled samples.

    The signs are drawn after the increments, so ``signs=False`` (eta of
    shape (m, 0)) leaves the increments bit for bit as they are.  Both are
    drawn in C order and stored in Fortran order (see the module docstring);
    the scaling runs in place on the Fortran copy, so at most two
    block-sized arrays exist at once.
    """
    steps = grid.steps
    gen = stream.generator()
    dw = np.asfortranarray(gen.standard_normal((m, d, steps)))
    dw *= math.sqrt(grid.step)
    if not signs:
        return LevelPath(dw, np.zeros((m, 0), dtype=np.int8))
    eta = np.asfortranarray(2 * gen.integers(0, 2, size=(m, steps), dtype=np.int8) - 1)
    return LevelPath(dw, eta)


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
