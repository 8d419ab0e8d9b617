"""Coupled randomness for one multilevel sample.

A level-l sample draws Brownian increments on its fine grid, 2^l steps of
T / 2^l with T the model's horizon, and a Rademacher sign sequence.  A
level is a plain int, and T is read from the model alone.  Increment arrays have shape (m, d, steps) for a batch of m
samples; sign arrays have shape (m, steps).  Both are stored step-major
(Fortran order: memory (steps, d, m) and (steps, m)), so the (m, d)
increments and (m,) signs of one step, and each coordinate's row of them,
are contiguous.  The coarse-grid aggregation, the antithetic pair swap and
the coarse-grid signs are never built: ``schemes.simulate_path`` reads them
from the fine arrays step by step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1

# deepest level any command samples: at d = 2 one block of 4096 samples holds
# 256 MiB of increments at level 12, and each further level doubles that
MAX_LEVEL = 12


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


def sample_level_path(stream, model, level: int, m=1, signs: bool = True) -> LevelPath:
    """Draw fresh N(0, h_l) increments of ``model``'s d coordinates and +-1
    signs for a batch of blocks, on level l's 2^l steps of h_l = T / 2^l, T
    the model's horizon.

    ``stream`` and ``m`` are one block's stream and sample count, or equal-
    length sequences of them.  Each block's normals are drawn in C order from
    its own stream into its rows of one Fortran-order array (see the module
    docstring), a chunk of rows of at most 2^15 normals (256 KiB) at a time:
    each chunk continues the stream where the last one stopped, so the chunk
    size bounds the C-order temporary and changes no value.  Then come its
    signs in one ``integers`` call: an int8 call buffers random bits, so
    splitting it could change the stream.  ``signs=False``
    (eta of shape (m, 0)) leaves the increments bit for bit as they are.
    """
    streams, counts = (stream, m) if isinstance(m, (list, tuple)) else ((stream,), (m,))
    d, steps = model.d, 2**level
    dw = np.empty((sum(counts), d, steps), order="F")
    eta = np.empty((sum(counts), steps if signs else 0), dtype=np.int8, order="F")
    rows = max(1, 2**15 // (d * steps))
    start = 0
    for block, count in zip(streams, counts):
        gen, end = block.generator(), start + count
        for lo in range(start, end, rows):
            dw[lo:min(lo + rows, end)] = gen.standard_normal((min(rows, end - lo), d, steps))
        if signs:
            eta[start:end] = 2 * gen.integers(0, 2, (count, steps), dtype=np.int8) - 1
        start = end
    dw *= math.sqrt(model.horizon / steps)
    return LevelPath(dw, eta)
