"""One-step maps, path simulation and coupled multilevel samples.

Two schemes are implemented.  The splitting scheme ("nv") composes the
exact drift flow over half a step, the exact diffusion flows driven by the
Brownian increments (in ascending column order when the step's Rademacher
sign is +1, descending when it is -1), and the drift flow again.  The
antithetic Milstein-type scheme ("gs") is the Milstein update with every
Levy-area term deleted.

A level sample Z^l is the mean payoff over a set of fine-grid paths minus
the mean over a set of coarse-grid paths on pairwise-summed increments;
each coupling in ``COUPLINGS`` declares the two sets (Giles & Szpruch,
Ann. Appl. Probab. 2014, for the antithetic construction).
"""

from __future__ import annotations

import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .models import Payoff, SdeModel
from .paths import (
    LevelGrid,
    RngStream,
    antithetic_swap,
    coarsen,
    rademacher_coarse,
    sample_level_path,
)

# samples per RNG block; fixed so results never depend on the worker count
BLOCK_SAMPLES = 4096

# one path of a level sample: (scheme, swap increments, negate signs)
_NV_FINE = (("nv", False, False), ("nv", True, False), ("nv", False, True), ("nv", True, True))

# (fine paths, coarse paths) per sample of each coupling; the ones with coarse
# paths are the level couplings, the others run on one grid at any level
COUPLINGS = {
    "gs": ((("gs", False, False), ("gs", True, False)), (("gs", False, False),)),
    "nv": (_NV_FINE, (("nv", False, False), ("nv", False, True))),
    "gs-nv": (_NV_FINE, (("gs", False, False),)),
    "level0-nv-averaged": ((("nv", False, False), ("nv", False, True)), ()),
    "crude-gs": ((("gs", False, False),), ()),
    "crude-nv": ((("nv", False, False),), ()),
}

# (fine paths, coarse paths) simulated per sample of each coupling
COUPLING_COSTS = {tag: (len(fine), len(coarse)) for tag, (fine, coarse) in COUPLINGS.items()}


def nv_step(model: SdeModel, x: np.ndarray, h: float, dw: np.ndarray,
            eta: np.ndarray) -> np.ndarray:
    """One splitting step from a batch of states x (m, n).

    dw holds the step's increments (m, d); eta the +-1 signs (m,).  Both
    composition orders run on the whole batch and each sample keeps the one
    its sign picks, which is the same arithmetic as stepping it alone.
    """
    up = down = model.drift_flow(tuple(x.T), 0.5 * h)
    w = np.ascontiguousarray(dw.T)  # each column is read by both orders
    for j in range(1, model.d + 1):
        up = model.diffusion_flow(j, up, w[j - 1])
    for j in range(model.d, 0, -1):
        down = model.diffusion_flow(j, down, w[j - 1])
    plus = eta > 0
    y = tuple(np.where(plus, a, b) for a, b in zip(up, down))
    return np.stack(model.drift_flow(y, 0.5 * h), axis=-1)


def gs_step(model: SdeModel, x: np.ndarray, h: float, dw: np.ndarray) -> np.ndarray:
    """One Milstein-without-Levy-areas step from a batch of states x (m, n)."""
    out = x + model.drift(x) * h
    for j in range(1, model.d + 1):
        out = out + model.diffusion(j, x) * dw[..., j - 1, None]
    for j in range(1, model.d + 1):
        for k in range(1, model.d + 1):
            corr = dw[..., j - 1] * dw[..., k - 1]
            if j == k:
                corr = corr - h
            out = out + 0.5 * model.jacobian_product(j, k, x) * corr[..., None]
    return out


def simulate_path(kind: str, model: SdeModel, grid: LevelGrid, dw: np.ndarray,
                  eta: np.ndarray | None = None) -> np.ndarray:
    """Terminal state after all grid steps; "gs" ignores eta."""
    steps = grid.steps
    if dw.shape[-1] != steps or dw.shape[-2] != model.d:
        raise ValueError(f"increments shaped {dw.shape} do not match d={model.d}, steps={steps}")
    x = model.initial_state(dw.shape[0])
    h = grid.step
    if kind == "nv":
        if eta is None or eta.shape[-1] != steps:
            raise ValueError("nv needs one Rademacher sign per step")
        for k in range(steps):
            x = nv_step(model, x, h, dw[:, :, k], eta[:, k])
    elif kind == "gs":
        for k in range(steps):
            x = gs_step(model, x, h, dw[:, :, k])
    else:
        raise ValueError(f"unknown scheme kind {kind!r}")
    return x


@dataclass(frozen=True)
class LevelSample:
    """Realizations of Z^l for one coupling, with path-count bookkeeping.

    ``values`` holds one realization per entry; non-finite entries mark
    samples aborted by a scheme-domain error.  fine/coarse path counts are
    per sample and fixed by the coupling.
    """

    values: np.ndarray
    level: int
    coupling: str
    fine_evals: int
    coarse_evals: int

    @property
    def aborted(self) -> int:
        return int(np.size(self.values) - np.isfinite(self.values).sum())

    @property
    def cost_units(self) -> float:
        per = self.fine_evals * 2**self.level
        if self.coarse_evals:
            per += self.coarse_evals * 2 ** (self.level - 1)
        return float(per * np.size(self.values))


def _mean_payoff(model: SdeModel, payoff: Payoff, paths, grid: LevelGrid,
                 dw: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Left-to-right sum of the payoffs of ``paths`` over their count."""
    swapped = antithetic_swap(dw) if any(swap for _, swap, _ in paths) else None
    total = None
    for scheme, swap, negate in paths:
        x = simulate_path(scheme, model, grid, swapped if swap else dw, -eta if negate else eta)
        total = payoff(x) if total is None else total + payoff(x)
    return total / len(paths)


def sample_level(model: SdeModel, payoff: Payoff, coupling: str, level: int,
                 m: int, stream: RngStream, horizon: float = 1.0,
                 degenerate: bool = False) -> LevelSample:
    """Simulate m coupled samples of Z^level for the requested coupling.

    Z^l is the mean payoff of the coupling's fine paths on the level's
    increments and signs, minus the mean of its coarse paths on the
    pairwise-summed increments and odd-step signs (``COUPLINGS``).  A
    coupling with coarse paths needs level >= 1; one without runs at any
    level, which at level 0 is the one-step scheme of the level-0 estimator.
    """
    if coupling not in COUPLINGS:
        raise ValueError(f"unknown coupling {coupling!r}")
    fine, coarse = COUPLINGS[coupling]
    if coarse and level < 1:
        raise ValueError(f"coupling {coupling!r} needs level >= 1")
    grid = LevelGrid(level, horizon)
    path = sample_level_path(stream, grid, model.d, m, degenerate)
    values = _mean_payoff(model, payoff, fine, grid, path.dw, path.eta)
    if coarse:
        values = values - _mean_payoff(model, payoff, coarse, LevelGrid(level - 1, horizon),
                                       coarsen(path.dw), rademacher_coarse(path.eta))
    return LevelSample(np.asarray(values, dtype=float), level, coupling,
                       len(fine), len(coarse))


@dataclass(frozen=True)
class LevelSampler:
    """Bound sampler: everything needed to draw Z^l batches anywhere."""

    model: SdeModel
    payoff: Payoff
    coupling: str
    horizon: float = 1.0
    degenerate: bool = False

    def with_coupling(self, coupling: str) -> "LevelSampler":
        return replace(self, coupling=coupling)

    def sample(self, level: int, m: int, stream: RngStream) -> LevelSample:
        return sample_level(self.model, self.payoff, self.coupling, level, m,
                            stream, self.horizon, self.degenerate)


def _map_blocks(fn, job, level: int, m: int, seed: int, experiment: int, workers: int):
    """fn((job, level, count, stream)) over the fixed blocks of m samples.

    Block boundaries and stream coordinates depend only on (seed,
    experiment, level, block index), and results come back in block order,
    so they are identical for any worker count.
    """
    tasks = [
        (job, level, min(BLOCK_SAMPLES, m - start),
         RngStream(seed, experiment, level, index))
        for index, start in enumerate(range(0, m, BLOCK_SAMPLES))
    ]
    if workers <= 1 or len(tasks) == 1:
        return [fn(task) for task in tasks]
    return list(_pool(workers).map(fn, tasks, chunksize=4))


@functools.cache
def _pool(workers: int) -> ProcessPoolExecutor:
    """One executor per worker count, kept for the life of the process."""
    return ProcessPoolExecutor(max_workers=workers)


def _sample_block(task):
    sampler, level, count, stream = task
    return sampler.sample(level, count, stream).values


def sample_many(sampler: LevelSampler, level: int, m: int, seed: int,
                experiment: int = 0, workers: int = 1) -> LevelSample:
    """Draw m samples of Z^level in fixed blocks with per-block streams,
    concatenated in block order (identical for any worker count)."""
    arrays = _map_blocks(_sample_block, sampler, level, m, seed, experiment, workers)
    values = np.concatenate(arrays) if arrays else np.zeros(0)
    fine_evals, coarse_evals = COUPLING_COSTS[sampler.coupling]
    return LevelSample(values, level, sampler.coupling, fine_evals, coarse_evals)


def _coupling_block(task):
    (model, horizon, degenerate), level, count, stream = task
    grid = LevelGrid(level, horizon)
    coarse_grid = LevelGrid(level - 1, horizon)
    path = sample_level_path(stream, grid, model.d, count, degenerate)
    dw, eta = path.dw, path.eta
    x_fine = simulate_path("nv", model, grid, dw, eta)
    x_neg = simulate_path("nv", model, grid, dw, -eta)
    x_coarse = simulate_path("nv", model, coarse_grid, coarsen(dw), rademacher_coarse(eta))
    x_gs = simulate_path("gs", model, grid, dw)
    self_sq = np.sum((x_fine - x_coarse) ** 2, axis=-1)
    pair_sq = np.sum((0.5 * (x_fine + x_neg) - x_gs) ** 2, axis=-1)
    return self_sq.sum(), pair_sq.sum()


def coupling_errors(model: SdeModel, levels, m: int, seed: int,
                    experiment: int = 0, workers: int = 1, horizon: float = 1.0,
                    degenerate: bool = False):
    """Mean squared terminal gaps per level, for the two coupling checks.

    Returns (self_mse, pair_mse): E||X_fine - X_coarse||^2 for the
    splitting scheme refined by one level on the same Brownian path, and
    E||(X^{eta} + X^{-eta})/2 - X_gs||^2 on the same grid.
    """
    self_mse, pair_mse = [], []
    for level in levels:
        if level < 1:
            raise ValueError("coupling errors need level >= 1")
        parts = _map_blocks(_coupling_block, (model, horizon, degenerate), level, m,
                            seed, experiment, workers)
        self_sum = sum(p[0] for p in parts)
        pair_sum = sum(p[1] for p in parts)
        self_mse.append(self_sum / m)
        pair_mse.append(pair_sum / m)
    return np.array(self_mse), np.array(pair_mse)
