"""One-step maps, path simulation and coupled multilevel samples.

Two schemes are implemented.  The splitting scheme ("nv") composes the
exact drift flow over half a step, the exact diffusion flows driven by the
Brownian increments (in ascending column order when the step's Rademacher
sign is +1, descending when it is -1), and the drift flow again.  The
antithetic Milstein-type scheme ("gs") is the Milstein update with every
Levy-area term deleted.

A level sample Z^l couples the fine-grid scheme, its antithetic twin on
pair-swapped increments, and the coarse-grid scheme on pairwise-summed
increments; the variants differ in which scheme sits on which grid.
"""

from __future__ import annotations

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

# (fine paths, coarse paths) simulated per sample of each coupling
COUPLING_COSTS = {
    "gs": (2, 1),
    "nv": (4, 2),
    "gs-nv": (4, 1),
    "level0-nv-averaged": (2, 0),
    "crude-gs": (1, 0),
    "crude-nv": (1, 0),
}


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


def sample_level(model: SdeModel, payoff: Payoff, coupling: str, level: int,
                 m: int, stream: RngStream, horizon: float = 1.0,
                 degenerate: bool = False) -> LevelSample:
    """Simulate m coupled samples of Z^level for the requested coupling.

    Level couplings (level >= 1):
      gs     -- 1/2 (f(fine gs) + f(swapped fine gs)) - f(coarse gs)
      nv     -- 1/4 sum over {plain, swapped} x {eta, -eta} fine nv
                - 1/2 (f(coarse nv, eta odd-subvector) + same with negated signs)
      gs-nv  -- the nv fine average minus f(coarse gs)
    "crude-*" run a single plain path at any level, which at level 0 is the
    one-step scheme of the level-0 estimator; "level0-nv-averaged" averages
    the two composition orders on the same increments.
    """
    grid = LevelGrid(level, horizon)
    path = sample_level_path(stream, grid, model.d, m, degenerate)
    dw, eta = path.dw, path.eta

    if coupling == "level0-nv-averaged":
        ones = np.ones_like(eta)
        values = 0.5 * (
            payoff(simulate_path("nv", model, grid, dw, ones))
            + payoff(simulate_path("nv", model, grid, dw, -ones))
        )
    elif coupling == "crude-gs":
        values = payoff(simulate_path("gs", model, grid, dw))
    elif coupling == "crude-nv":
        values = payoff(simulate_path("nv", model, grid, dw, eta))
    elif coupling in ("gs", "nv", "gs-nv"):
        if level < 1:
            raise ValueError(f"coupling {coupling!r} needs level >= 1")
        coarse_grid = LevelGrid(level - 1, horizon)
        dw_c = coarsen(dw)
        if coupling == "gs":
            fine = payoff(simulate_path("gs", model, grid, dw))
            anti = payoff(simulate_path("gs", model, grid, antithetic_swap(dw)))
            values = 0.5 * (fine + anti) - payoff(simulate_path("gs", model, coarse_grid, dw_c))
        else:
            dw_s = antithetic_swap(dw)
            fine = 0.25 * (
                payoff(simulate_path("nv", model, grid, dw, eta))
                + payoff(simulate_path("nv", model, grid, dw_s, eta))
                + payoff(simulate_path("nv", model, grid, dw, -eta))
                + payoff(simulate_path("nv", model, grid, dw_s, -eta))
            )
            if coupling == "nv":
                eta_c = rademacher_coarse(eta)
                coarse = 0.5 * (
                    payoff(simulate_path("nv", model, coarse_grid, dw_c, eta_c))
                    + payoff(simulate_path("nv", model, coarse_grid, dw_c, -eta_c))
                )
            else:
                coarse = payoff(simulate_path("gs", model, coarse_grid, dw_c))
            values = fine - coarse
    else:
        raise ValueError(f"unknown coupling {coupling!r}")

    fine_evals, coarse_evals = COUPLING_COSTS[coupling]
    return LevelSample(np.asarray(values, dtype=float), level, coupling,
                       fine_evals, coarse_evals)


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
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=4))


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
