"""One-step maps, path simulation and coupled multilevel samples.

Two schemes are implemented.  The splitting scheme ("nv") composes the
exact drift flow over half a step, the exact diffusion flows driven by the
Brownian increments (in ascending column order when the step's Rademacher
sign is +1, descending otherwise), and the drift flow again.  One step
computes both orders, so an nv path whose twin is also used, the path
that takes the other order at every step (the path on -eta for +-1
signs), is simulated together with it; a path used alone is simulated
alone, and each sample keeps its own order.
The antithetic Milstein-type scheme ("gs") is the Milstein update with
every Levy-area term deleted.

States are (m, n) batches stored coordinate-major (``x.T`` is
C-contiguous), so each coordinate a step reads is a contiguous row; the
step slices of the increments and signs are contiguous in the
step-major order of ``paths``.

A level sample Z^l is the mean payoff over a set of fine-grid paths minus
the mean over a set of coarse-grid paths on pairwise-summed increments;
each coupling in ``COUPLINGS`` declares the two sets (Giles & Szpruch,
Ann. Appl. Probab. 2014, for the antithetic construction).  Level l's grid
has 2^l steps of the model's horizon over 2^l, and a coarse path is given
the fine increments themselves: they hold twice its grid's steps, which
is what makes ``simulate_path`` read them pairwise.

Every sampled statistic, the level statistics and the strong errors alike,
has one reduction: ``block_records`` reduces each fixed block of values to
its moments where the block is sampled, and ``central_moments`` folds a
level's records in block order with the pairwise update of the central
moments (Chan, Golub & LeVeque 1979; Pebay, Sandia report SAND2008-6212).
So no level's values are ever held whole, and a statistic depends only on
the stream and the sample size, not on the worker count or the batching; it
differs from one pairwise sum over the level's values in rounding.
"""

from __future__ import annotations

import atexit
import functools
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .models import Payoff, SdeModel
from .paths import LevelGrid, RngStream, sample_level_path

# samples per RNG block; fixed so results never depend on the worker count
BLOCK_SAMPLES = 4096
# consecutive blocks sampled in one kernel call: at most this many blocks and
# this many float64 increments (8 MiB)
BATCH_BLOCKS = 4
BATCH_INCREMENTS = 2**20
# path steps (``path_steps``) of one block-dispatch call below which its tasks
# run in the calling process: from about 2^20 path steps, at levels 1, 3 and 5
# alike, one Heston nv call paid for starting a pool of 2 workers on 2 cores
# (README, "Reproducibility and parallelism")
POOL_PATH_STEPS = 2**20

# one path of a level sample: (scheme, swap increments, twin); the twin of an
# nv path takes the other composition order at every step, and is simulated
# only where a coupling uses it
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


def path_steps(coupling: str, level: int) -> float:
    """Path steps simulated per sample of ``coupling`` at ``level``: 2^level
    for each fine path and 2^(level-1) for each coarse one.  The one cost of
    a sample that plans are sized with and runs report."""
    if coupling not in COUPLINGS:
        raise ValueError(f"unknown coupling {coupling!r}")
    fine, coarse = COUPLINGS[coupling]
    return len(fine) * 2.0**level + len(coarse) * 2.0 ** (level - 1)


def nv_step(model: SdeModel, x: np.ndarray, h: float, dw: np.ndarray,
            mask: np.ndarray) -> np.ndarray:
    """One splitting step from a batch of paths x (m, n) or of path pairs x (2m, n).

    dw holds the step's increments (m, d).  After the first drift half-flow,
    both composition orders run on dw from two halves: for paths, each row
    is both halves, and for pairs, rows [:m] start the ascending order and
    rows [m:] the descending one.  Row i of the new state takes the
    descending result where the uint64 mask ``mask`` (m,) is all ones and
    the ascending one where it is zero; for pairs, row m + i takes the
    other, so the two halves of sample i are exchanged.  The second drift
    half-flow then runs once on every row, which the pick leaves
    bit-identical because the drift flow acts on each row alone.  The new
    state is coordinate-major, an (m, n) or (2m, n) view of an (n, m) or
    (n, 2m) array.  The select moves the bits of each float, never compares
    them, so NaN payloads, infinities and signed zeros come through as they
    were, and no per-element branch is taken.  ``simulate_path`` sets the
    mask so that each path, and its twin, take their own order at each step.
    """
    m, rows = dw.shape[0], x.shape[0]
    y = model.drift_flow(tuple(x.T), 0.5 * h)
    halves = (y, y) if rows == m else (tuple(c[:m] for c in y), tuple(c[m:] for c in y))
    # rows read by both orders; no copy for a step slice of paths' increments
    up, down = model.diffusion_orders(*halves, np.ascontiguousarray(dw.T))
    out = np.empty((model.n, rows))
    for row, a, b in zip(out.view(np.uint64), up, down):
        a, b = a.view(np.uint64), b.view(np.uint64)
        # t = (a ^ b) & mask in rows [:m]; a ^ t and b ^ t are then b and a
        # where the mask is all ones, a and b where it is zero
        t = np.bitwise_xor(a, b, out=row[:m])
        t &= mask
        if rows > m:
            np.bitwise_xor(b, t, out=row[m:])
        t ^= a
    for row, c in zip(out, model.drift_flow(tuple(out), 0.5 * h)):
        row[...] = c
    return out.T


def gs_step(model: SdeModel, x: np.ndarray, h: float, dw: np.ndarray) -> np.ndarray:
    """One Milstein-without-Levy-areas step from a batch of states x (m, n).

    Each coordinate gets b h, then sigma^j dw^j in ascending j, then
    (1/2) (d sigma^j) sigma^k (dw^j dw^k - [j = k] h) in (j, k) order; the
    structural zeros (None) of ``model.milstein_terms`` are skipped.  The
    terms are added in place to one C-order copy of ``x.T``, so the new
    state is coordinate-major, as in ``nv_step``, whatever the order of x.
    """
    drift, sigma, jac = model.milstein_terms(tuple(x.T))
    # rows read by several terms; no copy for a step slice of paths' increments
    w = np.ascontiguousarray(dw.T)
    terms = [(drift, h)] + [(col, w[j - 1]) for j, col in sigma.items()]
    for (j, k), col in jac.items():
        corr = w[j - 1] * w[k - 1]
        terms.append((tuple(None if a is None else 0.5 * a for a in col),
                       corr - h if j == k else corr))
    out = np.array(x.T, order="C")
    for col, dz in terms:
        for row, a in zip(out, col):
            if a is not None:
                row += a * dz
    return out.T


def simulate_path(kind: str, model: SdeModel, grid: LevelGrid, dw: np.ndarray,
                  eta: np.ndarray | None = None, swap: bool = False,
                  twin: bool = True) -> np.ndarray:
    """Terminal states after all grid steps; "gs" ignores eta and twin.

    "gs" runs one path per sample of dw (m, d, steps) and returns (m, n).
    "nv" runs each sample's path on eta, which ascends at a step whose sign
    is positive and descends otherwise.  With ``twin`` it runs the path
    together with its twin, which takes the other composition order at
    every step (the path on -eta for +-1 signs), and returns (2m, n): the
    paths in rows [:m], their twins in rows [m:].  A path on -eta therefore
    needs no flag of its own: it is the twin.  Without ``twin`` it returns
    the paths alone (m, n), bit for bit rows [:m] of the pair.

    One mask rule serves both: a step's rows [:m] take the descending result
    where its order differs from ``then``, the path's next order for a pair
    (ascending after the last step) and always ascending for a path alone.

    Derived increments are read per step and never built: ``swap`` reads
    step k ^ 1, the antithetic pair swap, and dw and eta with twice the
    grid's steps, those of the next finer grid, are read pairwise: the
    coarse increment of step k is dw[..., 2k] + dw[..., 2k + 1] and its sign
    is eta[:, 2k].  The tests build these arrays in full as a reference.
    """
    steps = grid.steps
    fold = dw.shape[-1] // steps  # 2 where the steps are read pairwise
    if dw.shape[-1] not in (steps, 2 * steps) or dw.shape[-2] != model.d or (swap and steps % 2):
        raise ValueError(f"increments shaped {dw.shape} do not match d={model.d}, "
                         f"steps={steps} or twice that, swap={swap}")
    if kind == "nv" and (eta is None or eta.shape != (dw.shape[0], fold * steps)):
        raise ValueError(f"nv needs one Rademacher sign per sample and step: signs shaped "
                         f"{None if eta is None else eta.shape}, increments {dw.shape}")
    if kind not in ("nv", "gs"):
        raise ValueError(f"unknown scheme kind {kind!r}")
    h = grid.step
    pair = kind == "nv" and twin
    x = model.initial_state((2 if pair else 1) * dw.shape[0])
    for k in range(steps):
        j = fold * k
        w = dw[:, :, j] + dw[:, :, j + 1] if fold == 2 else dw[:, :, k ^ swap]
        if kind == "gs":
            x = gs_step(model, x, h, w)
        else:
            then = eta[:, j + fold] > 0 if pair and k + 1 < steps else True
            mask = np.equal(eta[:, j] > 0, then).astype(np.uint64)
            mask -= 1  # 1 - 1 = 0 where the orders agree, 0 - 1 = 2^64 - 1 where not
            x = nv_step(model, x, h, w, mask)
    return x


@dataclass(frozen=True)
class LevelMoments:
    """Samples of Z^l for one coupling, reduced per block: ``records`` holds
    one ``block_records`` row per block, in block order.  The aborted
    samples are those that are not finite."""

    records: np.ndarray
    level: int
    coupling: str

    @property
    def aborted(self) -> int:
        return int(self.records[:, 0].sum() - self.records[:, 1].sum())

    @property
    def cost_units(self) -> float:
        """Path steps simulated over all samples (``path_steps``)."""
        return path_steps(self.coupling, self.level) * int(self.records[:, 0].sum())


def block_records(values: np.ndarray) -> np.ndarray:
    """One row [samples, finite samples, mean, M2, M3, M4] per block of
    ``BLOCK_SAMPLES`` consecutive values, the last block possibly shorter.

    M_k is the sum of the k-th powers of the deviations of the block's
    finite values from their mean, in two passes.  A block's row is reduced
    on its values alone, so it is the same in any batch; a statistic that
    overflows reads inf or nan, with no numpy warning.
    """
    whole = values.size - values.size % BLOCK_SAMPLES
    out = [np.zeros((0, 6))]
    for x in filter(np.size, (values[:whole].reshape(-1, BLOCK_SAMPLES), values[whole:][None])):
        finite = np.isfinite(x)
        n = finite.sum(axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            mean = np.where(finite, x, 0.0).sum(axis=1) / n
            d = np.where(finite, x - mean[:, None], 0.0)
            d2 = d * d
            out.append(np.column_stack((np.full(n.size, x.shape[1]), n, mean, d2.sum(axis=1),
                                        (d2 * d).sum(axis=1), (d2 * d2).sum(axis=1))))
    return np.concatenate(out)


def central_moments(records: np.ndarray) -> tuple[float, ...]:
    """(n, mean, M2, M3, M4) of the finite samples of ``block_records`` rows,
    folded in row order; n = 0 and nan moments where no sample is finite.

    Python floats: an overflow reads inf, and inf - inf reads nan, with no
    warning; equal infinite means merge to their value, not to nan.
    """
    n, mean, m2, m3, m4 = 0.0, math.nan, math.nan, math.nan, math.nan
    for _, nb, mb, b2, b3, b4 in records.tolist():
        if nb == 0.0:
            continue
        if n == 0.0:
            n, mean, m2, m3, m4 = nb, mb, b2, b3, b4
            continue
        na, n = n, n + nb
        delta = mb - mean if mb != mean else 0.0
        dn = delta / n
        mean += nb * dn
        m4 += (b4 + delta * dn * dn * dn * na * nb * (na * na - na * nb + nb * nb)
               + 6.0 * dn * dn * (na * na * b2 + nb * nb * m2) + 4.0 * dn * (na * b3 - nb * m3))
        m3 += b3 + delta * dn * dn * na * nb * (na - nb) + 3.0 * dn * (na * b2 - nb * m2)
        m2 += b2 + delta * dn * na * nb
    return n, mean, m2, m3, m4


def _mean_payoff(model: SdeModel, payoff: Payoff, paths, grid: LevelGrid, path) -> np.ndarray:
    """Left-to-right sum of the payoffs of ``paths`` over their count; each
    (scheme, swap) is simulated once, an nv path with its twin only where
    ``paths`` holds that twin."""
    twins = {(scheme, swap) for scheme, swap, twin in paths if twin}
    states, total = {}, None
    for scheme, swap, twin in paths:
        key = scheme, swap
        if key not in states:
            x = simulate_path(scheme, model, grid, path.dw, path.eta, swap, key in twins)
            states[key] = np.split(x, 2) if key in twins else (x,)
        x = states[key][twin]
        total = payoff(x) if total is None else total + payoff(x)
    return total / len(paths)


def sample_level(model: SdeModel, payoff: Payoff, coupling: str, level: int,
                 m, stream) -> np.ndarray:
    """The values of m coupled samples of Z^level for the requested coupling.

    ``m`` and ``stream`` may be a batch's (``paths.sample_level_path``): the
    values are those of its blocks sampled one by one, in block order.

    Z^l is the mean payoff of the coupling's fine paths on the level's
    increments and signs, minus the mean of its coarse paths on the
    pairwise-summed increments and odd-step signs (``COUPLINGS``).  A
    coupling with coarse paths needs level >= 1; one without runs at any
    level, which at level 0 is the one-step scheme of the level-0 estimator.
    Overflow in the paths or payoffs, and the invalid operations that follow
    it, are not warned about: the non-finite values they leave count as
    aborted samples (``LevelMoments.aborted``).
    """
    if coupling not in COUPLINGS:
        raise ValueError(f"unknown coupling {coupling!r}")
    fine, coarse = COUPLINGS[coupling]
    if coarse and level < 1:
        raise ValueError(f"coupling {coupling!r} needs level >= 1")
    grid = LevelGrid(level, model.horizon)
    signs = any(scheme == "nv" for scheme, _, _ in fine + coarse)
    path = sample_level_path(stream, grid, model.d, m, signs)
    with np.errstate(over="ignore", invalid="ignore"):
        values = _mean_payoff(model, payoff, fine, grid, path)
        if coarse:
            values = values - _mean_payoff(model, payoff, coarse,
                                           LevelGrid(level - 1, model.horizon), path)
    return np.asarray(values, dtype=float)


@dataclass(frozen=True)
class LevelSampler:
    """Bound sampler: everything needed to draw Z^l batches anywhere."""

    model: SdeModel
    payoff: Payoff
    coupling: str

    def with_coupling(self, coupling: str) -> "LevelSampler":
        return replace(self, coupling=coupling)

    def sample(self, level: int, m, stream) -> np.ndarray:
        return sample_level(self.model, self.payoff, self.coupling, level, m, stream)


def _map_blocks(fn, job, d: int, level: int, m: int, seed: int, experiment: int, workers: int,
                sample_steps: float, first_block: int = 0):
    """fn((job, level, counts, streams)) over batches of the fixed blocks of m
    samples, from block ``first_block`` on; ``sample_steps`` is the path
    steps of one sample.

    Block boundaries and stream coordinates depend only on (seed,
    experiment, level, block index), and results come back in batch order,
    so they are identical for any worker count.  A batch holds consecutive
    blocks within BATCH_BLOCKS and BATCH_INCREMENTS (d coordinates), and
    with several workers a level of two blocks or more makes two tasks or
    more.  Those tasks go to a process pool only where the call draws
    POOL_PATH_STEPS path steps or more; below that the same tasks run here,
    in order.  The pool never has more processes than the machine has cores.
    """
    blocks = [(min(BLOCK_SAMPLES, m - i * BLOCK_SAMPLES), RngStream(seed, experiment, level, i))
              for i in range(first_block, -(-m // BLOCK_SAMPLES))]
    workers = min(workers, os.cpu_count() or 1)
    size = max(1, min(BATCH_BLOCKS, BATCH_INCREMENTS // (BLOCK_SAMPLES * d * 2**level),
                      -(-len(blocks) // workers)))
    tasks = [(job, level, *zip(*blocks[i:i + size])) for i in range(0, len(blocks), size)]
    steps = sample_steps * sum(count for count, _ in blocks)
    if workers <= 1 or len(tasks) == 1 or steps < POOL_PATH_STEPS:
        return [fn(task) for task in tasks]
    return list(_pool(workers).map(fn, tasks))


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported at its first use: only a pool needs
    ``concurrent.futures``.  Assigning the name replaces it."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor


@functools.cache
def _pool(workers: int):
    """One executor per worker count, kept for the life of the process."""
    return sys.modules[__name__].ProcessPoolExecutor(max_workers=workers)


# Drop the executors at exit, while ``concurrent.futures`` is whole.  Imported
# after this module, it is torn down before it, and an executor left to the
# teardown of this module runs its collection callback on a cleared module.
atexit.register(_pool.cache_clear)


def _sample_block(task):
    sampler, level, counts, streams = task
    return block_records(sampler.sample(level, counts, streams))


def sample_many(sampler: LevelSampler, level: int, m: int, seed: int,
                experiment: int = 0, workers: int = 1, first_block: int = 0) -> LevelMoments:
    """Draw m samples of Z^level in fixed blocks with per-block streams, and
    keep each block's record (``block_records``) in block order: identical
    for any worker count, and never more than one batch of values held.

    With ``first_block`` = k, only blocks k and later are drawn: appended
    to the first k whole blocks of any larger draw, they give the records
    of the m samples bit for bit.
    """
    batches = _map_blocks(_sample_block, sampler, sampler.model.d, level, m, seed, experiment,
                          workers, path_steps(sampler.coupling, level), first_block)
    return LevelMoments(np.concatenate(batches or [np.zeros((0, 6))]), level, sampler.coupling)


def _coupling_block(task):
    """(self, pair) ``block_records`` of the squared terminal gaps of the batch."""
    model, level, counts, streams = task
    grid = LevelGrid(level, model.horizon)
    path = sample_level_path(streams, grid, model.d, counts)
    dw, eta = path.dw, path.eta
    x_fine, x_neg = np.split(simulate_path("nv", model, grid, dw, eta), 2)
    x_coarse = simulate_path("nv", model, LevelGrid(level - 1, model.horizon), dw, eta,
                             twin=False)
    x_gs = simulate_path("gs", model, grid, dw)
    return (block_records(np.sum((x_fine - x_coarse) ** 2, axis=-1)),
            block_records(np.sum((0.5 * (x_fine + x_neg) - x_gs) ** 2, axis=-1)))


def coupling_errors(model: SdeModel, levels, m: int, seed: int,
                    experiment: int = 0, workers: int = 1):
    """Mean squared terminal gaps per level, for the two coupling checks.

    Returns (self_mse, pair_mse): E||X_fine - X_coarse||^2 for the
    splitting scheme refined by one level on the same Brownian path, and
    E||(X^{eta} + X^{-eta})/2 - X_gs||^2 on the same grid.  Each is the
    mean of the level's block records folded in block order
    (``central_moments``), and nan at a level where a gap is not finite.
    """
    self_mse, pair_mse = [], []
    for level in levels:
        if level < 1:
            raise ValueError("coupling errors need level >= 1")
        # the nv pair and the gs path on the fine grid, one nv path on the coarse
        batches = _map_blocks(_coupling_block, model, model.d, level, m, seed, experiment,
                              workers, 3 * 2.0**level + 2.0 ** (level - 1))
        for errors, records in zip((self_mse, pair_mse), zip(*batches)):
            n, mean, *_ = central_moments(np.concatenate(records))
            errors.append(mean if n == m else math.nan)
    return np.array(self_mse), np.array(pair_mse)
