import numpy as np
import pytest

from mlmc_sde import schemes
from mlmc_sde.paths import LevelPath


@pytest.fixture
def zero_noise(monkeypatch):
    """Zero increments and all-plus signs for every draw of this process.

    Both ``sample_level`` and the coupling-error blocks draw through
    ``schemes.sample_level_path``.  Pool workers do not see the patch, so
    tests that use it sample with one worker.
    """
    def draw(stream, model, level, m=1, signs=True):
        steps, rows = 2**level, int(np.sum(m))  # m: a count or a batch's
        return LevelPath(np.zeros((rows, model.d, steps)),
                         np.ones((rows, steps if signs else 0), dtype=np.int8))

    monkeypatch.setattr(schemes, "sample_level_path", draw)


@pytest.fixture
def pooled(monkeypatch):
    """Block-dispatch calls of two tasks or more at several workers go to the
    real process pool, however few path steps they draw, as on a machine of
    two cores.  Returns the worker counts of the pools asked for, one per
    pooled call."""
    monkeypatch.setattr(schemes.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(schemes, "POOL_PATH_STEPS", 0)
    asked, pool = [], schemes._pool

    def counted(workers):
        asked.append(workers)
        return pool(workers)

    monkeypatch.setattr(schemes, "_pool", counted)
    return asked
