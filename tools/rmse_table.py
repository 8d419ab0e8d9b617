"""Realized RMSE of ``mlmc-sde run`` over seeds 1..N, per coupling and epsilon.

Usage (from anywhere):

    python3 tools/rmse_table.py --seeds 100 --config scripts/clark_cameron_benchmark.cfg
    python3 tools/rmse_table.py --seeds 100 --config scripts/heston_call.cfg --estimator mlmc
    python3 tools/rmse_table.py --src OTHER_CHECKOUT/src --seeds 100 --config ...

Every argument other than ``--seeds`` and ``--src`` is passed to ``run``, which
is called in this process once per seed, with ``--seed`` set to that seed and
``--out`` to a scratch directory.  ``--src`` selects the ``src/`` directory
whose ``mlmc_sde`` runs (default: this checkout's).  The truth is the closed
form of the problem: ``oracle.cc_exact_cos_mean`` for ``cos-u`` on
Clark-Cameron, and the Lewis price of ``perfbench/reference.py`` for
``heston-call`` on the (uncorrelated) Heston model started at u0 = 0.  Each
row prints, for one (coupling, epsilon) over the seeds: the RMSE and the mean
error of the estimates, both over epsilon, the mean last level L and the mean
``cost_units`` of the runs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib.util
import io
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(path: Path):
    """The module of the file ``path``, so that the truth is this checkout's
    whichever ``--src`` runs."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def truth(cfg) -> float:
    """The exact mean of the payoff of the resolved run configuration ``cfg``."""
    if (cfg.model, cfg.payoff) == ("clark-cameron", "cos-u"):
        oracle = _load(ROOT / "src" / "mlmc_sde" / "oracle.py")
        return math.cos(cfg.u0) * oracle.cc_exact_cos_mean(cfg.mu, cfg.horizon, cfg.s0)
    if (cfg.model, cfg.payoff) == ("heston", "heston-call") and cfg.u0 == 0.0:
        reference = _load(ROOT / "perfbench" / "reference.py")
        return reference.heston_call(cfg.rate, cfg.kappa, cfg.theta, cfg.sigma, cfg.v0,
                                     cfg.horizon)
    raise SystemExit(f"rmse_table: no closed form for payoff {cfg.payoff} on {cfg.model}"
                     + (" from u0 != 0" if cfg.model == "heston" else ""))


def rmse_rows(run_args: list[str], seeds: int) -> list[dict]:
    """One row per (coupling, epsilon) of ``run`` over seeds 1..``seeds``:
    coupling, epsilon, rmse_eps, mean_err_eps, mean_L, mean_cost_units."""
    from mlmc_sde import cli

    exact = truth(cli.resolve_config(cli.build_parser().parse_args(["run", *run_args])))
    runs: dict[tuple[str, float], list[tuple[float, int, float]]] = {}
    with tempfile.TemporaryDirectory() as out:
        for seed in range(1, seeds + 1):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", *run_args, "--seed", str(seed), "--out", out])
            if code != 0:
                raise SystemExit(f"rmse_table: run at seed {seed} exited {code}")
            lines = [line for line in (Path(out) / "run.csv").read_text().splitlines()
                     if not line.startswith("#")]
            for row in csv.DictReader(lines):
                runs.setdefault((row["coupling"], float(row["epsilon"])), []).append(
                    (float(row["estimate"]) - exact, int(row["L"]), float(row["cost_units"])))
    rows = []
    for (coupling, epsilon), values in runs.items():
        errors, levels, costs = zip(*values)
        rows.append({
            "coupling": coupling, "epsilon": epsilon,
            "rmse_eps": math.sqrt(sum(e * e for e in errors) / len(errors)) / epsilon,
            "mean_err_eps": sum(errors) / len(errors) / epsilon,
            "mean_L": sum(levels) / len(levels),
            "mean_cost_units": sum(costs) / len(costs),
        })
    return rows


def _eps_text(epsilon: float) -> str:
    power = math.log2(epsilon)
    return f"2^{power:g}" if power == round(power) else f"{epsilon:g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=100, help="run seeds 1..N (default 100)")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the src/ directory whose mlmc_sde runs")
    opts, run_args = parser.parse_known_args(argv)
    sys.path.insert(0, opts.src)
    rows = rmse_rows(run_args, opts.seeds)
    print(f"# {opts.seeds} seeds: run {' '.join(run_args)}")
    print(f"{'coupling':<8} {'eps':>7} {'rmse/eps':>9} {'mean_err/eps':>13} {'mean_L':>7} "
          f"{'mean_cost_units':>16}")
    for row in rows:
        print(f"{row['coupling']:<8} {_eps_text(row['epsilon']):>7} {row['rmse_eps']:>9.3f} "
              f"{row['mean_err_eps']:>13.3f} {row['mean_L']:>7.2f} "
              f"{row['mean_cost_units']:>16.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
