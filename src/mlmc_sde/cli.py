"""Command-line front end: convergence experiments, calibration and runs.

Every command writes one CSV whose `#`-prefixed header echoes the fully
resolved configuration plus a provenance hash, so any output file can be
regenerated from itself.  Bodies are byte-identical across reruns with
the same configuration and seed.

Exit codes: 0 pass, 2 configuration error, 3 sampling failure,
4 acceptance-gate failure.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import calibrate as cal
from . import estimators as est
from .models import PAYOFF_LABELS, Payoff, build_model
from .schemes import LevelSampler, coupling_errors, sample_many

# experiment-id bases keep the streams of different phases independent; the
# pilot phases of run and sweep take theirs from estimators
EXP_STRONG = 21
EXP_DECAY = 22
EXP_ORACLE = 23
EXP_RUN = 31


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    model: str = "clark-cameron"
    payoff: str = "cos-u"
    coupling: tuple[str, ...] = ()
    estimator: str = "mlmc"
    eps: tuple[float, ...] = ()
    seed: int = 12345
    pilot_m: int = 10_000
    levels: tuple[int, int] | None = None
    out: str = "."
    workers: int = 1
    negative_variance: str = "error"
    horizon: float = 1.0
    mu: float = 1.0
    u0: float = 0.0
    s0: float = 0.0
    rate: float = 0.05
    kappa: float = 0.5
    theta: float = 0.9
    sigma: float = 0.05
    v0: float = 1.0
    nv_level0: str = "averaged"
    degenerate_rng: bool = False
    alpha: float | None = None
    c1: float | None = None
    beta: float | None = None
    c2: float | None = None


COMMAND_DEFAULTS = {
    "strong-order": {"levels": (2, 7)},
    "variance-decay": {"levels": (2, 6), "coupling": ("gs-nv", "nv")},
    "oracle-check": {"levels": (1, 6), "payoff": "u-squared"},
    "calibrate": {"levels": (1, 4), "coupling": ("gs",)},
    "run": {"coupling": ("gs-nv",)},
    "sweep": {"coupling": ("gs", "gs-nv")},
}

_LIST_KEYS = {"coupling", "eps"}
_BOOL_KEYS = {"degenerate_rng"}
_INT_KEYS = {"seed", "pilot_m", "workers"}
_OPTFLOAT_KEYS = {"alpha", "c1", "beta", "c2"}


def parse_eps(text: str) -> float:
    """Accept plain floats and power forms like 2^-6."""
    text = text.strip()
    if "^" in text:
        base, expo = text.split("^", 1)
        return float(base) ** float(expo)
    return float(text)


def parse_levels(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    if not hi:
        raise ConfigError(f"levels must look like 'a..b', got {text!r}")
    lo_i, hi_i = int(lo), int(hi)
    if lo_i < 0 or hi_i < lo_i:
        raise ConfigError(f"bad level range {text!r}")
    return lo_i, hi_i


def _coerce(key: str, raw: str):
    if key in _BOOL_KEYS:
        return raw.strip().lower() in ("1", "true", "yes", "on")
    if key in _INT_KEYS:
        return int(raw)
    if key == "levels":
        return parse_levels(raw)
    if key == "eps":
        return tuple(parse_eps(tok) for tok in raw.replace(",", " ").split())
    if key == "coupling":
        return tuple(raw.replace(",", " ").split())
    if key in _OPTFLOAT_KEYS:
        return float(raw)
    if key in ("model", "payoff", "estimator", "negative_variance", "out", "nv_level0"):
        return raw.strip()
    return float(raw)


def read_config_file(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment; keys use flag spelling."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in {f.name for f in fields(ExperimentConfig)}:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, raw.strip())
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlmc-sde",
        description="Multilevel Monte Carlo experiments for SDE splitting schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("strong-order", "per-level strong errors of the splitting scheme and its pairing"),
        ("variance-decay", "per-level second moments of the coupled level samples"),
        ("oracle-check", "Monte Carlo vs closed-form second moments (PASS gate)"),
        ("calibrate", "pilot level statistics and fitted rates"),
        ("run", "calibrate, plan and run the multilevel estimator per epsilon"),
        ("sweep", "epsilon sweep of cost units for complexity slopes"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--model", choices=("clark-cameron", "heston"))
        p.add_argument("--payoff", choices=PAYOFF_LABELS)
        p.add_argument("--coupling", action="append", choices=("gs", "nv", "gs-nv"))
        p.add_argument("--estimator", choices=("mlmc", "ml2r"))
        p.add_argument("--eps", action="append", type=parse_eps,
                       help="target RMSE; repeatable; accepts 2^-6 form")
        p.add_argument("--seed", type=int)
        p.add_argument("--pilot-m", dest="pilot_m", type=int,
                       help="samples per level for pilots and experiment estimates")
        p.add_argument("--levels", type=parse_levels, help="level range a..b")
        p.add_argument("--out", help="output directory")
        p.add_argument("--workers", type=int)
        p.add_argument("--negative-variance", dest="negative_variance",
                       choices=("error", "reflect"))
        p.add_argument("--horizon", type=float)
        p.add_argument("--mu", type=float)
        p.add_argument("--u0", type=float)
        p.add_argument("--s0", type=float)
        p.add_argument("--rate", type=float)
        p.add_argument("--kappa", type=float)
        p.add_argument("--theta", type=float)
        p.add_argument("--sigma", type=float)
        p.add_argument("--v0", type=float)
        p.add_argument("--nv-level0", dest="nv_level0", choices=("averaged", "single"))
        p.add_argument("--degenerate-rng", dest="degenerate_rng", action="store_const",
                       const=True, help="zero increments and all-plus signs (plumbing checks)")
        p.add_argument("--alpha", type=float, help="fixed weak order (skips the rate pilot)")
        p.add_argument("--c1", type=float, help="fixed weak constant")
        p.add_argument("--beta", type=float, help="fixed variance order")
        p.add_argument("--c2", type=float, help="fixed variance constant")
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    layers = [COMMAND_DEFAULTS.get(args.command, {})]
    if args.config:
        layers.append(read_config_file(args.config))
    explicit = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "config") and value is not None
    }
    if "coupling" in explicit:
        explicit["coupling"] = tuple(explicit["coupling"])
    if "eps" in explicit:
        explicit["eps"] = tuple(explicit["eps"])
    layers.append(explicit)
    for layer in layers:
        for key, value in layer.items():
            setattr(cfg, key, value)
    _validate(cfg, args.command)
    return cfg


def _validate(cfg: ExperimentConfig, command: str):
    if cfg.pilot_m < 2:
        raise ConfigError("pilot-m must be at least 2")
    if cfg.workers < 1:
        raise ConfigError("workers must be at least 1")
    if any(e <= 0 for e in cfg.eps):
        raise ConfigError("eps values must be positive")
    if cfg.horizon <= 0:
        raise ConfigError("horizon must be positive")
    # every coupled sample and the splitting-scheme errors start at level 1
    if cfg.levels is not None and cfg.levels[0] < 1:
        raise ConfigError(f"{command} needs levels >= 1")
    if command in ("run", "sweep") and not cfg.eps:
        raise ConfigError(f"{command} needs at least one --eps")
    if command in ("run", "sweep"):
        if cfg.estimator == "ml2r" and any(c == "gs-nv" for c in cfg.coupling):
            raise ConfigError("the ml2r estimator pairs with gs or nv couplings only")
    if command == "oracle-check":
        if cfg.model != "clark-cameron" or cfg.payoff != "u-squared":
            raise ConfigError("oracle-check is defined for clark-cameron with payoff u-squared")


def make_model(cfg: ExperimentConfig):
    return build_model(
        cfg.model,
        mu=cfg.mu, u0=cfg.u0, s0=cfg.s0,
        rate=cfg.rate, kappa=cfg.kappa, theta=cfg.theta, sigma=cfg.sigma,
        v0=cfg.v0, negative_variance=cfg.negative_variance,
    )


def make_payoff(cfg: ExperimentConfig) -> Payoff:
    return Payoff(cfg.payoff, rate=cfg.rate, maturity=cfg.horizon)


def config_echo(cfg: ExperimentConfig, command: str) -> list[str]:
    pairs = [("command", command)]
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = " ".join(str(v) for v in value)
        pairs.append((f.name.replace("_", "-"), value))
    return [f"{k} = {v}" for k, v in pairs]


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{x:.12g}"
    return str(x)


def write_csv(cfg: ExperimentConfig, command: str, columns, rows,
              warnings=()) -> Path:
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{command}.csv"
    echo = config_echo(cfg, command)
    provenance = hashlib.sha1("\n".join(echo).encode()).hexdigest()[:12]
    lines = [f"# {line}" for line in echo]
    lines.append(f"# provenance = {provenance}")
    lines.append(f"# generated = {time.strftime('%Y-%m-%dT%H:%M:%S%z')}")
    lines.extend(f"# warning: {w}" for w in warnings)
    lines.append(",".join(columns))
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    return path


def _level_range(cfg: ExperimentConfig, default: tuple[int, int]) -> range:
    lo, hi = cfg.levels if cfg.levels is not None else default
    return range(lo, hi + 1)


def _fit_slope(levels, values):
    """Slope of log2(values) vs level; NaN when degenerate."""
    values = np.asarray(values, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log2(values)
    keep = np.isfinite(logs)
    if keep.sum() < 2:
        return float("nan"), logs
    slope = np.polyfit(np.asarray(levels, dtype=float)[keep], logs[keep], 1)[0]
    return float(slope), logs


def cmd_strong_order(cfg: ExperimentConfig, model, payoff: Payoff) -> int:
    levels = list(_level_range(cfg, (2, 7)))
    self_mse, pair_mse = coupling_errors(
        model, levels, cfg.pilot_m, cfg.seed, EXP_STRONG,
        workers=cfg.workers, horizon=cfg.horizon, degenerate=cfg.degenerate_rng,
    )
    self_slope, self_log = _fit_slope(levels, self_mse)
    pair_slope, pair_log = _fit_slope(levels, pair_mse)
    rows = [(l, self_log[i], pair_log[i]) for i, l in enumerate(levels)]
    rows.append(("slope", self_slope, pair_slope))
    warnings = []
    if np.isnan(self_slope) or np.isnan(pair_slope):
        warnings.append("zero strong error; slope undefined")
    path = write_csv(cfg, "strong-order", ("l", "log2_strong_error_nv", "log2_coupling_error"),
                     rows, warnings)
    print(f"strong-order: nv slope {self_slope:.3f}, coupling slope {pair_slope:.3f} -> {path}")
    return 0


def cmd_variance_decay(cfg: ExperimentConfig, model, payoff: Payoff) -> int:
    levels = list(_level_range(cfg, (2, 6)))
    couplings = cfg.coupling or ("gs-nv", "nv")
    rows, slopes = [], []
    for ci, coupling in enumerate(couplings):
        sampler = LevelSampler(model, payoff, coupling, cfg.horizon, cfg.degenerate_rng)
        moments = []
        for level in levels:
            sample = sample_many(sampler, level, cfg.pilot_m, cfg.seed,
                                 EXP_DECAY + ci, cfg.workers)
            values = sample.values[np.isfinite(sample.values)]
            moments.append(float(np.mean(values**2)))
        slope, logs = _fit_slope(levels, moments)
        slopes.append(slope)
        rows.extend((coupling, l, logs[i]) for i, l in enumerate(levels))
    for coupling, slope in zip(couplings, slopes):
        rows.append((coupling, "slope", slope))
    path = write_csv(cfg, "variance-decay", ("coupling", "l", "log2_second_moment"), rows)
    summary = ", ".join(f"{c}: {s:.3f}" for c, s in zip(couplings, slopes))
    print(f"variance-decay slopes {summary} -> {path}")
    return 0


def cmd_oracle_check(cfg: ExperimentConfig, model, payoff: Payoff) -> int:
    from .oracle import znv_second_moment

    sampler = LevelSampler(model, payoff, "nv", cfg.horizon, cfg.degenerate_rng)
    rows, worst = [], 0.0
    for level in _level_range(cfg, (1, 6)):
        sample = sample_many(sampler, level, cfg.pilot_m, cfg.seed, EXP_ORACLE, cfg.workers)
        squares = sample.values**2
        mc = float(squares.mean())
        se = float(squares.std(ddof=1) / np.sqrt(squares.size))
        reference = znv_second_moment(level, cfg.mu, cfg.horizon).value
        z = (mc - reference) / se
        worst = max(worst, abs(z))
        rows.append((level, mc, reference, z))
    passed = worst <= 4.0
    rows.append(("gate", "PASS" if passed else "FAIL", "", worst))
    path = write_csv(cfg, "oracle-check", ("l", "mc_estimate", "oracle", "z_score"), rows)
    print(f"oracle-check {'PASS' if passed else 'FAIL'} (max |z| = {worst:.2f}) -> {path}")
    return 0 if passed else 4


def cmd_calibrate(cfg: ExperimentConfig, model, payoff: Payoff) -> int:
    coupling = (cfg.coupling or ("gs",))[0]
    warnings = []
    sampler = LevelSampler(model, payoff, coupling, cfg.horizon, cfg.degenerate_rng)
    stats = est.rate_pilot(sampler, _level_range(cfg, (1, 4)), cfg.pilot_m, cfg.seed,
                           cfg.workers)
    rows = [(s.level, s.mean, s.sem, s.variance) for s in stats]
    try:
        weak = cal.fit_weak_rate(stats)
        var = cal.fit_variance_rate(stats)
        inflection = cal.detect_inflection(stats, var)
        rows.append(("fit", weak.order, weak.constant, ""))
        rows.append(("fit-variance", var.order, var.constant,
                     inflection if inflection is not None else ""))
        print(f"calibrate {coupling}: alpha={weak.order} c1={weak.constant:.4g} "
              f"beta={var.order} c2={var.constant:.4g} "
              f"inflection={'none' if inflection is None else inflection}")
    except (cal.ZeroMean, cal.IllConditioned) as exc:
        warnings.append(str(exc))
        rows.append(("fit", float("nan"), float("nan"), ""))
        rows.append(("fit-variance", float("nan"), float("nan"), ""))
        print(f"calibrate {coupling}: rates undefined ({exc})")
    write_csv(cfg, "calibrate", ("level", "mean", "sem", "variance"), rows, warnings)
    return 0


def _run_rows(cfg: ExperimentConfig, model, payoff: Payoff, couplings) -> list[tuple]:
    rows = []
    for coupling in couplings:
        sampler = LevelSampler(model, payoff, coupling, cfg.horizon, cfg.degenerate_rng)
        plans = est.calibrated_plans(
            sampler, cfg.estimator, cfg.eps, cfg.pilot_m, cfg.seed, cfg.workers,
            cfg.nv_level0, _level_range(cfg, (1, 4)),
            cfg.alpha, cfg.c1, cfg.beta, cfg.c2,
        )
        for i, (epsilon, plan) in enumerate(zip(cfg.eps, plans)):
            result = est.run_multilevel(plan, model, payoff, cfg.seed,
                                        EXP_RUN + i, cfg.workers, cfg.horizon,
                                        cfg.degenerate_rng)
            rows.append((epsilon, plan.kind, coupling, plan.last_level,
                         plan.total_samples, result.cost_units, result.seconds,
                         result.estimate))
    return rows


def cmd_run(cfg: ExperimentConfig, model, payoff: Payoff) -> int:
    couplings = cfg.coupling or ("gs-nv",)
    rows = _run_rows(cfg, model, payoff, couplings)
    path = write_csv(cfg, "run",
                     ("epsilon", "kind", "coupling", "L", "total_m",
                      "cost_units", "seconds", "estimate"), rows)
    for row in rows:
        print(f"run eps={row[0]:g} {row[1]}/{row[2]}: L={row[3]} M={row[4]} "
              f"cost={row[5]:.4g} estimate={row[7]:.6g}")
    print(f"-> {path}")
    return 0


def cmd_sweep(cfg: ExperimentConfig, model, payoff: Payoff) -> int:
    couplings = cfg.coupling or ("gs", "gs-nv")
    rows = _run_rows(cfg, model, payoff, couplings)
    out_rows, slopes = [], {}
    for coupling in couplings:
        sub = [r for r in rows if r[2] == coupling]
        log_eps = np.log2([r[0] for r in sub])
        log_cost = np.log2([r[5] for r in sub])
        slope = float(np.polyfit(log_eps, log_cost, 1)[0]) if len(sub) > 1 else float("nan")
        slopes[coupling] = slope
        out_rows.extend((coupling, le, lc, r[7]) for le, lc, r in zip(log_eps, log_cost, sub))
    pooled = float(np.polyfit(np.log2([r[0] for r in rows]),
                              np.log2([r[5] for r in rows]), 1)[0])
    for coupling in couplings:
        out_rows.append((coupling, "slope", slopes[coupling], ""))
    out_rows.append(("all", "slope", pooled, ""))
    path = write_csv(cfg, "sweep", ("coupling", "log2_eps", "log2_cost_units", "estimate"),
                     out_rows)
    summary = ", ".join(f"{c}: {s:.3f}" for c, s in slopes.items())
    print(f"sweep complexity slopes {summary}; pooled {pooled:.3f} -> {path}")
    return 0


COMMANDS = {
    "strong-order": cmd_strong_order,
    "variance-decay": cmd_variance_decay,
    "oracle-check": cmd_oracle_check,
    "calibrate": cmd_calibrate,
    "run": cmd_run,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        model, payoff = make_model(cfg), make_payoff(cfg)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](cfg, model, payoff)
    except est.SamplingError as exc:
        print(f"sampling failure: {exc}", file=sys.stderr)
        return 3
    except (cal.ZeroMean, cal.IllConditioned, cal.NoUsableSamples, est.ZeroWeakConstant,
            est.MissingLastLevelVariance, est.NonpositiveVariance) as exc:
        print(f"sampling failure: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
