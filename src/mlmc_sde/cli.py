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
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import calibrate as cal
from . import estimators as est
from .models import MODELS, PAYOFF_LABELS, Payoff, build_model
from .schemes import COUPLINGS, LevelSampler, coupling_errors, sample_many

# experiment-id bases keep the streams of different phases independent; the
# pilot phases of run and sweep take theirs from estimators
EXP_STRONG = 21
EXP_DECAY = 22
EXP_ORACLE = 23
EXP_RUN = 31


# the couplings with a coarse grid; the others only sample level 0 or a crude pilot
LEVEL_COUPLINGS = tuple(tag for tag, (_, coarse) in COUPLINGS.items() if coarse)


class ConfigError(ValueError):
    pass


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


def parse_bool(text: str) -> bool:
    word = text.strip().lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected true or false, got {text!r}")


def _option(default, parse=str, choices=None, repeat=False, help=None):
    """A config field that is also a --flag and a config-file key.

    ``parse`` turns one text value into the field's type; ``repeat`` makes
    the flag repeatable and the field a tuple; a bool field is a bare flag.
    """
    return field(default=default, metadata={
        "parse": parse, "choices": choices, "repeat": repeat, "help": help})


@dataclass
class ExperimentConfig:
    model: str = _option("clark-cameron", choices=tuple(MODELS))
    payoff: str = _option("cos-u", choices=PAYOFF_LABELS)
    coupling: tuple[str, ...] = _option((), choices=LEVEL_COUPLINGS, repeat=True,
                                        help="level coupling; repeatable")
    estimator: str = _option("mlmc", choices=("mlmc", "ml2r"))
    eps: tuple[float, ...] = _option((), parse_eps, repeat=True,
                                     help="target RMSE; repeatable; accepts 2^-6 form")
    seed: int = _option(12345, int, help="root seed of every random stream")
    pilot_m: int = _option(10_000, int,
                           help="samples per level for pilots and experiment estimates")
    levels: tuple[int, int] | None = _option(None, parse_levels, help="level range a..b")
    out: str = _option(".", help="output directory")
    workers: int = _option(1, int, help="sampling processes (results do not depend on it)")
    negative_variance: str = _option("error", choices=("error", "reflect"),
                                     help="Heston Milstein-type scheme: abort or reflect")
    horizon: float = _option(1.0, float, help="time horizon T")
    mu: float = _option(1.0, float, help="Clark-Cameron drift of S")
    u0: float = _option(0.0, float, help="initial first coordinate")
    s0: float = _option(0.0, float, help="Clark-Cameron initial S")
    rate: float = _option(0.05, float, help="Heston interest rate")
    kappa: float = _option(0.5, float, help="Heston mean-reversion speed")
    theta: float = _option(0.9, float, help="Heston long-run variance")
    sigma: float = _option(0.05, float, help="Heston volatility of variance")
    v0: float = _option(1.0, float, help="Heston initial variance")
    nv_level0: str = _option("averaged", choices=("averaged", "single"),
                             help="level-0 splitting sample: both orders averaged or one")
    degenerate_rng: bool = _option(False, parse_bool,
                                   help="zero increments and all-plus signs (plumbing checks)")
    alpha: float | None = _option(None, float, help="fixed weak order (skips the rate pilot)")
    c1: float | None = _option(None, float, help="fixed weak constant")
    beta: float | None = _option(None, float, help="fixed variance order")
    c2: float | None = _option(None, float, help="fixed variance constant")


COMMAND_DEFAULTS = {
    "strong-order": {"levels": (2, 7)},
    "variance-decay": {"levels": (2, 6), "coupling": ("gs-nv", "nv")},
    "oracle-check": {"levels": (1, 6), "payoff": "u-squared"},
    "calibrate": {"levels": (1, 4), "coupling": ("gs",)},
    "run": {"levels": (1, 4), "coupling": ("gs-nv",)},
    "sweep": {"levels": (1, 4), "coupling": ("gs", "gs-nv")},
}


def _parse_value(f, raw: str):
    """One config-file value, parsed and checked like its flag."""
    parse, choices = f.metadata["parse"], f.metadata["choices"]
    tokens = raw.replace(",", " ").split() if f.metadata["repeat"] else [raw]
    values = tuple(parse(tok) for tok in tokens)
    for value in values:
        if choices is not None and value not in choices:
            raise ConfigError(f"{value!r} is not one of {', '.join(choices)}")
    return values if f.metadata["repeat"] else values[0]


def read_config_file(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment; keys use flag spelling."""
    options = {f.name: f for f in fields(ExperimentConfig)}
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key, raw = key.strip().replace("-", "_"), raw.strip()
        if key not in options:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if not raw:
            raise ConfigError(f"{path}:{lineno}: {key} has no value")
        try:
            values[key] = _parse_value(options[key], raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlmc-sde",
        description="Multilevel Monte Carlo experiments for SDE splitting schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__)
        p.add_argument("--config", help="flat key = value config file")
        for f in fields(ExperimentConfig):
            flag, meta = "--" + f.name.replace("_", "-"), f.metadata
            if meta["parse"] is parse_bool:
                p.add_argument(flag, action="store_const", const=True, help=meta["help"])
            else:
                p.add_argument(flag, type=meta["parse"], choices=meta["choices"],
                               action="append" if meta["repeat"] else "store",
                               help=meta["help"])
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    layers = [COMMAND_DEFAULTS[args.command]]
    if args.config:
        layers.append(read_config_file(args.config))
    layers.append({
        f.name: tuple(value) if f.metadata["repeat"] else value
        for f in fields(ExperimentConfig)
        if (value := getattr(args, f.name)) is not None
    })
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


def _level_range(cfg: ExperimentConfig) -> range:
    lo, hi = cfg.levels
    return range(lo, hi + 1)


def _fit_slope(xs, values):
    """Slope of log2(values) vs xs; NaN when fewer than two distinct xs
    carry a finite log."""
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log2(values)
    keep = np.isfinite(logs)
    if np.unique(xs[keep]).size < 2:
        return float("nan"), logs
    slope = np.polyfit(xs[keep], logs[keep], 1)[0]
    return float(slope), logs


def cmd_strong_order(cfg: ExperimentConfig, model, payoff: Payoff) -> int:
    """per-level strong errors of the splitting scheme and its pairing"""
    levels = list(_level_range(cfg))
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
    """per-level second moments of the coupled level samples"""
    levels = list(_level_range(cfg))
    rows, slopes = [], []
    for ci, coupling in enumerate(cfg.coupling):
        sampler = LevelSampler(model, payoff, coupling, cfg.horizon, cfg.degenerate_rng)
        moments = []
        for level in levels:
            sample = sample_many(sampler, level, cfg.pilot_m, cfg.seed,
                                 EXP_DECAY + ci, cfg.workers)
            moments.append(cal.stats_from_sample(sample).second_moment)
        slope, logs = _fit_slope(levels, moments)
        slopes.append(slope)
        rows.extend((coupling, l, logs[i]) for i, l in enumerate(levels))
    for coupling, slope in zip(cfg.coupling, slopes):
        rows.append((coupling, "slope", slope))
    path = write_csv(cfg, "variance-decay", ("coupling", "l", "log2_second_moment"), rows)
    summary = ", ".join(f"{c}: {s:.3f}" for c, s in zip(cfg.coupling, slopes))
    print(f"variance-decay slopes {summary} -> {path}")
    return 0


def cmd_oracle_check(cfg: ExperimentConfig, model, payoff: Payoff) -> int:
    """Monte Carlo vs closed-form second moments (PASS gate)"""
    from .oracle import znv_second_moment

    sampler = LevelSampler(model, payoff, "nv", cfg.horizon, cfg.degenerate_rng)
    rows, worst = [], 0.0
    for level in _level_range(cfg):
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
    """pilot level statistics and fitted rates"""
    coupling = cfg.coupling[0]
    warnings = []
    sampler = LevelSampler(model, payoff, coupling, cfg.horizon, cfg.degenerate_rng)
    stats = est.rate_pilot(sampler, _level_range(cfg), cfg.pilot_m, cfg.seed, cfg.workers)
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


def _run_rows(cfg: ExperimentConfig, model, payoff: Payoff) -> list[tuple]:
    rows, pilots = [], {}  # pilots shared by every coupling
    for coupling in cfg.coupling:
        sampler = LevelSampler(model, payoff, coupling, cfg.horizon, cfg.degenerate_rng)
        plans = est.calibrated_plans(
            sampler, cfg.estimator, cfg.eps, cfg.pilot_m, cfg.seed, cfg.workers,
            cfg.nv_level0, _level_range(cfg),
            cfg.alpha, cfg.c1, cfg.beta, cfg.c2, pilots,
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
    """calibrate, plan and run the multilevel estimator per epsilon"""
    rows = _run_rows(cfg, model, payoff)
    path = write_csv(cfg, "run",
                     ("epsilon", "kind", "coupling", "L", "total_m",
                      "cost_units", "seconds", "estimate"), rows)
    for row in rows:
        print(f"run eps={row[0]:g} {row[1]}/{row[2]}: L={row[3]} M={row[4]} "
              f"cost={row[5]:.4g} estimate={row[7]:.6g}")
    print(f"-> {path}")
    return 0


def cmd_sweep(cfg: ExperimentConfig, model, payoff: Payoff) -> int:
    """epsilon sweep of cost units for complexity slopes"""
    rows = _run_rows(cfg, model, payoff)
    out_rows, slopes = [], {}
    for coupling in cfg.coupling:
        sub = [r for r in rows if r[2] == coupling]
        log_eps = np.log2([r[0] for r in sub])
        slopes[coupling], log_cost = _fit_slope(log_eps, [r[5] for r in sub])
        out_rows.extend((coupling, le, lc, r[7]) for le, lc, r in zip(log_eps, log_cost, sub))
    pooled, _ = _fit_slope(np.log2([r[0] for r in rows]), [r[5] for r in rows])
    for coupling in cfg.coupling:
        out_rows.append((coupling, "slope", slopes[coupling], ""))
    out_rows.append(("all", "slope", pooled, ""))
    warnings = []
    if np.isnan([pooled, *slopes.values()]).any():
        warnings.append("fewer than two distinct eps; complexity slope undefined")
    path = write_csv(cfg, "sweep", ("coupling", "log2_eps", "log2_cost_units", "estimate"),
                     out_rows, warnings)
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
        model = build_model(cfg.model, **vars(cfg))
        payoff = Payoff(cfg.payoff, rate=cfg.rate, maturity=cfg.horizon)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](cfg, model, payoff)
    except (est.SamplingError, cal.ZeroMean, cal.IllConditioned, cal.NoUsableSamples,
            est.ZeroWeakConstant, est.MissingLastLevelVariance,
            est.NonpositiveVariance) as exc:
        print(f"sampling failure: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
