"""Command-line front end: convergence experiments, calibration and runs.

Every command writes one CSV whose `#`-prefixed header echoes the fully
resolved configuration as config-file lines plus a provenance hash, so any
output file can be regenerated from itself: its option lines, given back
as ``--config``, reproduce its data rows.  Bodies are byte-identical across
reruns with the same configuration and seed.

Exit codes: 0 pass, 2 configuration error, 3 sampling failure,
4 acceptance-gate failure.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import calibrate as cal
from . import estimators as est
from .estimators import EXP_DECAY, EXP_ORACLE, EXP_RUN, EXP_STRONG
from .models import MODELS, PAYOFF_LABELS, Payoff, build_model
from .paths import MAX_LEVEL
from .schemes import COUPLINGS, LevelSampler, coupling_errors, sample_many

# the couplings with a coarse grid; the others only sample level 0 or a crude pilot
LEVEL_COUPLINGS = tuple(tag for tag, (_, coarse) in COUPLINGS.items() if coarse)


class ConfigError(ValueError):
    pass


def parse_eps(text: str) -> float:
    """Accept plain floats and power forms like 2^-6 that give a real float."""
    text = text.strip()
    base, power, expo = text.partition("^")
    try:
        return math.pow(float(base), float(expo)) if power else float(text)
    except (ValueError, OverflowError):
        raise ValueError(f"{text!r} is not a real number") from None


def parse_levels(text: str) -> range:
    """The levels a..b, both ends included, as the range every command iterates over."""
    lo, _, hi = text.partition("..")
    if not hi:
        raise ConfigError(f"levels must look like 'a..b', got {text!r}")
    lo_i, hi_i = int(lo), int(hi)
    if lo_i < 0 or hi_i < lo_i:
        raise ConfigError(f"bad level range {text!r}")
    return range(lo_i, hi_i + 1)


# the checks an option can declare: (test of one value, what the test requires)
POSITIVE = (lambda x: 0 < x < math.inf, "positive and finite")
FINITE = (math.isfinite, "finite")
AT_LEAST_1 = (lambda n: n >= 1, "at least 1")
AT_LEAST_2 = (lambda n: n >= 2, "at least 2")
# every coupled sample and the splitting-scheme errors start at level 1
LEVEL_RANGE = (lambda r: 1 <= r.start and r[-1] <= MAX_LEVEL, f"a range inside 1..{MAX_LEVEL}")


def _option(default, parse=str, choices=None, repeat=False, check=None, help=None):
    """A config field that is also a --flag and a config-file key.

    ``parse`` turns one text value into the field's type; ``repeat`` makes
    the flag repeatable and the field a tuple; ``check`` is the rule every
    value other than None must meet.
    """
    return field(default=default, metadata={
        "parse": parse, "choices": choices, "repeat": repeat, "check": check, "help": help})


@dataclass
class ExperimentConfig:
    model: str = _option("clark-cameron", choices=tuple(MODELS))
    payoff: str = _option("cos-u", choices=PAYOFF_LABELS)
    coupling: tuple[str, ...] = _option((), choices=LEVEL_COUPLINGS, repeat=True,
                                        help="level coupling; repeatable")
    estimator: str = _option("mlmc", choices=("mlmc", "ml2r"))
    eps: tuple[float, ...] = _option((), parse_eps, repeat=True, check=POSITIVE,
                                     help="target RMSE; repeatable; accepts 2^-6 form")
    seed: int = _option(12345, int, help="root seed of every random stream")
    pilot_m: int = _option(10_000, int, check=AT_LEAST_2,
                           help="samples per level of estimates and calibrate's pilots; a cap for "
                                "run's and sweep's, which grow from 8192 only to the run's cost")
    levels: range | None = _option(None, parse_levels, check=LEVEL_RANGE,
                                   help="level range a..b")
    out: str = _option(".", help="output directory")
    workers: int = _option(1, int, check=AT_LEAST_1,
                           help="sampling processes (results do not depend on it)")
    negative_variance: str = _option("error", choices=("error", "reflect"),
                                     help="Heston Milstein-type scheme: abort or reflect")
    horizon: float = _option(1.0, float, check=POSITIVE, help="time horizon T")
    mu: float = _option(1.0, float, check=FINITE, help="Clark-Cameron drift of S")
    u0: float = _option(0.0, float, check=FINITE, help="initial first coordinate")
    s0: float = _option(0.0, float, check=FINITE, help="Clark-Cameron initial S")
    rate: float = _option(0.05, float, check=FINITE, help="Heston interest rate")
    kappa: float = _option(0.5, float, check=FINITE, help="Heston mean-reversion speed")
    theta: float = _option(0.9, float, check=FINITE, help="Heston long-run variance")
    sigma: float = _option(0.05, float, check=FINITE, help="Heston volatility of variance")
    v0: float = _option(1.0, float, check=FINITE, help="Heston initial variance")
    nv_level0: str = _option("averaged", choices=("averaged", "single"),
                             help="mlmc level-0 splitting sample: both orders averaged or one "
                                  "(ml2r ignores it: its level 0 is always one order)")
    alpha: float | None = _option(None, float, check=POSITIVE,
                                  help="fixed weak order; the rate pilot is skipped only "
                                       "when all four of --alpha --c1 --beta --c2 are set")
    c1: float | None = _option(None, float, check=FINITE, help="fixed weak constant (see --alpha)")
    beta: float | None = _option(None, float, check=POSITIVE,
                                 help="fixed variance order (see --alpha)")
    c2: float | None = _option(None, float, check=POSITIVE,
                               help="fixed variance constant (see --alpha)")


COMMAND_DEFAULTS = {
    "strong-order": {"levels": range(2, 8)},
    "variance-decay": {"levels": range(2, 7), "coupling": ("gs-nv", "nv")},
    "oracle-check": {"levels": range(1, 7), "payoff": "u-squared"},
    "calibrate": {"levels": range(1, 5), "coupling": ("gs",)},
    "run": {"levels": range(1, 5), "coupling": ("gs-nv",)},
    "sweep": {"levels": range(1, 5), "coupling": ("gs", "gs-nv")},
}


def _parse_value(f, tokens: list[str]):
    """The text values of one option, from a flag or a config-file line,
    parsed and checked against its choices."""
    parse, choices = f.metadata["parse"], f.metadata["choices"]
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
        tokens = raw.replace(",", " ").split() if options[key].metadata["repeat"] else [raw]
        try:
            values[key] = _parse_value(options[key], tokens)
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
            meta = f.metadata
            # values stay text here and are parsed like config-file values
            p.add_argument("--" + f.name.replace("_", "-"), choices=meta["choices"],
                           action="append" if meta["repeat"] else "store", help=meta["help"])
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    values = dict(COMMAND_DEFAULTS[args.command])
    if args.config:
        values.update(read_config_file(args.config))
    for f in fields(ExperimentConfig):
        if (raw := getattr(args, f.name)) is not None:
            try:
                values[f.name] = _parse_value(f, raw if f.metadata["repeat"] else [raw])
            except ValueError as exc:
                raise ConfigError(f"--{f.name.replace('_', '-')}: {exc}") from None
    cfg = ExperimentConfig(**values)
    _validate(cfg, args.command)
    return cfg


def _validate(cfg: ExperimentConfig, command: str):
    for f in fields(ExperimentConfig):
        value, check = getattr(cfg, f.name), f.metadata["check"]
        values = value if f.metadata["repeat"] else (value,)
        if check is not None and not all(v is None or check[0](v) for v in values):
            raise ConfigError(f"{f.name.replace('_', '-')} must be {check[1]}")
    if command == "calibrate" and len(cfg.coupling) > 1:
        raise ConfigError("calibrate takes one --coupling")
    if command in ("run", "sweep") and not cfg.eps:
        raise ConfigError(f"{command} needs at least one --eps")
    if command in ("run", "sweep") and cfg.estimator == "ml2r" and "gs-nv" in cfg.coupling:
        raise ConfigError("the ml2r estimator pairs with gs or nv couplings only")
    if command == "oracle-check":
        if cfg.model != "clark-cameron" or cfg.payoff != "u-squared":
            raise ConfigError("oracle-check is defined for clark-cameron with payoff u-squared")


def config_echo(cfg: ExperimentConfig, command: str) -> list[str]:
    """The command and every set option as config-file lines, each value in
    the form its option parses; unset options (None, no value) are left out."""
    lines = [f"command = {command}"]
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, range):
            value = f"{value.start}..{value[-1]}"
        elif isinstance(value, tuple):
            value = " ".join(str(v) for v in value)
        if value not in (None, ""):
            lines.append(f"{f.name.replace('_', '-')} = {value}")
    return lines


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{x:.12g}"
    return str(x)


def write_csv(cfg: ExperimentConfig, command: str, columns, rows,
              warnings=()) -> Path:
    path = Path(cfg.out) / f"{command}.csv"
    echo = config_echo(cfg, command)
    provenance = hashlib.sha1("\n".join(echo).encode()).hexdigest()[:12]
    lines = [f"# {line}" for line in echo]
    lines.append(f"# provenance = {provenance}")
    lines.append(f"# generated = {time.strftime('%Y-%m-%dT%H:%M:%S%z')}")
    lines.extend(f"# warning: {w}" for w in warnings)
    lines.append(",".join(columns))
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
    return path


def _log2_slope(name: str, levels, values, what: str, warnings: list[str]):
    """The log2_line slope and log2 values of ``values`` over ``levels``; an
    undefined slope appends a warning that says why."""
    slope, _, logs = cal.log2_line(levels, values)
    if math.isnan(slope):
        warnings.append(f"{name} slope undefined: fewer than two levels with a finite log2 {what}")
    return slope, logs


def cmd_strong_order(cfg: ExperimentConfig, model, payoff: Payoff) -> int:
    """per-level strong errors of the splitting scheme and its pairing"""
    self_mse, pair_mse = coupling_errors(model, cfg.levels, cfg.pilot_m, cfg.seed, EXP_STRONG,
                                         cfg.workers)
    warnings = [f"level {level}: {name} error {x} is not finite; the {name} slope leaves it out"
                for level, *errors in zip(cfg.levels, self_mse, pair_mse)
                for name, x in zip(("nv", "coupling"), errors) if not math.isfinite(x)]
    self_slope, self_log = _log2_slope("nv", cfg.levels, self_mse, "error", warnings)
    pair_slope, pair_log = _log2_slope("coupling", cfg.levels, pair_mse, "error", warnings)
    rows = [*zip(cfg.levels, self_log, pair_log), ("slope", self_slope, pair_slope)]
    path = write_csv(cfg, "strong-order", ("l", "log2_strong_error_nv", "log2_coupling_error"),
                     rows, warnings)
    print(f"strong-order: nv slope {self_slope:.3f}, coupling slope {pair_slope:.3f} -> {path}",
          *warnings, sep="; ")
    return 0


def cmd_variance_decay(cfg: ExperimentConfig, model, payoff: Payoff) -> int:
    """per-level second moments of the coupled level samples"""
    rows, slope_rows, warnings = [], [], []
    for ci, coupling in enumerate(cfg.coupling):
        stats = cal.pilot_stats(LevelSampler(model, payoff, coupling), cfg.levels, cfg.pilot_m,
                                cfg.seed, EXP_DECAY + ci, cfg.workers)
        slope, logs = _log2_slope(coupling, cfg.levels, [s.second_moment for s in stats],
                                  "second moment", warnings)
        rows.extend((coupling, l, logs[i]) for i, l in enumerate(cfg.levels))
        slope_rows.append((coupling, "slope", slope))
    path = write_csv(cfg, "variance-decay", ("coupling", "l", "log2_second_moment"),
                     rows + slope_rows, warnings)
    summary = ", ".join(f"{c}: {s:.3f}" for c, _, s in slope_rows)
    print(f"variance-decay slopes {summary} -> {path}")
    return 0


def cmd_oracle_check(cfg: ExperimentConfig, model, payoff: Payoff) -> int:
    """Monte Carlo vs closed-form second moments (PASS gate)"""
    from .oracle import znv_second_moment

    sampler = LevelSampler(model, payoff, "nv")
    rows, warnings, worst = [], [], 0.0
    for level in cfg.levels:
        sample = sample_many(sampler, level, cfg.pilot_m, cfg.seed, EXP_ORACLE, cfg.workers)
        reference = znv_second_moment(level, model.mu, model.horizon)
        mc, se = cal.square_moments(sample.records)
        # an aborted sample, or an overflow, leaves a statistic that is not
        # finite (the mean of Z^2 over every sample), which fails the gate
        mc = math.nan if sample.aborted else mc
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            z = float(np.float64(mc - reference) / se)
        if all(map(math.isfinite, (mc, se, z, reference))):
            worst = max(worst, abs(z))
        else:
            worst = math.inf
            warnings.append(f"level {level}: a statistic is not finite (estimate {mc:.6g}, "
                            f"standard error {se:.6g}, oracle {reference:.6g}, z {z:.6g})")
        rows.append((level, mc, reference, z))
    passed = worst <= 4.0
    rows.append(("gate", "PASS" if passed else "FAIL", "", worst))
    path = write_csv(cfg, "oracle-check", ("l", "mc_estimate", "oracle", "z_score"), rows,
                     warnings)
    print(f"oracle-check {'PASS' if passed else 'FAIL'} (max |z| = {worst:.2f}) -> {path}")
    return 0 if passed else 4


def cmd_calibrate(cfg: ExperimentConfig, model, payoff: Payoff) -> int:
    """pilot level statistics and fitted rates"""
    coupling = cfg.coupling[0]
    warnings = []
    weak, var = est.rate_pilots(LevelSampler(model, payoff, coupling), cfg.levels,
                                cfg.pilot_m, cfg.seed, cfg.workers)
    rows = [(w.level, w.mean, w.sem, v.variance) for w, v in zip(weak, var)]
    fits = []
    # each fit refuses on its own; a refused one reads nan
    for fit, stats, what in ((cal.fit_weak_rate, weak, "no weak rate from the means"),
                             (cal.fit_variance_rate, var, "no variance rate from the variances")):
        try:
            fits.append(fit(stats))
        except (cal.ZeroMean, cal.IllConditioned) as exc:
            warnings.append(f"{what}: {exc}")
            fits.append(cal.RateFit(*[float("nan")] * 4))
    weak_fit, var_fit = fits
    inflection = cal.detect_inflection(var, var_fit)  # None on a nan fit
    rows.append(("fit", weak_fit.order, weak_fit.constant, ""))
    rows.append(("fit-variance", var_fit.order, var_fit.constant,
                 inflection if inflection is not None else ""))
    print(f"calibrate {coupling}: alpha={weak_fit.order} c1={weak_fit.constant:.4g} "
          f"beta={var_fit.order} c2={var_fit.constant:.4g} "
          f"inflection={'none' if inflection is None else inflection}", *warnings, sep="; ")
    write_csv(cfg, "calibrate", ("level", "mean", "sem", "variance"), rows, warnings)
    return 0


def _run_rows(cfg: ExperimentConfig, model, payoff: Payoff) -> list[tuple]:
    rows, pilots = [], {}  # pilots shared by every coupling
    calibrated = [(coupling, est.calibrated_plans(
        LevelSampler(model, payoff, coupling), cfg.estimator, cfg.eps, cfg.pilot_m, cfg.seed,
        cfg.workers, cfg.nv_level0, cfg.levels, cfg.alpha, cfg.c1, cfg.beta, cfg.c2, pilots,
    )) for coupling in cfg.coupling]
    for coupling, plans in calibrated:
        first, cost = plans[0], sum(plan.cost_units for plan in plans)
        print(f"pilot {coupling}: {first.pilot_samples} samples per level (cap {cfg.pilot_m}), "
              f"{first.pilot_steps:.4g} path steps for plans of {cost:.4g} cost units; "
              "alpha={} c1={:.4g} beta={} c2={:.4g}".format(*first.rates))
        for i, (epsilon, plan) in enumerate(zip(cfg.eps, plans)):
            result = est.run_multilevel(plan, model, payoff, cfg.seed, EXP_RUN + i, cfg.workers)
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
        slopes[coupling], _, log_cost = cal.log2_line(log_eps, [r[5] for r in sub])
        out_rows.extend((coupling, le, lc, r[7]) for le, lc, r in zip(log_eps, log_cost, sub))
    pooled, _, _ = cal.log2_line(np.log2([r[0] for r in rows]), [r[5] for r in rows])
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
        Path(cfg.out).mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](cfg, model, payoff)
    except cal.SamplingFailure as exc:
        print(f"sampling failure: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:  # an output file that cannot be written
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
