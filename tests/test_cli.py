import hashlib
from dataclasses import fields

import numpy as np
import pytest

from mlmc_sde import calibrate, cli, estimators
from mlmc_sde.cli import (
    ConfigError,
    ExperimentConfig,
    build_parser,
    main,
    parse_eps,
    parse_levels,
    read_config_file,
    resolve_config,
)


def csv_body(path):
    """Data lines only: the `#` header carries the run timestamp."""
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


class TestParsing:
    def test_eps_forms(self):
        assert parse_eps("0.25") == 0.25
        assert parse_eps("2^-6") == 2.0**-6
        assert parse_eps("2^3") == 8.0

    def test_levels(self):
        assert parse_levels("2..7") == (2, 7)
        with pytest.raises(ConfigError):
            parse_levels("3")
        with pytest.raises(ConfigError):
            parse_levels("5..2")

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# pilot setup\n"
            "model = heston\n"
            "pilot-m = 5000\n"
            "eps = 2^-4 2^-5\n"
            "coupling = gs nv\n"
            "degenerate-rng = true\n"
        )
        values = read_config_file(str(cfg))
        assert values["model"] == "heston"
        assert values["pilot_m"] == 5000
        assert values["eps"] == (2.0**-4, 2.0**-5)
        assert values["coupling"] == ("gs", "nv")
        assert values["degenerate_rng"] is True

    def test_config_file_rejects_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("strike = 1.0\n")
        with pytest.raises(ConfigError):
            read_config_file(str(cfg))


class TestExitCodes:
    def test_run_needs_eps(self, tmp_path):
        assert main(["run", "--out", str(tmp_path)]) == 2

    def test_ml2r_rejects_mixed_coupling(self, tmp_path):
        assert main(["run", "--estimator", "ml2r", "--coupling", "gs-nv",
                     "--eps", "2^-4", "--out", str(tmp_path)]) == 2

    def test_oracle_check_needs_matching_problem(self, tmp_path):
        assert main(["oracle-check", "--model", "heston", "--out", str(tmp_path)]) == 2

    def test_bad_config_file(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mystery = 3\n")
        assert main(["run", "--config", str(cfg), "--eps", "0.1",
                     "--out", str(tmp_path)]) == 2

    def test_unknown_config_payoff_exits_two(self, tmp_path):
        cfg = tmp_path / "bogus.cfg"
        cfg.write_text("payoff = bogus\n")
        assert main(["run", "--config", str(cfg), "--eps", "2^-4",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("line", [
        "estimator = bogus",
        "coupling = bogus",
        "nv-level0 = singel",
        "negative-variance = bogus",
        "degenerate-rng = maybe",
        "coupling =",
    ])
    def test_bad_config_value_exits_two(self, line, tmp_path):
        # config-file values are parsed and checked like the flags they mirror
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["run", "--config", str(cfg), "--eps", "2^-3",
                     "--out", str(tmp_path)]) == 2

    def test_invalid_model_parameters_exit_two(self, tmp_path):
        # 2 kappa theta < sigma^2: the Heston model itself rejects them
        assert main(["run", "--model", "heston", "--theta", "0.01", "--sigma", "1.0",
                     "--eps", "2^-4", "--out", str(tmp_path)]) == 2

    def test_nonpositive_horizon_exits_two(self, tmp_path):
        assert main(["run", "--eps", "2^-3", "--horizon", "0", "--out", str(tmp_path)]) == 2

    def test_level_zero_range_exits_two(self, tmp_path):
        for command in ("variance-decay", "calibrate"):
            assert main([command, "--levels", "0..2", "--out", str(tmp_path)]) == 2

    def test_pilot_without_usable_samples_exits_three(self, tmp_path):
        # every one of the two pilot samples aborts at level 1
        assert main(["run", "--model", "heston", "--payoff", "heston-call",
                     "--coupling", "gs", "--kappa", "2.0", "--theta", "0.02",
                     "--sigma", "0.28", "--v0", "0.05", "--eps", "2^-4",
                     "--pilot-m", "2", "--seed", "1", "--out", str(tmp_path)]) == 3

    def test_variance_decay_without_usable_samples_exits_three(self, tmp_path):
        # both samples abort at every level, so no second moment exists to report
        assert main(["variance-decay", "--model", "heston", "--payoff", "heston-call",
                     "--coupling", "gs", "--kappa", "2.0", "--theta", "0.02",
                     "--sigma", "0.28", "--v0", "0.05", "--levels", "1..2",
                     "--pilot-m", "2", "--seed", "1", "--out", str(tmp_path)]) == 3

    def test_bad_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--coupling", "euler", "--eps", "0.1", "--out", str(tmp_path)])
        assert exc.value.code == 2


# one value per ExperimentConfig field, each different from its calibrate default
FIELD_SAMPLES = {
    "model": "heston", "payoff": "u-plus", "coupling": "nv", "estimator": "ml2r",
    "eps": "2^-5", "seed": "7", "pilot_m": "500", "levels": "2..3", "out": "elsewhere",
    "workers": "2", "negative_variance": "reflect", "horizon": "0.5", "mu": "2.5",
    "u0": "0.25", "s0": "-1", "rate": "0.01", "kappa": "1.5", "theta": "0.4",
    "sigma": "0.3", "v0": "0.2", "nv_level0": "single", "degenerate_rng": "true",
    "alpha": "1", "c1": "0.16", "beta": "2", "c2": "0.15",
}


class TestOptions:
    def test_samples_cover_every_field(self):
        assert set(FIELD_SAMPLES) == {f.name for f in fields(ExperimentConfig)}

    @pytest.mark.parametrize("name", sorted(FIELD_SAMPLES))
    def test_flag_and_config_file_agree(self, name, tmp_path):
        key, text = name.replace("_", "-"), FIELD_SAMPLES[name]
        flag = [f"--{key}"] if name == "degenerate_rng" else [f"--{key}", text]
        cfg_file = tmp_path / "one.cfg"
        cfg_file.write_text(f"{key} = {text}\n")
        parser = build_parser()
        from_flag = resolve_config(parser.parse_args(["calibrate", *flag]))
        from_file = resolve_config(parser.parse_args(["calibrate", "--config", str(cfg_file)]))
        assert from_flag == from_file
        default = resolve_config(parser.parse_args(["calibrate"]))
        assert getattr(from_flag, name) != getattr(default, name)

    @pytest.mark.parametrize("command", ["strong-order", "variance-decay", "oracle-check",
                                         "calibrate", "run", "sweep"])
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--pilot-m" in capsys.readouterr().out


class TestCommands:
    def test_strong_order_smoke(self, tmp_path):
        assert main(["strong-order", "--levels", "2..4", "--pilot-m", "4000",
                     "--seed", "7", "--out", str(tmp_path)]) == 0
        body = csv_body(tmp_path / "strong-order.csv")
        assert body[0] == "l,log2_strong_error_nv,log2_coupling_error"
        assert len(body) == 5  # three levels plus header and slope footer
        assert body[-1].startswith("slope,")

    def test_strong_order_degenerate_warns_and_passes(self, tmp_path):
        assert main(["strong-order", "--levels", "2..3", "--pilot-m", "128",
                     "--degenerate-rng", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "strong-order.csv").read_text()
        assert "# warning: zero strong error" in text
        assert "slope,nan,nan" in text

    def test_variance_decay_smoke(self, tmp_path):
        assert main(["variance-decay", "--levels", "2..4", "--pilot-m", "4000",
                     "--seed", "7", "--out", str(tmp_path)]) == 0
        body = csv_body(tmp_path / "variance-decay.csv")
        assert body[0] == "coupling,l,log2_second_moment"
        assert sum(1 for line in body if line.startswith("gs-nv,slope")) == 1

    def test_oracle_check_gate_passes(self, tmp_path):
        assert main(["oracle-check", "--levels", "1..3", "--pilot-m", "20000",
                     "--seed", "7", "--out", str(tmp_path)]) == 0
        body = csv_body(tmp_path / "oracle-check.csv")
        assert body[-1].startswith("gate,PASS")

    def test_calibrate_smoke(self, tmp_path):
        assert main(["calibrate", "--coupling", "gs", "--pilot-m", "4000",
                     "--seed", "7", "--out", str(tmp_path)]) == 0
        body = csv_body(tmp_path / "calibrate.csv")
        assert body[0] == "level,mean,sem,variance"
        assert any(line.startswith("fit,") for line in body)

    def test_calibrate_degenerate_reports_nan(self, tmp_path):
        assert main(["calibrate", "--degenerate-rng", "--pilot-m", "64",
                     "--out", str(tmp_path)]) == 0
        text = (tmp_path / "calibrate.csv").read_text()
        assert "fit,nan,nan" in text

    def test_run_and_rerun_byte_identical(self, tmp_path):
        args = ["run", "--eps", "2^-4", "--eps", "2^-5", "--coupling", "gs-nv",
                "--pilot-m", "4000", "--seed", "9"]
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0

        def mask_seconds(lines):
            # the wall-seconds column is measured, everything else is exact
            out = []
            for line in lines:
                cells = line.split(",")
                if len(cells) == 8 and cells[0] != "epsilon":
                    cells[6] = "_"
                out.append(",".join(cells))
            return out

        assert (mask_seconds(csv_body(first / "run.csv"))
                == mask_seconds(csv_body(second / "run.csv")))
        body = csv_body(first / "run.csv")
        assert body[0] == "epsilon,kind,coupling,L,total_m,cost_units,seconds,estimate"
        assert len(body) == 3

    def test_run_seconds_column_varies_but_rest_deterministic(self, tmp_path):
        # determinism is about estimates and plans; wall time is reported as-is
        args = ["run", "--eps", "2^-4", "--coupling", "gs", "--pilot-m", "2000",
                "--seed", "9", "--out", str(tmp_path)]
        assert main(args) == 0
        row = csv_body(tmp_path / "run.csv")[1].split(",")
        assert float(row[7]) != 0.0

    def test_run_ml2r(self, tmp_path):
        assert main(["run", "--estimator", "ml2r", "--coupling", "nv",
                     "--eps", "2^-4", "--pilot-m", "4000", "--seed", "11",
                     "--out", str(tmp_path)]) == 0
        body = csv_body(tmp_path / "run.csv")
        assert body[1].split(",")[1] == "ml2r"

    def test_run_with_fixed_rates_skips_pilot(self, tmp_path):
        assert main(["run", "--eps", "2^-5", "--coupling", "gs",
                     "--alpha", "1", "--c1", "0.16", "--beta", "2", "--c2", "0.15",
                     "--pilot-m", "2000", "--seed", "13", "--out", str(tmp_path)]) == 0

    def test_sweep_smoke(self, tmp_path):
        assert main(["sweep", "--eps", "2^-4", "--eps", "2^-5", "--eps", "2^-6",
                     "--coupling", "gs", "--pilot-m", "4000", "--seed", "15",
                     "--out", str(tmp_path)]) == 0
        body = csv_body(tmp_path / "sweep.csv")
        assert body[0] == "coupling,log2_eps,log2_cost_units,estimate"
        assert any(line.startswith("all,slope") for line in body)

    def test_sweep_one_eps_has_no_slope(self, tmp_path):
        # one point fixes no line: every slope is undefined and flagged
        assert main(["sweep", "--eps", "2^-5", "--coupling", "gs", "--pilot-m", "2000",
                     "--seed", "3", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "sweep.csv").read_text()
        assert "# warning: fewer than two distinct eps" in text
        body = csv_body(tmp_path / "sweep.csv")
        assert "gs,slope,nan," in body and "all,slope,nan," in body

    def test_heston_run(self, tmp_path):
        assert main(["run", "--model", "heston", "--payoff", "heston-call",
                     "--coupling", "nv", "--eps", "2^-4", "--pilot-m", "4000",
                     "--seed", "17", "--out", str(tmp_path)]) == 0

    def test_sampling_failure_exits_three(self, tmp_path):
        # variance starts above its mean with vol-of-vol at the Feller bound,
        # so the explicit scheme aborts far more than the 1% gate
        assert main(["run", "--model", "heston", "--payoff", "heston-call",
                     "--coupling", "gs", "--kappa", "2.0", "--theta", "0.02",
                     "--sigma", "0.28", "--v0", "0.05", "--eps", "2^-4",
                     "--pilot-m", "2000", "--seed", "19", "--out", str(tmp_path)]) == 3

    def test_byte_identical_deterministic_body(self, tmp_path):
        for idx, out in enumerate(("x", "y")):
            assert main(["variance-decay", "--levels", "2..3", "--pilot-m", "2000",
                         "--seed", "3", "--out", str(tmp_path / out)]) == 0
        assert (csv_body(tmp_path / "x" / "variance-decay.csv")
                == csv_body(tmp_path / "y" / "variance-decay.csv"))


def masked_digest(path):
    """Hash of the data rows with the wall-clock ``seconds`` cells removed."""
    lines = csv_body(path)
    drop = lines[0].split(",").index("seconds")
    body = "\n".join(",".join(c for i, c in enumerate(line.split(",")) if i != drop)
                     for line in lines)
    return hashlib.sha256(body.encode()).hexdigest()[:16]


GOLDEN_RUNS = {
    # calibrated gs rates and one v0 pilot
    "gs-mlmc": (["--payoff", "u-squared", "--coupling", "gs", "--eps", "2^-4",
                 "--eps", "2^-5", "--eps", "2^-6", "--pilot-m", "4000", "--seed", "9"],
                "c621c9481b78c5da"),
    # nv weak rate, gs variance rate and a v_last pilot per distinct last level
    "gs-nv-mlmc": (["--coupling", "gs-nv", "--eps", "2^-4", "--eps", "2^-5",
                    "--eps", "2^-6", "--pilot-m", "4000", "--seed", "9"],
                   "3a6c1ce93a13bb2b"),
    # weighted estimator sized from the crude payoff-variance pilot
    "heston-ml2r": (["--model", "heston", "--payoff", "heston-call", "--coupling", "nv",
                     "--estimator", "ml2r", "--eps", "2^-4", "--eps", "2^-5",
                     "--pilot-m", "4000", "--seed", "17"],
                    "12d995a4b844ea25"),
    # no rate pilot at all
    "fixed-rates": (["--coupling", "gs", "--alpha", "1", "--c1", "0.16", "--beta", "2",
                     "--c2", "0.15", "--eps", "2^-5", "--eps", "2^-6",
                     "--pilot-m", "2000", "--seed", "13"],
                    "a340760b47302c0f"),
}


class TestGolden:
    """Pin the run data rows: plans, costs and estimates are exact functions
    of (configuration, seed), so any change of stream or plan shows here."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_run_rows(self, name, tmp_path):
        args, digest = GOLDEN_RUNS[name]
        assert main(["run", *args, "--out", str(tmp_path)]) == 0
        assert masked_digest(tmp_path / "run.csv") == digest


def record_draws(monkeypatch):
    """Log the key of every sample_many call with the epsilon of the run it
    belongs to (None for pilot draws, made outside run_multilevel)."""
    log, running = [], []
    draw = calibrate.sample_many
    run = estimators.run_multilevel

    def counted(sampler, level, m, seed, experiment=0, workers=1):
        epsilon = running[-1] if running else None
        log.append((epsilon, (sampler.coupling, level, m, seed, experiment)))
        return draw(sampler, level, m, seed, experiment, workers)

    def counted_run(plan, *a, **kw):
        running.append(plan.epsilon)
        try:
            return run(plan, *a, **kw)
        finally:
            running.pop()

    for module in (cli, calibrate, estimators):
        monkeypatch.setattr(module, "sample_many", counted)
    monkeypatch.setattr(estimators, "run_multilevel", counted_run)
    return log


THREE_EPS = ["--eps", "2^-4", "--eps", "2^-5", "--eps", "2^-6", "--pilot-m", "2000",
             "--seed", "9"]
TWO_EPS = ["--eps", "2^-4", "--eps", "2^-5", "--pilot-m", "2000", "--seed", "3"]


class TestDrawOnce:
    """Every pilot quantity is drawn once and shared across the eps sweep
    and across the couplings of a sweep."""

    @pytest.mark.parametrize("argv", [
        ["run", "--payoff", "u-squared", "--coupling", "gs", *THREE_EPS],
        ["run", "--coupling", "gs-nv", *THREE_EPS],
        ["run", "--model", "heston", "--payoff", "heston-call", "--coupling", "nv",
         "--estimator", "ml2r", *THREE_EPS],
        # gs and gs-nv share the gs rate pilot and the crude-gs v0
        ["sweep", *TWO_EPS],
        # gs and nv share the crude-nv payoff-variance pilot
        ["sweep", "--estimator", "ml2r", "--coupling", "gs", "--coupling", "nv", *TWO_EPS],
    ], ids=["gs-mlmc", "gs-nv-mlmc", "heston-ml2r", "sweep-mlmc", "sweep-ml2r"])
    def test_no_pilot_key_repeats(self, argv, tmp_path, monkeypatch):
        log = record_draws(monkeypatch)
        assert main([*argv, "--out", str(tmp_path)]) == 0
        keys = [key for epsilon, key in log if epsilon is None]
        assert keys
        repeated = sorted({k for k in keys if keys.count(k) > 1})
        assert not repeated, f"pilot draws repeated: {repeated}"


class TestStreamKeys:
    """Pilot and run draws never share an (experiment, level) stream, and
    each epsilon's run draws its own streams."""

    @pytest.mark.parametrize("argv", [
        ["run", "--coupling", "gs-nv", *THREE_EPS],
        ["sweep", *TWO_EPS],
    ], ids=["run-gs-nv", "sweep"])
    def test_phases_and_eps_use_distinct_streams(self, argv, tmp_path, monkeypatch):
        log = record_draws(monkeypatch)
        assert main([*argv, "--out", str(tmp_path)]) == 0
        streams = {}
        for epsilon, (_, level, _, _, experiment) in log:
            streams.setdefault(epsilon, set()).add((experiment, level))
        pilot = streams.pop(None)
        assert pilot and len(streams) == argv.count("--eps")
        for epsilon, run in streams.items():
            assert not pilot & run, f"eps {epsilon}: pilot streams reused by the run"
            for other, other_run in streams.items():
                assert other == epsilon or not run & other_run, \
                    f"eps {epsilon} and {other} share run streams"
