import hashlib
import importlib
import pkgutil
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mlmc_sde
from mlmc_sde import calibrate, cli, estimators, schemes
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
from mlmc_sde.models import MODELS, NegativeSqrtArgument
from mlmc_sde.paths import MAX_LEVEL


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
        )
        values = read_config_file(str(cfg))
        assert values["model"] == "heston"
        assert values["pilot_m"] == 5000
        assert values["eps"] == (2.0**-4, 2.0**-5)
        assert values["coupling"] == ("gs", "nv")

    def test_config_file_rejects_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("strike = 1.0\n")
        with pytest.raises(ConfigError):
            read_config_file(str(cfg))


@pytest.fixture
def no_draws(monkeypatch):
    """Fail any draw, so a test that expects none allocates no path."""
    def refuse(*args, **kwargs):
        raise AssertionError("nothing should be drawn")

    monkeypatch.setattr(schemes, "sample_level_path", refuse)
    for module in (cli, calibrate, estimators):
        monkeypatch.setattr(module, "sample_many", refuse)


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

    @pytest.mark.parametrize("flag,value", [
        ("--eps", "nan"), ("--eps", "inf"), ("--alpha", "0"), ("--alpha", "-1"),
        ("--beta", "-3"), ("--c2", "-0.3"), ("--c1", "nan"),
    ])
    def test_bad_number_exits_two(self, flag, value, tmp_path, no_draws):
        # the bad value follows the fixed rates, so it replaces a rate or adds an eps
        assert main(["run", "--eps", "2^-4", "--alpha", "1", "--c1", "0.16", "--beta", "2",
                     "--c2", "0.15", flag, value, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["strong-order", "calibrate"])
    def test_configured_level_past_cap_exits_two(self, command, tmp_path, no_draws):
        assert main([command, "--levels", f"1..{MAX_LEVEL + 1}",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("estimator,coupling", [("mlmc", "gs"), ("ml2r", "nv")])
    def test_planned_level_past_cap_exits_three(self, estimator, coupling, tmp_path,
                                                no_draws):
        # eps 1e-30 plans last level 101 (mlmc) or 13 (ml2r)
        assert main(["run", "--estimator", estimator, "--coupling", coupling,
                     "--eps", "1e-30", "--alpha", "1", "--c1", "1", "--beta", "2",
                     "--c2", "1", "--out", str(tmp_path)]) == 3

    def test_calibrate_takes_one_coupling(self, tmp_path, no_draws, capsys):
        assert main(["calibrate", "--coupling", "gs", "--coupling", "nv",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not (tmp_path / "calibrate.csv").exists()

    def test_unwritable_csv_exits_two(self, tmp_path, capsys):
        # the CSV's path is a directory, found only once the rows are drawn
        csv = tmp_path / "strong-order.csv"
        csv.mkdir()
        assert main(["strong-order", "--levels", "1..2", "--pilot-m", "8",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"configuration error: cannot write {csv}: Is a directory"]

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
    "sigma": "0.3", "v0": "0.2", "nv_level0": "single",
    "alpha": "1", "c1": "0.16", "beta": "2", "c2": "0.15",
}


class TestOptions:
    def test_samples_cover_every_field(self):
        assert set(FIELD_SAMPLES) == {f.name for f in fields(ExperimentConfig)}

    @pytest.mark.parametrize("name", sorted(FIELD_SAMPLES))
    def test_flag_and_config_file_agree(self, name, tmp_path):
        key, text = name.replace("_", "-"), FIELD_SAMPLES[name]
        cfg_file = tmp_path / "one.cfg"
        cfg_file.write_text(f"{key} = {text}\n")
        parser = build_parser()
        from_flag = resolve_config(parser.parse_args(["calibrate", f"--{key}", text]))
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


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# the commands each experiment config in scripts/ is run with
SCRIPT_COMMANDS = {
    "clark_cameron_benchmark.cfg": ("sweep",),
    "heston_call.cfg": ("calibrate", "run"),
    "strong_order.cfg": ("strong-order",),
    "variance_decay.cfg": ("variance-decay",),
}


class TestScriptConfigs:
    def test_every_config_is_listed(self):
        assert {p.name for p in SCRIPTS.glob("*.cfg")} == set(SCRIPT_COMMANDS)

    @pytest.mark.parametrize("name,command", [
        (name, command) for name, commands in sorted(SCRIPT_COMMANDS.items())
        for command in commands])
    def test_config_resolves(self, name, command):
        path = str(SCRIPTS / name)
        assert read_config_file(path)
        resolve_config(build_parser().parse_args([command, "--config", path]))


class TestCommands:
    def test_strong_order_smoke(self, tmp_path):
        assert main(["strong-order", "--levels", "2..4", "--pilot-m", "4000",
                     "--seed", "7", "--out", str(tmp_path)]) == 0
        body = csv_body(tmp_path / "strong-order.csv")
        assert body[0] == "l,log2_strong_error_nv,log2_coupling_error"
        assert len(body) == 5  # three levels plus header and slope footer
        assert body[-1].startswith("slope,")

    def test_strong_order_degenerate_warns_and_passes(self, tmp_path, zero_noise):
        assert main(["strong-order", "--levels", "2..3", "--pilot-m", "128",
                     "--out", str(tmp_path)]) == 0
        text = (tmp_path / "strong-order.csv").read_text()
        assert "# warning: nv slope undefined: fewer than two levels with a finite" in text
        assert "# warning: coupling slope undefined" in text
        assert "slope,nan,nan" in text

    def test_strong_order_one_level_warns_why(self, tmp_path):
        # both errors are nonzero; one level fixes no line
        assert main(["strong-order", "--levels", "3..3", "--pilot-m", "256",
                     "--out", str(tmp_path)]) == 0
        text = (tmp_path / "strong-order.csv").read_text()
        row = csv_body(tmp_path / "strong-order.csv")[1].split(",")
        assert row[0] == "3" and all(np.isfinite(float(cell)) for cell in row[1:])
        assert "zero strong error" not in text
        assert "# warning: nv slope undefined: fewer than two levels with a finite" in text
        assert "# warning: coupling slope undefined" in text

    def test_variance_decay_smoke(self, tmp_path):
        assert main(["variance-decay", "--levels", "2..4", "--pilot-m", "4000",
                     "--seed", "7", "--out", str(tmp_path)]) == 0
        body = csv_body(tmp_path / "variance-decay.csv")
        assert body[0] == "coupling,l,log2_second_moment"
        assert sum(1 for line in body if line.startswith("gs-nv,slope")) == 1

    def test_variance_decay_one_level_warns(self, tmp_path):
        assert main(["variance-decay", "--levels", "3..3", "--pilot-m", "256",
                     "--coupling", "gs", "--coupling", "nv", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "variance-decay.csv").read_text()
        for coupling in ("gs", "nv"):
            assert f"{coupling},slope,nan" in csv_body(tmp_path / "variance-decay.csv")
            assert (f"# warning: {coupling} slope undefined: fewer than two levels with a "
                    "finite log2 second moment") in text

    def test_variance_decay_degenerate_warns(self, tmp_path, zero_noise):
        assert main(["variance-decay", "--levels", "2..3", "--pilot-m", "128",
                     "--coupling", "gs", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "variance-decay.csv").read_text()
        assert "gs,slope,nan" in csv_body(tmp_path / "variance-decay.csv")
        assert "# warning: gs slope undefined" in text

    def test_oracle_check_gate_passes(self, tmp_path):
        assert main(["oracle-check", "--levels", "1..3", "--pilot-m", "20000",
                     "--seed", "7", "--out", str(tmp_path)]) == 0
        body = csv_body(tmp_path / "oracle-check.csv")
        assert body[-1].startswith("gate,PASS")

    @pytest.mark.parametrize("mu", ["1e70", "1e100", "1e200"])
    def test_oracle_check_fails_on_a_non_finite_statistic(self, mu, tmp_path):
        # at 1e70 the standard error overflows, which would read as z = 0; at
        # 1e100 the squares and the closed form overflow too
        assert main(["oracle-check", "--mu", mu, "--levels", "1..2", "--pilot-m", "100",
                     "--out", str(tmp_path)]) == 4
        path = tmp_path / "oracle-check.csv"
        assert "# warning: level 1: a statistic is not finite" in path.read_text()
        assert "# warning: level 2: a statistic is not finite" in path.read_text()
        assert csv_body(path)[-1] == "gate,FAIL,,inf"

    def test_calibrate_smoke(self, tmp_path):
        assert main(["calibrate", "--coupling", "gs", "--pilot-m", "4000",
                     "--seed", "7", "--out", str(tmp_path)]) == 0
        body = csv_body(tmp_path / "calibrate.csv")
        assert body[0] == "level,mean,sem,variance"
        assert any(line.startswith("fit,") for line in body)

    def test_calibrate_degenerate_reports_nan(self, tmp_path, zero_noise):
        assert main(["calibrate", "--pilot-m", "64",
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

    def test_run_ml2r_large_eps_plans_floor_level(self, tmp_path):
        assert main(["run", "--estimator", "ml2r", "--coupling", "nv", "--eps", "100",
                     "--alpha", "1", "--c1", "1", "--beta", "2", "--c2", "1",
                     "--pilot-m", "2", "--out", str(tmp_path)]) == 0

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


class TestCalibrateMatchesRun:
    """calibrate fits each rate on the scheme that run plans with: for gs-nv
    the weak rate on nv's pilot and the variance rate on gs's."""

    ARGS = ["--pilot-m", "4000", "--seed", "9"]

    def calibrate_rows(self, coupling, tmp_path):
        out = tmp_path / coupling
        assert main(["calibrate", "--coupling", coupling, *self.ARGS, "--out", str(out)]) == 0
        rows = [line.split(",") for line in csv_body(out / "calibrate.csv")[1:]]
        return {row[0]: row for row in rows}

    def test_gs_nv_rows_come_from_the_nv_and_gs_pilots(self, tmp_path):
        mixed, nv, gs = (self.calibrate_rows(c, tmp_path) for c in ("gs-nv", "nv", "gs"))
        assert mixed["fit"] == nv["fit"]
        assert mixed["fit-variance"] == gs["fit-variance"]
        levels = [key for key in mixed if key.isdigit()]
        assert levels == ["1", "2", "3", "4"]
        for level in levels:
            assert mixed[level][1:3] == nv[level][1:3]  # mean, sem
            assert mixed[level][3] == gs[level][3]  # variance

    def test_gs_nv_fit_is_what_run_plans_with(self, tmp_path, monkeypatch):
        rates = []
        plan = estimators.mlmc_plan

        def recorded(coupling, epsilon, alpha, c1, beta, c2, *args, **kwargs):
            rates.append((alpha, c1, beta, c2))
            return plan(coupling, epsilon, alpha, c1, beta, c2, *args, **kwargs)

        monkeypatch.setattr(estimators, "mlmc_plan", recorded)
        assert main(["run", "--coupling", "gs-nv", "--eps", "2^-4", *self.ARGS,
                     "--out", str(tmp_path)]) == 0
        rows = self.calibrate_rows("gs-nv", tmp_path)
        (alpha, c1, beta, c2), = rates
        assert rows["fit"][1:3] == [cli._fmt(alpha), cli._fmt(c1)]
        assert rows["fit-variance"][1:3] == [cli._fmt(beta), cli._fmt(c2)]


class TestPlanTooLarge:
    """A planned sample size past the int64 range fails the run; it is never
    wrapped round to a plan of a few samples that claims RMSE eps."""

    @staticmethod
    def argv(estimator, c2, tmp_path):
        return ["run", "--estimator", estimator, "--coupling", "gs", "--payoff", "u-squared",
                "--alpha", "1", "--c1", "0.16", "--beta", "2", "--c2", c2, "--eps", "2^-4",
                "--pilot-m", "100", "--out", str(tmp_path)]

    @pytest.mark.parametrize("estimator", ["mlmc", "ml2r"])
    def test_exits_three(self, estimator, tmp_path, capsys):
        assert main(self.argv(estimator, "1e300", tmp_path)) == 3
        assert "sampling failure: a planned sample size" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("estimator", ["mlmc", "ml2r"])
    def test_overflowing_allocation_exits_three(self, estimator, tmp_path, capsys):
        # c2 = 1e308 overflows the float arithmetic of the allocation itself;
        # that is a plan too large, not an OverflowError or a RuntimeWarning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(self.argv(estimator, "1e308", tmp_path))
        err = capsys.readouterr().err
        assert code == 3
        assert "sampling failure: a planned sample size" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not caught
        assert not (tmp_path / "run.csv").exists()


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
    # nv coupling with the averaged (two-path) level-0 sampler
    "nv-mlmc-averaged": (["--payoff", "u-squared", "--coupling", "nv", "--eps", "2^-5",
                          "--eps", "2^-7", "--pilot-m", "4000", "--seed", "9"],
                         "1141b423dc1f0b16"),
    # weighted estimator sized from the crude payoff-variance pilot
    "heston-ml2r": (["--model", "heston", "--payoff", "heston-call", "--coupling", "nv",
                     "--estimator", "ml2r", "--eps", "2^-4", "--eps", "2^-5",
                     "--pilot-m", "4000", "--seed", "17"],
                    "755a508ec680c334"),
    # no rate pilot at all
    "fixed-rates": (["--coupling", "gs", "--alpha", "1", "--c1", "0.16", "--beta", "2",
                     "--c2", "0.15", "--eps", "2^-5", "--eps", "2^-6",
                     "--pilot-m", "2000", "--seed", "13"],
                    "a340760b47302c0f"),
    # T = 1/2: every grid is half as long; a horizon lost anywhere reads T = 1
    "gs-mlmc-horizon-half": (["--payoff", "u-squared", "--coupling", "gs", "--eps", "2^-4",
                              "--eps", "2^-5", "--eps", "2^-6", "--pilot-m", "4000",
                              "--seed", "9", "--horizon", "0.5"],
                             "f6cb03339c8125f8"),
    # ML2R's depth and theta are formulas in T (at 2^-5, depth 1 here and 2 at T = 1)
    "heston-ml2r-horizon-half": (["--model", "heston", "--payoff", "heston-call",
                                  "--coupling", "nv", "--estimator", "ml2r", "--eps", "2^-4",
                                  "--eps", "2^-5", "--pilot-m", "4000", "--seed", "17",
                                  "--horizon", "0.5"],
                                 "5ba0cd90009505fe"),
}

# data rows of the commands without a seconds column, at T != 1, by case name:
# (command, arguments, digest)
GOLDEN_COMMANDS = {
    "strong-order": ("strong-order", ["--horizon", "0.25", "--levels", "1..3",
                                      "--pilot-m", "4000", "--seed", "5"], "824f690ce0b82cf4"),
    "oracle-check": ("oracle-check", ["--horizon", "2", "--levels", "1..3",
                                      "--pilot-m", "4000", "--seed", "5"], "dd284ba051714edc"),
    # pilot rows and both fits of one scheme
    "calibrate-gs": ("calibrate", ["--coupling", "gs", "--horizon", "0.5", "--levels", "1..4",
                                   "--pilot-m", "4000", "--seed", "5"], "90b63a7db6a84350"),
    "calibrate-nv": ("calibrate", ["--coupling", "nv", "--horizon", "0.5", "--levels", "1..4",
                                   "--pilot-m", "4000", "--seed", "5"], "ef05d0a82194b1d8"),
    # a repeated coupling draws its own stream and gets its own rows
    "variance-decay": ("variance-decay", ["--coupling", "gs-nv", "--coupling", "nv",
                                          "--coupling", "gs-nv", "--horizon", "2",
                                          "--levels", "1..3", "--pilot-m", "4000",
                                          "--seed", "5"], "743b5e6b29b319d0"),
}


class TestGolden:
    """Pin the run data rows: plans, costs and estimates are exact functions
    of (configuration, seed), so any change of stream or plan shows here."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_run_rows(self, name, tmp_path):
        args, digest = GOLDEN_RUNS[name]
        assert main(["run", *args, "--out", str(tmp_path)]) == 0
        assert masked_digest(tmp_path / "run.csv") == digest

    @pytest.mark.parametrize("case", sorted(GOLDEN_COMMANDS))
    def test_command_rows(self, case, tmp_path):
        command, args, digest = GOLDEN_COMMANDS[case]
        assert main([command, *args, "--out", str(tmp_path)]) == 0
        body = "\n".join(csv_body(tmp_path / f"{command}.csv"))
        assert hashlib.sha256(body.encode()).hexdigest()[:16] == digest


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


class TestFixedRates:
    """A fixed rate replaces its fitted one; the rate pilot is skipped only
    when all four of --alpha --c1 --beta --c2 are set."""

    @pytest.mark.parametrize("fixed, rate_levels", [
        (["--alpha", "1"], [1, 2, 3, 4]),
        (["--alpha", "1", "--c1", "0.16", "--beta", "2", "--c2", "0.15"], []),
    ], ids=["alpha-alone", "all-four"])
    def test_rate_pilot_unless_all_four(self, fixed, rate_levels, tmp_path, monkeypatch):
        log = record_draws(monkeypatch)
        alphas = []
        plan = estimators.mlmc_plan

        def recorded(coupling, epsilon, alpha, *args, **kwargs):
            alphas.append(alpha)
            return plan(coupling, epsilon, alpha, *args, **kwargs)

        monkeypatch.setattr(estimators, "mlmc_plan", recorded)
        assert main(["run", "--payoff", "u-squared", "--coupling", "gs", *fixed, *THREE_EPS,
                     "--out", str(tmp_path)]) == 0
        rates = estimators.EXP_RATES
        rate_keys = [key for epsilon, key in log if epsilon is None and key[4] == rates]
        assert rate_keys == [("gs", level, 2000, 9, rates) for level in rate_levels]
        assert alphas == [1.0, 1.0, 1.0]


class TestStreamKeys:
    """Pilot and run draws never share an (experiment, level) stream, and
    each epsilon's run draws its own streams."""

    def test_last_level_pilots_stop_short_of_the_run_streams(self):
        # the gs-nv v_last pilot of last level L draws at EXP_VLAST + L
        assert estimators.EXP_VLAST + MAX_LEVEL < cli.EXP_RUN

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


def exit_code(argv) -> int:
    """main's exit code, whether it returns it or argparse exits with it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


FIXED_RATES = ["--alpha", "1", "--c1", "0.16", "--beta", "2", "--c2", "0.15"]

# every float-valued option, whatever its check or the model that reads it
FLOAT_FIELDS = [f.name for f in fields(ExperimentConfig) if "float" in f.type]


def model_reading(name: str) -> str:
    """The model with a parameter of this name, else the default model."""
    return next((label for label, cls in MODELS.items()
                 if name in {f.name for f in fields(cls)}), "clark-cameron")


# (model parameter, a model that does not read it): the value is still checked
UNREAD_PARAMETERS = [(f.name, label) for cls in MODELS.values() for f in fields(cls)
                     for label, other in MODELS.items()
                     if f.name in FLOAT_FIELDS and f.name not in {g.name for g in fields(other)}]


class TestNonFiniteValues:
    """Every failure is an exit code and a `configuration error:` line, not a
    traceback, and it comes before any draw."""

    def test_float_fields_are_found(self):
        assert {"eps", "horizon", "mu", "kappa", "alpha", "c1"} <= set(FLOAT_FIELDS)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_finite_float_exits_two(self, name, value, tmp_path, no_draws, capsys):
        flag = "--" + name.replace("_", "-")
        argv = ["run", "--model", model_reading(name), "--eps", "2^-4", *FIXED_RATES,
                f"{flag}={value}", "--out", str(tmp_path)]
        assert exit_code(argv) == 2
        assert "configuration error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name,label", UNREAD_PARAMETERS)
    def test_non_finite_parameter_of_the_other_model_exits_two(self, name, label, value,
                                                               tmp_path, no_draws, capsys):
        argv = ["run", "--model", label, "--eps", "2^-4", *FIXED_RATES,
                f"--{name}={value}", "--out", str(tmp_path)]
        assert exit_code(argv) == 2
        assert "configuration error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["0^-1", "10^400", "-2^0.5"])
    def test_eps_power_without_a_real_value(self, text, tmp_path, no_draws, capsys):
        with pytest.raises(ValueError):
            parse_eps(text)
        assert exit_code(["run", f"--eps={text}", "--out", str(tmp_path)]) == 2
        cfg = tmp_path / "eps.cfg"
        cfg.write_text(f"eps = {text}\n")
        assert exit_code(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("configuration error:") == 2 and "Traceback" not in err

    def test_out_below_a_regular_file_exits_two(self, tmp_path, no_draws, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert exit_code(["run", "--eps", "2^-4", "--out", str(blocker / "sub")]) == 2
        assert "configuration error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["oracle-check", "--mu", "nan"],
        ["oracle-check", "--horizon", "inf"],
        ["strong-order", "--horizon", "nan"],
        ["run", "--model", "heston", "--kappa", "nan", "--eps", "2^-4"],
        ["variance-decay", "--kappa", "nan", "--levels", "1..2", "--pilot-m", "100"],
        ["oracle-check", "--theta", "inf", "--levels", "1..1", "--pilot-m", "100"],
    ], ids=["oracle-mu", "oracle-horizon", "strong-horizon", "heston-kappa",
            "decay-unread-kappa", "oracle-unread-theta"])
    def test_bad_problem_exits_two_before_any_draw(self, argv, tmp_path, no_draws, capsys):
        assert exit_code([*argv, "--out", str(tmp_path)]) == 2
        assert "configuration error:" in capsys.readouterr().err


def exception_classes():
    """Every exception class defined in a mlmc_sde module."""
    found = set()
    for info in pkgutil.iter_modules(mlmc_sde.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"mlmc_sde.{info.name}")
        found.update(obj for obj in vars(module).values()
                     if isinstance(obj, type) and issubclass(obj, BaseException)
                     and obj.__module__ == module.__name__)
    return sorted(found, key=lambda cls: cls.__qualname__)


class TestExceptionContract:
    def test_every_exception_has_an_exit_code(self):
        # NegativeSqrtArgument guards an internal invariant that no
        # configuration reaches
        mapped = (ConfigError, calibrate.SamplingFailure, NegativeSqrtArgument)
        classes = exception_classes()
        assert calibrate.SamplingFailure in classes
        unmapped = [cls.__qualname__ for cls in classes if not issubclass(cls, mapped)]
        assert not unmapped

    @pytest.mark.parametrize("cls", [cls for cls in exception_classes()
                                     if issubclass(cls, calibrate.SamplingFailure)],
                             ids=lambda cls: cls.__qualname__)
    def test_sampling_failures_exit_three(self, cls, tmp_path, monkeypatch, capsys):
        def fail(*args):
            raise cls("injected")

        monkeypatch.setitem(cli.COMMANDS, "calibrate", fail)
        assert main(["calibrate", "--out", str(tmp_path)]) == 3
        assert "sampling failure: injected" in capsys.readouterr().err
