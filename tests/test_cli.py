import contextlib
import hashlib
import importlib
import io
import math
import os
import pkgutil
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from mlmc_sde.models import (
    MODELS,
    PAYOFF_LABELS,
    ClarkCameronModel,
    NegativeSqrtArgument,
    Payoff,
)
from mlmc_sde.paths import MAX_LEVEL
from mlmc_sde.schemes import LevelSampler


def csv_body(path):
    """Data lines only: the `#` header carries the run timestamp."""
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


class TestParsing:
    def test_eps_forms(self):
        assert parse_eps("0.25") == 0.25
        assert parse_eps("2^-6") == 2.0**-6
        assert parse_eps("2^3") == 8.0

    def test_levels(self):
        assert parse_levels("2..7") == range(2, 8)
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
    @pytest.mark.parametrize("command", ["run", "sweep", "variance-decay"])
    def test_repeated_coupling_exits_two(self, command, tmp_path, no_draws, capsys):
        # a repeat's CSV rows could not be told apart from the first's
        assert main([command, "--coupling", "gs", "--coupling", "gs", "--eps", "2^-4",
                     "--out", str(tmp_path)]) == 2
        assert f"{command} takes each --coupling once" in capsys.readouterr().err

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


    def test_heston_call_ml2r_keeps_two_levels(self, tmp_path):
        """The shipped Heston run plans L = 2 from its sized pilot, and each
        estimate lies within the harness's 4 eps of the Lewis price
        (perfbench/reference.py, heston_call(), 0.394692)."""
        assert main(["run", "--config", str(SCRIPTS / "heston_call.cfg"),
                     "--estimator", "ml2r", "--out", str(tmp_path)]) == 0
        header, *rows = [line.split(",") for line in csv_body(tmp_path / "run.csv")]
        column = {name: i for i, name in enumerate(header)}
        assert len(rows) == 3
        for row in rows:
            assert row[column["L"]] == "2"
            error = abs(float(row[column["estimate"]]) - 0.394692)
            assert error <= 4.0 * float(row[column["epsilon"]])


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

    def test_strong_order_warns_of_each_error_left_out(self, tmp_path, capsys):
        # the coupling errors of levels 1 and 2 are nan at this sigma
        # (Milstein-type gs paths go negative in the variance); the nv ones
        # are finite
        assert main(["strong-order", "--model", "heston", "--sigma", "0.9", "--levels", "1..2",
                     "--pilot-m", "1000", "--seed", "1", "--out", str(tmp_path)]) == 0
        warned = [line for line in (tmp_path / "strong-order.csv").read_text().splitlines()
                  if line.startswith("# warning:")]
        assert warned == [
            *(f"# warning: level {level}: coupling error nan is not finite; the coupling slope "
              "leaves it out" for level in (1, 2)),
            "# warning: coupling slope undefined: fewer than two levels with a finite log2 error"]
        out = capsys.readouterr().out
        assert all(line[len("# warning: "):] in out for line in warned)

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

    # each id names the command and its levels; mu is fixed per command
    @pytest.mark.parametrize("command, levels, mu", [("calibrate", "1..4", "1e77"),
                                                     ("variance-decay", "1..3", "1e77"),
                                                     ("strong-order", "1..3", "1e200")],
                             ids=["calibrate-1..4", "variance-decay-1..3", "strong-order-1..3"])
    def test_overflowing_statistics_raise_no_warning(self, command, levels, mu, tmp_path,
                                                     capsys):
        # the pilots' squares (or the paths' gaps) overflow; the statistics
        # read inf or nan, silently
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--payoff", "u-squared", "--mu", mu, "--levels", levels,
                         "--pilot-m", "100", "--out", str(tmp_path)]) == 0
        assert not caught
        assert "RuntimeWarning" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["calibrate", "--coupling", "nv"], ["variance-decay"],
                                         ["run", "--coupling", "nv", "--eps", "2^-4"]])
    def test_underflowing_kurtosis_exits_zero(self, command, tmp_path, capsys):
        # level variances near 1e-205, whose squared M2 underflows to 0
        assert main([*command, "--model", "heston", "--payoff", "u-plus", "--rate", "0",
                     "--v0", "1e-200", "--theta", "1e-200", "--sigma", "1e-101",
                     "--levels", "1..3", "--pilot-m", "100", "--out", str(tmp_path)]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_calibrate_infinite_statistics_name_their_cause(self, tmp_path, capsys):
        assert main(["calibrate", "--payoff", "u-squared", "--mu", "2e77", "--levels", "1..4",
                     "--pilot-m", "100", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "no variance rate from the variances: no level statistic is finite and " \
            "nonzero" in out

    def test_calibrate_fits_refuse_on_their_own(self, tmp_path):
        # four finite, nonzero means but infinite variances: the weak fit stands
        assert main(["calibrate", "--payoff", "u-squared", "--mu", "2e77", "--levels", "1..4",
                     "--pilot-m", "100", "--out", str(tmp_path)]) == 0
        weak = calibrate.pilot_stats(LevelSampler(ClarkCameronModel(mu=2e77),
                                                  Payoff("u-squared"), "gs"),
                                     range(1, 5), 100, 12345, estimators.EXP_RATES)
        assert all(math.isfinite(s.mean) and s.mean != 0.0 for s in weak)
        fit = calibrate.fit_weak_rate(weak)
        text = (tmp_path / "calibrate.csv").read_text()
        body = csv_body(tmp_path / "calibrate.csv")
        assert body[-2:] == [f"fit,{fit.order:.12g},{fit.constant:.12g},",
                             "fit-variance,nan,nan,"]
        notes = [line for line in text.splitlines() if line.startswith("# warning:")]
        assert notes == ["# warning: no variance rate from the variances: "
                            "no level statistic is finite and nonzero"]

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

    def test_pilot_line_per_coupling(self, tmp_path, capsys):
        assert main(["sweep", *TWO_EPS, "--out", str(tmp_path)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("pilot ")]
        assert [line.split(":")[0] for line in lines] == ["pilot gs", "pilot gs-nv"]
        for line in lines:
            assert "2000 samples per level (cap 2000)" in line
            assert " path steps for plans of " in line and " alpha=" in line

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

    GS_USQ = ["run", "--coupling", "gs", "--payoff", "u-squared"]

    @pytest.mark.parametrize("args, code", [
        # T^(-beta/2) overflows the float range in theta
        (["--estimator", "ml2r", "--alpha", "1", "--c1", "0.16", "--beta", "100", "--c2", "1",
          "--eps", "2^-4", "--pilot-m", "100", "--horizon", "1e-10"], 3),
        # theta overflows while the level decay underflows: inf * 0 in s_l
        (["--estimator", "ml2r", "--alpha", "1", "--c1", "0.16", "--beta", "2200",
          "--c2", "1e300", "--horizon", "0.658", "--eps", "2^-8", "--pilot-m", "100"], 3),
        # eps^2 overflows: every size rounds up to one sample
        (["--eps", "2e154", "--pilot-m", "200"], 0),
        # sqrt(2) |c1| / eps underflows to 0: the floor level
        (["--estimator", "mlmc", "--alpha", "1", "--c1", "5e-324", "--beta", "2", "--c2", "1",
          "--eps", "4", "--pilot-m", "100"], 0),
        # 1 - 2^-alpha rounds to 0: the weights are not finite
        (["--estimator", "ml2r", "--alpha", "1e-17", "--c1", "0.16", "--beta", "2", "--c2", "1",
          "--eps", "2", "--pilot-m", "100"], 3),
    ], ids=["theta-overflow", "inf-times-zero", "eps-squared-overflow",
            "depth-ratio-underflow", "weight-factor-zero"])
    def test_float_extremes(self, args, code, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*self.GS_USQ, *args, "--out", str(tmp_path)]) == code
        out, err = capsys.readouterr()
        assert not caught
        if code == 3:
            assert len(err.splitlines()) == 1
            assert err.startswith("sampling failure: a planned sample size")
        else:
            assert err == ""
            assert "L=1 M=2 " in out


    def test_weight_refusal_names_theta_and_alpha(self, tmp_path, capsys):
        assert main([*self.GS_USQ, "--estimator", "ml2r", "--alpha", "1e-17", "--c1", "0.16",
                     "--beta", "2", "--c2", "1", "--eps", "2", "--pilot-m", "100",
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("sampling failure: a planned sample size is not finite: theta = ")
        assert "at alpha = 1e-17: nan" in err


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
                "9df1a10503fec787"),
    # nv weak rate, gs variance rate and a v_last pilot per distinct last level
    "gs-nv-mlmc": (["--coupling", "gs-nv", "--eps", "2^-4", "--eps", "2^-5",
                    "--eps", "2^-6", "--pilot-m", "4000", "--seed", "9"],
                   "e51ec345db5de364"),
    # nv coupling with the averaged (two-path) level-0 sampler
    "nv-mlmc-averaged": (["--payoff", "u-squared", "--coupling", "nv", "--eps", "2^-5",
                          "--eps", "2^-7", "--pilot-m", "4000", "--seed", "9"],
                         "45363c5e95187d0d"),
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
                             "f36a59aadedbd618"),
    # ML2R's depth and theta are formulas in T (at 2^-5, depth 1 here and 2 at T = 1)
    "heston-ml2r-horizon-half": (["--model", "heston", "--payoff", "heston-call",
                                  "--coupling", "nv", "--estimator", "ml2r", "--eps", "2^-4",
                                  "--eps", "2^-5", "--pilot-m", "4000", "--seed", "17",
                                  "--horizon", "0.5"],
                                 "5ba0cd90009505fe"),
    # a rate pilot of levels 1..6 on Heston's bent variance decay: level 1's own
    # variance is twice the fitted line's, and both eps (L = 1) are sized from
    # it, as read on the rate pilot's streams
    "heston-variance-table": (["--model", "heston", "--payoff", "heston-call",
                               "--coupling", "nv", "--levels", "1..6", "--eps", "2^-6",
                               "--eps", "2^-8", "--pilot-m", "4000", "--seed", "7"],
                              "a193b369baa1c597"),
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
    # each coupling draws its own stream, EXP_DECAY + its index
    "variance-decay": ("variance-decay", ["--coupling", "gs-nv", "--coupling", "nv",
                                          "--horizon", "2", "--levels", "1..3",
                                          "--pilot-m", "4000", "--seed", "5"],
                       "5351fd87fb896ec5"),
}

# the `pilot` stdout lines of the calibrated commands, by case name: (arguments, lines)
GOLDEN_PILOT_LINES = {
    "sweep-benchmark": (
        ["sweep", "--config", str(SCRIPTS / "clark_cameron_benchmark.cfg")],
        ["pilot gs: 8192 samples per level (cap 100000), 6.226e+05 path steps for plans of "
         "3.406e+05 cost units; alpha=1.0 c1=0.1605 beta=2.0 c2=0.1487",
         "pilot gs-nv: 8192 samples per level (cap 100000), 2.367e+06 path steps for plans of "
         "3.184e+05 cost units; alpha=2.0 c1=0.08061 beta=2.0 c2=0.1487"]),
    "heston-ml2r": (
        ["run", "--config", str(SCRIPTS / "heston_call.cfg"), "--estimator", "ml2r"],
        ["pilot nv: 8192 samples per level (cap 100000), 1.491e+06 path steps for plans of "
         "5.278e+05 cost units; alpha=2.0 c1=-0.0003182 beta=3.5 c2=0.0002163"]),
    # the first round's pilots cost less than its plans, so the pilot grows
    "grown-round": (
        ["run", "--payoff", "u-squared", "--coupling", "gs", "--eps", "2^-7",
         "--pilot-m", "100000", "--seed", "9"],
        ["pilot gs: 12288 samples per level (cap 100000), 9.339e+05 path steps for plans of "
         "9.194e+05 cost units; alpha=1.0 c1=-0.4408 beta=2.0 c2=1.565"]),
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

    @pytest.mark.parametrize("case", sorted(GOLDEN_PILOT_LINES))
    def test_pilot_lines(self, case, tmp_path, capsys):
        args, lines = GOLDEN_PILOT_LINES[case]
        assert main([*args, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line.startswith("pilot ")] == lines


class TestConfigEcho:
    """The option lines of a CSV header are a config file that reproduces it."""

    @pytest.mark.parametrize("args, levels", [
        # calibrated rates, unset in the echo; two couplings and eps at T = 1/2
        (["--payoff", "u-squared", "--coupling", "gs", "--coupling", "nv", "--eps", "2^-4",
          "--eps", "2^-5", "--levels", "1..3", "--horizon", "0.5", "--nv-level0", "single",
          "--pilot-m", "2000", "--seed", "11"], "1..3"),
        # every rate fixed, on the weighted estimator
        (["--model", "heston", "--payoff", "heston-call", "--coupling", "nv",
          "--estimator", "ml2r", "--alpha", "2", "--c1", "-0.03", "--beta", "3",
          "--c2", "0.00024", "--eps", "2^-5", "--sigma", "0.3", "--pilot-m", "2000",
          "--seed", "17"], "1..4"),
    ], ids=["calibrated", "fixed-rates"])
    def test_run_header_reads_back(self, args, levels, tmp_path):
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["run", *args, "--out", str(first)]) == 0
        skip = ("command = ", "provenance = ", "generated = ", "warning:")
        echo = [line[2:] for line in (first / "run.csv").read_text().splitlines()
                if line.startswith("# ") and not line[2:].startswith(skip)]
        assert f"levels = {levels}" in echo
        assert not any(line.endswith("None") for line in echo)
        cfg = tmp_path / "echo.cfg"
        cfg.write_text("\n".join(echo) + "\n")
        assert main(["run", "--config", str(cfg), "--out", str(again)]) == 0
        assert masked_digest(again / "run.csv") == masked_digest(first / "run.csv")


def record_draws(monkeypatch):
    """Log the key of every sample_many call with the epsilon of the run it
    belongs to (None for pilot draws, made outside run_multilevel)."""
    log, running = [], []
    draw = calibrate.sample_many
    run = estimators.run_multilevel

    def counted(sampler, level, m, seed, experiment=0, workers=1, first_block=0):
        epsilon = running[-1] if running else None
        log.append((epsilon, (sampler.coupling, level, m, seed, experiment)))
        return draw(sampler, level, m, seed, experiment, workers, first_block)

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
    """A fixed rate replaces its fitted one; the weak-rate pilot is skipped
    when --alpha and --c1 are set, the variance-rate pilot when --beta and
    --c2 are."""

    @pytest.mark.parametrize("coupling, fixed, rate_keys", [
        ("gs", ["--alpha", "1"], [("gs", level) for level in (1, 2, 3, 4)]),
        ("gs", ["--alpha", "1", "--c1", "0.16", "--beta", "2", "--c2", "0.15"], []),
        # gs-nv fits its weak rate on nv, which its fixed weak rates leave undrawn
        ("gs-nv", ["--alpha", "2", "--c1", "0.08"], [("gs", level) for level in (1, 2, 3, 4)]),
    ], ids=["alpha-alone", "all-four", "gs-nv-weak-pair"])
    def test_rate_pilot_only_for_unset_rates(self, coupling, fixed, rate_keys, tmp_path,
                                             monkeypatch):
        log = record_draws(monkeypatch)
        alphas = []
        plan = estimators.mlmc_plan

        def recorded(coupling, epsilon, alpha, *args, **kwargs):
            alphas.append(alpha)
            return plan(coupling, epsilon, alpha, *args, **kwargs)

        monkeypatch.setattr(estimators, "mlmc_plan", recorded)
        assert main(["run", "--payoff", "u-squared", "--coupling", coupling, *fixed, *THREE_EPS,
                     "--out", str(tmp_path)]) == 0
        rates = estimators.EXP_RATES
        drawn = [key for epsilon, key in log if epsilon is None and key[4] == rates]
        assert drawn == [(tag, level, 2000, 9, rates) for tag, level in rate_keys]
        assert alphas == [float(fixed[1])] * 3  # fixed[0] is --alpha


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

    @pytest.mark.parametrize("argv", [
        ["run", "--sigma", "1e155", "--eps", "2^-4"],
        ["run", "--sigma", "1e300", "--eps", "2^-4"],
        ["calibrate", "--sigma", "1e155"],
        ["run", "--kappa", "1e300", "--theta", "1e300", "--sigma", "1e200", "--eps", "2^-4"],
    ], ids=["run-sigma-1e155", "run-sigma-1e300", "calibrate-sigma-1e155", "run-all-large"])
    def test_heston_constant_whose_square_overflows_exits_two(self, argv, tmp_path, no_draws,
                                                              capsys):
        # finite constants, but sigma^2 leaves the float range as HestonModel checks them
        assert exit_code([*argv, "--model", "heston", "--payoff", "heston-call",
                          "--coupling", "nv", "--pilot-m", "100", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "Traceback" not in err


# the model options and the fixed rates, each drawn near 0, at a subnormal, near
# the float's smallest normal, where a square or a cube leaves the float range,
# at its largest values, or not finite
EXTREME = st.one_of(st.floats(-1e-6, 1e-6),
                    st.floats(1e154, 1e155),
                    st.sampled_from([5e-324, -5e-324, 1e-308, 1e200, 1e300, 1.7e308,
                                     math.inf, -math.inf, math.nan]))
EXTREME_OPTIONS = ("horizon", "mu", "u0", "s0", "rate", "kappa", "theta", "sigma", "v0",
                   "alpha", "c1", "beta", "c2")
# the commands whose draws --pilot-m bounds; run and sweep plan their own sizes
BOUNDED_COMMANDS = (["calibrate", "--coupling", "gs"], ["calibrate", "--coupling", "nv"],
                    ["calibrate", "--coupling", "gs-nv"], ["variance-decay"],
                    ["strong-order"], ["oracle-check"])


# the target RMSEs of run and sweep: the range the planner sizes, and refused values
EPS_VALUES = st.one_of(st.floats(2.0**-6, 1e308),
                       st.sampled_from([0.0, -0.0, -2.0**-4, math.inf, -math.inf, math.nan]))
# the largest plan run_multilevel runs under TestCommandInputs, in path steps
RUN_PATH_STEPS = 1e7


def assert_documented_exit(argv):
    """argv exits with a documented code, with no traceback and no warning."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = exit_code(argv)
    assert code in (0, 2, 3, 4), argv
    assert "Traceback" not in err.getvalue(), argv
    assert not caught, (argv, [str(w.message) for w in caught])


class TestCommandInputs:
    """Extreme model constants and rates at every command: an exit code of
    the documented ones, no traceback, no warning."""

    @pytest.mark.parametrize("command", BOUNDED_COMMANDS, ids=" ".join)
    @given(model=st.sampled_from(sorted(MODELS)),
           payoff=st.sampled_from(PAYOFF_LABELS),
           options=st.dictionaries(st.sampled_from(EXTREME_OPTIONS), EXTREME, max_size=4),
           levels=st.sampled_from(["1..2", "2..3"]),
           pilot_m=st.integers(2, 60))
    @settings(derandomize=True, deadline=None, max_examples=30)
    def test_exit_code_without_traceback_or_warning(self, command, model, payoff, options,
                                                   levels, pilot_m, tmp_path_factory):
        if command[0] != "oracle-check":  # defined for one model and payoff only
            command = [*command, "--model", model, "--payoff", payoff]
        # the --flag=value form, so that argparse reads a negative value as a value
        assert_documented_exit([
            *command, *(f"--{name}={value!r}" for name, value in options.items()),
            "--levels", levels, "--pilot-m", str(pilot_m), "--workers", "1",
            "--out", str(tmp_path_factory.getbasetemp() / "inputs")])

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @given(model=st.sampled_from(sorted(MODELS)),
           payoff=st.sampled_from(PAYOFF_LABELS),
           couplings=st.lists(st.sampled_from(cli.LEVEL_COUPLINGS), min_size=1, max_size=2,
                              unique=True),
           estimator=st.sampled_from(["mlmc", "ml2r"]),
           eps=st.lists(EPS_VALUES, min_size=1, max_size=2),
           options=st.dictionaries(st.sampled_from(EXTREME_OPTIONS), EXTREME, max_size=4),
           pilot_m=st.integers(2, 200))
    @settings(derandomize=True, deadline=None, max_examples=40)
    def test_planned_commands(self, command, model, payoff, couplings, estimator, eps, options,
                              pilot_m, tmp_path_factory):
        """run and sweep, each plan run only up to RUN_PATH_STEPS: a larger
        plan is skipped, and its row reads a nan estimate at no cost."""
        run = estimators.run_multilevel

        def bounded(plan, *args, **kwargs):
            if plan.cost_units <= RUN_PATH_STEPS:
                return run(plan, *args, **kwargs)
            return estimators.EstimatorResult(math.nan, [], 0.0, 0.0)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimators, "run_multilevel", bounded)
            assert_documented_exit([
                command, "--model", model, "--payoff", payoff, "--estimator", estimator,
                *(f"--coupling={coupling}" for coupling in couplings),
                *(f"--eps={value!r}" for value in eps),
                *(f"--{name}={value!r}" for name, value in options.items()),
                "--levels", "1..2", "--pilot-m", str(pilot_m), "--workers", "1",
                "--out", str(tmp_path_factory.getbasetemp() / "planned")])


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


def fresh_import(env_blas=None):
    """(OPENBLAS_NUM_THREADS, thread count or None) of a fresh interpreter
    after it imports mlmc_sde.cli, with the variable preset or unset."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(mlmc_sde.__file__).parents[1])
    if env_blas is not None:
        env["OPENBLAS_NUM_THREADS"] = env_blas
    code = ("import os, mlmc_sde.cli\n"
            "task = '/proc/self/task'\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'),"
            " len(os.listdir(task)) if os.path.isdir(task) else None)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    return out[0], None if out[1] == "None" else int(out[1])


class TestBlasThreads:
    def test_import_starts_no_blas_thread(self):
        blas, threads = fresh_import()
        assert blas == "1"
        if threads is None:
            pytest.skip("no /proc/self/task on this platform")
        assert threads == 1

    def test_preset_value_is_kept(self):
        assert fresh_import("2")[0] == "2"
