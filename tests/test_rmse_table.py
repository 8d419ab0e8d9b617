import csv
import importlib.util
import math
from pathlib import Path

import pytest

from mlmc_sde.cli import build_parser, resolve_config
from mlmc_sde.cli import main as cli_main
from mlmc_sde.oracle import cc_exact_cos_mean

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("rmse_table", ROOT / "tools" / "rmse_table.py")
rmse_table = importlib.util.module_from_spec(spec)
spec.loader.exec_module(rmse_table)

PAPER = ["--config", str(ROOT / "scripts" / "clark_cameron_benchmark.cfg"),
         "--eps", "2^-4", "--eps", "2^-5"]


def run_rows(args, seed, out):
    assert cli_main(["run", *args, "--seed", str(seed), "--out", str(out)]) == 0
    lines = [line for line in (out / "run.csv").read_text().splitlines()
             if not line.startswith("#")]
    return list(csv.DictReader(lines))


def test_two_seed_table_of_the_paper_config(tmp_path, capsys):
    rows = rmse_table.rmse_rows(PAPER, 2)
    assert [(r["coupling"], r["epsilon"]) for r in rows] == [
        (c, e) for c in ("gs", "gs-nv") for e in (2.0**-4, 2.0**-5)]
    # each row from the two runs, against the closed form
    runs = [run_rows(PAPER, seed, tmp_path / str(seed)) for seed in (1, 2)]
    truth = cc_exact_cos_mean(1.0, 1.0, 0.0)
    for i, row in enumerate(rows):
        errors = [float(run[i]["estimate"]) - truth for run in runs]
        assert row["rmse_eps"] == pytest.approx(
            math.sqrt(sum(e * e for e in errors) / 2) / row["epsilon"], rel=1e-12)
        assert row["mean_err_eps"] == pytest.approx(sum(errors) / 2 / row["epsilon"], rel=1e-12)
        assert row["mean_L"] == sum(int(run[i]["L"]) for run in runs) / 2
        assert row["mean_cost_units"] == sum(float(run[i]["cost_units"]) for run in runs) / 2
    capsys.readouterr()
    assert rmse_table.main(["--seeds", "2", *PAPER]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[1].split() == ["coupling", "eps", "rmse/eps", "mean_err/eps", "mean_L",
                                "mean_cost_units"]
    assert [line.split()[:2] for line in table[2:]] == [
        [c, e] for c in ("gs", "gs-nv") for e in ("2^-4", "2^-5")]


def test_heston_truth_is_the_lewis_price():
    rows = rmse_table.rmse_rows(["--model", "heston", "--payoff", "heston-call",
                                 "--coupling", "nv", "--eps", "2^-4", "--pilot-m", "200"], 2)
    assert len(rows) == 1 and rows[0]["mean_L"] >= 1
    args = build_parser().parse_args(["run", "--model", "heston", "--payoff", "heston-call",
                                      "--eps", "2^-4"])
    assert rmse_table.truth(resolve_config(args)) == pytest.approx(0.394692, abs=5e-7)


def test_payoff_without_a_closed_form_is_refused():
    with pytest.raises(SystemExit, match="no closed form"):
        rmse_table.rmse_rows(["--payoff", "u-plus", "--eps", "2^-4"], 1)
