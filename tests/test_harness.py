"""The benchmark harness in perfbench/ still measures the kernels it names.

The harness wraps module-level names of mlmc_sde and counts kernel rows from
the state a kernel receives, so a change of a kernel's name or of what it
receives can leave a per-layer figure at zero or wrong without any failure.
"""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def traced_child(tmp_path: Path, cli_args):
    """Run ``mlmc-sde`` ``cli_args`` in one traced ``perfbench/child.py``;
    the completed process and the per-layer figures the child wrote."""
    result = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(ROOT / "src"),
         repr(time.monotonic()), str(result), "1", *cli_args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert done.returncode == 0, done.stderr
    return done, json.loads(result.read_text())["layers"]


def test_traced_oracle_check_counts_every_nv_row(tmp_path):
    levels, m = (1, 2), 2000
    cli_args = ["oracle-check", "--levels", f"{levels[0]}..{levels[-1]}", "--pilot-m", str(m),
                "--workers", "1", "--out", str(tmp_path / "out")]
    _, layers = traced_child(tmp_path, cli_args)
    for name in ("schemes.nv_step_s", "models.flow_s", "paths.draw_s"):
        assert layers[name] > 0, name
    # the nv coupling runs 4 fine paths of 2^l steps and 2 coarse paths of
    # 2^(l-1) per sample; a pair kernel call counts as the 2m rows it advances
    rows = 1e9 * layers["schemes.nv_step_s"] / layers["schemes.nv_ns_per_sample_step"]
    assert rows == pytest.approx(sum(5 * 2**level * m for level in levels), rel=1e-9)


def test_traced_gs_run_counts_every_gs_row(tmp_path):
    m = 2000
    out = tmp_path / "out"
    cli_args = ["run", "--coupling", "gs", "--estimator", "mlmc", "--payoff", "u-squared",
                "--alpha", "1", "--c1", "0.3", "--beta", "2", "--c2", "0.5", "--eps", "2^-4",
                "--pilot-m", str(m), "--workers", "1", "--seed", "3", "--out", str(out)]
    _, layers = traced_child(tmp_path, cli_args)
    assert layers["schemes.gs_step_s"] > 0
    # with fixed rates the only pilot is the one-step crude-gs v0 draw of m
    # samples, and a gs plan's cost units are its path steps
    lines = [line for line in (out / "run.csv").read_text().splitlines()
             if not line.startswith("#")]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    rows = 1e9 * layers["schemes.gs_step_s"] / layers["schemes.gs_ns_per_sample_step"]
    assert rows == pytest.approx(m + float(row["cost_units"]), rel=1e-9)


def test_traced_calibrated_run_reports_its_pilot(tmp_path):
    # every pilot draw goes through sample_many outside run_multilevel, and
    # the run's through it inside; so both phases have time, and the pilot
    # path steps the harness counts are those the run prints
    cli_args = ["run", "--coupling", "gs", "--estimator", "mlmc", "--payoff", "u-squared",
                "--eps", "2^-4", "--pilot-m", "2000", "--workers", "1", "--seed", "3",
                "--out", str(tmp_path / "out")]
    done, layers = traced_child(tmp_path, cli_args)
    assert layers["phase.pilot_s"] > 0 and layers["phase.run_s"] > 0
    printed = re.search(r"^pilot gs: .*?, (\S+) path steps for plans", done.stdout, re.M)
    assert printed, done.stdout
    assert f"{layers['calibrate.pilot_units']:.4g}" == printed.group(1)
