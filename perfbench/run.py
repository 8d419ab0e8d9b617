"""Closed-loop benchmark of the mlmc-sde command line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measurement starts ``python3 perfbench/child.py``, which imports
mlmc_sde.cli from the checkout's ``src/`` and calls ``cli.main`` with the
workload's arguments; the next child starts only when the previous one has
exited (one client, closed loop).  The workload seed is the command's
``--seed``, so every child of one invocation must write identical CSV data
rows.  Every output is checked against the closed forms in reference.py.

``--trace 0`` reports the end-to-end metrics as medians over the children;
``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics of the traced ones (see README.md for definitions).  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"  # children's --out directories

SETUP_PROBES = 5  # import-only children per invocation, for setup_s
MIN_RUNS = 2  # untraced children (or traced rounds) per invocation, whatever --seconds says
HARD_LIMIT_S = 170.0  # children still running at this point are killed
# an estimate may miss its reference by 4 epsilon: over 30 seeds the
# calibrated estimators' error was about N(-0.8 eps, (0.7 eps)^2) on
# cc-gs-mlmc and had a standard deviation up to 1.0 eps on heston-ml2r-pool,
# so a 3 eps cut would fail on about 1% of seeds of correct code
TOLERANCE_EPS = 4.0

# figures measured in the serial baseline child of a pooled workload, because
# spans inside pool workers are not seen
KERNEL_PREFIXES = ("paths.", "models.", "schemes.nv_", "schemes.gs_",
                   "schemes.simulate_path", "schemes.sample_level_self")


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    csv: str
    # (header, rows) -> (one passed flag per check, accuracy figures)
    check: Callable[[list, list], tuple[list[bool], dict]]
    serial_args: tuple[str, ...] | None = None


def estimate_check(truth: float, count: int):
    """Each run.csv estimate lies within TOLERANCE_EPS epsilon of ``truth``."""
    def check(header, rows):
        eps, est = header.index("epsilon"), header.index("estimate")
        errs = [abs(float(r[est]) - truth) / float(r[eps]) for r in rows]
        passed = [e <= TOLERANCE_EPS for e in errs] + [False] * (count - len(errs))
        return passed, {"oracle.max_err_eps": max(errs)} if errs else {}
    return check


def oracle_check(levels: range):
    """Each level's oracle column is the closed form and its |z| <= 4."""
    def check(header, rows):
        rows = [r for r in rows if r[0] != "gate"]
        passed, zs = [], []
        for level, row in itertools.zip_longest(levels, rows):
            if level is None or row is None or int(row[0]) != level:
                passed.append(False)
                continue
            truth = reference.cc_znv_second_moment(level)
            z = abs(float(row[3]))
            zs.append(z)
            # the CSV prints 12 significant digits
            passed.append(abs(float(row[2]) - truth) <= 1e-11 * truth and z <= 4.0)
        return passed, {"oracle.max_abs_z": max(zs)} if zs else {}
    return check


CC_EPS = ("2^-6", "2^-7", "2^-8", "2^-9")
HESTON_EPS = ("2^-7", "2^-8", "2^-9")
HESTON_ARGS = ("run", "--model", "heston", "--payoff", "heston-call", "--coupling", "nv",
               "--estimator", "ml2r", "--nv-level0", "single",
               *(a for e in HESTON_EPS for a in ("--eps", e)), "--pilot-m", "100000")

WORKLOADS = {
    # calibrate-then-run on the gs kernel only; pilots ~40% of the time
    "cc-gs-mlmc": Workload(
        ("run", "--model", "clark-cameron", "--payoff", "u-squared", "--coupling", "gs",
         "--estimator", "mlmc", *(a for e in CC_EPS for a in ("--eps", e)),
         "--pilot-m", "100000", "--workers", "1"),
        "run.csv", estimate_check(reference.cc_usq_mean(), len(CC_EPS))),
    # pure nv-coupling sampling up to 64 steps: the kernel workload
    "cc-nv-oracle": Workload(
        ("oracle-check", "--levels", "1..6", "--pilot-m", "60000", "--workers", "1"),
        "oracle-check.csv", oracle_check(range(1, 7))),
    # Heston flows, weighted planner, varf pilots and the only process pool
    "heston-ml2r-pool": Workload(
        (*HESTON_ARGS, "--workers", "2"), "run.csv",
        estimate_check(reference.heston_call(), len(HESTON_EPS)),
        serial_args=(*HESTON_ARGS, "--workers", "1")),
}


class Children:
    """Starts children one at a time and reaps each with its resource usage."""

    def __init__(self, deadline: float, csv_name: str):
        self.deadline = deadline
        self.csv_name = csv_name
        self.count = itertools.count()
        self.root = WORK_ROOT / str(os.getpid())

    def run(self, cli_args, trace: bool) -> dict:
        work = self.root / str(next(self.count))
        work.mkdir(parents=True)
        result_file = work / "child.json"
        out_args = ["--out", str(work)] if cli_args else []
        with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(SRC), repr(spawned),
                 str(result_file), "1" if trace else "0", *cli_args, *out_args],
                stdout=out, stderr=err, start_new_session=True)
            # the whole process group, pool workers included, dies at the deadline
            timer = threading.Timer(max(0.0, self.deadline - spawned),
                                    os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.monotonic() - spawned
        proc.returncode = os.waitstatus_to_exitcode(status)
        run = {
            "wall_s": wall,
            # wait4 folds in the reaped pool workers of the child
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "exit_code": proc.returncode,
        }
        if result_file.is_file():
            run.update(json.loads(result_file.read_text()))
        csv = work / self.csv_name if cli_args else None
        run["table"] = read_csv(csv) if csv is not None and csv.is_file() else None
        if proc.returncode != 0:
            run["stderr"] = (work / "stderr").read_text(errors="replace")[-2000:]
        shutil.rmtree(work)
        return run

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)


def read_csv(path: Path):
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def digest(table) -> str:
    """Hash of the CSV data rows with the wall-clock ``seconds`` cells removed."""
    if table is None:
        return "missing"
    header, rows = table
    drop = header.index("seconds") if "seconds" in header else None
    body = "\n".join(",".join(c for i, c in enumerate(r) if i != drop) for r in rows)
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def checks(workload: Workload, run: dict, first_digest: str) -> tuple[list[bool], dict]:
    """Correctness checks of one child: its outputs, exit code and digest."""
    if run["table"] is None:
        passed, accuracy = [False], {}
    else:
        passed, accuracy = workload.check(*run["table"])
    passed.append(run["exit_code"] == 0)
    passed.append(run["digest"] == first_digest)
    return passed, accuracy


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mlmc_sde" / "cli.py").is_file():
        print(f"perfbench: no mlmc_sde sources under {SRC}", file=sys.stderr)
        return 2
    problems = reference.self_test()
    if problems:
        print("perfbench: reference self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cli_args = (*workload.args, "--seed", str(args.seed))
    start = time.monotonic()
    children = Children(start + HARD_LIMIT_S, workload.csv)
    try:
        probes = [children.run((), False) for _ in range(SETUP_PROBES)]
        if any(p["exit_code"] != 0 for p in probes):
            print("perfbench: mlmc_sde.cli does not import:\n" + probes[0].get("stderr", ""),
                  file=sys.stderr)
            return 2
        plain, traced, serial = [], [], []
        while len(plain) < MIN_RUNS or time.monotonic() - start < args.seconds:
            if time.monotonic() - start > HARD_LIMIT_S / 2:
                break  # another round could overrun the time limit
            plain.append(children.run(cli_args, False))
            if args.trace:
                traced.append(children.run(cli_args, True))
                if workload.serial_args is not None:
                    serial_args = (*workload.serial_args, "--seed", str(args.seed))
                    serial.append(children.run(serial_args, True))
    finally:
        children.close()

    runs = plain + traced + serial
    for run in runs:
        run["digest"] = digest(run["table"])
    first = runs[0]["digest"]
    attempted = failed = 0
    accuracy: dict[str, list[float]] = {}
    for i, run in enumerate(runs):
        passed, acc = checks(workload, run, first)
        attempted += len(passed)
        failed += passed.count(False)
        for key, value in acc.items():
            accuracy.setdefault(key, []).append(value)
        print(f"child {i}: wall {run['wall_s']:.3f} s exit {run['exit_code']} "
              f"digest {run['digest']} checks {passed.count(True)}/{len(passed)}",
              file=sys.stderr)
        if "stderr" in run:
            print(run["stderr"], file=sys.stderr)
    stored = json.loads((HERE / "digests.json").read_text()).get(args.workload, {})
    expected = stored.get(str(args.seed))
    mismatched = sum(r["digest"] != expected for r in runs) if expected else 0
    print(f"digest {args.workload} seed={args.seed} {first} stored={expected or 'none'}",
          file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(plain, traced, serial, accuracy, mismatched)
    else:
        metrics = end_to_end_metrics(plain, [p["setup_s"] for p in probes])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "run_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


def run_seconds(run: dict) -> float:
    """The estimator phase: run.csv's seconds column, or the whole command
    when it writes none (oracle-check is all sampling)."""
    if run["table"] is not None and "seconds" in run["table"][0]:
        header, rows = run["table"]
        col = header.index("seconds")
        return sum(float(r[col]) for r in rows)
    return run.get("main_s", 0.0)


def end_to_end_metrics(runs, probe_setups) -> dict:
    values = {
        "wall_s": median([r["wall_s"] for r in runs]),
        "setup_s": median(probe_setups + [r["setup_s"] for r in runs if "setup_s" in r]),
        "run_s": median([run_seconds(r) for r in runs]),
        "cpu_s": median([r["cpu_s"] for r in runs]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


LAYER_UNITS = {
    "paths.draw_s": "s", "paths.ns_per_variate": "ns",
    "models.flow_s": "s", "models.coef_s": "s",
    "schemes.nv_step_s": "s", "schemes.nv_ns_per_sample_step": "ns",
    "schemes.gs_step_s": "s", "schemes.gs_ns_per_sample_step": "ns",
    "schemes.simulate_path_self_s": "s", "schemes.sample_level_self_s": "s",
    "schemes.sample_many_self_s": "s", "schemes.blocks": "count",
    "schemes.pool_starts": "count", "schemes.pool_wait_s": "s",
    "schemes.pool_speedup": "x",
    "phase.pilot_s": "s", "phase.plan_s": "s", "phase.run_s": "s",
    "calibrate.pilot_units": "units", "calibrate.dup_unit_frac": "frac",
    "estimators.run_ns_per_unit": "ns",
    "oracle.max_err_eps": "eps", "oracle.max_abs_z": "z",
    "cli.setup_s": "s", "cli.write_csv_s": "s",
    "trace.overhead_frac": "frac", "digest.stored_mismatch": "count",
}


def layer_metrics(plain, traced, serial, accuracy, mismatched) -> dict:
    """Medians over the traced children; kernel figures of a pooled workload
    come from its serial children."""
    def layer(runs, key):
        return median([r["layers"][key] for r in runs if "layers" in r])

    values = {}
    for key in {k for r in traced for k in r.get("layers", {})}:
        source = serial if serial and key.startswith(KERNEL_PREFIXES) else traced
        values[key] = layer(source, key)
    pooled = values.pop("schemes.sample_many_s", 0.0)
    values["schemes.pool_speedup"] = (
        layer(serial, "schemes.sample_many_s") / pooled if serial and pooled else 0.0)
    for key in ("oracle.max_err_eps", "oracle.max_abs_z"):
        values[key] = max(accuracy.get(key, [0.0]))
    values["cli.setup_s"] = median([r["setup_s"] for r in traced if "setup_s" in r])
    values["trace.overhead_frac"] = (median([r["wall_s"] for r in traced])
                                     / median([r["wall_s"] for r in plain]) - 1.0)
    values["digest.stored_mismatch"] = mismatched
    return {k: {"value": values.get(k, 0.0), "unit": u} for k, u in LAYER_UNITS.items()}


if __name__ == "__main__":
    sys.exit(main())
