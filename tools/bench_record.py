"""Record the benchmark of one checkout into BENCH_<short rev>.json, or compare two.

Usage (from anywhere):

    python3 tools/bench_record.py record [--root CHECKOUT]
    python3 tools/bench_record.py compare OLD.json NEW.json

``record`` runs ``perfbench/run.py`` of the checkout (default: this one) for
every workload at seeds 1-3, once with ``--trace 0`` (end-to-end metrics)
and once with ``--trace 1`` (per-layer metrics), and writes
``bench/BENCH_<short rev>.json`` in this repository.  It also runs the Tier-1
suite of the checkout once.  The file holds the git rev, the machine (nproc,
CPU model, Python and numpy versions), the median and interquartile range
over the seeds of each metric with its per-seed values, the failed-check
counts, the Tier-1 wall time with its pass/fail counts and the own time
of acceptance criterion 3 (the longest test, read from ``--durations``), and
``src_lines``, the ``wc -l`` total of ``src/mlmc_sde/*.py``, with
``src_code_lines``, those of its lines that are neither blank, nor only a
comment, nor in a docstring, with ``src_code_lines_by_module`` splitting
that count by file.  ``compare`` prints the Tier-1 results and both line
counts of both files, each module's code lines in OLD and NEW, then each
median of NEW beside OLD's, with the ratio and OLD's relative spread; a
workload or metric found in only one file is printed as missing in the
other.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
import tokenize
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / "bench"
SEEDS = (1, 2, 3)
SECONDS = 5.0  # perfbench --seconds per invocation; it runs at least 2 children
# the Tier-1 command of ROADMAP.md, run from the checkout's root with its src/ on
# PYTHONPATH; --durations=0 lists each test's own time
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=0")
CRITERION_3 = "tests/test_acceptance.py::test_criterion_03_oracle_equivalence"
TIER1_OUTCOMES = ("passed", "failed", "error", "skipped", "xfailed", "xpassed")
# tokens that make no line code; comments, blank lines and indentation
NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER)
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
NOTE = ("Recorded on a shared 2-core virtual machine whose CPU speed drifts by up to "
        "+-15% over minutes: a ratio between two files inside that band is noise unless "
        "alternating pairs of runs confirm it, and pool speedup cannot exceed 2.")


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _bench(root: Path, workload: str, seed: int, trace: int) -> dict:
    """The JSON result line of one perfbench invocation in the checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    print(f"bench_record: {' '.join(cmd[1:])}", file=sys.stderr)
    done = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _tier1(root: Path) -> dict:
    """Wall time, exit code and outcome counts of one Tier-1 run in the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(root / "src"),
                                                      env.get("PYTHONPATH"))))
    print(f"bench_record: PYTHONPATH=src python {' '.join(TIER1)}", file=sys.stderr)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=root, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    summary = lines[-1].strip("= ") if lines else ""
    # "1 error" and "2 errors" both count as error
    counts = {word: int(n) for n, word in
              re.findall(rf"(\d+) ({'|'.join(TIER1_OUTCOMES)})", summary)}
    criterion_3 = re.search(rf"([\d.]+)s call +{re.escape(CRITERION_3)}$", done.stdout, re.M)
    return {"command": "PYTHONPATH=src python " + " ".join(TIER1), "wall_s": wall,
            "criterion_03_s": float(criterion_3[1]) if criterion_3 else None,
            "exit_code": done.returncode, "summary": summary,
            **{k: counts.get(k, 0) for k in TIER1_OUTCOMES}}


def _src_lines(root: Path) -> int:
    """Newlines in the package's modules, as ``wc -l src/mlmc_sde/*.py`` totals them."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "mlmc_sde").glob("*.py"))


def _src_code_lines(root: Path) -> int:
    return sum(_src_code_lines_by_module(root).values())


def _src_code_lines_by_module(root: Path) -> dict[str, int]:
    """Lines of each of the package's modules that hold code: not blank, not
    only a comment, and not in a module, class or function docstring."""
    counts = {}
    for path in sorted((root / "src" / "mlmc_sde").glob("*.py")):
        text = path.read_text()
        code = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                code.difference_update(range(doc.lineno, doc.end_lineno + 1))
        counts[path.name] = len(code)
    return counts


def _tier1_line(run: dict | None) -> str:
    if run is None:
        return "not recorded"
    line = (f"{run['passed']} passed, {run['failed']} failed, {run['error']} errors "
            f"in {run['wall_s']:.1f} s (exit {run['exit_code']})")
    if run.get("criterion_03_s") is not None:
        line += f", criterion 3 {run['criterion_03_s']:.1f} s"
    return line


def _summary(values: list[float], unit: str) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"unit": unit, "median": statistics.median(values), "iqr": q3 - q1,
            "values": values}


def _summaries(results: list[dict]) -> dict:
    names = sorted({k for r in results for k in r["metrics"]})
    return {k: _summary([r["metrics"][k]["value"] for r in results],
                        results[0]["metrics"][k]["unit"]) for k in names}


def record(root: Path) -> Path:
    root = root.resolve()
    workloads = json.loads((root / "BENCHMARK.json").read_text())["workloads"]
    rev = _git(root, "rev-parse", "--short", "HEAD")
    out = {
        "rev": _git(root, "rev-parse", "HEAD"),
        "dirty": bool(_git(root, "status", "--porcelain", "--untracked-files=no")),
        "machine": {"nproc": os.cpu_count(), "cpu": _cpu_model(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "note": NOTE,
        "seeds": SEEDS,
        "seconds": SECONDS,
        "workloads": {},
        "tier1": _tier1(root),
        "src_lines": _src_lines(root),
        "src_code_lines": _src_code_lines(root),
        "src_code_lines_by_module": _src_code_lines_by_module(root),
    }
    for workload in (w["name"] for w in workloads):
        plain, traced = [], []
        for seed in SEEDS:
            plain.append(_bench(root, workload, seed, 0))
            traced.append(_bench(root, workload, seed, 1))
        runs = plain + traced
        out["workloads"][workload] = {
            "end_to_end": _summaries(plain),
            "per_layer": _summaries(traced),
            "attempted_checks": sum(r["attempted"] for r in runs),
            "failed_checks": sum(r["failed"] for r in runs),
        }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{rev}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    return path


def _union(a: dict, b: dict) -> list:
    """The keys of a, then those only in b, each in its own order."""
    return [*a, *(k for k in b if k not in a)]


def compare(old_path: Path, new_path: Path) -> None:
    old, new = (json.loads(p.read_text()) for p in (old_path, new_path))
    print(f"# {old['rev'][:7]} -> {new['rev'][:7]}")
    print(f"tier-1: {_tier1_line(old.get('tier1'))} -> {_tier1_line(new.get('tier1'))}; "
          f"src lines {old.get('src_lines', 'not recorded')} -> "
          f"{new.get('src_lines', 'not recorded')}, code lines "
          f"{old.get('src_code_lines', 'not recorded')} -> "
          f"{new.get('src_code_lines', 'not recorded')}")
    modules = [old.get("src_code_lines_by_module"), new.get("src_code_lines_by_module")]
    print("# code lines per module, old -> new")
    for name in _union(*(m or {} for m in modules)):
        old_n, new_n = ("not recorded" if m is None else m.get(name, "missing")
                        for m in modules)
        print(f"  {name:36s} {old_n} -> {new_n}")
    print("# medians, new / old, (old IQR / old median)")
    for workload in _union(old["workloads"], new["workloads"]):
        a, b = old["workloads"].get(workload), new["workloads"].get(workload)
        if a is None or b is None:
            print(f"{workload}: missing in {'OLD' if a is None else 'NEW'}")
            continue
        print(f"{workload}: failed checks {a['failed_checks']} -> {b['failed_checks']}")
        for kind in ("end_to_end", "per_layer"):
            for name in _union(a[kind], b[kind]):
                x, y = a[kind].get(name), b[kind].get(name)
                if x is None or y is None:
                    print(f"  {name:36s} missing in {'OLD' if x is None else 'NEW'}")
                    continue
                ratio = y["median"] / x["median"] if x["median"] else float("nan")
                spread = x["iqr"] / x["median"] if x["median"] else float("nan")
                print(f"  {name:36s} {x['median']:12.4g} -> {y['median']:12.4g} {x['unit']:5s}"
                      f" x{ratio:6.3f}  ({spread:.3f})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("--root", type=Path, default=HERE.parent,
                     help="checkout to measure (default: this one)")
    cmp = sub.add_parser("compare")
    cmp.add_argument("old", type=Path)
    cmp.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.command == "record":
        print(record(args.root))
    else:
        compare(args.old, args.new)
    return 0


if __name__ == "__main__":
    sys.exit(main())
