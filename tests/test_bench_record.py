import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def bench_file(path, workloads):
    metric = {"unit": "s", "median": 1.0, "iqr": 0.1, "values": [1.0]}
    path.write_text(json.dumps({"rev": path.stem * 7, "workloads": {
        name: {"failed_checks": 0, "end_to_end": {m: metric for m in metrics},
               "per_layer": {}}
        for name, metrics in workloads.items()}}))
    return path


def test_compare_prints_what_one_side_lacks(tmp_path, capsys):
    old = bench_file(tmp_path / "a.json", {"both": ["wall_s", "gone_s"], "old-only": ["wall_s"]})
    new = bench_file(tmp_path / "b.json", {"both": ["wall_s", "added_s"], "new-only": ["wall_s"]})
    bench_record.compare(old, new)
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["old-only:", "missing", "in", "NEW"] in lines
    assert ["new-only:", "missing", "in", "OLD"] in lines
    assert ["gone_s", "missing", "in", "NEW"] in lines
    assert ["added_s", "missing", "in", "OLD"] in lines
    assert [line[0] for line in lines if line[0].endswith("_s")] == ["wall_s", "gone_s",
                                                                     "added_s"]


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    package = tmp_path / "src" / "mlmc_sde"
    package.mkdir(parents=True)
    (package / "a.py").write_text('''"""Module docstring
over two lines."""

# a comment line
import os  # a trailing comment counts as code


class A:
    """Class docstring."""

    x = """a string that is
not a docstring"""

    def f(self):
        """Function
        docstring."""
        return (1,
                2)
''')
    (package / "b.py").write_text("\n\n# only comments\n")
    (tmp_path / "src" / "other.py").write_text("print(1)\n")  # outside the package
    assert bench_record._src_lines(tmp_path) == 21
    # import, class, the two lines of x, def, and the two lines of the return
    assert bench_record._src_code_lines(tmp_path) == 7
    assert bench_record._src_code_lines_by_module(tmp_path) == {"a.py": 7, "b.py": 0}


def test_compare_prints_code_lines_per_module(tmp_path, capsys):
    def recorded(path, by_module):
        data = json.loads(bench_file(path, {}).read_text())
        if by_module is not None:
            data["src_code_lines_by_module"] = by_module
        path.write_text(json.dumps(data))
        return path

    older = recorded(tmp_path / "a.json", None)
    old = recorded(tmp_path / "b.json", {"cli.py": 351, "gone.py": 3})
    new = recorded(tmp_path / "c.json", {"cli.py": 346, "new.py": 5})
    bench_record.compare(older, old)
    bench_record.compare(old, new)
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["cli.py", "not", "recorded", "->", "351"] in lines
    assert ["cli.py", "351", "->", "346"] in lines
    assert ["gone.py", "3", "->", "missing"] in lines
    assert ["new.py", "missing", "->", "5"] in lines
