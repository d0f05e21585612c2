"""README's table of benchmark numbers against the committed benchmark file it names.

README's "Performance" section names one ``BENCH_<n>.json`` at the repository root and prints
its numbers in one table. Each printed number must be the file's value rounded to the
decimals README prints, so the table cannot drift from the file. And every construction that
skips a constructor's checks must have its measured cost in README's "Measured dead ends and
kept costs".
"""

import ast
import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = {"cli", "curved", "polygon", "search"}
# README's column heading -> where its value sits in a workload's result line.
COLUMNS = {
    "p50 (ms)": ("metrics", "latency_p50_ms"),
    "tail (ms)": ("metrics", "latency_tail_ms"),
    "CPU per result (ms)": ("metrics", "cpu_ms_per_result"),
    "goodput (/s)": ("metrics", "goodput_per_s"),
    "set-up (s)": ("metrics", "setup_s"),
    "correct": ("metrics", "correct_frac"),
    "peak RSS (MB)": ("metrics", "peak_rss_mb"),
    "attempted": ("attempted",),
    "failed": ("failed",),
}


def _kept_costs_section() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    heading = r"^### Measured dead ends and kept costs\n(.*?)^## "
    return re.search(heading, readme, re.M | re.S).group(1)


def _new_callers(tree: ast.AST, scope: str = "") -> list[str]:
    """The qualified name (Class.function) of each function that calls ``X.__new__(...)``."""
    callers = []
    for node in ast.iter_child_nodes(tree):
        name = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__new__"):
            callers.append(scope)
        callers += _new_callers(node, name)
    return callers


def test_every_unchecked_construction_has_its_measured_cost_in_readme():
    # X.__new__ builds an object without its constructor's checks: each function that does so
    # is one more construction path, kept only with the cost that rebuilding through the
    # constructor was measured to add.
    sample = "class A:\n    def f(self):\n        return [A.__new__(A)]\n\ndef g():\n    pass\n"
    assert _new_callers(ast.parse(sample)) == ["A.f"]
    section = _kept_costs_section()
    callers = {caller for path in sorted((ROOT / "src" / "unitshapes").glob("*.py"))
               for caller in _new_callers(ast.parse(path.read_text(encoding="utf-8")))}
    for caller in sorted(callers):
        assert f"`{caller}`" in section, caller


def _performance_section() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"^## Performance\n(.*?)^## ", readme, re.M | re.S).group(1)


def _table(section: str) -> list[list[str]]:
    """The first Markdown table of the section, as rows of stripped cells, heading first."""
    lines = re.search(r"^(\|.*\|\n)+", section, re.M).group(0).splitlines()
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    return [rows[0]] + rows[2:]  # without the |---| rule


def _value(result: dict, path: tuple[str, ...]) -> float:
    value = result[path[0]]
    return value[path[1]]["value"] if len(path) > 1 else value


def test_readme_table_is_the_committed_benchmark_file():
    section = _performance_section()
    names = set(re.findall(r"BENCH_\d+\.json", section))
    assert len(names) == 1, names
    bench = json.loads((ROOT / names.pop()).read_text(encoding="utf-8"))
    assert set(bench["workloads"]) == WORKLOADS
    for run in bench["workloads"].values():
        assert run["machine"]["nproc"] >= 1
        assert run["result"]["correct"] is True

    heading, *rows = _table(section)
    assert heading == ["workload", *COLUMNS]
    assert {row[0].strip("`") for row in rows} == WORKLOADS
    for row in rows:
        assert len(row) == len(heading), row
        result = bench["workloads"][row[0].strip("`")]["result"]
        for name, cell in zip(heading[1:], row[1:]):
            decimals = len(cell.partition(".")[2])
            expected = _value(result, COLUMNS[name])
            assert float(cell) == round(expected, decimals), (row[0], name, cell, expected)
