"""Every benchmark pool result, the search results and a fixed list of CLI outputs, against one
committed digest.

The ``curved`` (4,000) and ``polygon`` (3,000) pools come from ``perfbench/workloads.py``,
which is read, never changed, here. Each request's line is the ``repr`` of its fundamental
measure, or its exception's type and message. Each CLI call's line is its exit code and the
SHA-256 of its stdout. The ``suites`` section holds every report line of ``run_suite("all",
seed)`` for seeds 0-19 and the ``repr`` of ``minimize_2d`` for both two-parameter families at
three tolerances. It calls them directly, not through the benchmark's ``search`` pool, so a
change to that pool does not move it. The ``search`` section holds the ``minimize_1d`` and
``scan`` tasks of that pool (1,000 tasks): a minimum as its ``repr``, a scan as the SHA-256 of
its values' reprs. ``golden/result_digest.json`` holds one SHA-256 per section and the lines
themselves, so a change that claims the same results shows the same digests, and a change that
moves results on purpose shows in the file's diff which requests moved and by how much. On a
mismatch the test names every moved request, with its relative move where only numbers moved.
Regenerate the file on purpose only, from the root of the repository:

    PYTHONPATH=src python tests/test_result_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import pathlib
import re
import sys

import unitshapes
from unitshapes import cli, shape_from_json, unitize
from unitshapes.cli import FORMATS
from unitshapes.optimize import minimize_2d
from unitshapes.verify import run_suite

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
DIGEST = GOLDEN / "result_digest.json"
POOL_SIZES = {"curved": 4000, "polygon": 3000, "search": 1000}  # the benchmark's pool sizes
SUITE_SEEDS = range(20)
MINIMIZE_TOLS = (1e-7, 3e-8, 1e-8)

# Every subcommand in every format it takes, and the seeded ``verify --suite all`` runs.
CLI_CALLS = (
    *(("catalog", "--format", fmt) for fmt in FORMATS),
    ("catalog", "--family", "parallelogram", "--theta", "1", "--r", "2", "--format", "json"),
    *(("unitize", "--family", "ellipse", "--r", "0.3", "--format", fmt) for fmt in FORMATS),
    ("unitize", "--family", "regular_polygon", "--m", "7", "--scale", "3"),
    *(("unitize", "--input", f"GOLDEN/{name}.json", "--format", fmt)
      for name in ("half_ellipse", "quarter_ellipse", "parabolic_cap", "polyline_cw")
      for fmt in ("json", "csv")),
    *(("minimize", "--family", family, "--format", fmt)
      for family in ("parallelogram", "triangle") for fmt in FORMATS),
    *(("minimize", "--family", "ellipse", "--format", fmt) for fmt in FORMATS),
    ("minimize", "--family", "rhombus", "--lo", "0.5", "--hi", "2.5", "--format", "csv"),
    *(("scan", "--family", "rectangle", "--quantity", "Pi", "--lo", "0.1", "--hi", "2", "--n", "50",
       "--format", fmt) for fmt in FORMATS),
    ("scan", "--family", "ellipse", "--quantity", "a", "--lo", "0.05", "--hi", "0.95", "--n", "20",
     "--format", "json"),
    ("scan", "--family", "rhombus", "--quantity", "h", "--lo", "0.5", "--hi", "2.5", "--n", "21",
     "--format", "csv"),
    ("scan", "--family", "rectangle", "--quantity", "a", "--lo", "0.1", "--hi", "0.9"),  # exit 2
    *(("verify", "--suite", "all", "--seed", str(seed)) for seed in (0, 7)),
    ("verify", "--suite", "mgon", "--seed", "3", "--format", "pretty"),
    *(("solids", "--format", fmt) for fmt in FORMATS),
)


def _measure_line(payload: str) -> str:
    try:
        return repr(unitize(shape_from_json(payload)).fundamental_measure)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _cli_line(argv: tuple[str, ...]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run([arg.replace("GOLDEN/", f"{GOLDEN}/") for arg in argv])
    return f"exit {code} stdout {hashlib.sha256(out.getvalue().encode()).hexdigest()}"


def _search_line(workloads, task: tuple) -> str:
    result = workloads.run_task(unitshapes, task)
    if task[0] == "scan":
        return digest(list(map(repr, result.values)))
    return repr(result)


def sections() -> dict[str, list[tuple[str, str]]]:
    """Each section's (request, line) pairs: the pools', the CLI calls' and the search results'."""
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(HERE.parent / "perfbench"))
    out = {}
    for name in ("curved", "polygon"):
        requests = getattr(workloads, name)(POOL_SIZES[name])
        out[name] = [(f"{name}[{i}] {req.kind}: {req.payload[:120]}", _measure_line(req.payload))
                     for i, req in enumerate(requests)]
    out["cli"] = [(" ".join(argv), _cli_line(argv)) for argv in CLI_CALLS]
    out["suites"] = [
        *((f"run_suite('all', {seed})[{i}] {report.claim}", report.to_json_line())
          for seed in SUITE_SEEDS for i, report in enumerate(run_suite("all", seed))),
        *((f"minimize_2d({family!r}, tol={tol})", repr(minimize_2d(family, tol=tol)))
          for family in ("triangle", "parallelogram") for tol in MINIMIZE_TOLS),
    ]
    out["search"] = [(f"search[{i}] {req.payload!r}", _search_line(workloads, req.payload))
                     for i, req in enumerate(workloads.search(POOL_SIZES["search"]))
                     if req.payload[0] in ("minimize_1d", "scan")]
    return out


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# A number as ``repr`` writes a float or an int, standing apart from words and other numbers.
_NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*(?:e[+-]?\d+)?|inf|nan)(?![\w.])")


def relative_move(old: str, new: str) -> float | None:
    """The largest relative move between the numbers of two lines, or None where more than
    their numbers differ (a hash, a message or the count of numbers)."""
    if _NUMBER.sub("#", old) != _NUMBER.sub("#", new):
        return None
    move = 0.0
    for a, b in zip(map(float, _NUMBER.findall(old)), map(float, _NUMBER.findall(new))):
        if a != b:
            step = abs(b - a) / abs(a) if a else abs(b)
            move = max(move, step if not math.isnan(step) else math.inf)
    return move


def test_results_match_the_committed_digest():
    committed = json.loads(DIGEST.read_text())
    moved = []
    for name, pairs in sections().items():
        lines = [line for _, line in pairs]
        if digest(lines) == committed["sha256"][name]:
            continue
        expected = committed[name]
        if len(expected) != len(lines) or digest(expected) != committed["sha256"][name]:
            moved.append(f"{name}: {len(lines)} results against {len(expected)} committed, or a "
                         f"digest that is not the hash of the committed lines")
        for (request, line), old in zip(pairs, expected):
            if line != old:
                move = relative_move(old, line)
                moved.append(f"{request}\n  committed: {old}\n  now:       {line}\n  relative "
                             f"move: {'not numeric' if move is None else f'{move:.3e}'}")
    assert not moved, f"{len(moved)} moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    found = {name: [line for _, line in pairs] for name, pairs in sections().items()}
    DIGEST.write_text(json.dumps({"sha256": {name: digest(lines) for name, lines in found.items()},
                                  **found}, indent=0) + "\n")
    print(json.dumps({name: digest(lines) for name, lines in found.items()}, indent=1))
