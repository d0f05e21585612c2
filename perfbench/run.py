#!/usr/bin/env python3
"""Benchmark of unitshapes: one seeded workload per run, end to end or traced.

Run from the root of a unitshapes checkout:

    python3 perfbench/run.py --workload curved --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one client, one process; see BENCHMARK.json):
  cli      a fresh interpreter per request that runs ``unitshapes.cli`` as
           ``-m`` does, cycling through every subcommand
  curved   shape JSON -> shape_from_json -> unitize -> fundamental measure,
           elliptical, parabolic, circular and rational arcs
  polygon  the same pipeline on star-shaped polylines of 3..256 vertices
  search   minimize_1d / minimize_2d / scan / run_suite / solids_table tasks

Shapes in curved and polygon get a random rotation and mirror, a scale
log-uniform over 1e-12..1e12 and a shift of up to min(1e6, 1e3 * size).
Their pools and the search pool are the same for every seed, and the seed
sets the order in which a run issues them; the cli pool is drawn from the
seed.
An in-process run goes over its pool at least once; a cli run, whose pool
outlasts it, ends on a whole cycle of subcommands. Every result is checked against ``refs``; failures (exceptions, wrong
answers, timeouts) are counted, never re-drawn.

``--trace 0`` prints the end-to-end metrics, timed ones in reference
seconds (see ``speed``): each in-process slice of requests, CLI process and
set-up child is scaled by the speed of a fixed kernel sampled right before
and after it, in the same process. ``--trace 1`` alternates
untraced and traced passes over a fixed prefix of the requests and prints
per-layer metrics from spans recorded around each layer's public functions.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``correct`` is false when the references fail
their self-check or (traced) a count differs between passes. ``attempted``
counts the distinct requests issued and ``failed`` those of them whose result
was wrong, whose call raised or timed out, or whose outcome changed on a
repeat.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refs  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SRC = Path.cwd() / "src"
OUT = HERE / "out"
SETUP_RUNS = 7
SAMPLE_S = 0.03  # length of one speed sample between in-process slices
CHILD_SAMPLE_S = 0.05  # length of each speed sample in a child, before and after its work
SLICE_S = 0.1  # in-process work between two speed samples
IMPORTTIME_RUNS = 3
REQUEST_TIMEOUT_S = 10.0  # in-process; ordinary requests take at most ~0.1 s
CLI_TIMEOUT_S = 60.0  # a CLI request takes about 1 s
SEARCH_CYCLE, CLI_CYCLE = len(workloads.SEARCH_CYCLE), len(workloads.CLI_CYCLE)
POOL = {"curved": 4000, "polygon": 3000, "search": 50 * SEARCH_CYCLE, "cli": 4 * CLI_CYCLE}
# The cli workload has about 25 samples a run: p90 is its highest percentile
# with a few samples above it.
TAIL_PERCENTILE = {"curved": 99, "polygon": 99, "search": 99, "cli": 90}
FIXED_POOLS = ("curved", "polygon", "search")  # the same requests for every seed, issued in a seeded order
TRACE_PREFIX = {"curved": 200, "polygon": 200, "search": 2 * SEARCH_CYCLE, "cli": CLI_CYCLE}
IMPORTS = ("unitshapes", "unitshapes.solids", "scipy", "numpy", "click")
CLI_SUBCOMMANDS = ("catalog", "unitize", "minimize", "scan", "verify", "solids")
PIECE_KINDS = ("line_segment", "polyline", "circular_arc", "elliptical_arc", "parabolic_arc", "rational_point")

END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("goodput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_result", "ms"),
    ("correct_frac", "fraction"),
    ("peak_rss_mb", "MB"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric (name, unit), in BENCHMARK.json order."""
    names = [(f"cli.import.{m.rsplit('.', 1)[-1]}_ms", "ms") for m in IMPORTS]
    names += [(f"cli.{s}.work_ms", "ms") for s in CLI_SUBCOMMANDS]
    names += [("quadrature.adaptive_quadrature.calls", "count"),
              ("quadrature.adaptive_quadrature.evals", "count"),
              ("quadrature.adaptive_quadrature.self_ms", "ms")]
    for span in ("curves.shape_from_json", "curves.Shape", "curves.Shape.area",
                 "curves.Shape.perimeter", "curves.scaled", "unitize.unitize",
                 "catalog.fundamental_measure", "catalog.build_unit_shape",
                 "catalog.ellipse_semi_minor", "solids.solids_table", "solids.measures"):
        names += [(f"{span}.calls", "count"), (f"{span}.self_ms", "ms")]
    for kind in PIECE_KINDS:
        names += [(f"curves.{kind}.closed_form", "count"), (f"curves.{kind}.quadrature", "count")]
    names += [("optimize.objective_evals", "count"), ("optimize.iterations", "count")]
    names += [(f"optimize.{f}.total_ms", "ms") for f in ("minimize_1d", "minimize_2d", "scan")]
    names += [(f"verify.{s}.total_ms", "ms") for s in workloads.SUITES]
    names += [(f"bench.failed.{c}", "count") for c in workloads.CAUSES]
    names += [("bench.requests", "count"), ("bench.spans", "count"), ("bench.worst_rel_err", "ratio"),
              ("bench.goodput_untraced_per_s", "1/s"), ("bench.goodput_traced_per_s", "1/s"),
              ("bench.trace_slowdown", "ratio"), ("bench.counts_repeat", "count")]
    return names


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def machine_info() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version()}
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "?")
    for dist in ("click", "numpy", "scipy"):
        with contextlib.suppress(metadata.PackageNotFoundError):
            info[dist] = metadata.version(dist)
    return info


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# --- set-up time -------------------------------------------------------------

# A child samples its own speed right before and after its work and reports
# "t_pre start end post before after" (monotonic stamps, speed factors) on
# its last stderr line. Only ``speed`` and ``refs`` are loaded beforehand.
_CHILD_BEGIN = f"""import sys, time
t_pre = time.monotonic()
sys.path.append({str(HERE)!r})
import speed
before = speed.sample({CHILD_SAMPLE_S})
start = time.monotonic()
"""
_CHILD_END = f"""end = time.monotonic()
after = speed.sample({CHILD_SAMPLE_S})
sys.stderr.write("\\n" + " ".join(map(repr, (t_pre, start, end, time.monotonic(), before, after))) + "\\n")
"""
SETUP_CODE = _CHILD_BEGIN + "import unitshapes\n" + _CHILD_END + "print(unitshapes.__file__)\n"
# ``python -m unitshapes.cli`` run through runpy, as ``-m`` does, between the samples.
CLI_CODE = (_CHILD_BEGIN + "import runpy\ntry:\n"
            "    runpy.run_module('unitshapes.cli', run_name='__main__', alter_sys=True)\nfinally:\n"
            + "".join("    " + line + "\n" for line in _CHILD_END.splitlines()))


def child_report(stderr: str) -> tuple[str, list[float]]:
    """The child's own stderr, and its report (t_pre, start, end, post, before, after)."""
    own, _, last = stderr.rstrip().rpartition("\n")
    report = [float(x) for x in last.split()]
    if len(report) != 6:
        raise ValueError(f"no speed report in {last[-80:]!r}")
    return own, report


def setup_seconds() -> list[float]:
    """Fresh interpreter start to the end of ``import unitshapes``, in reference seconds."""
    times = []
    for _ in range(SETUP_RUNS):
        spawned = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(),
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True)
        path = proc.stdout.strip()
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"child imported unitshapes from {path}, not {SRC}")
        _, (t_pre, start, end, _, before, after) = child_report(proc.stderr)
        times.append((end - spawned - (start - t_pre)) * 0.5 * (before + after))
    return times


def import_times_ms() -> dict[str, float]:
    """Median import time per entry of IMPORTS, from ``-X importtime`` of the CLI module.

    Package modules report their cumulative time; a third-party distribution
    reports the self time summed over all its modules, since its submodules
    (``scipy.spatial``) are charged apart from the top-level package.
    """
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import unitshapes.cli"],
                              env=child_env(), capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True)
        ms: Counter = Counter()
        for line in proc.stderr.splitlines():
            fields = [part.strip() for part in line.removeprefix("import time:").split("|")]
            if len(fields) != 3 or not fields[0].isdigit():
                continue
            own, cumulative, name = int(fields[0]) / 1e3, int(fields[1]) / 1e3, fields[2]
            if name.startswith("unitshapes"):
                ms[name] = cumulative
            else:
                ms[name.split(".", 1)[0]] += own
        runs.append(ms)
    return {m: statistics.median(r[m] for r in runs) for m in IMPORTS}


# --- one request ---------------------------------------------------------------


class RequestTimeout(BaseException):
    """Raised in the main thread when one in-process request overruns its budget."""


class Alarm:
    """Per-request timeout: SIGALRM raises RequestTimeout only while armed."""

    def __init__(self) -> None:
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame) -> None:
        if self.armed:
            self.armed = False
            raise RequestTimeout()

    def run(self, fn, arg):
        """(output, cause) of fn(arg); cause is None when fn returned."""
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
        try:
            return fn(arg), None
        except RequestTimeout:
            return None, "timeout"
        except Exception as exc:  # the program failed this request: count it, keep running
            return exc, workloads.classify(exc)
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)


class Outcomes:
    """Latency, cause and error of each request issued so far.

    ``attempted`` and ``failed`` count distinct requests of the pool, so a
    request issued again is counted once. A request fails when its first
    issue fails, or when a later issue gives another outcome than the first.
    Latency percentiles are taken over requests, each at the mean of its correct
    issues, so a run that issues part of its pool again does not change the mix.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []  # seconds, correct issues only
        self._latency_of: dict[int, list[float]] = {}  # pool index -> latencies of its correct issues
        self.causes: Counter = Counter()  # failed requests by cause
        self.issued = 0
        self.worst_err = 0.0
        self.first_failures: list[str] = []
        self._first: dict[int, tuple] = {}  # pool index -> (cause, error) of its first issue
        self._changed: set[int] = set()

    def add(self, index: int, req, latency: float, cause: str | None, err: float | None, detail: str = "") -> None:
        """Record one issue of pool request ``index``; ``err`` is the relative error of a returned value."""
        self.issued += 1
        if err is not None and math.isfinite(err):
            self.worst_err = max(self.worst_err, err)
        if cause is None:
            self.latencies.append(latency)
            self._latency_of.setdefault(index, []).append(latency)
        outcome = (cause, repr(err))
        first = self._first.setdefault(index, outcome)
        if first is outcome:
            if cause is not None:
                self._fail(req, cause, detail)
        elif outcome != first and index not in self._changed:
            self._changed.add(index)
            if first[0] is None:  # correct before, now not: count the request as failed
                self._fail(req, cause or "other", f"outcome changed on a repeat: {detail}")

    def _fail(self, req, cause: str, detail: str) -> None:
        self.causes[cause] += 1
        if len(self.first_failures) < 5:
            self.first_failures.append(f"{req.kind}: {cause} {detail}".strip()[:160])

    def request_latencies(self) -> list[float]:
        """Mean latency of each request with a correct issue, in seconds."""
        return [statistics.fmean(v) for v in self._latency_of.values()]

    @property
    def attempted(self) -> int:
        return len(self._first)

    @property
    def failed(self) -> int:
        return sum(self.causes.values())


def _judge(workload: str, req, output, cause):
    """(cause, error, detail) of one in-process request."""
    if cause is not None:
        return cause, None, str(output or "")
    if workload == "search":
        cause, err = workloads.check_search(req, output)
    elif workload == "cli":
        cause, err = workloads.check_cli(req, *output)
    else:
        cause, err = workloads.check_measure(req, output)
    return cause, err, f"rel err {err:.2e}"


def in_process_call(workload: str, us):
    """The function one in-process request runs, looked up in the package at call time."""
    if workload == "search":
        return lambda req: workloads.run_task(us, req.payload)
    if workload == "cli":
        def cli_call(req):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = us.cli.run(list(req.payload))
            return code, out.getvalue(), err.getvalue()

        return cli_call
    return lambda req: us.unitize(us.shape_from_json(req.payload)).fundamental_measure


# --- end-to-end run ---------------------------------------------------------------


def run_in_process(workload: str, requests, seconds: float, us) -> tuple[Outcomes, float, float, list]:
    """Closed loop over the requests for ``seconds``, and at least once over all of them,
    in slices between speed samples.

    Returns the outcomes, the work and CPU time in reference seconds, and the speed factors.
    """
    call, alarm, out, pace = in_process_call(workload, us), Alarm(), Outcomes(), speed.Speed(SAMPLE_S)
    work = cpu = 0.0
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(requests) or time.perf_counter() < deadline:
        batch = []
        start, cpu0 = time.perf_counter(), time.process_time()
        while True:
            index = i % len(requests)
            req = requests[index]
            i += 1
            t0 = time.perf_counter()
            output, cause = alarm.run(call, req)
            t1 = time.perf_counter()
            batch.append((index, req, t1 - t0, output, cause))
            if t1 - start >= SLICE_S:
                break
        elapsed, cpu_s = time.perf_counter() - start, time.process_time() - cpu0
        factor = pace.factor()
        work += elapsed * factor
        cpu += cpu_s * factor
        for index, req, latency, output, cause in batch:
            out.add(index, req, latency * factor, *_judge(workload, req, output, cause))
    return out, work, cpu, pace.factors


def run_cli(requests, seconds: float) -> tuple[Outcomes, float, float, list]:
    """Closed loop of fresh CLI processes for ``seconds``, then to the end of the cycle of
    subcommands, so that every run has the same mix; CPU is the children's.

    Returns the outcomes, the work and CPU time in reference seconds, and the speed factors.
    """
    out, env = Outcomes(), child_env()
    work = cpu = 0.0
    factors = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i % CLI_CYCLE:
        index = i % len(requests)
        req = requests[index]
        i += 1
        spawned, cpu0 = time.monotonic(), children_cpu_s()
        try:
            proc = subprocess.run([sys.executable, "-c", CLI_CODE, *req.payload], env=env,
                                  capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            out.add(index, req, 0.0, "timeout", None)
            continue
        exited, cpu_s = time.monotonic(), children_cpu_s() - cpu0
        try:
            stderr, (t_pre, start, end, post, before, after) = child_report(proc.stderr)
        except ValueError:  # the child died before reporting: count it, without a time
            out.add(index, req, 0.0, "other", None, proc.stderr.strip()[-120:])
            continue
        sampling = (start - t_pre) + (post - end)
        elapsed, factor = exited - spawned - sampling, 0.5 * (before + after)
        factors.append(factor)
        work += elapsed * factor
        cpu += (cpu_s - sampling) * factor  # sampling is pure CPU work
        out.add(index, req, elapsed * factor, *workloads.check_cli(req, proc.returncode, proc.stdout, stderr),
                stderr.strip()[-120:])
    return out, work, cpu, factors


def end_to_end(workload: str, requests, seconds: float) -> tuple[Outcomes, dict, dict]:
    setup = setup_seconds()
    if workload == "cli":
        out, wall, cpu, factors = run_cli(requests, seconds)
        rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    else:
        us = import_program()
        out, wall, cpu, factors = run_in_process(workload, requests, seconds, us)
        rss = peak_rss_mb(resource.RUSAGE_SELF)
    good = len(out.latencies)
    ms = [x * 1e3 for x in out.request_latencies()]
    tail = TAIL_PERCENTILE[workload]
    values = {
        "setup_s": statistics.median(setup),
        "goodput_per_s": good / wall if wall else 0.0,
        "latency_p50_ms": quantile(ms, 50),
        "latency_tail_ms": quantile(ms, tail),
        "cpu_ms_per_result": cpu * 1e3 / max(good, 1),
        "correct_frac": 1.0 - out.failed / out.attempted,
        "peak_rss_mb": rss,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "goodput_per_s": f"{good} correct in {wall:.2f} reference s;"
                         f" machine speed {statistics.fmean(factors or [0.0]):.3f} of reference",
        "latency_p50_ms": f"n={len(ms)} requests, {len(ms) - int(0.50 * len(ms))} above",
        "latency_tail_ms": f"p{tail}: n={len(ms)} requests, {len(ms) - int(tail / 100 * len(ms))} above",
        "cpu_ms_per_result": "children's CPU" if workload == "cli" else "this process's CPU",
        "correct_frac": f"failed_frac {out.failed / out.attempted:.4f} of {out.attempted} requests,"
                        f" issued {out.issued} times",
        "peak_rss_mb": "largest child" if workload == "cli" else "this process",
    }
    return out, values, notes


# --- traced run ---------------------------------------------------------------


def run_pass(workload: str, prefix, us, tracer=None) -> tuple[Outcomes, float, Counter]:
    """One pass over the prefix; returns outcomes, wall seconds and ms per CLI subcommand."""
    call, alarm, out = in_process_call(workload, us), Alarm(), Outcomes()
    work_ms: Counter = Counter()
    start = time.perf_counter()
    for index, req in enumerate(prefix):
        fn = call
        if tracer is not None:
            tracer.request = index
            if workload == "cli":
                fn = tracer.span(f"cli.{req.payload[0]}", call)
        t0 = time.perf_counter()
        output, cause = alarm.run(fn, req)
        latency = time.perf_counter() - t0
        if workload == "cli":
            work_ms[req.payload[0]] += latency * 1e3
        out.add(index, req, latency, *_judge(workload, req, output, cause))
    return out, time.perf_counter() - start, work_ms


def traced(workload: str, requests, seconds: float, seed: int) -> tuple[Outcomes, dict, dict, bool]:
    import tracer as tracing

    imports = import_times_ms()
    us = import_program()
    prefix = requests[: TRACE_PREFIX[workload]]
    plain, traced_passes = [], []
    deadline = time.perf_counter() + seconds
    while not traced_passes or time.perf_counter() < deadline:
        plain.append(run_pass(workload, prefix, us))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_passes.append((tracer, run_pass(workload, prefix, us, tracer)))
        finally:
            tracer.uninstall()

    first, (first_out, _, _) = traced_passes[0]
    counts = first.deterministic_counts()
    repeat = all(t.deterministic_counts() == counts and o.causes == first_out.causes
                 for t, (o, _, _) in traced_passes)
    OUT.mkdir(exist_ok=True)
    first.write(str(OUT / f"spans-{workload}-{seed}.jsonl"))

    def med(get) -> float:
        return statistics.median(get(t) for t, _ in traced_passes)

    values = {f"cli.import.{m.rsplit('.', 1)[-1]}_ms": v for m, v in imports.items()}
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.{sub}.work_ms"] = statistics.median(w[sub] for _, _, w in plain)
    for name, unit in per_layer_names():
        if name in values or name.startswith("bench."):
            continue
        if name.endswith(".self_ms"):
            values[name] = med(lambda t: t.self_s[name[: -len(".self_ms")]] * 1e3)
        elif name.endswith(".total_ms"):
            values[name] = med(lambda t: t.total_s[name[: -len(".total_ms")]] * 1e3)
        else:
            values[name] = counts.get(name, 0)
    plain_wall = statistics.median(wall for _, wall, _ in plain)
    traced_wall = statistics.median(wall for _, (_, wall, _) in traced_passes)
    good = len(first_out.latencies)
    values.update({f"bench.failed.{c}": first_out.causes[c] for c in workloads.CAUSES})
    values.update({
        "bench.requests": len(prefix),
        "bench.spans": len(first.spans),
        "bench.worst_rel_err": first_out.worst_err,
        "bench.goodput_untraced_per_s": good / plain_wall,
        "bench.goodput_traced_per_s": good / traced_wall,
        "bench.trace_slowdown": traced_wall / plain_wall,
        "bench.counts_repeat": int(repeat),
    })
    notes = {"bench.trace_slowdown": f"{len(plain)} untraced and {len(traced_passes)} traced passes"}
    return first_out, values, notes, repeat


# --- main -------------------------------------------------------------------------


def import_program():
    sys.path.insert(0, str(SRC))
    import unitshapes
    import unitshapes.cli  # noqa: F401  (the cli workload's traced passes call it)

    if not Path(unitshapes.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported unitshapes from {unitshapes.__file__}, not {SRC}")
    return unitshapes


def build_pool(workload: str, seed: int) -> list:
    """The workload's requests in pool order; the traced run takes its prefix from here."""
    if workload == "cli":
        input_dir = OUT / f"cli-{seed}"
        input_dir.mkdir(parents=True, exist_ok=True)
        return workloads.cli(seed, POOL["cli"], str(input_dir))
    return getattr(workloads, workload)(POOL[workload])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(POOL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "unitshapes" / "__init__.py").is_file():
        print(f"error: {SRC / 'unitshapes'} not found; run from the root of a unitshapes checkout",
              file=sys.stderr)
        return 2

    problems = refs.self_check()
    for problem in problems:
        print(f"reference self-check failed: {problem}")
    pool = build_pool(args.workload, args.seed)
    if args.trace:
        out, values, notes, repeat = traced(args.workload, pool, args.seconds, args.seed)
        units = dict(per_layer_names())
    else:
        if args.workload in FIXED_POOLS:
            pool = workloads.issue_order(pool, args.seed)
        out, values, notes = end_to_end(args.workload, pool, args.seconds)
        repeat = True
        units = dict(END_TO_END)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(machine_info()))
    for name, unit in units.items():
        print(f"  {name:<44} {values[name]:>16.6g} {unit:<9} {notes.get(name, '')}")
    print(f"attempted={out.attempted} failed={out.failed} by cause {dict(out.causes)}"
          f" worst_rel_err={out.worst_err:.3e}")
    for line in out.first_failures:
        print(f"  e.g. {line}")
    result = {
        "correct": not problems and repeat,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
