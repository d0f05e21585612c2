"""Request pools for the four workloads, and the check of each result.

A workload is a list of requests built before timing starts. Each request
carries what the program receives (shape JSON, a task, or CLI arguments)
and the expected value from ``refs``; the ``check_*`` functions turn one
outcome into a failure cause, or ``None`` when it is correct.

The ``cli`` pool is drawn from the run's seed. The ``curved``, ``polygon``
and ``search`` pools are the same for every seed, and the seed sets the
order in which a run issues them (``issue_order``). The parent fails about
a third of the curved poses, and a fixed pool makes the number of failing
requests a property of the program, not of the seed or of how many
requests a run gets through. A search task's cost depends on the draws
inside it (a suite's family mix), so a seed-drawn pool moved the p99
latency by about 10 % from seed to seed.

Continuous parameters that drive cost or failure (pose scale, vertex count)
follow a Weyl sequence, so any prefix of a pool is spread evenly over their
range.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import refs

REL_TOL = 1e-9
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SILVER = math.sqrt(2.0) - 1.0
TWO_PI = 2.0 * math.pi

CAUSES = ("open_chain", "wrong_answer", "timeout", "other")


@dataclass
class Request:
    kind: str
    payload: object  # shape JSON text, a search task tuple, or CLI argv
    expected: object
    meta: dict = field(default_factory=dict)


def _weyl(rng: random.Random, step: float):
    u = rng.random()
    while True:
        yield u
        u = (u + step) % 1.0


@dataclass
class Pose:
    """q = scale * R(theta) * F * p + shift, F the optional mirror in the x-axis."""

    scale: float
    theta: float
    reflect: bool
    shift: tuple[float, float]

    def place(self, x: float, y: float) -> list[float]:
        if self.reflect:
            y = -y
        c, s = math.cos(self.theta), math.sin(self.theta)
        return [
            self.scale * (c * x - s * y) + self.shift[0],
            self.scale * (s * x + c * y) + self.shift[1],
        ]

    def frame(self) -> dict:
        # The package's frames rotate, then mirror: R(theta) F == F R(-theta).
        angle = -self.theta if self.reflect else self.theta
        return {"rotation_angle": angle, "reflect": self.reflect, "translation": list(self.shift)}


def random_pose(rng: random.Random, u: float, scale: float | None = None) -> Pose:
    """Scale log-uniform over 1e-12..1e12 at quantile u, any rotation and mirror,
    a shift of up to min(1e6, 1e3 * size) per coordinate (shapes have size about 1)."""
    if scale is None:
        scale = 10.0 ** (-12.0 + 24.0 * u)
    reach = min(1e6, 1e3 * scale)
    return Pose(
        scale,
        rng.uniform(0.0, TWO_PI),
        rng.random() < 0.5,
        (rng.uniform(-reach, reach), rng.uniform(-reach, reach)),
    )


def _segment(p: list[float], q: list[float]) -> dict:
    return {"kind": "line_segment", "start": p, "end": q}


# --- curved -------------------------------------------------------------

CURVED_CYCLE = (
    "full_ellipse", "half_ellipse_major", "parabolic_cap", "full_ellipse", "half_ellipse_minor",
    "parabolic_cap", "full_ellipse", "half_ellipse_major", "circular_segment", "rational_segment",
)


def _ellipse_arc(pose: Pose, a: float, b: float, t0: float, t1: float) -> dict:
    sign = -1.0 if pose.reflect else 1.0  # a mirrored arc runs its parameter backwards
    return {
        "kind": "elliptical_arc",
        "center": list(pose.shift),
        "semi_axes": [pose.scale * a, pose.scale * b],
        "rotation": pose.theta,
        "t_start": sign * t0,
        "t_end": sign * t1,
    }


def curved_shape(kind: str, rng: random.Random, u: float) -> tuple[list[dict], float]:
    """Pieces of one posed curved shape and its reference measure."""
    pose = random_pose(rng, u)
    if kind == "full_ellipse":
        b = rng.uniform(0.05, 0.95)
        t0 = rng.uniform(0.0, TWO_PI)
        return [_ellipse_arc(pose, 1.0, b, t0, t0 + TWO_PI)], refs.measure(
            math.pi * b, refs.ellipse_perimeter(1.0, b)
        )
    if kind in ("half_ellipse_major", "half_ellipse_minor"):
        b = rng.uniform(0.05, 0.95)
        t0 = 0.0 if kind == "half_ellipse_major" else math.pi / 2.0
        t0 += math.pi * rng.randrange(2)
        start = pose.place(math.cos(t0), b * math.sin(t0))
        end = pose.place(-math.cos(t0), -b * math.sin(t0))
        chord = 2.0 if kind == "half_ellipse_major" else 2.0 * b
        pieces = [_ellipse_arc(pose, 1.0, b, t0, t0 + math.pi), _segment(end, start)]
        return pieces, refs.measure(0.5 * math.pi * b, 0.5 * refs.ellipse_perimeter(1.0, b) + chord)
    if kind == "parabolic_cap":
        alpha = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 3.0)
        beta = rng.uniform(-1.0, 1.0)
        gamma = rng.uniform(-0.5, 0.5)
        x0, x1 = rng.uniform(-1.5, -0.5), rng.uniform(0.5, 1.5)
        y0, y1 = ((alpha * x + beta) * x + gamma for x in (x0, x1))
        lam = pose.scale
        arc = {
            "kind": "parabolic_arc",
            "coefficients": [alpha / lam, beta, lam * gamma],
            "x_start": lam * x1,
            "x_end": lam * x0,
            "frame": pose.frame(),
        }
        pieces = [arc, _segment(pose.place(x0, y0), pose.place(x1, y1))]
        length = refs.parabola_length(alpha, beta, x0, x1) + math.hypot(x1 - x0, y1 - y0)
        return pieces, refs.measure(refs.parabola_cap_area(alpha, x0, x1), length)
    if kind == "circular_segment":
        phi0 = rng.uniform(0.0, TWO_PI)
        sweep = rng.uniform(0.5, TWO_PI - 0.5)
        sign = -1.0 if pose.reflect else 1.0
        arc = {
            "kind": "circular_arc",
            "center": list(pose.shift),
            "radius": pose.scale,
            "angle_start": pose.theta + sign * phi0,
            "angle_end": pose.theta + sign * (phi0 + sweep),
        }
        chord = _segment(
            pose.place(math.cos(phi0 + sweep), math.sin(phi0 + sweep)),
            pose.place(math.cos(phi0), math.sin(phi0)),
        )
        return [arc, chord], _circular_segment_measure(sweep)
    if kind == "rational_segment":
        # The rational parameterization is the unit circle placed rigidly, so
        # its JSON has no scale: these shapes keep scale 1.
        pose = random_pose(rng, u, scale=1.0)
        t0 = rng.uniform(-3.0, -0.2)
        t1 = rng.uniform(0.2, 3.0)
        arc = {"kind": "rational_point", "t_start": t0, "t_end": t1, "frame": pose.frame()}

        def local(t: float) -> tuple[float, float]:
            return 2.0 * t / (1.0 + t * t), (1.0 - t * t) / (1.0 + t * t)

        chord = _segment(pose.place(*local(t1)), pose.place(*local(t0)))
        sweep = 2.0 * (math.atan(t1) - math.atan(t0))
        return [arc, chord], _circular_segment_measure(sweep)
    raise ValueError(kind)


def _circular_segment_measure(sweep: float) -> float:
    """Unit-circle segment: area (phi - sin phi)/2, boundary phi + 2 sin(phi/2)."""
    return refs.measure(0.5 * (sweep - math.sin(sweep)), sweep + 2.0 * math.sin(0.5 * sweep))


def issue_order(requests: list[Request], seed: int) -> list[Request]:
    """The requests in the order a run with this seed issues them."""
    order = list(requests)
    random.Random(f"order:{seed}").shuffle(order)
    return order


def curved(count: int) -> list[Request]:
    """The fixed curved pool."""
    rng = random.Random("curved")
    quantiles = _weyl(rng, GOLDEN)
    out = []
    for i in range(count):
        kind = CURVED_CYCLE[i % len(CURVED_CYCLE)]
        pieces, expected = curved_shape(kind, rng, next(quantiles))
        out.append(Request(kind, json.dumps({"pieces": pieces}), expected))
    return out


# --- polygon ------------------------------------------------------------


def star_polygon(rng: random.Random, n: int) -> list[tuple[float, float]]:
    """n vertices at jittered, increasing angles about the origin: simple by construction."""
    offset = rng.uniform(0.0, TWO_PI)
    return [
        (r * math.cos(a), r * math.sin(a))
        for r, a in (
            (rng.uniform(0.3, 1.0), offset + TWO_PI * (k + 0.1 + 0.8 * rng.random()) / n)
            for k in range(n)
        )
    ]


def polygon(count: int) -> list[Request]:
    """The fixed polygon pool."""
    rng = random.Random("polygon")
    scales = _weyl(rng, GOLDEN)
    sizes = _weyl(rng, SILVER)
    out = []
    for _ in range(count):
        n = min(256, int(3.0 * (257.0 / 3.0) ** next(sizes)))  # log-uniform over 3..256
        pose = random_pose(rng, next(scales))
        points = [pose.place(x, y) for x, y in star_polygon(rng, n)]
        expected = refs.measure(*refs.polygon_area_perimeter(points))
        text = json.dumps({"pieces": [{"kind": "polyline", "vertices": points + [points[0]]}]})
        out.append(Request(f"n{n}", text, expected, {"n": n}))
    return out


# --- search -------------------------------------------------------------

BRACKETS_1D = {  # family: (low end range, high end range); the minimizer lies between
    "right_triangle": ((1e-6, 0.7), (0.9, math.pi / 2.0 - 1e-6)),
    "rectangle": ((0.01, 0.9), (1.1, 100.0)),
    "rhombus": ((0.01, 1.5), (1.65, math.pi - 0.01)),
    "ellipse": ((0.01, 0.5), (0.9, 0.99)),
}
SCAN_DOMAINS = {  # "family/quantity": (domain, reference)
    "right_triangle/Pi": ((0.05, math.pi / 2.0 - 0.05), refs.right_triangle_measure),
    "rectangle/Pi": ((0.05, 20.0), refs.rectangle_measure),
    "rhombus/Pi": ((0.05, math.pi - 0.05), refs.rhombus_measure),
    "ellipse/Pi": ((0.05, 0.95), refs.ellipse_measure),
    "ellipse/a": ((0.05, 0.95), refs.ellipse_unit_semi_minor),
    "rhombus/h": ((0.05, math.pi - 0.05), refs.rhombus_unit_short_diagonal),
}
SUITES = ("isoperimetric", "unit-floor", "scale-equivalence", "mgon", "blob-pythagoras", "rational-circle")
SEARCH_CYCLE = (
    ("minimize_1d", "right_triangle"), ("minimize_1d", "rectangle"), ("minimize_1d", "rhombus"),
    ("minimize_1d", "ellipse"), ("minimize_2d", "triangle"), ("minimize_2d", "parallelogram"),
    *(("scan", key) for key in SCAN_DOMAINS),
    *(("run_suite", s) for s in (*SUITES, "all")),
    ("solids_table", ""),
)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def scan_grid(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n - 1)] + [hi]


def search_task(op: str, arg: str, rng: random.Random, u: float = 0.5) -> tuple[tuple, object]:
    """One (task, expected) pair; ``run_task`` executes the task."""
    if op == "minimize_1d":
        (a0, a1), (b0, b1) = BRACKETS_1D[arg]
        bracket = (rng.uniform(a0, a1), rng.uniform(b0, b1))
        task = (op, arg, bracket, _log_uniform(rng, 1e-11, 1e-9))
        return task, None if arg == "ellipse" else refs.MINIMA[arg]
    if op == "minimize_2d":
        return (op, arg, _log_uniform(rng, 1e-8, 1e-7)), refs.MINIMA[arg]
    if op == "scan":
        family, quantity = arg.split("/")
        (d0, d1), ref = SCAN_DOMAINS[arg]
        lo = rng.uniform(d0, d0 + 0.5 * (d1 - d0))
        hi = rng.uniform(lo + 0.1 * (d1 - d0), d1)
        n = int(100.0 * 10.0**u)  # log-uniform over 100..1000 at quantile u
        return (op, family, quantity, lo, hi, n), [ref(t) for t in scan_grid(lo, hi, n)]
    if op == "run_suite":
        return (op, arg, rng.randrange(2**31)), None
    return (op,), refs.platonic_unit_volumes()


def search(count: int) -> list[Request]:
    """The fixed search pool."""
    rng = random.Random("search")
    sizes = _weyl(rng, GOLDEN)
    out = []
    for i in range(count):
        op, arg = SEARCH_CYCLE[i % len(SEARCH_CYCLE)]
        task, expected = search_task(op, arg, rng, next(sizes) if op == "scan" else 0.5)
        out.append(Request(f"{op}:{arg}" if arg else op, task, expected))
    return out


def run_task(us, task: tuple):
    """Execute a search task through the package's public functions."""
    op = task[0]
    if op == "minimize_1d":
        return us.minimize_1d(task[1], task[2], tol=task[3])
    if op == "minimize_2d":
        return us.minimize_2d(task[1], tol=task[2])
    if op == "scan":
        return us.optimize.scan(*task[1:])
    if op == "run_suite":
        return us.run_suite(task[1], seed=task[2])
    return us.solids.solids_table()


def check_search(req: Request, result) -> tuple[str | None, float]:
    """(cause or None, worst relative error seen) for one search result."""
    op = req.payload[0]
    if op == "minimize_1d" and req.payload[1] == "ellipse":
        hi = req.payload[2][1]
        err = refs.rel_err(result.min_value, refs.ellipse_measure(result.argmin[0]))
        ok = (
            not result.converged
            and result.boundary_infimum == math.pi
            and hi - result.argmin[0] <= 1e-6
            and err <= REL_TOL
        )
        return (None if ok else "wrong_answer"), err
    if op in ("minimize_1d", "minimize_2d"):
        err = refs.rel_err(result.min_value, req.expected)
        return (None if result.converged and err <= REL_TOL else "wrong_answer"), err
    if op == "scan":
        _, _, _, lo, hi, n = req.payload
        if len(result.values) != n:
            return "wrong_answer", math.inf
        grid_err = max(abs(p - q) for p, q in zip(result.params, scan_grid(lo, hi, n)))
        err = max(refs.rel_err(v, e) for v, e in zip(result.values, req.expected))
        ok = grid_err <= 1e-12 * max(abs(lo), abs(hi)) and err <= REL_TOL
        return (None if ok else "wrong_answer"), err
    if op == "run_suite":
        ok = bool(result) and all(r.passed for r in result)
        return (None if ok else "wrong_answer"), 0.0
    return check_solids({row["solid"]: row["fundamental_measure"] for row in result}, req.expected)


def check_solids(got: dict[str, float], expected: dict[str, float]) -> tuple[str | None, float]:
    if set(got) != set(expected):
        return "wrong_answer", math.inf
    err = max(refs.rel_err(got[k], expected[k]) for k in expected)
    return (None if err <= REL_TOL else "wrong_answer"), err


def check_measure(req: Request, value: float) -> tuple[str | None, float]:
    err = refs.rel_err(value, req.expected)
    return (None if err <= REL_TOL else "wrong_answer"), err


def classify(exc: BaseException) -> str:
    return "open_chain" if "open chain" in str(exc) else "other"


# --- cli ----------------------------------------------------------------

FAMILY_PARAMS = {  # family: sampler of its CLI parameters
    "right_triangle": lambda rng: {"theta": rng.uniform(0.1, math.pi / 2.0 - 0.1)},
    "triangle": lambda rng: _triangle_params(rng),
    "rectangle": lambda rng: {"r": _log_uniform(rng, 0.05, 20.0)},
    "rhombus": lambda rng: {"theta": rng.uniform(0.1, math.pi - 0.1)},
    "parallelogram": lambda rng: {"theta": rng.uniform(0.1, math.pi - 0.1), "r": _log_uniform(rng, 0.1, 10.0)},
    "ellipse": lambda rng: {"r": rng.uniform(0.05, 0.95)},
    "regular_polygon": lambda rng: {"m": rng.randrange(3, 40)},
}


def _triangle_params(rng: random.Random) -> dict:
    while True:
        r, s = rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0)
        if r + s > 1.1:
            return {"r": r, "s": s}


def _param_args(params: dict) -> list[str]:
    return [tok for k, v in params.items() for tok in (f"--{k}", repr(v))]


TABLE_ENTRIES = (
    [("right_triangle", {"theta": math.pi / 4.0}), ("triangle", {"r": 1.0, "s": 1.0}),
     ("rectangle", {"r": 1.0}), ("rhombus", {"theta": math.pi / 2.0}),
     ("parallelogram", {"theta": math.pi / 2.0, "r": 1.0}), ("ellipse", {"r": 0.5})]
    + [("regular_polygon", {"m": m}) for m in range(3, 13)]
)
CLI_CYCLE = (
    "catalog_table", "catalog_family", "unitize_family", "unitize_input", "minimize_1d",
    "minimize_2d", "scan", *(f"verify:{s}" for s in SUITES), "solids",
)


def cli_request(kind: str, rng: random.Random, input_path: str) -> Request:
    """CLI argv (after ``-m unitshapes.cli``) for one cycle entry, with its expectation."""
    if kind == "catalog_table":
        expected = [refs.FAMILY_MEASURES[f](p) for f, p in TABLE_ENTRIES]
        return Request(kind, ["catalog", "--format", "json"], expected)
    if kind in ("catalog_family", "unitize_family"):
        family = rng.choice(sorted(FAMILY_PARAMS))
        params = FAMILY_PARAMS[family](rng)
        expected = refs.FAMILY_MEASURES[family](params)
        if kind == "catalog_family":
            return Request(kind, ["catalog", "--family", family, *_param_args(params), "--format", "json"], expected)
        scale = _log_uniform(rng, 0.01, 100.0)
        argv = ["unitize", "--family", family, *_param_args(params), "--scale", repr(scale), "--format", "json"]
        return Request(kind, argv, expected, {"upsilon": 1.0 / scale})
    if kind == "unitize_input":
        # Pose robustness is measured by the curved and polygon workloads;
        # here the file holds an unposed polygon, so the request measures the
        # process and the file path.
        points = star_polygon(rng, rng.randrange(3, 64))
        pieces = [{"kind": "polyline", "vertices": [list(p) for p in points] + [list(points[0])]}]
        expected = refs.measure(*refs.polygon_area_perimeter(points))
        with open(input_path, "w", encoding="utf-8") as fh:
            json.dump({"pieces": pieces}, fh)
        return Request(kind, ["unitize", "--input", input_path, "--format", "json"], expected)
    if kind == "minimize_1d":
        family = rng.choice(sorted(BRACKETS_1D))
        task, expected = search_task("minimize_1d", family, rng)
        lo, hi = task[2]
        argv = ["minimize", "--family", family, "--lo", repr(lo), "--hi", repr(hi), "--format", "json"]
        return Request(kind, argv, expected, {"family": family, "hi": hi})
    if kind == "minimize_2d":
        family = rng.choice(("triangle", "parallelogram"))
        return Request(kind, ["minimize", "--family", family, "--format", "json"], refs.MINIMA[family])
    if kind == "scan":
        key = rng.choice(sorted(SCAN_DOMAINS))
        (_, family, quantity, lo, hi, n), expected = search_task("scan", key, rng, math.log10(2.0))  # n = 200
        argv = ["scan", "--family", family, "--quantity", quantity, "--lo", repr(lo), "--hi", repr(hi),
                "--n", str(n), "--format", "csv"]
        return Request(kind, argv, expected, {"grid": scan_grid(lo, hi, n)})
    if kind.startswith("verify:"):
        suite = kind.split(":", 1)[1]
        return Request(kind, ["verify", "--suite", suite, "--seed", str(rng.randrange(2**31)), "--format", "json"], None)
    if kind == "solids":
        return Request(kind, ["solids", "--format", "csv"], refs.platonic_unit_volumes())
    raise ValueError(kind)


def cli(seed: int, count: int, input_dir: str) -> list[Request]:
    rng = random.Random(f"cli:{seed}")
    out = []
    for i in range(count):
        kind = CLI_CYCLE[i % len(CLI_CYCLE)]
        out.append(cli_request(kind, rng, os.path.join(input_dir, f"shape-{i}.json")))
    return out


def check_cli(req: Request, code: int, stdout: str, stderr: str) -> tuple[str | None, float | None]:
    """Check one CLI invocation's exit code and parsed output."""
    if code != 0:
        return ("open_chain" if "open chain" in stderr else "other"), None
    try:
        return _check_cli_output(req, stdout)
    except (ValueError, KeyError, IndexError, TypeError):
        return "wrong_answer", math.inf


def _check_cli_output(req: Request, stdout: str) -> tuple[str | None, float]:
    lines = stdout.strip().splitlines()
    kind = req.kind
    if kind == "catalog_table":
        got = [json.loads(line)["Pi"] for line in lines]
        if len(got) != len(req.expected):
            return "wrong_answer", math.inf
        err = max(refs.rel_err(g, e) for g, e in zip(got, req.expected))
    elif kind == "catalog_family":
        err = refs.rel_err(json.loads(lines[0])["Pi"], req.expected)
    elif kind in ("unitize_family", "unitize_input"):
        doc = json.loads(lines[0])
        err = refs.rel_err(doc["fundamental_measure"], req.expected)
        if "upsilon" in req.meta:
            err = max(err, refs.rel_err(doc["tong_inradius_reciprocal"], req.meta["upsilon"]))
    elif kind == "minimize_1d":
        doc = json.loads(lines[0])
        if req.meta["family"] == "ellipse":
            err = refs.rel_err(doc["min_value"], refs.ellipse_measure(doc["argmin"][0]))
            ok = not doc["converged"] and doc.get("boundary_infimum") == math.pi
            if not ok or req.meta["hi"] - doc["argmin"][0] > 1e-6:
                return "wrong_answer", err
        else:
            err = refs.rel_err(doc["min_value"], req.expected)
            if not doc["converged"]:
                return "wrong_answer", err
    elif kind == "minimize_2d":
        doc = json.loads(lines[0])
        err = refs.rel_err(doc["min_value"], req.expected)
        if not doc["converged"]:
            return "wrong_answer", err
    elif kind == "scan":
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(req.expected):
            return "wrong_answer", math.inf
        grid = req.meta["grid"]
        if any(abs(float(p) - q) > 1e-12 * max(abs(grid[0]), abs(grid[-1])) for (p, _), q in zip(rows, grid)):
            return "wrong_answer", math.inf
        err = max(refs.rel_err(float(v), e) for (_, v), e in zip(rows, req.expected))
    elif kind.startswith("verify:"):
        ok = bool(lines) and all(json.loads(line)["pass"] is True for line in lines)
        return (None if ok else "wrong_answer"), 0.0
    else:  # solids
        return check_solids({r[0]: float(r[1]) for r in (line.split(",") for line in lines[1:])}, req.expected)
    return (None if err <= REL_TOL else "wrong_answer"), err
