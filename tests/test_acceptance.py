"""Acceptance gate: every shipped claim at its stated tolerance.

Each criterion prints one pass/fail line (run with `pytest -s` to see them
all); an assertion failure identifies the offending criterion.
"""

import math
import random

import numpy as np

from unitshapes.catalog import (
    Ellipse,
    Rectangle,
    RegularPolygon,
    Rhombus,
    RightTriangle,
    Triangle,
    build_unit_shape,
    ellipse_semi_minor,
    fundamental_measure,
)
from unitshapes.curves import make_circle, make_rational_circle
from unitshapes.optimize import minimize_1d, minimize_2d
from unitshapes.solids import KINDS, UNIT_VOLUMES, PlatonicSolid, measures, unitize_solid
from unitshapes.unitize import unitize
from unitshapes.verify import (
    check_blob_pythagoras,
    check_calculus,
    check_idempotence,
    check_mgon_bound,
    random_family_param,
    random_simple_mgon,
    random_similarity,
)

import oracles


def conclude(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:02d} {label}: {status}{suffix}")
    assert ok, f"criterion {number} ({label}) failed: {detail}"


def test_01_catalog_golden_values():
    golden = [
        (fundamental_measure(RightTriangle(math.pi / 4.0)), 3.0 + 2.0 * math.sqrt(2.0)),
        (fundamental_measure(Triangle(1.0, 1.0)), 3.0 * math.sqrt(3.0)),
        (fundamental_measure(Rectangle(1.0)), 4.0),
        (fundamental_measure(Rhombus(math.pi / 2.0)), 4.0),
        (fundamental_measure(RegularPolygon(4)), 4.0),
    ]
    golden += [
        (fundamental_measure(RegularPolygon(m)), m * math.tan(math.pi / m))
        for m in range(3, 13)
    ]
    worst_formula = max(abs(got - want) / want for got, want in golden)

    kernel_params = [
        RightTriangle(math.pi / 4.0),
        Triangle(1.0, 1.0),
        Rectangle(1.0),
        Rhombus(math.pi / 2.0),
    ] + [RegularPolygon(m) for m in range(3, 13)]
    worst_kernel = 0.0
    for p in kernel_params:
        shape = build_unit_shape(p)
        want = fundamental_measure(p)
        worst_kernel = max(
            worst_kernel,
            abs(shape.area() - want) / want,
            abs(shape.semiperimeter() - want) / want,
        )
    conclude(
        1,
        "catalog golden values",
        worst_formula <= 1e-12 and worst_kernel <= 1e-8,
        f"formula rel err {worst_formula:.2e}, kernel rel err {worst_kernel:.2e}",
    )


def _random_sample_shapes(count: int, seed: int = 20240811):
    rng = random.Random(seed)
    shapes = []
    for _ in range(count):
        shape = build_unit_shape(random_family_param(rng))
        shapes.append(shape.transformed(random_similarity(rng)))
    return shapes


def test_02_unit_property_and_idempotence():
    shapes = _random_sample_shapes(110)
    reports = [check_idempotence(shape) for shape in shapes]
    worst_gap = max(r.details["unit_gap"] for r in reports)
    worst_scale = max(r.details["scale_drift"] for r in reports)
    conclude(
        2,
        "unit property on randomized shapes",
        len(shapes) >= 100 and all(r.passed for r in reports)
        and worst_gap <= 1e-8 and worst_scale <= 1e-9,
        f"n={len(shapes)}, worst |A-S|/S {worst_gap:.2e}, worst |scale-1| {worst_scale:.2e}",
    )


def test_03_calculus_friendly_indexing():
    params = [
        RightTriangle(0.9),
        Triangle(0.85, 0.9),
        Rectangle(2.0),
        Rhombus(1.2),
        Triangle(1.0, 1.0),
        Ellipse(0.5),
        RegularPolygon(5),
    ]
    bases = [build_unit_shape(p) for p in params] + [make_circle(1.0)]
    reports = [check_calculus(base, (0.5, 1.0, 2.0)) for base in bases]
    worst = max(r.details["worst_derivative_rel_err"] for r in reports)
    conclude(
        3,
        "area derivative is perimeter at lambda in {0.5, 1, 2}",
        all(r.passed for r in reports) and worst <= 1e-10,
        f"worst finite-difference rel err {worst:.2e}",
    )


def test_04_isoperimetric_floor():
    worst = math.inf
    for shape in _random_sample_shapes(100, seed=777):
        worst = min(worst, unitize(shape).fundamental_measure - math.pi)
    gap = fundamental_measure(Ellipse(0.999)) - math.pi
    conclude(
        4,
        "unit measures at least pi; near-circle gap tiny",
        worst >= -1e-9 and 0.0 < gap <= 1e-3,
        f"worst measure - pi {worst:.2e}, Pi_E(0.999) - pi {gap:.2e}",
    )


def test_05_mgon_bound():
    rng = random.Random(5)
    ok = True
    detail = []
    for m in (3, 4, 5, 6):
        polys = [random_simple_mgon(m, rng) for _ in range(500)]
        report = check_mgon_bound(m, polys)
        regular = check_mgon_bound(m, [build_unit_shape(RegularPolygon(m))])
        ok = ok and report.passed and regular.details["equality_indices"] == [0]
        detail.append(f"m={m} slack>={report.worst_slack:.1e}")
    conclude(5, "polygon isoperimetric bound, tight at regular", ok, ", ".join(detail))


def test_06_blob_pythagoras():
    rng = random.Random(6)
    ok = True
    for i in range(20):
        base = build_unit_shape(random_family_param(rng)).transformed(random_similarity(rng))
        a, b = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
        c = math.hypot(a, b) if i % 2 == 0 else math.hypot(a, b) * rng.uniform(1.1, 1.6)
        report = check_blob_pythagoras(base, (a, b, c))
        ok = ok and report.passed and report.details["areas_add"] == (i % 2 == 0)
    conclude(6, "area additivity iff Pythagorean triple", ok)


def test_07_optimizers_match_grid_oracles():
    checks = []

    result = minimize_1d("right_triangle", (1e-4, math.pi / 2.0 - 1e-4))
    _, oracle = oracles.grid_min_1d(oracles.measure_right_triangle, 1e-4, math.pi / 2.0 - 1e-4)
    checks.append(abs(result.min_value - oracle))

    result = minimize_1d("rectangle", (0.01, 100.0))
    _, oracle = oracles.grid_min_1d(oracles.measure_rectangle, 0.01, 100.0)
    checks.append(abs(result.min_value - oracle))

    result = minimize_1d("rhombus", (0.01, math.pi - 0.01))
    _, oracle = oracles.grid_min_1d(oracles.measure_rhombus, 0.01, math.pi - 0.01)
    checks.append(abs(result.min_value - oracle))

    result = minimize_1d("ellipse", (0.01, 0.99))
    rs = np.linspace(0.01, 0.99, 2001)
    coarse = oracles.ellipse_measure_grid(rs)
    zoom = np.linspace(rs[int(np.argmin(coarse))] - (rs[1] - rs[0]), 0.99, 2001)
    oracle = float(oracles.ellipse_measure_grid(zoom).min())
    checks.append(abs(result.min_value - oracle))

    tri = minimize_2d("triangle")
    _, _, oracle = oracles.grid_min_2d(oracles.measure_triangle, 1e-3, 1.0, 1e-3, 1.0)
    checks.append(abs(tri.min_value - oracle))

    par = minimize_2d("parallelogram")
    _, _, oracle = oracles.grid_min_2d(
        oracles.measure_parallelogram, 0.01, math.pi - 0.01, 0.05, 5.0
    )
    checks.append(abs(par.min_value - oracle))

    argmins_ok = (
        abs(tri.argmin[0] - 1.0) <= 1e-6
        and abs(tri.argmin[1] - 1.0) <= 1e-6
        and abs(par.argmin[0] - math.pi / 2.0) <= 1e-6
        and abs(par.argmin[1] - 1.0) <= 1e-6
    )
    conclude(
        7,
        "optimizers agree with dense-grid oracles",
        max(checks) <= 1e-6 and argmins_ok,
        f"worst value gap {max(checks):.2e}",
    )


def test_08_ellipse_semi_minor_profile():
    rs = [0.01 + (0.99 - 0.01) * i / 999 for i in range(1000)]
    values = [ellipse_semi_minor(r) for r in rs]
    increasing = all(a < b for a, b in zip(values, values[1:]))
    bounded = all(2.0 / math.pi < v < 1.0 for v in values)
    low_ok = abs(values[0] - 2.0 / math.pi) <= 2e-2
    high_ok = abs(values[-1] - 1.0) <= 2e-2
    spot = oracles.dense_simpson(
        lambda t: math.sqrt(1.0 + (0.25 - 1.0) * math.cos(t) ** 2), 0.0, math.pi, 100_000
    ) / math.pi
    oracle_ok = abs(ellipse_semi_minor(0.5) - spot) <= 1e-8 * spot
    conclude(
        8,
        "unit-ellipse semi-minor axis strictly increasing in (2/pi, 1)",
        increasing and bounded and low_ok and high_ok and oracle_ok,
        f"a(0.01)={values[0]:.6f}, a(0.99)={values[-1]:.6f}",
    )


def test_09_platonic_table():
    worst = 0.0
    for kind in KINDS:
        unit = unitize_solid(PlatonicSolid(kind))
        got = measures(unit).volume
        expected = UNIT_VOLUMES[kind][1]
        worst = max(worst, abs(got - expected) / expected)
    conclude(9, "platonic unit-insphere volumes from vertex models", worst <= 1e-9,
             f"worst rel err {worst:.2e}")


def test_10_rational_circle_fixture():
    circle = make_rational_circle()
    a, s = circle.area(), circle.semiperimeter()
    ok = abs(a - math.pi) <= 1e-9 and abs(s - math.pi) <= 1e-9
    conclude(10, "rational-parameterization circle has A = S = pi", ok,
             f"A - pi = {a - math.pi:.2e}, S - pi = {s - math.pi:.2e}")
