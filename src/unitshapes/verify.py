"""Numerical exercises of the scaling, indexing and isoperimetric claims.

Each check measures concrete shapes through the curve kernel and returns a
VerificationReport; a report passes exactly when it has no counterexamples.
Sampled checks take a seeded RNG so runs are reproducible.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Callable, Sequence
from operator import sub

from .catalog import (
    FAMILIES,
    FamilyParam,
    Parallelogram,
    Rectangle,
    RegularPolygon,
    Rhombus,
    RightTriangle,
    Triangle,
    _ellipse_speed_integral_by_quadrature,
    build_unit_shape,
    fundamental_measure,
)
from .curves import (
    Polyline,
    RigidMotion,
    Shape,
    Similarity,
    ellipse_half_perimeter,
    make_circle,
    make_rational_circle,
    polygon_measures,
    quadrature_measures,
    scaled,
)
from .records import MutableRecord
from .unitize import UnitizationResult, unitize

ISOPERIMETRIC_REL_TOL = 1e-9
UNIT_ROUNDOFF = 2.0**-53
CALCULUS_STEP = 1e-5  # the finite-difference step h of check_calculus, relative to lambda
CALCULUS_ROUNDING = 8.0  # K of its bound K u lambda / h
TRIPLE_REL_TOL = 1e-12  # how near to c^2 a^2 + b^2 makes a right triple in check_blob_pythagoras


class VerificationReport(MutableRecord):
    __slots__ = _fields = ("claim", "instances_tested", "worst_slack", "counterexamples", "details")

    def __init__(self, claim: str, instances_tested: int, worst_slack: float,
                 counterexamples: list | None = None, details: dict | None = None) -> None:
        self.claim = claim
        self.instances_tested = instances_tested
        self.worst_slack = worst_slack
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.details = {} if details is None else details

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "instances": self.instances_tested,
            "worst_slack": self.worst_slack,
            "pass": self.passed,
            "counterexamples": self.counterexamples,
            **({"details": self.details} if self.details else {}),
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict())


def check_isoperimetric(shape: Shape, rel_tol: float = ISOPERIMETRIC_REL_TOL) -> VerificationReport:
    """pi * A <= S^2, with slack S^2 - pi A vanishing only for circles."""
    a = shape.area()
    s = shape.semiperimeter()
    slack = s * s - math.pi * a
    report = VerificationReport("isoperimetric_inequality", 1, slack)
    report.details["equality"] = abs(slack) <= rel_tol * s * s
    if slack < -rel_tol * s * s:
        report.counterexamples.append({"area": a, "semiperimeter": s, "slack": slack})
    return report


def check_unit_floor(result: UnitizationResult, tol: float = 1e-9) -> VerificationReport:
    """The fundamental measure of any unit shape is at least pi."""
    measure = result.fundamental_measure
    slack = measure - math.pi
    report = VerificationReport("unit_measure_floor", 1, slack)
    report.details["equality"] = abs(slack) <= tol
    if slack < -tol:
        report.counterexamples.append({"fundamental_measure": measure, "slack": slack})
    return report


def check_scale_equivalence(
    unit_shape: Shape,
    rho: float,
    kappas: Sequence[float],
    rel_tol: float = ISOPERIMETRIC_REL_TOL,
) -> VerificationReport:
    """rho <= Pi holds iff rho * A <= S^2 across every rescaling of a unit shape."""
    measure = 0.5 * (unit_shape.area() + unit_shape.semiperimeter())
    lhs = rho <= measure * (1.0 + rel_tol)
    report = VerificationReport("scale_equivalence", len(kappas), 0.0)
    report.details["rho"] = rho
    report.details["measure_bound_holds"] = lhs
    worst = math.inf
    for kappa in kappas:
        member = scaled(unit_shape, kappa)
        a, s = member.area(), member.semiperimeter()
        rhs = rho * a <= s * s * (1.0 + rel_tol)
        slack = s * s - rho * a
        worst = min(worst, slack)
        if rhs != lhs:
            report.counterexamples.append({"kappa": kappa, "slack": slack, "expected": lhs})
    report.worst_slack = worst
    return report


def regular_mgon_measure(m: int) -> float:
    """Isoperimetric constant for m-gons: m tan(pi/m)."""
    return fundamental_measure(RegularPolygon(m))


def check_mgon_bound(
    m: int, samples: Sequence[Shape], rel_tol: float = ISOPERIMETRIC_REL_TOL
) -> VerificationReport:
    """m tan(pi/m) * A <= S^2 for simple m-gons, tight exactly at regular ones."""
    return _mgon_report(m, [(poly.area(), poly.semiperimeter()) for poly in samples], rel_tol)


def _mgon_report(
    m: int, measures: Sequence[tuple[float, float]], rel_tol: float
) -> VerificationReport:
    """The m-gon bound's report over the (area, semiperimeter) of each sample."""
    rho = regular_mgon_measure(m)
    report = VerificationReport(f"{m}-gon_bound", len(measures), math.inf)
    equalities = []
    for i, (a, s) in enumerate(measures):
        slack = s * s - rho * a
        report.worst_slack = min(report.worst_slack, slack / (s * s))
        if slack < -rel_tol * s * s:
            report.counterexamples.append({"index": i, "slack": slack})
        elif abs(slack) <= rel_tol * s * s:
            equalities.append(i)
    report.details["equality_indices"] = equalities
    return report


def check_blob_pythagoras(
    base: Shape,
    triple: tuple[float, float, float],
    area_rel_tol: float = 1e-9,
) -> VerificationReport:
    """Areas of the a-, b-, c-scaled copies add exactly when a^2 + b^2 = c^2."""
    a, b, c = triple
    area_a = scaled(base, a).area()
    area_b = scaled(base, b).area()
    area_c = scaled(base, c).area()
    areas_add = abs(area_a + area_b - area_c) <= area_rel_tol * area_c
    is_right_triple = abs(a * a + b * b - c * c) <= TRIPLE_REL_TOL * c * c
    report = VerificationReport(
        "blob_pythagoras", 1, area_a + area_b - area_c
    )
    report.details.update(
        {"triple": [a, b, c], "areas_add": areas_add, "right_triple": is_right_triple}
    )
    if areas_add != is_right_triple:
        report.counterexamples.append(
            {"triple": [a, b, c], "area_mismatch": area_a + area_b - area_c}
        )
    return report


def check_rational_circle(tol: float = 1e-9) -> VerificationReport:
    """The trig-free rational circle measures A = S = pi by quadrature alone."""
    a, s = quadrature_measures(make_rational_circle())
    report = VerificationReport("rational_circle", 1, max(abs(a - math.pi), abs(s - math.pi)))
    report.details.update({"area": a, "semiperimeter": s})
    if abs(a - math.pi) > tol or abs(s - math.pi) > tol:
        report.counterexamples.append({"area": a, "semiperimeter": s})
    return report


def check_calculus(
    shape: Shape, lambdas: Sequence[float], identity_rel_tol: float = 1e-12
) -> VerificationReport:
    """dA/dlambda = P(lambda) along the family lambda * shape, which holds iff A = S for the shape.

    At each lambda, with h = CALCULUS_STEP * lambda, the kernel's (A(lambda + h) -
    A(lambda - h)) / step must match the perimeter 2 S(lambda) to K u lambda / h, u = 2^-53.
    A is exactly quadratic in the scale, so there is no truncation term, and the step,
    (lambda + h) - (lambda - h) of the two floats, is exact by Sterbenz's lemma (2h would
    add about u lambda / (4h)). What is left is the rounding of the two areas over the
    step. A scaled copy rounds each coordinate and each product of two, and fsum rounds
    once, so an area whose terms do not cancel (as in the catalog's and make_circle's
    poses) is within about 4u, and two over 2h give 2u lambda / h. K = CALCULUS_ROUNDING
    = 8 allows four times that, 8.9e-11; the calculus suite's worst over seeds 0-1999 is
    2.05 u lambda / h, on a parallelogram whose terms partly cancel. A shape posed far
    from the origin may fail by rounding alone. Each lambda also checks A(lambda + d) -
    A(lambda) = (2 lambda + d) d Pi, d = lambda / 4 and Pi = (A + S) / 2 of the base, to
    identity_rel_tol. Slack is each bound minus its error; the report keeps the worst.
    """
    measure = 0.5 * (shape.area() + shape.semiperimeter())
    details = {"measure": measure, "worst_derivative_rel_err": 0.0}
    report = VerificationReport("calculus_friendly_indexing", len(lambdas), math.inf, [], details)
    for lam in lambdas:
        h = CALCULUS_STEP * lam
        above, below = lam + h, lam - h
        derivative = (scaled(shape, above).area() - scaled(shape, below).area()) / (above - below)
        member = scaled(shape, lam)
        perimeter = 2.0 * member.semiperimeter()
        derivative_err = abs(derivative - perimeter) / perimeter
        bound = CALCULUS_ROUNDING * UNIT_ROUNDOFF * lam / h

        d = 0.25 * lam
        strip = (2.0 * lam + d) * d * measure
        identity_err = abs(scaled(shape, lam + d).area() - member.area() - strip) / strip

        details["worst_derivative_rel_err"] = max(details["worst_derivative_rel_err"], derivative_err)
        report.worst_slack = min(report.worst_slack, bound - derivative_err,
                                 identity_rel_tol - identity_err)
        if not (derivative_err <= bound and identity_err <= identity_rel_tol):
            report.counterexamples.append({"lambda": lam, "derivative_rel_err": derivative_err,
                                           "bound": bound, "identity_rel_err": identity_err})
    return report


def check_idempotence(shape: Shape, tol: float = 1e-9) -> VerificationReport:
    """unitize gives a shape with A = S, measured by the kernel, and unitizing it again moves
    neither scale nor measure."""
    first = unitize(shape)
    unit = first.unit_shape
    area, semiperimeter = unit.area(), unit.semiperimeter()
    second, measure = unitize(unit), first.fundamental_measure
    errors = {
        "unit_gap": abs(area - semiperimeter) / semiperimeter,
        "scale_drift": abs(second.tong_inradius_reciprocal - 1.0),
        "measure_drift": abs(second.fundamental_measure - measure) / measure,
    }
    worst = max(errors.values())
    report = VerificationReport("idempotence", 1, tol - worst, details=errors)
    if not worst <= tol:
        report.counterexamples.append(dict(errors))
    return report


def check_conciliation(name: str, params: Sequence[float], lhs: Callable[[float], float],
                       rhs: Callable[[float], float], rel_tol: float = 1e-10) -> VerificationReport:
    """Two formulas for one quantity agree to rel_tol at every parameter; NaN never agrees."""
    report = VerificationReport(name, len(params), rel_tol)
    for q in params:
        a, b = lhs(q), rhs(q)
        err = abs(a - b) / max(abs(a), abs(b))
        report.worst_slack = min(report.worst_slack, rel_tol - err)
        if not err <= rel_tol:
            report.counterexamples.append({"param": q, "lhs": a, "rhs": b})
    return report


def random_simple_mgon(m: int, rng: random.Random) -> Shape:
    """Random m-gon: vertices sorted by angle about a center, joined in that order.

    Rejection keeps a minimum angular gap (no near-degenerate edges) and a
    minimum area of 1e-6. The polygon is star-shaped about the center, and so
    simple, only when every angular gap is below pi; when one gap exceeds pi
    the center lies outside and the loop can cross itself. Such draws are not
    rejected yet, since that changes the seeded stream (ROADMAP item 4).
    """
    xs, ys, _, _ = _mgon_sample(m, rng)
    return Shape((Polyline(xs, ys),))


def _mgon_sample(m: int, rng: random.Random) -> tuple[list[float], list[float], float, float]:
    """``random_simple_mgon``'s draw as its closed loop's x and y lists, area and semiperimeter."""
    # Each draw is rng.uniform(a, b) written out as its documented a + (b - a) * rng.random()
    # (with a = 0 for the angles), which saves a method call per draw and keeps every value.
    draw = rng.random
    cos, sin = math.cos, math.sin
    two_pi = 2.0 * math.pi
    while True:
        cx = -5.0 + (5.0 - -5.0) * draw()
        cy = -5.0 + (5.0 - -5.0) * draw()
        angles = [two_pi * draw() for _ in range(m)]
        angles.sort()
        if min(map(sub, angles[1:], angles)) < 1e-3 or two_pi - (angles[-1] - angles[0]) < 1e-3:
            continue
        # Vertex i takes the i-th radius draw; the radii are drawn after every angle.
        xs = []
        ys = []
        for t in angles:
            r = 0.2 + (3.0 - 0.2) * draw()
            xs.append(cx + r * cos(t))
            ys.append(cy + r * sin(t))
        xs.append(xs[0])
        ys.append(ys[0])
        area, semiperimeter = polygon_measures(xs, ys)
        if area >= 1e-6:
            return xs, ys, area, semiperimeter


def random_family_param(rng: random.Random) -> FamilyParam:
    """A random member of a random catalog family, away from blow-up boundaries."""
    return FAMILIES[rng.randrange(len(FAMILIES))].draw(rng)


def random_similarity(rng: random.Random) -> Similarity:
    motion = RigidMotion(
        rotation_angle=rng.uniform(0.0, 2.0 * math.pi),
        reflect=rng.random() < 0.5,
        translation=(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)),
    )
    return Similarity(motion, rng.uniform(0.1, 10.0))


def suite_isoperimetric(
    seed: int = 0, samples: int = 25, tol: float | None = None
) -> list[VerificationReport]:
    rel_tol = ISOPERIMETRIC_REL_TOL if tol is None else tol
    rng = random.Random(seed)
    reports = [check_isoperimetric(make_circle(rng.uniform(0.5, 3.0)), rel_tol)]
    for _ in range(samples):
        shape = build_unit_shape(random_family_param(rng)).transformed(random_similarity(rng))
        reports.append(check_isoperimetric(shape, rel_tol))
    return reports


def suite_unit_floor(
    seed: int = 0, samples: int = 25, tol: float | None = None
) -> list[VerificationReport]:
    floor_tol = 1e-9 if tol is None else tol
    rng = random.Random(seed)
    reports = [check_unit_floor(unitize(make_circle(rng.uniform(0.5, 3.0))), floor_tol)]
    for _ in range(samples):
        shape = build_unit_shape(random_family_param(rng)).transformed(random_similarity(rng))
        reports.append(check_unit_floor(unitize(shape), floor_tol))
    return reports


def suite_scale_equivalence(seed: int = 0, tol: float | None = None) -> list[VerificationReport]:
    rel_tol = ISOPERIMETRIC_REL_TOL if tol is None else tol
    rng = random.Random(seed)
    square = build_unit_shape(Rectangle(1.0))
    circle = make_circle(1.0)
    kappas = [0.5, 1.0, 3.0]
    reports = [
        check_scale_equivalence(square, 4.0, kappas, rel_tol),
        check_scale_equivalence(circle, 3.0, kappas, rel_tol),
        check_scale_equivalence(circle, 3.2, kappas, rel_tol),
    ]
    for _ in range(10):
        unit = unitize(build_unit_shape(random_family_param(rng))).unit_shape
        measure = 0.5 * (unit.area() + unit.semiperimeter())
        for rho in (0.8 * measure, measure, 1.2 * measure):
            reports.append(
                check_scale_equivalence(
                    unit, rho, [rng.uniform(0.2, 4.0) for _ in range(3)], rel_tol
                )
            )
    return reports


def suite_mgon(
    seed: int = 0,
    samples: int = 500,
    ms: Sequence[int] = (3, 4, 5, 6),
    tol: float | None = None,
) -> list[VerificationReport]:
    rel_tol = ISOPERIMETRIC_REL_TOL if tol is None else tol
    rng = random.Random(seed)
    reports = []
    for m in ms:
        measures = [_mgon_sample(m, rng)[2:] for _ in range(samples)]
        reports.append(_mgon_report(m, measures, rel_tol))
        regular = build_unit_shape(RegularPolygon(m))
        tight = check_mgon_bound(m, [regular], rel_tol)
        tight.claim = f"{m}-gon_bound_regular_equality"
        if not tight.details["equality_indices"]:
            tight.counterexamples.append({"expected": "equality for the regular m-gon"})
        reports.append(tight)
    return reports


def suite_blob_pythagoras(
    seed: int = 0, cases: int = 20, tol: float | None = None
) -> list[VerificationReport]:
    area_tol = 1e-9 if tol is None else tol
    rng = random.Random(seed)
    reports = []
    for i in range(cases):
        base = build_unit_shape(random_family_param(rng)).transformed(random_similarity(rng))
        a = rng.uniform(0.5, 3.0)
        b = rng.uniform(0.5, 3.0)
        if i % 2 == 0:
            c = math.hypot(a, b)
        else:
            c = math.hypot(a, b) * rng.uniform(1.05, 1.5)
        reports.append(check_blob_pythagoras(base, (a, b, c), area_tol))
    return reports


def suite_rational_circle(seed: int = 0, tol: float | None = None) -> list[VerificationReport]:
    return [check_rational_circle(1e-9 if tol is None else tol)]


def suite_calculus(seed: int = 0, tol: float | None = None) -> list[VerificationReport]:
    """The unit circle and a seeded unit member of each family, each at a seeded index. The
    rational circle, scaled by anything but 1, becomes CircularArcs, so it is left out."""
    identity_tol = 1e-12 if tol is None else tol
    rng = random.Random(seed)
    bases = [make_circle(1.0)] + [build_unit_shape(cls.draw(rng)) for cls in FAMILIES]
    return [check_calculus(b, [math.exp(rng.uniform(-2.0, 2.0))], identity_tol) for b in bases]


def suite_idempotence(seed: int = 0, tol: float | None = None) -> list[VerificationReport]:
    """A seeded circle and one seeded member of each family, each under a seeded similarity."""
    idempotence_tol = 1e-9 if tol is None else tol
    rng = random.Random(seed)
    shapes = [make_circle(rng.uniform(0.5, 3.0))] + [
        build_unit_shape(cls.draw(rng)).transformed(random_similarity(rng)) for cls in FAMILIES]
    return [check_idempotence(shape, idempotence_tol) for shape in shapes]


# Each overlap of two formulas: its claim, the parameter at fraction f of its domain, and the
# formulas. f is a midpoint of a CONCILIATION_GRID-point grid, which the tests check in full.
CONCILIATIONS = (
    ("right_triangle_vs_triangle", lambda f: math.pi / 2.0 * f,
     lambda t: fundamental_measure(RightTriangle(t)),
     lambda t: fundamental_measure(Triangle(math.sin(t), math.cos(t)))),
    ("right_parallelogram_vs_rectangle", lambda f: 10.0 ** (-2.0 + 4.0 * f),
     lambda r: fundamental_measure(Parallelogram(math.pi / 2.0, r)),
     lambda r: fundamental_measure(Rectangle(r))),
    ("equilateral_parallelogram_vs_rhombus", lambda f: math.pi * f,
     lambda t: fundamental_measure(Parallelogram(t, 1.0)),
     lambda t: fundamental_measure(Rhombus(t))),
    ("ellipse_agm_vs_quadrature", lambda f: f,
     lambda r: ellipse_half_perimeter(1.0, r), _ellipse_speed_integral_by_quadrature),
)
CONCILIATION_GRID = 400
CONCILIATION_SAMPLES = 3


def suite_conciliation(seed: int = 0, tol: float | None = None) -> list[VerificationReport]:
    rel_tol = 1e-10 if tol is None else tol
    rng = random.Random(seed)
    reports = []
    for name, at, lhs, rhs in CONCILIATIONS:
        fractions = [(rng.randrange(CONCILIATION_GRID) + 0.5) / CONCILIATION_GRID
                     for _ in range(CONCILIATION_SAMPLES)]
        reports.append(check_conciliation(name, [at(f) for f in fractions], lhs, rhs, rel_tol))
    return reports


SUITES = {
    "isoperimetric": suite_isoperimetric,
    "unit-floor": suite_unit_floor,
    "scale-equivalence": suite_scale_equivalence,
    "mgon": suite_mgon,
    "blob-pythagoras": suite_blob_pythagoras,
    "rational-circle": suite_rational_circle,
    "calculus": suite_calculus,
    "idempotence": suite_idempotence,
    "conciliation": suite_conciliation,
}


def run_suite(name: str, seed: int = 0, tol: float | None = None) -> list[VerificationReport]:
    if name == "all":
        reports = []
        for suite in SUITES.values():
            reports.extend(suite(seed=seed, tol=tol))
        return reports
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](seed=seed, tol=tol)
