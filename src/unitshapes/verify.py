"""Numerical exercises of the scaling, indexing and isoperimetric claims.

Each check measures concrete shapes through the curve kernel and returns a
VerificationReport; a report passes exactly when it has no counterexamples.
Each check's tolerance is its ``tol``, whose default its signature holds. Each
suite draws its inputs from a seed, at the sizes the module constants set, so
runs are reproducible, and passes a ``tol`` on to its checks: ``run_suite``'s
``tol`` (``unit-shapes verify --tol``) replaces every check's own tolerance.

Two inputs are built once and kept. The rational circle's quadrature measures
depend on nothing, so they are taken once per process; each call still compares
them with pi under its own ``tol``. The seeded circle and posed members of the
isoperimetric and unit-floor suites are kept for the last seed, so an "all" run
builds them once for both.
"""

from __future__ import annotations

import functools
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
    _enclosed_area,
    ellipse_half_perimeter,
    make_circle,
    make_rational_circle,
    quadrature_measures,
    scaled,
)
from .records import Record, setfield
from .solids import UNIT_VOLUMES, solids_table
from .unitize import UnitizationResult, unitize

UNIT_ROUNDOFF = 2.0**-53
CALCULUS_STEP = 1e-5  # the finite-difference step h of check_calculus, relative to lambda
CALCULUS_ROUNDING = 8.0  # K of its bound K u lambda / h
TRIPLE_REL_TOL = 1e-12  # how near to c^2 a^2 + b^2 makes a right triple in check_blob_pythagoras

# The sizes of the sampled suites: the m-gon orders and the random m-gons of each, the posed
# catalog members of the isoperimetric and unit-floor suites, and the blob-Pythagoras cases.
MGON_ORDERS = (3, 4, 5, 6)
MGON_SAMPLES = 500
POSED_SAMPLES = 25
BLOB_CASES = 20


class VerificationReport(Record):
    __slots__ = _fields = ("claim", "instances_tested", "worst_slack", "counterexamples", "details")

    def __init__(self, claim: str, instances_tested: int, worst_slack: float,
                 counterexamples: list, details: dict) -> None:
        setfield(self, "claim", claim)
        setfield(self, "instances_tested", instances_tested)
        setfield(self, "worst_slack", worst_slack)
        setfield(self, "counterexamples", counterexamples)
        setfield(self, "details", details)

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


def check_isoperimetric(shape: Shape, tol: float = 1e-9) -> VerificationReport:
    """pi * A <= S^2, with slack S^2 - pi A vanishing only for circles; tol is relative to S^2."""
    a = shape.area()
    s = shape.semiperimeter()
    slack = s * s - math.pi * a
    failed = slack < -tol * s * s
    return VerificationReport("isoperimetric_inequality", 1, slack,
                              [{"area": a, "semiperimeter": s, "slack": slack}] if failed else [],
                              {"equality": abs(slack) <= tol * s * s})


def check_unit_floor(result: UnitizationResult, tol: float = 1e-9) -> VerificationReport:
    """The fundamental measure of any unit shape is at least pi."""
    measure = result.fundamental_measure
    slack = measure - math.pi
    failed = slack < -tol
    return VerificationReport("unit_measure_floor", 1, slack,
                              [{"fundamental_measure": measure, "slack": slack}] if failed else [],
                              {"equality": abs(slack) <= tol})


def check_scale_equivalence(
    unit_shape: Shape, rho: float, kappas: Sequence[float], tol: float = 1e-9
) -> VerificationReport:
    """rho <= Pi holds iff rho * A <= S^2 across every rescaling of a unit shape."""
    measure = 0.5 * (unit_shape.area() + unit_shape.semiperimeter())
    lhs = rho <= measure * (1.0 + tol)
    worst = math.inf
    counterexamples = []
    for kappa in kappas:
        member = scaled(unit_shape, kappa)
        a, s = member.area(), member.semiperimeter()
        slack = s * s - rho * a
        worst = min(worst, slack)
        if (rho * a <= s * s * (1.0 + tol)) != lhs:
            counterexamples.append({"kappa": kappa, "slack": slack, "expected": lhs})
    return VerificationReport("scale_equivalence", len(kappas), worst, counterexamples,
                              {"rho": rho, "measure_bound_holds": lhs})


def check_mgon_bound(m: int, samples: Sequence[Shape], **tol: float) -> VerificationReport:
    """m tan(pi/m) * A <= S^2 for simple m-gons, tight exactly at regular ones. A ``tol``,
    relative to S^2, goes to ``_mgon_report``, whose signature holds its default."""
    measures = [(poly.area(), poly.semiperimeter()) for poly in samples]
    return _mgon_report(f"{m}-gon_bound", m, measures, tight=False, **tol)


def _mgon_report(claim: str, m: int, measures: Sequence[tuple[float, float]], *, tight: bool,
                 tol: float = 1e-9) -> VerificationReport:
    """The m-gon bound's report over the (area, semiperimeter) of each sample, tol relative to
    S^2; when ``tight``, the samples are regular m-gons and one must reach equality."""
    rho = fundamental_measure(RegularPolygon(m))
    worst = math.inf
    counterexamples = []
    equalities = []
    for i, (a, s) in enumerate(measures):
        square = s * s
        slack = square - rho * a
        relative = slack / square
        if relative < worst:
            worst = relative
        bound = tol * s * s  # (tol s) s, as rounded, not tol (s s)
        if slack < -bound:
            counterexamples.append({"index": i, "slack": slack})
        elif abs(slack) <= bound:
            equalities.append(i)
    if tight and not equalities:
        counterexamples.append({"expected": "equality for the regular m-gon"})
    return VerificationReport(claim, len(measures), worst, counterexamples,
                              {"equality_indices": equalities})


def check_blob_pythagoras(
    base: Shape, triple: tuple[float, float, float], tol: float = 1e-9
) -> VerificationReport:
    """Areas of the a-, b-, c-scaled copies add, to tol of the c-area, exactly when
    a^2 + b^2 = c^2."""
    a, b, c = triple
    area_c = scaled(base, c).area()
    mismatch = scaled(base, a).area() + scaled(base, b).area() - area_c
    areas_add = abs(mismatch) <= tol * area_c
    is_right_triple = abs(a * a + b * b - c * c) <= TRIPLE_REL_TOL * c * c
    counterexamples = [] if areas_add == is_right_triple else [
        {"triple": [a, b, c], "area_mismatch": mismatch}]
    return VerificationReport("blob_pythagoras", 1, mismatch, counterexamples,
                              {"triple": [a, b, c], "areas_add": areas_add,
                               "right_triple": is_right_triple})


@functools.cache
def _rational_circle_measures() -> tuple[float, float]:
    """The rational circle's area and semiperimeter by the quadrature reference. The shape
    takes no input, so they are measured once per process."""
    return quadrature_measures(make_rational_circle())


def check_rational_circle(tol: float = 1e-9) -> VerificationReport:
    """The trig-free rational circle measures A = S = pi by quadrature alone."""
    a, s = _rational_circle_measures()
    error = max(abs(a - math.pi), abs(s - math.pi))
    counterexamples = [{"area": a, "semiperimeter": s}] if error > tol else []
    return VerificationReport("rational_circle", 1, error, counterexamples,
                              {"area": a, "semiperimeter": s})


def check_calculus(
    shape: Shape, lambdas: Sequence[float], tol: float = 1e-12
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
    tol, relative. Slack is each bound minus its error; the report keeps the worst.
    """
    measure = 0.5 * (shape.area() + shape.semiperimeter())
    worst, worst_derivative_err = math.inf, 0.0
    counterexamples = []
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

        worst_derivative_err = max(worst_derivative_err, derivative_err)
        worst = min(worst, bound - derivative_err, tol - identity_err)
        if not (derivative_err <= bound and identity_err <= tol):
            counterexamples.append({"lambda": lam, "derivative_rel_err": derivative_err,
                                    "bound": bound, "identity_rel_err": identity_err})
    details = {"measure": measure, "worst_derivative_rel_err": worst_derivative_err}
    return VerificationReport("calculus_friendly_indexing", len(lambdas), worst, counterexamples,
                              details)


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
    counterexamples = [] if worst <= tol else [dict(errors)]
    return VerificationReport("idempotence", 1, tol - worst, counterexamples, errors)


def check_conciliation(name: str, params: Sequence[float], lhs: Callable[[float], float],
                       rhs: Callable[[float], float], tol: float = 1e-10) -> VerificationReport:
    """Two formulas for one quantity agree to tol, relative, at every parameter; NaN never
    agrees."""
    worst = tol
    counterexamples = []
    for q in params:
        a, b = lhs(q), rhs(q)
        err = abs(a - b) / max(abs(a), abs(b))
        worst = min(worst, tol - err)
        if not err <= tol:
            counterexamples.append({"param": q, "lhs": a, "rhs": b})
    return VerificationReport(name, len(params), worst, counterexamples, {})


def check_platonic_table(tol: float = 1e-9) -> VerificationReport:
    """The vertex-model volume of each unit solid in ``solids_table`` against its closed form,
    to tol, relative."""
    residuals = {}
    counterexamples = []
    for row in solids_table():
        kind, measured = row["solid"], row["fundamental_measure"]
        expected = UNIT_VOLUMES[kind][1]
        residuals[kind] = abs(measured - expected) / expected
        if residuals[kind] > tol:
            counterexamples.append({"solid": kind, "measured": measured, "expected": expected})
    return VerificationReport("platonic_unit_volumes", len(residuals), max(residuals.values()),
                              counterexamples, {"residuals": residuals})


def random_simple_mgon(m: int, rng: random.Random) -> Shape:
    """Random m-gon: vertices sorted by angle about a center, joined in that order.

    Rejection keeps a minimum angular gap (no near-degenerate edges) and a
    minimum area of 1e-6. The polygon is star-shaped about the center, and so
    simple, only when every angular gap is below pi; when one gap exceeds pi
    the center lies outside and the loop can cross itself. Such draws are not
    rejected yet, since that changes the seeded stream (ROADMAP item 4).
    """
    [(xs, ys, _, _)] = _mgon_samples(m, rng, 1)
    return Shape((Polyline(xs, ys),))


def _mgon_samples(m: int, rng: random.Random,
                  count: int) -> list[tuple[list[float], list[float], float, float]]:
    """The next ``count`` of ``random_simple_mgon``'s draws, in order, each as its closed
    loop's x and y lists, area and semiperimeter.

    One loop makes all ``count`` draws, so ``suite_mgon`` sets the sampler up once per order,
    not once per draw. The loop that places each vertex also measures the edge that ends
    there: its ``hypot(ax - bx, ay - by)`` length and its ``ax * by - bx * ay`` area term, the float
    expressions of ``curves._edge_terms``, and the closing edge after the loop. fsum does not
    depend on the order of its terms, and ``_enclosed_area`` is the orientation rule of
    ``Shape``, so the measures are those of ``Shape((Polyline(xs, ys),))`` bit for bit. No
    edge has zero length, since neighbouring angles differ by at least 1e-3.
    """
    # Each draw is rng.uniform(a, b) written out as its documented a + (b - a) * rng.random()
    # (with a = 0 for the angles), which saves a method call per draw and keeps every value.
    draw = rng.random
    cos, sin, hypot, fsum = math.cos, math.sin, math.hypot, math.fsum
    two_pi = 2.0 * math.pi
    samples = []
    while len(samples) < count:
        cx = -5.0 + (5.0 - -5.0) * draw()
        cy = -5.0 + (5.0 - -5.0) * draw()
        angles = [two_pi * draw() for _ in range(m)]
        angles.sort()
        if min(map(sub, angles[1:], angles)) < 1e-3 or two_pi - (angles[-1] - angles[0]) < 1e-3:
            continue
        # Vertex i takes the i-th radius draw; the radii are drawn after every angle.
        vertex_angles = iter(angles)
        t = next(vertex_angles)
        r = 0.2 + (3.0 - 0.2) * draw()
        x0 = ax = cx + r * cos(t)
        y0 = ay = cy + r * sin(t)
        xs = [ax]
        ys = [ay]
        edges = []
        area_terms = []
        for t in vertex_angles:
            r = 0.2 + (3.0 - 0.2) * draw()
            bx = cx + r * cos(t)
            by = cy + r * sin(t)
            xs.append(bx)
            ys.append(by)
            edges.append(hypot(ax - bx, ay - by))
            area_terms.append(ax * by - bx * ay)
            ax, ay = bx, by
        xs.append(x0)
        ys.append(y0)
        edges.append(hypot(ax - x0, ay - y0))
        area_terms.append(ax * y0 - x0 * ay)
        area = _enclosed_area(0.5 * fsum(area_terms))
        if area >= 1e-6:
            samples.append((xs, ys, area, 0.5 * fsum(edges)))
    return samples


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


def _posed_member(rng: random.Random) -> Shape:
    """The unit shape of a random catalog member, under a random similarity."""
    return build_unit_shape(random_family_param(rng)).transformed(random_similarity(rng))


@functools.lru_cache(maxsize=1)
def _circle_and_posed_members(seed: int) -> tuple[Shape, ...]:
    """A seeded circle, then POSED_SAMPLES posed members. The isoperimetric and unit-floor
    suites both measure them, so the members of the last seed are kept: an "all" run builds
    them once. The key is the seed alone, so a caller that changes what they are built from
    clears the cache first."""
    rng = random.Random(seed)
    return (make_circle(rng.uniform(0.5, 3.0)), *(_posed_member(rng) for _ in range(POSED_SAMPLES)))


def suite_isoperimetric(seed: int, **tol: float) -> list[VerificationReport]:
    return [check_isoperimetric(shape, **tol) for shape in _circle_and_posed_members(seed)]


def suite_unit_floor(seed: int, **tol: float) -> list[VerificationReport]:
    return [check_unit_floor(unitize(shape), **tol) for shape in _circle_and_posed_members(seed)]


def suite_scale_equivalence(seed: int, **tol: float) -> list[VerificationReport]:
    rng = random.Random(seed)
    square = build_unit_shape(Rectangle(1.0))
    circle = make_circle(1.0)
    kappas = [0.5, 1.0, 3.0]
    reports = [
        check_scale_equivalence(square, 4.0, kappas, **tol),
        check_scale_equivalence(circle, 3.0, kappas, **tol),
        check_scale_equivalence(circle, 3.2, kappas, **tol),
    ]
    for _ in range(10):
        unit = unitize(build_unit_shape(random_family_param(rng))).unit_shape
        measure = 0.5 * (unit.area() + unit.semiperimeter())
        for rho in (0.8 * measure, measure, 1.2 * measure):
            kappas = [rng.uniform(0.2, 4.0) for _ in range(3)]
            reports.append(check_scale_equivalence(unit, rho, kappas, **tol))
    return reports


def suite_mgon(seed: int, **tol: float) -> list[VerificationReport]:
    rng = random.Random(seed)
    reports = []
    for m in MGON_ORDERS:
        measures = [(a, s) for _, _, a, s in _mgon_samples(m, rng, MGON_SAMPLES)]
        reports.append(_mgon_report(f"{m}-gon_bound", m, measures, tight=False, **tol))
        regular = build_unit_shape(RegularPolygon(m))
        reports.append(_mgon_report(f"{m}-gon_bound_regular_equality", m,
                                    [(regular.area(), regular.semiperimeter())], tight=True, **tol))
    return reports


def suite_blob_pythagoras(seed: int, **tol: float) -> list[VerificationReport]:
    rng = random.Random(seed)
    reports = []
    for i in range(BLOB_CASES):
        base = _posed_member(rng)
        a = rng.uniform(0.5, 3.0)
        b = rng.uniform(0.5, 3.0)
        c = math.hypot(a, b) if i % 2 == 0 else math.hypot(a, b) * rng.uniform(1.05, 1.5)
        reports.append(check_blob_pythagoras(base, (a, b, c), **tol))
    return reports


def suite_rational_circle(seed: int, **tol: float) -> list[VerificationReport]:
    return [check_rational_circle(**tol)]


def suite_calculus(seed: int, **tol: float) -> list[VerificationReport]:
    """The unit circle and a seeded unit member of each family, each at a seeded index. The
    rational circle, scaled by anything but 1, becomes CircularArcs, so it is left out."""
    rng = random.Random(seed)
    bases = [make_circle(1.0)] + [build_unit_shape(cls.draw(rng)) for cls in FAMILIES]
    return [check_calculus(b, [math.exp(rng.uniform(-2.0, 2.0))], **tol) for b in bases]


def suite_idempotence(seed: int, **tol: float) -> list[VerificationReport]:
    """A seeded circle and one seeded member of each family, each under a seeded similarity."""
    rng = random.Random(seed)
    shapes = [make_circle(rng.uniform(0.5, 3.0))] + [
        build_unit_shape(cls.draw(rng)).transformed(random_similarity(rng)) for cls in FAMILIES]
    return [check_idempotence(shape, **tol) for shape in shapes]


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


def suite_conciliation(seed: int, **tol: float) -> list[VerificationReport]:
    rng = random.Random(seed)
    reports = []
    for name, at, lhs, rhs in CONCILIATIONS:
        fractions = [(rng.randrange(CONCILIATION_GRID) + 0.5) / CONCILIATION_GRID
                     for _ in range(CONCILIATION_SAMPLES)]
        reports.append(check_conciliation(name, [at(f) for f in fractions], lhs, rhs, **tol))
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
    """The reports of suite ``name``, or of every suite for "all", drawn from ``seed``; with
    ``tol`` None each check keeps its own tolerance."""
    override = {} if tol is None else {"tol": tol}
    if name == "all":
        return [report for suite in SUITES.values() for report in suite(seed, **override)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](seed, **override)
