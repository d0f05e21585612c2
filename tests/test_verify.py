import json
import math
import random

import pytest

from unitshapes import verify
from unitshapes.catalog import (
    Ellipse,
    Rectangle,
    RegularPolygon,
    Rhombus,
    RightTriangle,
    Triangle,
    build_unit_shape,
    fundamental_measure,
)
from unitshapes.curves import (
    LineSegment,
    Polyline,
    RationalPoint,
    RigidMotion,
    Shape,
    make_circle,
    make_polygon,
    make_rational_circle,
    quadrature_measures,
    scaled,
)
from unitshapes.unitize import UnitizationResult, unitize
from unitshapes.verify import (
    check_blob_pythagoras,
    check_calculus,
    check_conciliation,
    check_isoperimetric,
    check_mgon_bound,
    check_rational_circle,
    check_scale_equivalence,
    check_unit_floor,
    VerificationReport,
    random_simple_mgon,
    run_suite,
    suite_mgon,
)


@pytest.fixture
def fresh_rational_circle():
    """The rational circle measured anew in the test, and its measures not kept after it."""
    verify._rational_circle_measures.cache_clear()
    yield
    verify._rational_circle_measures.cache_clear()


@pytest.fixture
def fresh_posed_members():
    """No posed members kept from before the test, nor from it after."""
    verify._circle_and_posed_members.cache_clear()
    yield
    verify._circle_and_posed_members.cache_clear()


# --- isoperimetric inequality -------------------------------------------------


def test_circle_achieves_equality():
    report = check_isoperimetric(make_circle(1.0))
    assert report.passed
    assert report.details["equality"]
    assert abs(report.worst_slack) <= 1e-9 * math.pi**2


def test_square_slack():
    square = make_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    report = check_isoperimetric(square)
    assert report.passed
    assert not report.details["equality"]
    # S = 2, A = 1: slack is 4 - pi.
    assert report.worst_slack == pytest.approx(4.0 - math.pi, rel=1e-12)


def test_ellipse_strictly_slack():
    report = check_isoperimetric(build_unit_shape(Ellipse(0.5)))
    assert report.passed
    assert report.worst_slack > 1e-6


def test_catalog_equality_only_for_circles():
    for param in (RightTriangle(0.7), Triangle(0.9, 0.8), Rectangle(2.0),
                  Rhombus(1.1), Ellipse(0.5), RegularPolygon(12)):
        shape = build_unit_shape(param)
        iso = check_isoperimetric(shape)
        floor = check_unit_floor(unitize(shape))
        assert iso.passed and floor.passed
        assert not iso.details["equality"]
        assert not floor.details["equality"]
        assert iso.worst_slack > 1e-6
    circle_iso = check_isoperimetric(make_circle(2.0))
    circle_floor = check_unit_floor(unitize(make_circle(2.0)))
    assert circle_iso.details["equality"] and circle_floor.details["equality"]


# --- unit measure floor --------------------------------------------------------


def test_unit_floor_values():
    assert check_unit_floor(unitize(make_circle(1.0))).details["equality"]
    tri = check_unit_floor(unitize(build_unit_shape(Triangle(1.0, 1.0))))
    assert tri.passed
    assert tri.worst_slack == pytest.approx(3.0 * math.sqrt(3.0) - math.pi, rel=1e-9)
    rhombus = check_unit_floor(unitize(build_unit_shape(Rhombus(math.pi / 6.0))))
    assert rhombus.worst_slack == pytest.approx(8.0 - math.pi, rel=1e-9)


# --- scale equivalence ----------------------------------------------------------


def test_scale_equivalence_square_boundary():
    square = build_unit_shape(Rectangle(1.0))
    report = check_scale_equivalence(square, 4.0, [0.5, 1.0, 3.0])
    assert report.passed
    assert report.details["measure_bound_holds"]


def test_scale_equivalence_circle_below_pi():
    report = check_scale_equivalence(make_circle(1.0), 3.0, [0.5, 1.0, 3.0])
    assert report.passed
    assert report.details["measure_bound_holds"]


def test_scale_equivalence_circle_above_pi():
    # 3.2 > pi, so the rescaled inequality must fail at every kappa too.
    report = check_scale_equivalence(make_circle(1.0), 3.2, [0.5, 1.0, 3.0])
    assert report.passed
    assert not report.details["measure_bound_holds"]
    assert report.worst_slack < 0.0


def test_scale_equivalence_fails_a_shape_that_is_not_unit():
    # The radius-2 circle's mean of area and semiperimeter is 3 pi, so rho = 0.99 * 3 pi passes
    # that side while every rescaling has rho A > S^2: each kappa is a counterexample.
    report = check_scale_equivalence(make_circle(2.0), 0.99 * 3.0 * math.pi, [0.5, 1.0, 3.0])
    assert not report.passed
    assert [c["kappa"] for c in report.counterexamples] == [0.5, 1.0, 3.0]
    assert all(c["expected"] and c["slack"] < 0.0 for c in report.counterexamples)


# --- m-gon bound ---------------------------------------------------------------


def test_mgon_bound_random_samples():
    rng = random.Random(123)
    for m in (3, 4, 5, 6):
        polys = [random_simple_mgon(m, rng) for _ in range(100)]
        report = check_mgon_bound(m, polys)
        assert report.passed
        assert report.worst_slack >= 0.0


def test_mgon_equality_for_regular():
    for m in (3, 4, 6, 9):
        regular = build_unit_shape(RegularPolygon(m))
        report = check_mgon_bound(m, [regular])
        assert report.passed
        assert report.details["equality_indices"] == [0]


def test_mgon_equality_survives_scaling():
    regular = build_unit_shape(RegularPolygon(5))
    for kappa in (0.25, 1.0, 17.0):
        report = check_mgon_bound(5, [scaled(regular, kappa)])
        assert report.details["equality_indices"] == [0]


def test_mgon_bound_fails_a_hexagon_held_to_the_triangle_bound():
    report = check_mgon_bound(3, [build_unit_shape(RegularPolygon(6))])
    assert not report.passed
    assert [c["index"] for c in report.counterexamples] == [0]
    assert report.worst_slack < 0.0


def test_rho_4_is_square_constant():
    assert fundamental_measure(RegularPolygon(4)) == pytest.approx(4.0, rel=1e-12)


def test_irregular_polygon_strict_slack():
    skinny = make_polygon([(0, 0), (5, 0), (5, 0.4), (0, 0.4)])
    report = check_mgon_bound(4, [skinny])
    assert report.passed
    assert report.details["equality_indices"] == []


# --- blob Pythagoras -------------------------------------------------------------


def test_blob_345_circle():
    report = check_blob_pythagoras(make_circle(1.0), (3.0, 4.0, 5.0))
    assert report.passed
    assert report.details["areas_add"] and report.details["right_triple"]


def test_blob_sqrt2_ellipse():
    base = build_unit_shape(Ellipse(0.4))
    report = check_blob_pythagoras(base, (1.0, 1.0, math.sqrt(2.0)))
    assert report.passed
    assert report.details["areas_add"]


def test_blob_negative_case_consistent():
    square = make_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    report = check_blob_pythagoras(square, (1.0, 1.0, 2.0))
    assert report.passed  # not a right triple AND areas don't add: consistent
    assert not report.details["areas_add"]
    assert not report.details["right_triple"]


def test_blob_trips_on_inconsistency():
    # Force a absurdly loose area tolerance so areas "add" for a non-triple.
    square = make_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    report = check_blob_pythagoras(square, (1.0, 1.0, 2.0), tol=10.0)
    assert not report.passed


def test_blob_equality_independent_of_base():
    for base in (make_circle(0.7), build_unit_shape(Triangle(0.8, 0.9)),
                  build_unit_shape(Ellipse(0.6))):
        assert check_blob_pythagoras(base, (2.0, 1.5, 2.5)).details["areas_add"]


# --- rational circle -------------------------------------------------------------


def test_rational_circle_is_unit_shape():
    report = check_rational_circle()
    assert report.passed
    assert report.details["area"] == pytest.approx(math.pi, abs=1e-9)
    assert report.details["semiperimeter"] == pytest.approx(math.pi, abs=1e-9)


def test_rational_circle_measured_by_quadrature(monkeypatch, fresh_rational_circle):
    area, semiperimeter = quadrature_measures(make_rational_circle())
    # Three quarters of the unit circle from t = 1e100, which the reference takes in u = 1/t,
    # closed by its chord.
    arc = RationalPoint(1e100, -1.0, RigidMotion(0.7, True, (3.0, -2.0)))
    far = Shape([arc, LineSegment(arc.end, arc.start)])
    far_measures = quadrature_measures(far)
    assert far_measures == pytest.approx((far.area(), far.semiperimeter()), rel=2e-15, abs=0.0)
    # A closed form for the rational piece, right or wrong, must not reach the fixture.
    monkeypatch.setattr(RationalPoint, "_exact_length", lambda self: 1.0, raising=False)
    monkeypatch.setattr(RationalPoint, "_exact_area_term", lambda self: 1.0, raising=False)
    monkeypatch.setattr(RationalPoint, "_sweep", lambda self: 1.0)
    verify._rational_circle_measures.cache_clear()  # else the patched pieces are never measured
    report = check_rational_circle()
    assert report.passed
    assert report.details["area"] == area
    assert report.details["semiperimeter"] == semiperimeter
    assert quadrature_measures(far) == far_measures


def test_rational_circle_is_measured_once_per_process(monkeypatch, fresh_rational_circle):
    calls = []

    def counting(shape):
        calls.append(shape)
        return quadrature_measures(shape)

    monkeypatch.setattr(verify, "quadrature_measures", counting)
    first, second = check_rational_circle(), check_rational_circle(tol=1e-12)
    assert len(calls) == 1
    assert first.details == second.details
    # The kept measures still meet each caller's own tolerance.
    assert first.passed and check_rational_circle(tol=0.0).worst_slack == first.worst_slack


def test_rational_circle_fails_an_area_off_by_1e_6(monkeypatch, fresh_rational_circle):
    def off_area(shape):
        area, semiperimeter = quadrature_measures(shape)
        return area * (1.0 + 1e-6), semiperimeter

    monkeypatch.setattr(verify, "quadrature_measures", off_area)
    report = check_rational_circle()
    assert not report.passed
    assert report.worst_slack == pytest.approx(1e-6 * math.pi, rel=1e-6)


# --- posed members: built once per "all" run, never for a stale seed ----------------


def test_all_builds_the_posed_members_once(monkeypatch, fresh_posed_members):
    # 25 posed members for isoperimetric and unit-floor together, and 20 for blob-pythagoras.
    calls = []
    original = verify._posed_member

    def counting(rng):
        calls.append(rng)
        return original(rng)

    monkeypatch.setattr(verify, "_posed_member", counting)
    for seed in (0, 1, 2):
        calls.clear()
        run_suite("all", seed)
        assert len(calls) == verify.POSED_SAMPLES + verify.BLOB_CASES == 45


def test_posed_members_of_another_seed_are_not_reused(fresh_posed_members):
    def fresh(suite, seed):
        verify._circle_and_posed_members.cache_clear()
        return [r.to_dict() for r in run_suite(suite, seed)]

    expected = fresh("isoperimetric", 1), fresh("unit-floor", 2)
    verify._circle_and_posed_members.cache_clear()
    got = [r.to_dict() for r in run_suite("isoperimetric", 1)], \
        [r.to_dict() for r in run_suite("unit-floor", 2)]
    assert got == expected
    assert expected[0] != fresh("isoperimetric", 2)  # the seed shows in the reports


# --- calculus, idempotence and conciliation: each can fail -------------------------


def test_calculus_fails_a_square_off_unit_by_1e_8():
    # A = 4 (1 + 1e-8)^2 against S = 4 (1 + 1e-8): the derivative is off P by 1e-8 relative.
    off_unit = scaled(build_unit_shape(Rectangle(1.0)), 1.0 + 1e-8)
    report = check_calculus(off_unit, (0.5, 1.0, 2.0))
    assert not report.passed
    assert len(report.counterexamples) == 3
    for entry in report.counterexamples:
        assert entry["derivative_rel_err"] == pytest.approx(1e-8, rel=1e-3)
    assert check_calculus(build_unit_shape(Rectangle(1.0)), (0.5, 1.0, 2.0)).passed


def test_conciliation_fails_formulas_that_differ():
    # Rectangle(r) against Rhombus(theta) at the same number: (1 + r)^2 / r is not 4 / sin r.
    report = check_conciliation(
        "rectangle_vs_rhombus", [0.5, 1.0, 1.5],
        lambda r: fundamental_measure(Rectangle(r)), lambda t: fundamental_measure(Rhombus(t)),
    )
    assert not report.passed
    assert len(report.counterexamples) == 3 and report.worst_slack < 0.0


def test_conciliation_fails_a_nan():
    report = check_conciliation("nan", [1.0], lambda q: math.nan, lambda q: 1.0)
    assert not report.passed


def test_idempotence_suite_fails_a_unitize_off_by_1e_6(monkeypatch):
    def off_scale(shape):
        scale = unitize(shape).tong_inradius_reciprocal * (1.0 + 1e-6)
        return UnitizationResult(scale, scaled(shape, scale), unitize(shape).fundamental_measure)

    monkeypatch.setattr(verify, "unitize", off_scale)
    reports = run_suite("idempotence", seed=0)
    assert reports and not any(r.passed for r in reports)
    for r in reports:
        assert r.details["unit_gap"] == pytest.approx(1e-6, rel=1e-3)


def test_new_suites_pass_at_200_seeds():
    # search runs suites at random seeds, so one failing seed would count as a wrong answer.
    for seed in range(200):
        for suite in ("calculus", "idempotence", "conciliation"):
            for report in run_suite(suite, seed=seed):
                assert report.passed, (suite, seed, report.to_dict())


# --- sampler and suites -----------------------------------------------------------


def test_random_mgon_is_simple_and_sized():
    rng = random.Random(7)
    for m in (3, 4, 5, 6, 9):
        poly = random_simple_mgon(m, rng)
        assert len(poly.pieces[0].vertices) == m + 1
        assert poly.area() >= 1e-6


def _mgon_vertices_by_uniform(m, rng):
    """The sampler's draws re-derived with rng.uniform, as it was first written."""
    while True:
        cx = rng.uniform(-5.0, 5.0)
        cy = rng.uniform(-5.0, 5.0)
        angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(m))
        gaps = [b - a for a, b in zip(angles, angles[1:])]
        gaps.append(2.0 * math.pi - (angles[-1] - angles[0]))
        if min(gaps) < 1e-3:
            continue
        radii = [rng.uniform(0.2, 3.0) for _ in range(m)]
        vertices = [(cx + r * math.cos(t), cy + r * math.sin(t)) for r, t in zip(radii, angles)]
        if make_polygon(vertices).area() >= 1e-6:
            return vertices


@pytest.mark.parametrize("m", range(3, 9))
def test_random_mgon_draws_match_uniform_exactly(m):
    for seed in (0, 1, 7, 42, 2019):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(20):
            vertices = [(v.x, v.y) for v in random_simple_mgon(m, rng).pieces[0].vertices]
            expected = _mgon_vertices_by_uniform(m, ref_rng)
            closed = expected + expected[:1]
            assert vertices in (closed, closed[::-1])  # Shape reverses a clockwise loop
        assert rng.getstate() == ref_rng.getstate()


def _mgon_via_make_polygon(m, rng):
    """The sampler as it was before it built its Points and Shape directly."""
    draw = rng.random
    two_pi = 2.0 * math.pi
    while True:
        cx = -5.0 + (5.0 - -5.0) * draw()
        cy = -5.0 + (5.0 - -5.0) * draw()
        angles = sorted(two_pi * draw() for _ in range(m))
        gaps = [b - a for a, b in zip(angles, angles[1:])]
        gaps.append(two_pi - (angles[-1] - angles[0]))
        if min(gaps) < 1e-3:
            continue
        radii = [0.2 + (3.0 - 0.2) * draw() for _ in range(m)]
        vertices = [
            (cx + r * math.cos(t), cy + r * math.sin(t)) for r, t in zip(radii, angles)
        ]
        poly = make_polygon(vertices)
        if poly.area() >= 1e-6:
            return poly


@pytest.mark.parametrize("m", range(3, 9))
def test_random_mgon_stream_is_unchanged(m):
    for seed in (0, 7, 42):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(50):
            got, expected = random_simple_mgon(m, rng), _mgon_via_make_polygon(m, ref_rng)
            assert got.pieces[0].vertices == expected.pieces[0].vertices
            assert (got.area(), got.perimeter()) == (expected.area(), expected.perimeter())
        assert rng.getstate() == ref_rng.getstate()


def _suite_mgon_by_shapes(seed, samples, ms):
    """suite_mgon as it ran before it measured vertex loops: a Shape per sample, through check_mgon_bound."""
    rng = random.Random(seed)
    reports = []
    for m in ms:
        reports.append(check_mgon_bound(m, [_mgon_via_make_polygon(m, rng) for _ in range(samples)]))
        tight = check_mgon_bound(m, [build_unit_shape(RegularPolygon(m))])
        missed = [] if tight.details["equality_indices"] else [
            {"expected": "equality for the regular m-gon"}]
        reports.append(VerificationReport(f"{m}-gon_bound_regular_equality", tight.instances_tested,
                                          tight.worst_slack, tight.counterexamples + missed,
                                          tight.details))
    return reports


def test_suite_mgon_equals_the_shape_path_float_for_float(monkeypatch):
    # The suite at 60 samples of each order 3-8, in place of its 500 of orders 3-6, over 40 seeds.
    ms = range(3, 9)
    monkeypatch.setattr(verify, "MGON_ORDERS", ms)
    monkeypatch.setattr(verify, "MGON_SAMPLES", 60)
    for seed in range(40):
        # The dicts hold floats, and == on floats is bit equality (no NaN arises here).
        got = [r.to_dict() for r in suite_mgon(seed)]
        assert got == [r.to_dict() for r in _suite_mgon_by_shapes(seed, 60, ms)]


@pytest.mark.parametrize("m", [3, 4, 5, 8, 13])
def test_mgon_sample_measures_its_closed_loop_as_shape_does(m):
    # The sampler measures each edge as it draws it; the Shape of its own closed lists must agree
    # bit for bit, for loops either way round and for the loop's closing edge.
    # One call makes 40 draws, which are random_simple_mgon's next 40, in order.
    seen = set()
    for seed in (0, 5, 11, 2019):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for xs, ys, area, semiperimeter in verify._mgon_samples(m, rng, 40):
            assert len(xs) == len(ys) == m + 1
            assert (xs[-1], ys[-1]) == (xs[0], ys[0])
            shape = Shape((Polyline(xs, ys),))
            assert (area, semiperimeter) == (shape.area(), shape.semiperimeter())
            seen.add(tuple(shape.pieces[0].xs) == tuple(xs))
            assert random_simple_mgon(m, ref_rng).pieces == shape.pieces
        assert rng.getstate() == ref_rng.getstate()
    # A draw runs clockwise when its center falls outside it, which is common only at small m;
    # Shape reverses such a loop, and the sampler's |area| must still agree.
    assert True in seen and (m >= 5 or False in seen)


def test_random_mgon_deterministic_for_seed():
    a = random_simple_mgon(5, random.Random(99))
    b = random_simple_mgon(5, random.Random(99))
    assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize("suite", ["isoperimetric", "unit-floor", "scale-equivalence",
                                   "blob-pythagoras", "rational-circle", "calculus",
                                   "idempotence", "conciliation"])
def test_suites_pass(suite):
    for report in run_suite(suite, seed=42):
        assert report.passed, report.to_dict()


def test_mgon_suite_passes():
    reports = run_suite("mgon", seed=42)
    assert all(r.passed for r in reports)
    assert sum(r.instances_tested for r in reports if "regular" not in r.claim) == 2000


def test_report_json_lines():
    line = check_rational_circle().to_json_line()
    doc = json.loads(line)
    assert doc["claim"] == "rational_circle"
    assert doc["pass"] is True
    assert doc["counterexamples"] == []


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("perpetual-motion")
