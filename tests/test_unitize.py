import importlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitshapes.catalog import (
    Ellipse,
    Rectangle,
    RegularPolygon,
    RightTriangle,
    Triangle,
    build_unit_shape,
    fundamental_measure,
)
from unitshapes.curves import (
    EllipticalArc,
    LineSegment,
    Point,
    Polyline,
    RigidMotion,
    Shape,
    Similarity,
    make_circle,
    make_polygon,
    scaled,
)
from unitshapes.errors import DomainError
from unitshapes.unitize import tong_inradius, unitize
from unitshapes.verify import (
    CALCULUS_ROUNDING,
    CALCULUS_STEP,
    UNIT_ROUNDOFF,
    check_calculus,
    check_idempotence,
    random_family_param,
    random_similarity,
)

from oracles import measure_multiset_match


def test_tong_inradius_unit_circle():
    assert tong_inradius(make_circle(1.0)) == pytest.approx(1.0, rel=1e-12)


def test_tong_inradius_circle_radius_three():
    # A/S = 9pi / 3pi = 3: the index of a circle is its radius.
    assert tong_inradius(make_circle(3.0)) == pytest.approx(3.0, rel=1e-12)


def test_tong_inradius_unit_side_square():
    square = make_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert tong_inradius(square) == pytest.approx(0.5, rel=1e-12)


def test_unitize_circle_radius_five():
    result = unitize(make_circle(5.0))
    assert result.tong_inradius_reciprocal == pytest.approx(0.2, rel=1e-12)
    assert result.fundamental_measure == pytest.approx(math.pi, rel=1e-9)
    assert result.unit_shape.pieces[0].radius == pytest.approx(1.0, rel=1e-12)


def test_unitize_square_side_seven():
    square = make_polygon([(0, 0), (7, 0), (7, 7), (0, 7)])
    result = unitize(square)
    assert result.fundamental_measure == pytest.approx(4.0, rel=1e-12)
    side = result.unit_shape.pieces[0].vertices[1].distance_to(
        result.unit_shape.pieces[0].vertices[0]
    )
    assert side == pytest.approx(2.0, rel=1e-12)


def test_unitize_345_triangle():
    # Acute angle with tan = 4/3: (1 + sec)(1 + csc) = (8/3)(9/4) = 6.
    triangle = make_polygon([(0, 0), (3, 0), (3, 4)])
    result = unitize(triangle)
    assert result.fundamental_measure == pytest.approx(6.0, rel=1e-12)


def test_unit_property_holds():
    for shape in (make_circle(2.7), make_polygon([(0, 0), (5, 1), (2, 6)])):
        result = unitize(shape)
        a = result.unit_shape.area()
        s = result.unit_shape.semiperimeter()
        assert abs(a - s) / s <= 1e-8


def test_unitize_builds_the_unit_shape_only_when_read(monkeypatch):
    unitize_module = importlib.import_module("unitshapes.unitize")  # the package exports the function
    calls = []
    monkeypatch.setattr(unitize_module, "scaled", lambda *args: calls.append(args) or scaled(*args))
    triangle = make_polygon([(0, 0), (6, 0), (6, 8)])
    result = unitize(triangle)
    assert result.fundamental_measure == 6.0 and calls == []
    unit = result.unit_shape
    assert calls == [(triangle, 0.5)]
    assert result.unit_shape is unit and len(calls) == 1
    assert unit.to_dict() == scaled(triangle, 0.5).to_dict()


@pytest.mark.parametrize(
    "width, height",
    [(1.0, 1e-310), (1e200, 1e-190)],
    ids=["scale", "measure"],  # S/A = 1e310; S/A = 1e190 but (S/A) S = 1e390
)
def test_unitize_rejects_an_overflowing_scale_or_measure(width, height):
    sliver = make_polygon([(0, 0), (width, 0), (width, height), (0, height)])
    assert math.isfinite(sliver.area()) and math.isfinite(sliver.semiperimeter())
    with pytest.raises(DomainError, match="overflows the float range"):
        unitize(sliver)


def test_unitize_matches_the_family_measure_over_posed_members():
    rng = random.Random(123)
    worst = 0.0
    for _ in range(3000):
        param = random_family_param(rng)
        shape = build_unit_shape(param).transformed(random_similarity(rng))
        expected = fundamental_measure(param)
        gap = abs(unitize(shape).fundamental_measure - expected) / math.ulp(expected)
        worst = max(worst, gap)
    assert worst <= 60.0


_coordinate = st.floats(-4.0, 4.0)


@st.composite
def _polylines(draw):
    # A star about a centre inside it (every angular gap below a half-turn), so the loop is
    # simple; run either way round, since the sums do not depend on the edge order.
    n = draw(st.integers(4, 9))
    offset = draw(st.floats(0.0, 2.0 * math.pi))
    jitters = draw(st.lists(st.floats(0.0, 0.9), min_size=n, max_size=n))
    radii = draw(st.lists(st.floats(0.5, 3.0), min_size=n, max_size=n))
    cx, cy = draw(_coordinate), draw(_coordinate)
    angles = [offset + 2.0 * math.pi * (i + u) / n for i, u in enumerate(jitters)]
    ring = [(cx + r * math.cos(t), cy + r * math.sin(t)) for r, t in zip(radii, angles)]
    return make_polygon(ring[::-1] if draw(st.booleans()) else ring)


@st.composite
def _elliptical_caps(draw):
    # An elliptical arc closed by its chord. A pure scaling keeps the rotation itself, so every
    # parameter of the image is exactly 2^k times the input's, whatever the rotation.
    rotation = draw(st.floats(0.0, 2.0 * math.pi, exclude_max=True))
    t0 = draw(st.floats(-4.0, 4.0))
    arc = EllipticalArc(Point(draw(_coordinate), draw(_coordinate)),
                        (draw(st.floats(0.5, 3.0)), draw(st.floats(0.05, 3.0))), rotation,
                        t0, t0 + draw(st.floats(0.5, 2.0 * math.pi - 0.5)))
    return Shape([arc, LineSegment(arc.end, arc.start)])


@settings(max_examples=200, deadline=None)
@given(shape=st.one_of(_polylines(), _elliptical_caps()), k=st.integers(-40, 40))
def test_measure_is_bit_identical_under_power_of_two_scaling(shape, k):
    assert unitize(scaled(shape, 2.0**k)).fundamental_measure == unitize(shape).fundamental_measure


def test_idempotence_circle():
    assert check_idempotence(make_circle(1.0)).passed


@settings(max_examples=50, deadline=None)
@given(w=st.floats(0.2, 8.0), h=st.floats(0.2, 8.0))
def test_idempotence_random_rectangle(w, h):
    assert check_idempotence(make_polygon([(0, 0), (w, 0), (w, h), (0, h)])).passed


@settings(max_examples=50, deadline=None)
@given(
    x=st.floats(0.5, 4.0),
    y=st.floats(0.5, 4.0),
    angle=st.floats(0.0, 2.0 * math.pi),
    reflect=st.booleans(),
    tx=st.floats(-5.0, 5.0),
    ty=st.floats(-5.0, 5.0),
)
def test_idempotence_and_measure_after_rigid_motion(x, y, angle, reflect, tx, ty):
    triangle = make_polygon([(0, 0), (x, 0), (0.3, y)])
    moved = triangle.transformed(Similarity(RigidMotion(angle, reflect, (tx, ty))))
    assert check_idempotence(moved).passed
    assert unitize(moved).fundamental_measure == pytest.approx(
        unitize(triangle).fundamental_measure, rel=1e-8
    )


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(0.1, 10.0),
    angle=st.floats(0.0, 2.0 * math.pi),
    reflect=st.booleans(),
    tx=st.floats(-10.0, 10.0),
    ty=st.floats(-10.0, 10.0),
)
def test_fundamental_measure_is_similarity_invariant(lam, angle, reflect, tx, ty):
    base = build_unit_shape(Triangle(0.8, 0.7))
    moved = base.transformed(Similarity(RigidMotion(angle, reflect, (tx, ty)), lam))
    assert unitize(moved).fundamental_measure == pytest.approx(
        unitize(base).fundamental_measure, rel=1e-8
    )


def test_calculus_reports_a_non_unit_base_as_failing():
    # A circle of radius 3 has A = 9 pi and S = 3 pi: dA/dlambda = 18 pi lambda, P = 6 pi lambda.
    report = check_calculus(make_circle(3.0), (1.0,))
    assert not report.passed
    assert report.counterexamples[0]["derivative_rel_err"] == pytest.approx(2.0, rel=1e-9)


def test_calculus_friendly_circle():
    report = check_calculus(make_circle(1.0), (0.5, 1.0, 2.0))
    assert report.passed and report.instances_tested == 3
    assert report.details["measure"] == pytest.approx(math.pi, rel=1e-15)
    # A(lambda) = pi lambda^2, so A' = 2 pi lambda = 2 S(lambda): the bound holds with room.
    bound = CALCULUS_ROUNDING * UNIT_ROUNDOFF / CALCULUS_STEP
    assert bound == pytest.approx(8.88e-11, rel=1e-3)
    assert report.worst_slack > 0.0


def test_calculus_friendly_unit_square():
    unit_square = make_polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
    report = check_calculus(unit_square, (1.0,))
    assert report.passed
    # A(lambda) = 4 lambda^2 gives A'(1) = 8 = 2 * S(1): a pass puts the difference within 8.9e-11.
    assert report.details["measure"] == 4.0


def test_unit_measure_at_index_one():
    for param in (RightTriangle(1.0), Rectangle(2.0), Ellipse(0.6), RegularPolygon(7)):
        unit = build_unit_shape(param)
        measure = 0.5 * (unit.area() + unit.semiperimeter())
        at_one = scaled(unit, 1.0)
        assert at_one.area() == pytest.approx(measure, rel=1e-9)
        assert at_one.semiperimeter() == pytest.approx(measure, rel=1e-9)


def test_calculus_friendly_identity_is_exact():
    report = check_calculus(build_unit_shape(Rectangle(3.0)), (0.5, 1.0, 2.0), tol=1e-14)
    assert report.passed


class _LengthSkewedPolyline(Polyline):
    """A polyline whose kernel area gains 1e-9 times its length: A is not quadratic in scale."""

    def _exact_area_term(self) -> float:
        return super()._exact_area_term() + 1e-9 * self._exact_length()

    def transformed(self, sim):
        moved = super().transformed(sim)
        return _LengthSkewedPolyline(moved.xs, moved.ys)


def test_calculus_friendly_identity_measures_the_kernel():
    square = make_polygon([(0, 0), (2, 0), (2, 2), (0, 2)]).pieces[0]
    skewed = Shape([_LengthSkewedPolyline(square.xs, square.ys)])
    report = check_calculus(skewed, (0.5, 1.0, 2.0))
    assert not report.passed
    assert len(report.counterexamples) == 3
    for entry in report.counterexamples:
        # Far above roundoff for both checks; the finite difference, once held to 1e-5,
        # now sees it too.
        assert entry["derivative_rel_err"] > entry["bound"]
        assert entry["identity_rel_err"] > 1e-11


def test_measure_multiset_match():
    square = make_polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
    rotated = square.transformed(Similarity(RigidMotion(0.7, False, (1.0, -2.0))))
    assert measure_multiset_match(square, rotated)
    rect = make_polygon([(0, 0), (4, 0), (4, 1), (0, 1)])
    assert not measure_multiset_match(square, rect)
