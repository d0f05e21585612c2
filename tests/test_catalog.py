import json
import math
import pathlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitshapes import unitize
from unitshapes.catalog import (
    FAMILIES,
    FAMILY_BY_NAME,
    Ellipse,
    Parallelogram,
    Rectangle,
    RegularPolygon,
    Rhombus,
    RightTriangle,
    Triangle,
    build_unit_shape,
    ellipse_semi_minor,
    family_from_dict,
    family_named,
    family_to_dict,
    fundamental_measure,
    rhombus_short_diagonal,
)
from unitshapes.curves import Point, ellipse_half_perimeter, quadrature_measures
from unitshapes.errors import DomainError
from unitshapes.verify import CONCILIATION_GRID, CONCILIATIONS, check_conciliation

from oracles import dense_simpson

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


# --- closed forms -----------------------------------------------------------


@pytest.mark.parametrize(
    "param,expected",
    [
        (RightTriangle(math.pi / 4.0), 3.0 + 2.0 * math.sqrt(2.0)),
        (Triangle(1.0, 1.0), 3.0 * math.sqrt(3.0)),
        (Rectangle(1.0), 4.0),
        (Rhombus(math.pi / 2.0), 4.0),
        (Rectangle(GOLDEN), GOLDEN**3),
        (RegularPolygon(4), 4.0),
        (Rhombus(math.pi / 6.0), 8.0),
        (Parallelogram(math.pi / 2.0, 2.0), 4.5),
    ],
)
def test_golden_measures(param, expected):
    assert fundamental_measure(param) == pytest.approx(expected, rel=1e-12)


def test_regular_polygon_formula():
    for m in range(3, 13):
        assert fundamental_measure(RegularPolygon(m)) == pytest.approx(
            m * math.tan(math.pi / m), rel=1e-12
        )


def test_regular_polygon_measures_decrease_to_pi():
    values = [fundamental_measure(RegularPolygon(m)) for m in range(3, 60)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > math.pi for v in values)
    assert fundamental_measure(RegularPolygon(100000)) == pytest.approx(math.pi, abs=1e-8)


@settings(max_examples=100, deadline=None)
@given(
    r=st.floats(0.05, 1.0),
    s=st.floats(0.05, 1.0),
)
def test_triangle_measure_symmetric(r, s):
    if r + s <= 1.0 + 1e-9:
        return
    assert fundamental_measure(Triangle(r, s)) == pytest.approx(
        fundamental_measure(Triangle(s, r)), rel=1e-12
    )


def test_measure_floor_above_pi():
    params = (
        [RightTriangle(t) for t in (0.2, 0.8, 1.4)]
        + [Triangle(0.9, 0.8), Triangle(1.0, 0.6)]
        + [Rectangle(r) for r in (0.05, 1.0, 20.0)]
        + [Rhombus(t) for t in (0.3, 1.5, 2.8)]
        + [Parallelogram(1.0, 2.0)]
        + [Ellipse(r) for r in (0.1, 0.5, 0.9)]
        + [RegularPolygon(m) for m in (3, 7, 12)]
    )
    for p in params:
        assert fundamental_measure(p) > math.pi


def test_ellipse_measure_approaches_circle_value():
    assert fundamental_measure(Ellipse(0.9999)) == pytest.approx(math.pi, abs=1e-7)


# --- domain validation ------------------------------------------------------


@pytest.mark.parametrize(
    "bad",
    [
        lambda: RightTriangle(0.0),
        lambda: RightTriangle(math.pi / 2.0),
        lambda: Triangle(0.4, 0.5),
        lambda: Triangle(1.2, 0.9),
        lambda: Triangle(0.5, 0.5),  # degenerate: r + s = 1
        lambda: Rectangle(0.0),
        lambda: Rectangle(-1.0),
        lambda: Rhombus(math.pi),
        lambda: Parallelogram(1.0, 0.0),
        lambda: Parallelogram(0.0, 1.0),
        lambda: Ellipse(1.0),
        lambda: Ellipse(0.0),
        lambda: RegularPolygon(2),
        lambda: Rectangle(math.inf),
        lambda: Parallelogram(1.0, math.inf),
    ],
)
def test_out_of_domain_rejected(bad):
    with pytest.raises(DomainError):
        bad()


@pytest.mark.parametrize(
    "r, s",
    [(0.5, 0.6), (1.0, 1.0), (1.0, 5e-324), (0.5, 0.5), (0.4, 0.5), (1.2, 0.9), (0.0, 1.0),
     (-0.5, 1.0), (math.nan, 0.9), (0.9, math.inf)],
)
def test_triangle_admits_exactly_the_pairs_it_builds(r, s):
    try:
        Triangle(r, s)
    except DomainError:
        built = False
    else:
        built = True
    assert Triangle.admits(r, s) is built


OVERFLOWING = [
    Rectangle(1e-320),
    Parallelogram(1e-200, 1e200),  # about 1e400: (1 + r) ((1 + r) / (r sin(theta))) overflows too
    Rhombus(1e-320),
    RightTriangle(1e-320),
    Parallelogram(1.0, 1e-320),
    Parallelogram(1e-200, 1e-200),  # r sin(theta) underflows to 0.0
    Ellipse(5e-324),
]


@pytest.mark.parametrize("param", OVERFLOWING, ids=repr)
def test_measure_overflow_is_a_domain_error(param):
    with pytest.raises(DomainError, match="overflows the float range"):
        fundamental_measure(param)


@pytest.mark.parametrize("param", OVERFLOWING, ids=repr)
def test_builder_overflow_names_the_parameter(param):
    message = f"the {param.name} measure at {param!r} overflows the float range"
    with pytest.raises(DomainError) as info:
        build_unit_shape(param)
    assert str(info.value) == message


def test_builder_names_the_parameter_where_only_the_perimeter_overflows():
    p = RightTriangle(1.5e-308)  # measure about 2/theta, perimeter about 4/theta
    assert fundamental_measure(p) < math.inf
    with pytest.raises(DomainError) as info:
        build_unit_shape(p)
    assert str(info.value) == (
        "the unit right_triangle perimeter at RightTriangle(theta=1.5e-308) overflows the float range"
    )


@pytest.mark.parametrize(
    "error",
    [DomainError("degenerate polyline edge (zero length)"), OverflowError("math range error"),
     ZeroDivisionError("float division by zero")],
    ids=lambda error: type(error).__name__,
)
def test_builder_error_names_the_family_and_parameter(monkeypatch, error):
    def fail(self):
        raise error

    monkeypatch.setattr(Rectangle, "_unit_shape", fail)
    with pytest.raises(DomainError) as info:
        build_unit_shape(Rectangle(2.0))
    assert str(info.value) == f"the unit rectangle at Rectangle(r=2.0) cannot be built: {error}"


def test_builder_keeps_member_whose_closed_form_overflows_in_a_square():
    p = Rectangle(1e200)  # (1 + r) ** 2 overflows; (1 + r) ((1 + r) / r) and the unit shape do not
    shape = build_unit_shape(p)
    assert fundamental_measure(p) == shape.area() == shape.semiperimeter() == 1e200


@pytest.mark.parametrize("p", [Rectangle(1e154), Rectangle(1e-300), Parallelogram(1.0, 1e154),
                               Parallelogram(0.5, 3.0), Rectangle(2.0)], ids=repr)
def test_measure_keeps_the_square_wherever_it_is_finite(p):
    r, sine = p.r, math.sin(getattr(p, "theta", math.pi / 2.0))
    expected = (1.0 + r) ** 2 / r if isinstance(p, Rectangle) else (1.0 + r) ** 2 / (r * sine)
    assert fundamental_measure(p) == expected


@pytest.mark.parametrize("p", [Rectangle(1e308), Parallelogram(math.pi / 2.0, 1e300)], ids=repr)
def test_measure_past_the_square_overflow_is_finite(p):
    assert fundamental_measure(p) == pytest.approx(p.r, rel=1e-12)


# --- builders vs formulas ---------------------------------------------------


def grid_params():
    params = []
    params += [RightTriangle(t) for t in (0.2, 0.6, math.pi / 4.0, 1.1, 1.45)]
    params += [Triangle(r, s) for r, s in ((1.0, 1.0), (0.9, 0.5), (0.6, 0.8), (1.0, 0.3))]
    params += [Rectangle(r) for r in (0.1, 0.5, 1.0, GOLDEN, 7.0)]
    params += [Rhombus(t) for t in (0.4, 1.0, math.pi / 2.0, 2.6)]
    params += [Parallelogram(t, r) for t, r in ((1.0, 0.5), (math.pi / 2.0, 1.0), (2.2, 3.0))]
    params += [Ellipse(r) for r in (0.2, 0.5, 0.8)]
    params += [RegularPolygon(m) for m in range(3, 13)]
    return params


@pytest.mark.parametrize("param", grid_params(), ids=repr)
def test_built_shape_matches_formula(param):
    shape = build_unit_shape(param)
    expected = fundamental_measure(param)
    assert shape.area() == pytest.approx(expected, rel=1e-8)
    assert shape.semiperimeter() == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("theta", [1e-3, 1.0, 3.0])
def test_unit_parallelogram_matches_its_measure_at_every_ratio(theta):
    # The longer side lies along x. With the shorter one there, the far vertices sat about r
    # away and the short side was the difference of two large coordinates: 1.3e-5 off at
    # r = 1e12 (theta = 1), and a zero-length edge from r = 1e17.
    for exponent in range(-12, 201):
        p = Parallelogram(theta, 10.0**exponent)
        measure = unitize(build_unit_shape(p)).fundamental_measure
        assert measure == pytest.approx(fundamental_measure(p), rel=1e-13, abs=0.0), p


@pytest.mark.parametrize("theta, r", [(1.0, 0.5), (2.2, 1e-12), (0.3, 1.0), (1.0, 2.0), (2.2, 1e17)])
def test_unit_parallelogram_lays_its_longer_side_along_x(theta, r):
    # Sides 1 and r, times (1 + r)/(r sin theta); for r <= 1 that is the pose it always had.
    v = build_unit_shape(Parallelogram(theta, r)).pieces[0].vertices
    unit = (1.0 + r) / (r * math.sin(theta))
    long, short = max(1.0, r) * unit, min(1.0, r) * unit
    assert (v[0].x, v[0].y, v[1].x, v[1].y) == (0.0, 0.0, long, 0.0)
    assert (v[3].x, v[3].y) == (short * math.cos(theta), short * math.sin(theta))


def test_right_triangle_base_length():
    theta = math.pi / 4.0
    shape = build_unit_shape(RightTriangle(theta))
    legs = sorted(
        shape.pieces[0].vertices[i].distance_to(shape.pieces[0].vertices[i + 1])
        for i in range(3)
    )[:2]
    assert legs[0] == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-12)
    assert legs[1] == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-12)


def test_hexagon_unit_apothem():
    shape = build_unit_shape(RegularPolygon(6))
    assert shape.area() == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)
    vertices = shape.pieces[0].vertices[:-1]
    cx = sum(v.x for v in vertices) / 6.0
    cy = sum(v.y for v in vertices) / 6.0
    for a, b in zip(vertices, vertices[1:]):
        mx, my = (a.x + b.x) / 2.0 - cx, (a.y + b.y) / 2.0 - cy
        assert math.hypot(mx, my) == pytest.approx(1.0, rel=1e-12)


# --- ellipse auxiliaries ----------------------------------------------------


def test_ellipse_semi_minor_frozen_oracle_value():
    # Dense Simpson (n = 200k) of (1/pi) int_0^pi sqrt(1 - 0.75 cos^2 t) dt.
    assert ellipse_semi_minor(0.5) == pytest.approx(0.7709822125950296, rel=1e-8)


def test_ellipse_semi_minor_limits():
    # r -> 0 integrand collapses to |sin t| whose mean over [0, pi] is 2/pi.
    assert ellipse_semi_minor(0.001) == pytest.approx(2.0 / math.pi, abs=2e-3)
    assert ellipse_semi_minor(0.999) == pytest.approx(1.0, abs=2e-3)


def test_ellipse_semi_minor_increasing_and_bounded():
    values = [ellipse_semi_minor(0.01 + 0.98 * i / 99) for i in range(100)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(2.0 / math.pi < v < 1.0 for v in values)


def test_ellipse_semi_minor_matches_simpson_everywhere():
    for r in (0.1, 0.37, 0.5, 0.81):
        expected = dense_simpson(
            lambda t: math.sqrt(1.0 + (r * r - 1.0) * math.cos(t) ** 2),
            0.0,
            math.pi,
            n=100_000,
        ) / math.pi
        assert ellipse_semi_minor(r) == pytest.approx(expected, rel=1e-8)


def test_ellipse_agm_matches_simpson():
    for i in range(25):
        r = 0.01 + 0.98 * i / 24
        expected = dense_simpson(
            lambda t: math.sqrt(1.0 + (r * r - 1.0) * math.cos(t) ** 2), 0.0, math.pi
        )
        assert ellipse_half_perimeter(1.0, r) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("r", [0.01, 0.2, 0.5, 0.8, 0.99])
def test_ellipse_agm_matches_kernel_quadrature(r):
    shape = build_unit_shape(Ellipse(r))
    expected = fundamental_measure(Ellipse(r))
    area, semiperimeter = quadrature_measures(shape)
    assert area == pytest.approx(expected, rel=1e-10)
    assert semiperimeter == pytest.approx(expected, rel=1e-10)


def test_ellipse_agm_terminates_at_the_ends():
    # Near the flat and round ends the half perimeter is 2 and pi.
    assert ellipse_half_perimeter(1.0, 1e-9) == pytest.approx(2.0, abs=1e-9)
    assert ellipse_half_perimeter(1.0, 1.0 - 1e-15) == pytest.approx(math.pi, abs=1e-9)
    # Near the circle I(r) = pi (1 + r) / 2 up to a term of order (1 - r)^2.
    r = 1.0 - 1e-9
    assert ellipse_half_perimeter(1.0, r) == pytest.approx(math.pi * (1.0 + r) / 2.0, rel=1e-15)
    assert ellipse_half_perimeter(2.5, 2.5) == pytest.approx(2.5 * math.pi, rel=1e-15)
    assert ellipse_half_perimeter(0.3, 1.0) == ellipse_half_perimeter(1.0, 0.3)
    # The squared axis ratio underflows: a segment there and back.
    assert ellipse_half_perimeter(1.0, 1e-170) == 2.0


def test_ellipse_semi_minor_domain():
    with pytest.raises(DomainError):
        ellipse_semi_minor(0.0)
    with pytest.raises(DomainError):
        ellipse_semi_minor(1.0)


def test_ellipse_semi_minor_is_the_mean_radius():
    # The radius of the circle with the same semiperimeter as the semi-major-1 ellipse.
    radius = ellipse_semi_minor(0.5)
    assert 2.0 / math.pi < radius < 1.0
    semiperimeter = dense_simpson(
        lambda t: math.sqrt(math.sin(t) ** 2 + 0.25 * math.cos(t) ** 2), 0.0, math.pi, 50_000
    )
    assert radius == pytest.approx(semiperimeter / math.pi, rel=1e-8)
    with pytest.raises(DomainError):
        ellipse_semi_minor(1.2)


# --- rhombus auxiliary ------------------------------------------------------


def test_rhombus_diagonal_values():
    assert rhombus_short_diagonal(math.pi / 2.0) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
    assert rhombus_short_diagonal(math.pi / 3.0) == pytest.approx(4.0 / math.sqrt(3.0), rel=1e-12)
    # Infimum 2 as the rhombus degenerates, approached but not attained.
    assert rhombus_short_diagonal(1e-4) == pytest.approx(2.0, abs=1e-4)
    assert rhombus_short_diagonal(1e-4) > 2.0


def test_rhombus_diagonal_symmetry():
    for theta in (0.3, 0.9, 1.3):
        assert rhombus_short_diagonal(theta) == pytest.approx(
            rhombus_short_diagonal(math.pi - theta), rel=1e-12
        )


def test_rhombus_diagonal_matches_built_shape():
    for theta in (0.5, 1.0, math.pi / 2.0, 2.2):
        v = build_unit_shape(Rhombus(theta)).pieces[0].vertices[:-1]
        d1 = v[0].distance_to(v[2])
        d2 = v[1].distance_to(v[3])
        assert rhombus_short_diagonal(theta) == pytest.approx(min(d1, d2), rel=1e-12)


# --- conciliations ----------------------------------------------------------


def test_conciliation_checks_pass():
    # Every point the conciliation suite can draw.
    for name, at, lhs, rhs in CONCILIATIONS:
        grid = [at((i + 0.5) / CONCILIATION_GRID) for i in range(CONCILIATION_GRID)]
        report = check_conciliation(name, grid, lhs, rhs, tol=1e-10)
        assert report.passed and report.instances_tested == 400, report.counterexamples
        assert report.worst_slack >= 0.0  # every relative error is at most 1e-10


def test_conciliation_spot_values():
    theta = math.pi / 3.0
    assert fundamental_measure(RightTriangle(theta)) == pytest.approx(
        fundamental_measure(Triangle(math.sin(theta), math.cos(theta))), rel=1e-12
    )
    assert fundamental_measure(Parallelogram(math.pi / 2.0, 2.0)) == pytest.approx(
        fundamental_measure(Rectangle(2.0)), rel=1e-12
    )
    assert fundamental_measure(Parallelogram(math.pi / 4.0, 1.0)) == pytest.approx(
        fundamental_measure(Rhombus(math.pi / 4.0)), rel=1e-12
    )
    assert fundamental_measure(Rhombus(math.pi / 4.0)) == pytest.approx(
        4.0 * math.sqrt(2.0), rel=1e-12
    )


# --- serialization ----------------------------------------------------------


def test_family_dict_round_trip():
    for param in grid_params():
        assert family_from_dict(family_to_dict(param)) == param


def test_family_json_layout():
    assert family_to_dict(Rectangle(1.0)) == {"family": "rectangle", "r": 1.0}
    assert family_from_dict({"family": "rectangle", "r": 1.0}) == Rectangle(1.0)
    assert family_from_dict({"family": "regular-polygon", "m": 5}) == RegularPolygon(5)


def test_family_from_dict_unknown():
    with pytest.raises(DomainError):
        family_from_dict({"family": "heptagram"})


# --- the family registry ----------------------------------------------------


@pytest.mark.parametrize("cls", FAMILIES, ids=lambda cls: cls.name)
def test_registry_entry(cls):
    assert [other.name for other in FAMILIES].count(cls.name) == 1
    assert FAMILY_BY_NAME[cls.name] is cls
    assert family_named(cls.name.replace("_", "-")) is cls
    # Search data: a bracket for one parameter, seeds and a step for two, or none.
    members = [RegularPolygon(5)] if cls is RegularPolygon else []
    if hasattr(cls, "bracket"):
        assert len(cls._fields) == 1 and not hasattr(cls, "seeds")
        lo, hi = cls.bracket
        assert lo < hi
        members += [cls(lo), cls(hi)]
    if hasattr(cls, "seeds"):
        assert len(cls._fields) == 2 and cls.step > 0.0
        members += [cls(*seed) for seed in cls.seeds]
    # Scan quantities of its own, and an infimum past its bracket's upper end, on the families
    # the paper poses them for.
    expected = {Ellipse: {"a": ellipse_semi_minor}, Rhombus: {"h": rhombus_short_diagonal}}
    quantities = getattr(cls, "quantities", {})
    assert quantities.keys() == expected.get(cls, {}).keys()
    for name, quantity in quantities.items():
        assert [quantity(x) for x in cls.bracket] == [expected[cls][name](x) for x in cls.bracket]
    assert getattr(cls, "boundary_infimum", None) == (math.pi if cls is Ellipse else None)
    if cls is Ellipse:
        assert fundamental_measure(cls(cls.bracket[1])) > cls.boundary_infimum
    # Rows of the standard table, and seeded draws away from the blow-up boundaries.
    assert cls.table and all(len(row) == len(cls._fields) for row in cls.table)
    members += [cls(*row) for row in cls.table]
    rng = random.Random(cls.name)
    draws = [cls.draw(rng) for _ in range(200)]
    assert all(type(p) is cls for p in draws) and len(set(draws)) > 1
    for p in members + draws:
        assert family_from_dict(family_to_dict(p)) == p
        assert math.isfinite(fundamental_measure(p))
        assert build_unit_shape(p).area() == pytest.approx(fundamental_measure(p), rel=1e-9)


# Each family's parameter intervals for the sweep below; an infinite end is reached
# log-uniformly up to 1e300. The triangle and the regular polygon draw their own.
SWEEP_DOMAINS = {
    RightTriangle: ((0.0, math.pi / 2.0),),
    Rectangle: ((0.0, math.inf),),
    Rhombus: ((0.0, math.pi),),
    Parallelogram: ((0.0, math.pi), (0.0, math.inf)),
    Ellipse: ((0.0, 1.0),),
}


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _sweep_value(rng, lo, hi):
    """A value in (lo, hi) whose distance from a random end is log-uniform from 1e-12 to the
    whole width; for (0, inf), log-uniform from 1e-300 to 1e300."""
    if hi == math.inf:
        return _log_uniform(rng, 1e-300, 1e300)
    distance = _log_uniform(rng, 1e-12, hi - lo)
    return lo + distance if rng.random() < 0.5 else hi - distance


def _sweep_triangle(rng):
    """Sides 1 >= b >= c with 1 - b and the excess b + c - 1 each log-uniform down to 1e-12,
    and b = 1 itself, the closed edge, a tenth of the time."""
    while True:
        b = 1.0 if rng.random() < 0.1 else 1.0 - _log_uniform(rng, 1e-12, 0.5)
        if 2.0 * b - 1.0 > 1e-12:
            c = (1.0 - b) + _log_uniform(rng, 1e-12, 2.0 * b - 1.0)
            r, s = (b, c) if rng.random() < 0.5 else (c, b)
            if Triangle.admits(r, s):
                return Triangle(r, s)


def _sweep_member(cls, rng):
    if cls is Triangle:
        return _sweep_triangle(rng)
    if cls is RegularPolygon:
        return RegularPolygon(round(_log_uniform(rng, 3.0, 1e4)))
    while True:
        try:
            return cls(*[_sweep_value(rng, lo, hi) for lo, hi in SWEEP_DOMAINS[cls]])
        except DomainError:  # an end the rounding of lo + distance or hi - distance reached
            pass


@pytest.mark.parametrize("cls", FAMILIES, ids=lambda cls: cls.name)
def test_every_member_over_the_whole_domain_has_its_measure(cls):
    """The unit member's area and semiperimeter are ``fundamental_measure`` to 1e-13 up to
    1e-12 from every domain edge, or both raise a DomainError naming the parameter."""
    rng = random.Random(f"sweep {cls.name}")
    members = [RegularPolygon(3), RegularPolygon(10**4)] if cls is RegularPolygon else []
    members += [_sweep_member(cls, rng) for _ in range(30 if cls is RegularPolygon else 300)]
    for p in members:
        try:
            measure = fundamental_measure(p)
        except DomainError as exc:
            assert repr(p) in str(exc)
            with pytest.raises(DomainError, match=re.escape(repr(p))):
                build_unit_shape(p)
            continue
        try:
            shape = build_unit_shape(p)
        except DomainError as exc:
            # Only the perimeter, twice the measure, may overflow where the measure does not.
            assert repr(p) in str(exc) and 2.0 * measure > 1e308
            continue
        assert shape.area() == pytest.approx(measure, rel=1e-13, abs=0.0), p
        assert shape.semiperimeter() == pytest.approx(measure, rel=1e-13, abs=0.0), p


def test_triangle_measure_is_its_exact_square_root_to_rounding():
    # Pi^2 = (r + s + 1)^3 / ((-r + s + 1)(r - s + 1)(r + s - 1)) is a rational of the float r
    # and s. The sweep's unit members are built from Heron's product, so they cannot see its
    # error; this can.
    rng = random.Random("sweep triangle")
    for _ in range(300):
        p = _sweep_triangle(rng)
        r, s = Fraction(p.r), Fraction(p.s)
        exact = (r + s + 1) ** 3 / ((-r + s + 1) * (r - s + 1) * (r + s - 1))
        assert abs(Fraction(fundamental_measure(p)) ** 2 / exact - 1) < 2e-15, p


@pytest.mark.parametrize(
    "r, s, expected",
    [
        # r + s - 1 = 1e-12, which the rounding of r + s took whole in Heron's factor.
        (0.5, 0.500000000001, 2828458.410103995615944011216024719150881),
        # -r + s + 1 = 1e-6 + 1e-12, a second factor that cancels.
        (0.999999999999, 1e-06, 2000002.000000750069632502463648371796985),
    ],
)
def test_needle_triangle_matches_its_40_digit_measure(r, s, expected):
    # expected: (r + s + 1)^1.5 / sqrt((-r + s + 1)(r - s + 1)(r + s - 1)) at the float r and s,
    # by mpmath at 50 digits.
    p = Triangle(r, s)
    shape = build_unit_shape(p)
    for value in (fundamental_measure(p), shape.area(), shape.semiperimeter()):
        assert value == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_family_tables_are_the_standard_catalog_rows():
    rows = [json.loads(line) for line in (GOLDEN_DIR / "catalog.json").read_text().splitlines()]
    table = [cls(*row) for cls in FAMILIES for row in cls.table]
    assert len(rows) == len(table) == 16
    assert [family_to_dict(p) for p in table] == [
        {k: v for k, v in row.items() if k != "Pi"} for row in rows]


@pytest.mark.parametrize(
    "p", [Point(0.5, 0.8), "ellipse", None, Ellipse, (0.5,)], ids=repr
)
def test_non_family_argument_rejected(p):
    with pytest.raises(DomainError, match="unsupported family parameter"):
        fundamental_measure(p)
    with pytest.raises(DomainError, match="unsupported family parameter"):
        build_unit_shape(p)


def test_family_named_unknown():
    with pytest.raises(DomainError, match="unknown family: 'hepta_gram'"):
        family_named("hepta-gram")
