import copy
import importlib
import json
import math
import pathlib
import pickle
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from unitshapes import curves
from unitshapes.catalog import Ellipse, fundamental_measure
from unitshapes.curves import (
    CircularArc,
    EllipticalArc,
    LineSegment,
    ParabolicArc,
    Point,
    Polyline,
    RationalPoint,
    RigidMotion,
    Shape,
    Similarity,
    carlson_rf_rd,
    ellipse_half_perimeter,
    make_circle,
    make_polygon,
    make_rational_circle,
    quadrature_area_term,
    quadrature_length,
    quadrature_measures,
    scaled,
    shape_from_dict,
    shape_from_json,
    _piece_from_dict,
)
from unitshapes.errors import DomainError, UnitShapesError
from unitshapes.optimize import minimize_1d, scan
from unitshapes.solids import PlatonicSolid
from unitshapes.unitize import unitize

from oracles import dense_simpson, rational_arc_sweep

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def sample_pieces():
    return [
        LineSegment(Point(0.5, -1.0), Point(2.0, 3.0)),
        Polyline((0.0, 1.0, 2.0), (0.0, 0.5, -0.25)),
        CircularArc(Point(0.5, -0.5), 1.25, 0.3, 2.4),
        EllipticalArc(Point(1.0, 2.0), (2.0, 0.75), 0.4, -0.5, 1.8),
        ParabolicArc((-0.8, 0.3, 1.1), -0.6, 1.2, RigidMotion(0.7, True, (0.2, -0.4))),
        RationalPoint(-0.9, 0.8, RigidMotion(1.1, False, (3.0, -1.0))),
    ]


def sample_shapes():
    half_disk = Shape(
        [CircularArc(Point(0, 0), 1.0, 0.0, math.pi), LineSegment(Point(-1, 0), Point(1, 0))]
    )
    parabola_blob = Shape(
        [ParabolicArc((-1.0, 0.0, 1.0), -1.0, 1.0), LineSegment(Point(1, 0), Point(-1, 0))]
    )
    ellipse = Shape([EllipticalArc(Point(0, 0), (2.0, 0.8), 0.3, 0.0, 2.0 * math.pi)])
    return {
        "square": make_polygon(UNIT_SQUARE),
        "circle": make_circle(1.5),
        "half_disk": half_disk,
        "parabola_blob": parabola_blob,
        "ellipse": ellipse,
        "rational_circle": make_rational_circle(),
    }


# --- piece-level geometry ---------------------------------------------------


@pytest.mark.parametrize("piece", sample_pieces(), ids=lambda p: p.kind)
def test_velocity_matches_finite_difference(piece):
    # Fractions chosen off the polyline's integer knots, where its velocity jumps.
    t0, t1 = piece.t_start, piece.t_end
    for frac in (0.12, 0.45, 0.87):
        t = t0 + frac * (t1 - t0)
        h = 1e-6 * max(1.0, abs(t))
        p_plus = piece.point(t + h)
        p_minus = piece.point(t - h)
        vx, vy = piece.velocity(t)
        assert (p_plus.x - p_minus.x) / (2 * h) == pytest.approx(vx, rel=1e-6, abs=1e-9)
        assert (p_plus.y - p_minus.y) / (2 * h) == pytest.approx(vy, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("piece", sample_pieces(), ids=lambda p: p.kind)
def test_reversal_swaps_endpoints_and_negates_area(piece):
    rev = piece.reversed_()
    assert rev.start.distance_to(piece.end) < 1e-12
    assert rev.end.distance_to(piece.start) < 1e-12
    assert rev.length() == pytest.approx(piece.length(), rel=1e-12)
    assert rev.signed_area_term() == pytest.approx(-piece.signed_area_term(), rel=1e-9)


def test_degenerate_pieces_rejected():
    with pytest.raises(DomainError):
        LineSegment(Point(1, 1), Point(1, 1))
    with pytest.raises(DomainError):
        CircularArc(Point(0, 0), 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        CircularArc(Point(0, 0), 1.0, 0.5, 0.5)
    with pytest.raises(DomainError):
        Polyline((0,), (0,))
    with pytest.raises(DomainError):
        Polyline((0, 0, 1), (0, 0, 1))
    with pytest.raises(DomainError):
        EllipticalArc(Point(0, 0), (1.0, 0.0), 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        RationalPoint(0.5, 0.5)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Shape([]), "a shape needs at least one piece"),
        (lambda: Shape([Polyline((0, 1, 2, 0), (0, 0, 0, 0))]),
         "degenerate shape"),
        (lambda: ParabolicArc((1.0, 0.0, 0.0), 0.5, 0.5), "degenerate parabolic arc"),
        (lambda: EllipticalArc(Point(0, 0), (1.0, 2.0), 0.0, 0.5, 0.5), "degenerate elliptical arc"),
        (lambda: Similarity(scale=0.0), "similarity scale must be positive"),
        (lambda: make_circle(-1.0), "^arc radius must be positive, got -1.0$"),
        (lambda: make_circle(math.nan), "^non-finite number in a circular arc: nan, 0.0, "
                                        "6.283185307179586$"),
    ],
    ids=["no_piece", "zero_area", "parabolic_arc", "elliptical_arc", "similarity", "make_circle",
         "make_circle_nan"],
)
def test_construction_errors_are_domain_errors(build, message):
    with pytest.raises(DomainError, match=message):
        build()


def _far_square_segments():
    c, d = 1e160, 1e150
    corners = [(c - d, c - d), (c + d, c - d), (c + d, c + d), (c - d, c + d)]
    return [LineSegment(Point(*a), Point(*b)) for a, b in zip(corners, corners[1:] + corners[:1])]


def _far_half_disk():
    c, d = 1e160, 1e150
    return [CircularArc(Point(c, c), d, 0.0, math.pi), LineSegment(Point(c - d, c), Point(c + d, c))]


@pytest.mark.parametrize("pieces,terms", [
    (_far_square_segments(), [-math.inf, math.inf, math.inf, -math.inf]),
    (_far_half_disk(), [math.inf, -math.inf]),
], ids=["square_of_segments", "half_disk"])
def test_area_terms_overflowing_with_opposite_signs_are_rejected_not_nan(pieces, terms):
    # Far from the origin each term overflows; summed with opposite signs they give NaN.
    assert [p.signed_area_term() for p in pieces] == terms
    with pytest.raises(DomainError, match="^the shape's area terms overflow the float range "
                                          "with opposite signs$"):
        Shape(pieces)


# Each constructor with one of its numbers replaced by v, for every number it takes.
NUMBER_SLOTS = {
    "point": [lambda v: Point(v, 0.0), lambda v: Point(0.0, v)],
    "rigid_motion": [
        lambda v: RigidMotion(v),
        lambda v: RigidMotion(0.0, False, (v, 0.0)),
        lambda v: RigidMotion(0.0, True, (0.0, v)),
    ],
    "line_segment": [
        lambda v: LineSegment(Point(v, 0.0), Point(1.0, 1.0)),
        lambda v: LineSegment(Point(0.0, 0.0), Point(1.0, v)),
    ],
    "polyline": [
        lambda v: Polyline((v, 1.0, 2.0), (0.0, 0.5, -0.25)),
        lambda v: Polyline((0.0, v, 2.0), (0.0, 0.5, -0.25)),
        lambda v: Polyline((0.0, 1.0, v), (0.0, 0.5, -0.25)),
        lambda v: Polyline((0.0, 1.0, 2.0), (v, 0.5, -0.25)),
        lambda v: Polyline((0.0, 1.0, 2.0), (0.0, v, -0.25)),
        lambda v: Polyline((0.0, 1.0, 2.0), (0.0, 0.5, v)),
    ],
    "circular_arc": [
        lambda v: CircularArc(Point(v, 0.0), 1.0, 0.0, 1.0),
        lambda v: CircularArc(Point(0.0, 0.0), v, 0.0, 1.0),
        lambda v: CircularArc(Point(0.0, 0.0), 1.0, v, 1.0),
        lambda v: CircularArc(Point(0.0, 0.0), 1.0, 0.0, v),
    ],
    "elliptical_arc": [
        lambda v: EllipticalArc(Point(0.0, v), (2.0, 1.0), 0.3, 0.0, 1.0),
        lambda v: EllipticalArc(Point(0.0, 0.0), (v, 1.0), 0.3, 0.0, 1.0),
        lambda v: EllipticalArc(Point(0.0, 0.0), (2.0, v), 0.3, 0.0, 1.0),
        lambda v: EllipticalArc(Point(0.0, 0.0), (2.0, 1.0), v, 0.0, 1.0),
        lambda v: EllipticalArc(Point(0.0, 0.0), (2.0, 1.0), 0.3, v, 1.0),
        lambda v: EllipticalArc(Point(0.0, 0.0), (2.0, 1.0), 0.3, 0.0, v),
    ],
    "parabolic_arc": [
        lambda v: ParabolicArc((v, 0.0, 1.0), -1.0, 1.0),
        lambda v: ParabolicArc((-1.0, v, 1.0), -1.0, 1.0),
        lambda v: ParabolicArc((-1.0, 0.0, v), -1.0, 1.0),
        lambda v: ParabolicArc((-1.0, 0.0, 1.0), v, 1.0),
        lambda v: ParabolicArc((-1.0, 0.0, 1.0), -1.0, v),
        lambda v: ParabolicArc((-1.0, 0.0, 1.0), -1.0, 1.0, RigidMotion(v)),
    ],
    "rational_point": [
        lambda v: RationalPoint(v, 1.0),
        lambda v: RationalPoint(-1.0, v),
        lambda v: RationalPoint(-1.0, 1.0, RigidMotion(0.0, False, (v, 0.0))),
    ],
    "similarity": [lambda v: Similarity(RigidMotion(), v)],
    "platonic_solid": [lambda v: PlatonicSolid("cube", v)],
}
# The boundaries whose result does not keep the number as given: each end of a search bracket
# and of a scan range.
RANGE_SLOTS = {
    "minimize_1d": [lambda v: minimize_1d("rectangle", (v, 4.0)),
                    lambda v: minimize_1d("rectangle", (0.1, v))],
    "scan": [lambda v: scan("rectangle", "Pi", v, 4.0, 3),
             lambda v: scan("rectangle", "Pi", 0.1, v, 3)],
}


@pytest.mark.parametrize("kind", sorted(NUMBER_SLOTS))
def test_non_finite_numbers_rejected_at_construction(kind):
    for build in NUMBER_SLOTS[kind]:
        build(0.25)  # the finite value builds
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                build(bad)


@pytest.mark.parametrize("kind, slot", [(kind, slot) for kind in sorted(NUMBER_SLOTS)
                                        for slot in range(len(NUMBER_SLOTS[kind]))])
def test_an_int_beyond_the_float_range_is_a_domain_error(kind, slot):
    # v * 0.0 converts an int, so its OverflowError tells one beyond the float range. An int in
    # the range builds and is kept as it is: its repr is not the float's.
    build = NUMBER_SLOTS[kind][slot]
    assert repr(build(3)) != repr(build(3.0))
    for bad in (10**400, -10**400):
        with pytest.raises(DomainError):
            build(bad)


# Each arc kind with a size or parameter replaced by v, both ends at once included, keyed by the
# name its finiteness error gives it.
ARC_NUMBER_SLOTS = {
    "a circular arc": [
        lambda v: CircularArc(Point(0.0, 0.0), v, 0.0, 1.0),
        lambda v: CircularArc(Point(0.0, 0.0), 1.0, 0.0, v),
        lambda v: CircularArc(Point(0.0, 0.0), 1.0, v, v),
    ],
    "an elliptical arc": [
        lambda v: EllipticalArc(Point(0.0, 0.0), (v, 1.0), 0.3, 0.0, 1.0),
        lambda v: EllipticalArc(Point(0.0, 0.0), (2.0, v), 0.3, 0.0, 1.0),
        lambda v: EllipticalArc(Point(0.0, 0.0), (2.0, 1.0), v, 0.0, 1.0),
        lambda v: EllipticalArc(Point(0.0, 0.0), (2.0, 1.0), 0.3, v, v),
    ],
    "a parabolic arc": [
        lambda v: ParabolicArc((v, 0.0, 1.0), -1.0, 1.0),
        lambda v: ParabolicArc((1.0, 0.0, 0.0), -1.0, v),
        lambda v: ParabolicArc((1.0, 0.0, 0.0), v, v),
    ],
    "a rational arc": [
        lambda v: RationalPoint(-1.0, v),
        lambda v: RationalPoint(v, v),
    ],
}


@pytest.mark.parametrize("what", sorted(ARC_NUMBER_SLOTS))
def test_an_arc_takes_the_finiteness_rule_before_its_domain_tests(what):
    # A NaN or an infinite size is named as non-finite, not as a size that is not positive, and
    # equal infinite ends as non-finite, not as a zero sweep.
    for build in ARC_NUMBER_SLOTS[what]:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError) as raised:
                build(bad)
            prefix, _, values = str(raised.value).partition(": ")
            assert prefix == f"non-finite number in {what}"
            assert str(bad) in values.split(", ")


@pytest.mark.parametrize("kind", sorted(RANGE_SLOTS))
def test_a_bracket_or_scan_range_takes_the_one_finiteness_rule(kind):
    # Before the search, so neither a NaN the search makes of an infinity nor a bare
    # OverflowError from an int beyond the float range reaches the caller.
    for build in RANGE_SLOTS[kind]:
        build(0.25)
        for bad in (math.nan, math.inf, -math.inf, 10**400, -10**400):
            with pytest.raises(DomainError, match="^(non-finite number|number beyond the float"
                                                  " range) in the (bracket|scan range)"):
                build(bad)


def test_a_polyline_names_an_int_beyond_the_float_range_before_its_zero_length_edge():
    # Every edge's hypot is finite, so the zero-length edge is met first, then the coordinate scan.
    with pytest.raises(DomainError, match="^number beyond the float range in a polyline$"):
        Polyline((10**400, 10**400, 10**400), (0, 0, 1))


@pytest.mark.parametrize("measure", [
    lambda n: make_circle(n).area(),
    lambda n: Shape([EllipticalArc(Point(0, 0), (n, n), 0, 0, 2 * math.pi)]).area(),
    lambda n: ParabolicArc((1.0, 0.0, 0.0), -n, n).signed_area_term(),
], ids=["circle", "ellipse", "parabola"])
def test_an_int_size_measures_as_the_float_it_spells(measure):
    # An int in the float range whose square is not: the area term overflows to inf, as the
    # float's does, where converting the int square raised.
    for n in (3, 10**200):
        assert _same(measure(n), measure(float(n))), n
    with pytest.raises(DomainError, match="overflows the float range"):
        unitize(make_circle(10**200))


def test_degenerate_json_piece_is_named_as_invalid():
    doc = {"pieces": [{"kind": "line_segment", "start": [0, 0], "end": [0, 0]}]}
    with pytest.raises(DomainError, match=r"^piece 0 of the shape JSON is invalid: degenerate line"):
        shape_from_dict(doc)


# --- shape construction -----------------------------------------------------


def test_open_chain_rejected():
    with pytest.raises(DomainError, match="open chain"):
        Shape([LineSegment(Point(0, 0), Point(1, 0)), LineSegment(Point(2, 0), Point(0, 0))])


def test_polyline_end_is_its_last_vertex_exactly():
    rng = random.Random(5)
    rounded = 0
    for _ in range(400):
        scale = 10.0 ** rng.uniform(-12.0, 12.0)
        shift = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 6.0) for _ in range(2)]
        vertices = [
            (scale * (rng.uniform(-1.0, 1.0) + shift[0]), scale * (rng.uniform(-1.0, 1.0) + shift[1]))
            for _ in range(rng.randrange(2, 9))
        ]
        line = Polyline(*zip(*vertices))
        (ax, ay), (bx, by) = vertices[-2:]
        rounded += (ax + (bx - ax), ay + (by - ay)) != (bx, by)
        assert (line.end.x, line.end.y) == (bx, by)
        assert (line.reversed_().end.x, line.reversed_().end.y) == vertices[0]
    assert rounded > 0  # the draws include edges that a + 1.0 * (b - a) does not close


def test_polyline_stores_the_per_edge_sums_exactly():
    # Length and area term are computed once, at construction; they must equal the
    # correctly rounded per-edge sums, bit for bit.
    rng = random.Random(23)
    repeated = 0
    for _ in range(300):
        scale = 10.0 ** rng.uniform(-12.0, 12.0)
        shift = [rng.uniform(-1e6, 1e6) for _ in range(2)]
        vertices = [
            (scale * rng.uniform(-1.0, 1.0) + shift[0], scale * rng.uniform(-1.0, 1.0) + shift[1])
            for _ in range(rng.randrange(3, 257))
        ]
        xs, ys = zip(*vertices)
        pairs = list(zip(vertices, vertices[1:]))
        if any(a == b for a, b in pairs):  # tiny scales at large shifts round vertices together
            repeated += 1
            with pytest.raises(DomainError, match="zero length"):
                Polyline(xs, ys)
            continue
        length = math.fsum(math.hypot(ax - bx, ay - by) for (ax, ay), (bx, by) in pairs)
        area_term = 0.5 * math.fsum(ax * by - bx * ay for (ax, ay), (bx, by) in pairs)
        line = Polyline(xs, ys)
        assert line.length() == length
        assert line.signed_area_term() == area_term
        # The stored values sit outside the fields and are computed afresh by each rebuild.
        for copied in _with_copies(line):
            assert (copied.length(), copied.signed_area_term()) == (length, area_term)
        assert line == Polyline(xs, ys) and repr(line) == f"Polyline(xs={xs!r}, ys={ys!r})"
    assert 0 < repeated < 100


@st.composite
def _posed_polylines(draw):
    """A polyline of 2..12 vertices at a scale of 1e-12..1e12, shifted by up to 1e6 sizes."""
    scale = 10.0 ** draw(st.floats(-12.0, 12.0))
    shift = [scale * draw(st.floats(-1e6, 1e6)) for _ in range(2)]
    unit = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    vertices = [(scale * u + shift[0], scale * v + shift[1])
                for u, v in draw(st.lists(unit, min_size=2, max_size=12, unique=True))]
    if draw(st.booleans()):
        vertices.reverse()
    xs, ys = zip(*vertices)
    try:
        return Polyline(xs, ys)
    except DomainError:  # a large shift rounds neighbouring vertices together
        assume(False)


@settings(max_examples=300, deadline=None)
@given(line=_posed_polylines())
def test_polyline_reversal_keeps_its_sums_exactly(line):
    rebuilt = Polyline(line.xs[::-1], line.ys[::-1])
    reversed_ = line.reversed_()
    assert reversed_ == rebuilt
    assert reversed_.length() == rebuilt.length() == line.length()
    assert reversed_.signed_area_term() == rebuilt.signed_area_term() == -line.signed_area_term()
    twice = reversed_.reversed_()
    assert (twice.xs, twice.ys) == (line.xs, line.ys)
    assert twice.length().hex() == line.length().hex()
    assert twice.signed_area_term().hex() == line.signed_area_term().hex()


def test_clockwise_json_polyline_walks_its_edges_once(monkeypatch):
    curves_module = importlib.import_module("unitshapes.curves")
    walks = []
    edge_terms = curves_module._edge_terms
    monkeypatch.setattr(curves_module, "_edge_terms", lambda xs, ys: walks.append(1) or edge_terms(xs, ys))
    vertices = [[0.0, 0.0], [0.0, 2.0], [3.0, 2.5], [3.5, -1.0], [0.0, 0.0]]
    shape = shape_from_json(json.dumps({"pieces": [{"kind": "polyline", "vertices": vertices}]}))
    measure = unitize(shape).fundamental_measure
    assert shape.pieces[0].xs == (0.0, 3.5, 3.0, 0.0, 0.0)  # reversed to run counterclockwise
    assert measure == shape.semiperimeter() / shape.area() * shape.semiperimeter()
    assert len(walks) == 1


def test_polyline_sums_are_correctly_rounded():
    # The area terms are 1e16, 1 and -1e16: added left to right, the 1 is lost to rounding and
    # the triangle's area comes out 0 (Python 3.12+ compensates sum(), but not a += loop).
    xs, ys = (1e8, 0.0, -1e-8, 1e8), (0.0, 1e8, 1e8, 0.0)
    terms = [ax * by - bx * ay for ax, ay, bx, by in zip(xs, ys, xs[1:], ys[1:])]
    left_to_right = 0.0
    for term in terms:
        left_to_right += term
    assert left_to_right == 0.0 != math.fsum(terms)
    line = Polyline(xs, ys)
    assert line.signed_area_term() == 0.5 * math.fsum(terms)
    edges = [math.hypot(ax - bx, ay - by) for ax, ay, bx, by in zip(xs, ys, xs[1:], ys[1:])]
    assert line.length() == math.fsum(edges)
    shape = Shape((line,))
    area, semiperimeter = shape.area(), shape.semiperimeter()
    assert area == 0.5 * math.fsum(terms) and semiperimeter == 0.5 * math.fsum(edges)
    assert unitize(shape).fundamental_measure == semiperimeter / area * semiperimeter


@pytest.mark.parametrize("x", [1.0, 1e6, 1e-300, 0.0])
def test_polyline_accepts_an_ulp_edge_and_rejects_a_repeated_vertex(x):
    step = math.nextafter(x, math.inf)  # one ulp away; 5e-324 from 0.0
    assert Polyline((x, step), (0.0, 0.0)).length() == step - x > 0.0
    with pytest.raises(DomainError, match="zero length"):
        Polyline((x, step, step, x), (0.0, 0.0, 0.0, 1.0))


def test_posed_polygon_closes_far_from_the_origin():
    # The closing edge runs from y = 1e6 + 0.7 to y = 0.2; evaluated as a + 1.0 * (b - a)
    # it ended 4.7e-11 from the first vertex, beyond the 1e-12 join tolerance.
    vertices = [[0.1, 0.2], [1e6 + 0.3, 0.1], [1e6 + 0.2, 1e6 + 0.1], [0.3, 1e6 + 0.7], [0.1, 0.2]]
    shape = shape_from_json(json.dumps({"pieces": [{"kind": "polyline", "vertices": vertices}]}))
    ring = vertices[:-1]
    shoelace = 0.5 * math.fsum(
        x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(ring, ring[1:] + ring[:1])
    )
    assert shape.area() == pytest.approx(shoelace, rel=1e-12)


def test_single_segment_not_closed():
    with pytest.raises(DomainError, match="open chain"):
        Shape([LineSegment(Point(0, 0), Point(1, 0))])


# --- the line segment, the one-edge polyline ----------------------------------------------


def test_line_segment_is_the_one_edge_polyline():
    segment = LineSegment(Point(0.5, -1.0), Point(2.0, 3.0))
    assert isinstance(segment, Polyline)
    assert (segment.xs, segment.ys, segment.t_start, segment.t_end) == ((0.5, 2.0), (-1.0, 3.0), 0.0, 1.0)
    # Every measure and point comes from Polyline; the segment adds only its fields, its
    # kind, its construction, its image and its JSON.
    own = {"_xy", "velocity", "reversed_", "_ends", "_exact_length", "_size", "_exact_area_term",
           "_smooth_spans", "length", "signed_area_term"}
    assert not own & set(vars(LineSegment))


def _same(got, expected):
    """Equal as numbers (so 0.0 and -0.0 are), or both NaN."""
    return got == expected or (math.isnan(got) and math.isnan(expected))


# Coordinates of every magnitude: subnormal differences, spans near 1e+-300, and spans whose
# length or area term overflows.
_segment_coordinate = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e308, -1e308]),
)


@settings(max_examples=500, deadline=None)
@given(ax=_segment_coordinate, ay=_segment_coordinate, bx=_segment_coordinate,
       by=_segment_coordinate, t=st.floats(0.0, 1.0))
@example(ax=0.0, ay=0.0, bx=-0.0, by=0.0, t=0.5)  # equal points, no segment
@example(ax=0.0, ay=0.0, bx=5e-324, by=0.0, t=0.5)  # a subnormal span
@example(ax=-1e308, ay=0.0, bx=1e308, by=0.0, t=0.0)  # a length that overflows
@example(ax=1e300, ay=1e300, bx=1e300, by=-1e300, t=1.0)  # an area term that overflows
@example(ax=1e300, ay=1e300, bx=-1e300, by=-1e300, t=0.25)  # inf - inf in the area term
def test_line_segment_measures_are_the_two_point_formulas(ax, ay, bx, by, t):
    length = math.hypot(ax - bx, ay - by)
    if length == 0.0:
        with pytest.raises(DomainError, match=r"^degenerate line segment \(zero length\)$"):
            LineSegment(Point(ax, ay), Point(bx, by))
        return
    segment = LineSegment(Point(ax, ay), Point(bx, by))
    assert _same(segment.length(), length)
    term = 0.5 * (ax * by - bx * ay)
    if math.isnan(term):  # both products overflowed alike: the formula without an exponent
        # limit, from the coordinates times 2^-512. A product overflows only where both its
        # factors are 1 or more, and those stay normal at that scale.
        s = 2.0**-512
        term = 0.5 * ((ax * s) * (by * s) - (bx * s) * (ay * s)) * 2.0**512 * 2.0**512
    assert _same(segment.signed_area_term(), term)
    assert segment._ends() == ((ax, ay), (bx, by))
    assert (segment.start, segment.end) == (Point(ax, ay), Point(bx, by))
    x, y = segment._xy(t)
    assert _same(x, ax + t * (bx - ax)) and _same(y, ay + t * (by - ay))
    vx, vy = segment.velocity(t)
    assert _same(vx, bx - ax) and _same(vy, by - ay)


@pytest.mark.parametrize("sim", [Similarity(), Similarity(RigidMotion(0.7, True, (1.5, -2.0)), 2.5)],
                         ids=["identity", "mirror"])
def test_line_segment_reversal_and_image_are_segments(sim):
    segment = LineSegment(Point(0.5, -1.0), Point(2.0, 3.0))
    reversed_, image = segment.reversed_(), segment.transformed(sim)
    assert reversed_ == LineSegment(segment.end, segment.start)
    assert image == LineSegment(sim.apply(segment.start), sim.apply(segment.end))
    for piece in (reversed_, image, reversed_.reversed_(), image.reversed_()):
        assert type(piece) is LineSegment
        assert piece.to_dict() == {"kind": "line_segment", "start": [piece.start.x, piece.start.y],
                                   "end": [piece.end.x, piece.end.y]}
    assert reversed_.length() == segment.length()
    assert reversed_.signed_area_term() == -segment.signed_area_term()


@pytest.mark.parametrize("t,text", [(math.nan, "nan, nan"), (math.inf, "inf, inf"), (-math.inf, "-inf, -inf")])
def test_a_point_at_a_non_finite_parameter_is_a_domain_error(t, text):
    # The edge index is compared, not floored, so the point is NaN or infinite, and Point
    # names it, as it did for a segment's own two-point formula.
    with pytest.raises(DomainError, match=f"^non-finite number in a point: {text}$"):
        LineSegment(Point(0.0, 0.0), Point(1.0, 2.0)).point(t)
    with pytest.raises(DomainError, match="^non-finite number in a point"):
        Polyline((0.0, 1.0, 2.0), (0.0, 1.0, 0.0)).point(t)


@given(vertices=st.integers(2, 300), t=st.floats(allow_nan=False, allow_infinity=False))
@example(vertices=2, t=-0.0)
@example(vertices=5, t=3.0)
@example(vertices=5, t=math.nextafter(1.0, 0.0))
def test_polyline_edge_is_the_clamped_floor(vertices, t):
    line = Polyline(tuple(range(vertices)), (0.0,) * vertices)
    assert line._edge(t) == min(max(math.floor(t), 0), vertices - 2)


def _signed_area(shape):
    """The pieces' own Green's-theorem sum, which is positive when they run counterclockwise."""
    return math.fsum(p.signed_area_term() for p in shape.pieces)


def test_clockwise_input_normalized():
    cw = make_polygon(list(reversed(UNIT_SQUARE)))
    assert _signed_area(cw) == pytest.approx(1.0)


def test_every_constructed_shape_is_ccw():
    for shape in sample_shapes().values():
        assert _signed_area(shape) > 0.0


# --- measures ---------------------------------------------------------------


def test_unit_circle_measures():
    c = make_circle(1.0)
    assert c.area() == pytest.approx(math.pi, abs=1e-9)
    assert c.perimeter() == pytest.approx(2.0 * math.pi, abs=1e-9)
    assert c.semiperimeter() == pytest.approx(math.pi, abs=1e-9)


def test_unit_square_measures():
    sq = make_polygon(UNIT_SQUARE)
    assert sq.area() == pytest.approx(1.0)
    assert sq.semiperimeter() == pytest.approx(2.0)


def test_rational_half_disk_area():
    half = Shape([RationalPoint(1.0, -1.0), LineSegment(Point(-1, 0), Point(1, 0))])
    assert half.area() == pytest.approx(math.pi / 2.0, abs=1e-9)
    circular = Shape(
        [CircularArc(Point(0, 0), 1.0, 0.0, math.pi), LineSegment(Point(-1, 0), Point(1, 0))]
    )
    assert half.area() == pytest.approx(circular.area(), rel=1e-10)


@pytest.mark.parametrize("t", [1.3e154, 1.4e154, 1e200, -1e200, 1.7e308])
def test_rational_arc_point_tends_to_the_bottom_of_the_circle(t):
    # t*t overflows past |t| ~ 1.34e154, where the point is (2/t, -1) to the last bit.
    start = RationalPoint(t, -1.0).start
    x, y = start.x, start.y
    assert (x, y) == (pytest.approx(2.0 / t, rel=1e-15), -1.0)
    assert (x, y) == pytest.approx((0.0, -1.0), abs=1e-150)


def test_rational_arc_point_keeps_its_bits_where_t_squared_is_finite():
    for t in (0.3, -0.9, 7.0, 1e10, 1.3e154):
        d = 1.0 + t * t
        start = RationalPoint(t, -1.0).start
        assert (start.x, start.y) == (2.0 * t / d, (1.0 - t * t) / d)


@given(t=st.floats(allow_nan=False, allow_infinity=False))
def test_rational_arc_velocity_is_finite_at_every_finite_t(t):
    vx, vy = RationalPoint(-1.0, 1.0).velocity(t)
    assert math.isfinite(vx) and math.isfinite(vy)


@given(t=st.floats(-1.2e77, 1.2e77))
@example(t=1.1579208923731618e77)  # the last t whose (1 + t^2)^2 is finite, and the next
@example(t=1.157920892373162e77)
def test_rational_arc_velocity_keeps_its_bits_where_its_denominator_is_finite(t):
    try:
        d = (1.0 + t * t) ** 2
    except OverflowError:
        assert RationalPoint(-1.0, 1.0).velocity(t) == pytest.approx((-2.0 / (t * t), -4.0 / t**3))
        return
    assert RationalPoint(-1.0, 1.0).velocity(t) == (2.0 * (1.0 - t * t) / d, -4.0 * t / d)


def test_rational_circle_matches_circular_arc_circle():
    rational = make_rational_circle()
    arc = make_circle(1.0)
    assert rational.area() == pytest.approx(arc.area(), rel=1e-10)
    assert rational.semiperimeter() == pytest.approx(arc.semiperimeter(), rel=1e-10)


RATIONAL_ARC_ENDS = [
    (1.0, -1.0), (-3.0, 0.2), (0.3, -0.9), (-0.2, 2.9), (7.0, 1e-3),
    # Nearly equal ends.
    (0.3, math.nextafter(0.3, 1.0)), (-7.0, math.nextafter(-7.0, 0.0)), (1e5, 1e5 + 1e-10),
    (0.0, 5e-324), (1e-300, 2e-300),
    # t0 t1 near -1, where 1 + t0 t1 cancels and the sweep is near a half turn.
    (2.0, -0.5), (3.0, -1.0 / 3.0), (0.1, math.nextafter(-10.0, 0.0)), (1e8, -1e-8),
    (-1e150, 1e-150), (1e300, -1e-300),
    # Far ends: t0 t1 and t1 - t0 overflow past |t| of about 1.34e154 and 9e307.
    (1e16, -1.0), (1e100, -1.0), (1.3e154, 1.4e154), (-1e200, -1e100), (1e300, 1e-300),
    (1e300, math.nextafter(1e300, math.inf)), (1e300, -1e300), (1.7e308, -1.7e308),
    (-1.7e308, 1e-308),
]
RATIONAL_ARC_FRAMES = [RigidMotion(), RigidMotion(0.7, True, (3.0, -2.0)),
                       RigidMotion(-2.5, False, (-1e6, 4e5))]


@pytest.mark.parametrize("t0, t1", RATIONAL_ARC_ENDS)
def test_rational_arc_length_is_within_2_ulps_of_its_80_digit_value(t0, t1):
    # Twice |atan t1 - atan t0| by Taylor series in decimal arithmetic (oracles.py), for the arc
    # posed, mirrored and shifted, and reversed.
    reference = 2 * abs(rational_arc_sweep(t0, t1))
    for frame in RATIONAL_ARC_FRAMES:
        for s0, s1 in ((t0, t1), (t1, t0)):
            length = RationalPoint(s0, s1, frame).length()
            error = abs(Decimal(length) - reference)
            assert 0.0 < length and error <= 2 * Decimal(math.ulp(length)), (s0, s1, length)


def test_rational_arc_measures_against_the_quadrature_reference():
    # Ends of both signs with |t| from 1e-300 to 1e300, posed, mirrored and shifted: the
    # reference takes each part past |t| = 1 through u = 1/t, so it keeps even an arc that
    # lies in a sliver at the bottom of the circle.
    rng = random.Random(29)
    for _ in range(1000):
        t0, t1 = (rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0) for _ in range(2))
        frame = RigidMotion(rng.uniform(-4.0, 4.0), rng.random() < 0.5,
                            (rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)))
        arc = RationalPoint(t0, t1, frame)
        assert arc.length() == pytest.approx(quadrature_length(arc), rel=1e-10, abs=0.0)
        term = arc.signed_area_term()
        assert quadrature_area_term(arc) == pytest.approx(term, rel=0.0,
                                                          abs=1e-12 * max(1.0, abs(term)))


@pytest.mark.parametrize("frame", RATIONAL_ARC_FRAMES[:2], ids=["plain", "mirrored"])
def test_rational_area_term_quadrature_holds_to_1e300(frame):
    # The circular arc at the polar angles pi/2 - 2 atan t, in the same frame, and the rational
    # arc's own closed form give the term. Integrated in t, the quadrature's first panel missed
    # the arc from about t = 1e15 on; in u = 1/t it does not.
    for t0 in (-1.0, 0.3, -5.0):
        for t1 in [sign * 10.0**k for k in range(301) for sign in (1.0, -1.0)]:
            if t1 == t0:
                continue
            angles = [curves.QUARTER_TURN - 2.0 * math.atan(t) for t in (t0, t1)]
            closed = CircularArc(Point(0.0, 0.0), 1.0, *angles).transformed(Similarity(frame))
            arc = RationalPoint(t0, t1, frame)
            reference = quadrature_area_term(arc)
            for term in (closed.signed_area_term(), arc.signed_area_term()):
                assert reference == pytest.approx(term, rel=0.0, abs=1e-12), (t0, t1)


@pytest.mark.parametrize("t0, t1", RATIONAL_ARC_ENDS)
def test_rational_arc_area_term_is_within_2_ulps_of_its_80_digit_value_at_listed_ends(t0, t1):
    _assert_area_term_within_2_ulps(t0, t1)


def test_rational_arc_area_term_is_within_2_ulps_of_its_80_digit_value_at_seeded_ends():
    # Ends of both signs with |t| from 1e-300 to 1e300, so that in about half the draws t^2
    # overflows and the sweep's arguments are scaled by a power of two.
    rng = random.Random(32)
    draws = [[rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0) for _ in range(2)]
             for _ in range(400)]
    assert sum(t * t == math.inf for t in (max(map(abs, ends)) for ends in draws)) > 100
    for t0, t1 in draws:
        _assert_area_term_within_2_ulps(t0, t1)


def _assert_area_term_within_2_ulps(t0: float, t1: float) -> None:
    """On the unit circle the area term is half the polar angle turned, -(atan t1 - atan t0),
    which oracles.py sums by Taylor series in decimal arithmetic. A mirror about the arc's own
    origin negates the term exactly, and so does the reversal."""
    for s0, s1 in ((t0, t1), (t1, t0)):
        sweep = rational_arc_sweep(s0, s1)
        for frame, expected in ((RigidMotion(), -sweep), (RigidMotion(0.7, True), sweep)):
            term = RationalPoint(s0, s1, frame).signed_area_term()
            error = abs(Decimal(term) - expected)
            assert error <= 2 * Decimal(math.ulp(term)), (s0, s1, frame, term)


def test_far_rational_arcs_are_measured_alike_by_the_reference_and_the_closed_forms():
    # Integrated in t, the reference's area term of the arc from t = 1e15 came out 6.976e-13,
    # where the term is 3 pi / 4.
    for t in (math.nextafter(1e13, math.inf), 1e15, -1e16, 1e100, 1.7e308):
        arc = RationalPoint(t, -1.0)
        assert quadrature_length(arc) == pytest.approx(arc.length(), rel=2e-15, abs=0.0), t
        assert quadrature_area_term(arc) == pytest.approx(arc.signed_area_term(), rel=2e-15,
                                                          abs=0.0), t
        # From 2 / |t| short of the bottom of the circle the arc runs to (-1, 0), through three
        # quarters counterclockwise for t > 0 and one clockwise for t < 0; the segment closes it.
        shape = Shape([arc, LineSegment(arc.end, arc.start)])
        if t > 0.0:
            area, semiperimeter = 3.0 * math.pi / 4.0 + 0.5, 3.0 * math.pi / 4.0 + math.sqrt(0.5)
        else:
            area, semiperimeter = math.pi / 4.0 - 0.5, math.pi / 4.0 + math.sqrt(0.5)
        closed = (shape.area(), shape.semiperimeter())
        assert closed == pytest.approx((area, semiperimeter), rel=1e-15 + 2.0 / abs(t), abs=0.0), t
        assert quadrature_measures(shape) == pytest.approx(closed, rel=2e-15, abs=0.0), t


def test_reference_takes_a_short_far_rational_part_in_t():
    # 1/t rounds both ends of a part a few ulps wide past |t| = 1, which lost its width in u:
    # the reference gave 0.0 for the first arc and 2.0329e-20 for the second. Past 2^500 the
    # speed in t leaves the normal range, so the last two short parts stay in u.
    for t0, t1 in ((7.0, math.nextafter(7.0, 8.0)), (1e5, 1e5 + 1e-10), (-1e5 - 1e-10, -1e5),
                   (1e200, 1.5e200), (-1e300, -1.2e300)):
        arc = RationalPoint(t0, t1, RigidMotion(0.7, True))
        assert quadrature_length(arc) == pytest.approx(arc.length(), rel=1e-14, abs=0.0)
        assert quadrature_area_term(arc) == pytest.approx(arc.signed_area_term(), rel=1e-14,
                                                          abs=0.0)


def test_ellipse_semiperimeter_against_simpson_oracle():
    # Frozen from dense Simpson (n = 200k) on sqrt(sin^2 t + 0.25 cos^2 t).
    expected = 2.422112055136949
    ellipse = Shape([EllipticalArc(Point(0, 0), (1.0, 0.5), 0.0, 0.0, 2.0 * math.pi)])
    assert ellipse.semiperimeter() == pytest.approx(expected, rel=1e-8)


REFERENCE_GOLDEN = pathlib.Path(__file__).parent / "golden" / "quadrature_reference.json"


def reference_pieces():
    """Every piece kind posed plain, mirrored, shifted and scaled by 1e12 and 1e-12, plus a flat
    elliptical arc and a steep parabolic arc, by name. A rational arc scaled off the unit circle
    is a circular arc, so rational arcs take no scaled poses."""
    poses = {
        "plain": Similarity(),
        "mirrored": Similarity(RigidMotion(0.7, True, (3.0, -2.0))),
        "shifted": Similarity(RigidMotion(-1.2, False, (1e3, -2e3))),
        "large": Similarity(RigidMotion(2.1, False, (5.0, 1.0)), 1e12),
        "small": Similarity(RigidMotion(-0.4, True, (5.0, 1.0)), 1e-12),
    }
    pieces = {f"{piece.kind}/{pose}": piece.transformed(sim)
              for piece in sample_pieces() for pose, sim in poses.items()
              if piece.kind != "rational_point" or sim.scale == 1.0}
    pieces["elliptical_arc/flat"] = EllipticalArc(Point(0.5, 0.0), (1.0, 1e-200), 0.4, 0.3, 2.4)
    pieces["parabolic_arc/steep"] = ParabolicArc((1e300, 0.0, 0.0), 1e-140, 2e-140,
                                                 RigidMotion(0.0, True, (1.0, 2.0)))
    return pieces


def quadrature_reference_reprs(monkeypatch) -> dict:
    """The reference's length and area term of each reference piece, and the integrand
    evaluations of the rational circle's measures, as the golden file holds them."""
    curves_module = importlib.import_module("unitshapes.curves")
    quadrature = curves_module.adaptive_quadrature
    evals = 0

    def counted(f, *args, **kwargs):
        def integrand(t):
            nonlocal evals
            evals += 1
            return f(t)

        return quadrature(integrand, *args, **kwargs)

    monkeypatch.setattr(curves_module, "adaptive_quadrature", counted)
    area, semiperimeter = quadrature_measures(make_rational_circle())
    circle = {"area": repr(area), "semiperimeter": repr(semiperimeter), "evals": evals}
    return {"pieces": {name: [repr(quadrature_length(p)), repr(quadrature_area_term(p))]
                       for name, p in reference_pieces().items()},
            "rational_circle": circle}


def test_quadrature_reference_is_the_golden_bit_for_bit(monkeypatch):
    assert quadrature_reference_reprs(monkeypatch) == json.loads(REFERENCE_GOLDEN.read_text())


def test_exact_vs_quadrature_for_circular_arcs():
    shape = Shape(
        [
            CircularArc(Point(0.3, -2.0), 1.7, -0.4, 1.9),
            LineSegment(
                CircularArc(Point(0.3, -2.0), 1.7, -0.4, 1.9).end,
                CircularArc(Point(0.3, -2.0), 1.7, -0.4, 1.9).start,
            ),
        ]
    )
    area, semiperimeter = quadrature_measures(shape)
    assert shape.area() == pytest.approx(area, rel=1e-10)
    assert shape.perimeter() == pytest.approx(2.0 * semiperimeter, rel=1e-10)


def test_polygon_exact_vs_quadrature():
    poly = make_polygon([(0, 0), (3, 0.5), (2.5, 2.0), (0.5, 1.5)])
    area, semiperimeter = quadrature_measures(poly)
    assert poly.area() == pytest.approx(area, rel=1e-10)
    assert poly.perimeter() == pytest.approx(2.0 * semiperimeter, rel=1e-10)


def _ellipse_area_term_by_simpson(center, semi_axes, rotation, t0, t1):
    """(1/2) int (x y' - y x') dt over the arc, written out from its definition."""
    a, b = semi_axes
    c, s = math.cos(rotation), math.sin(rotation)

    def integrand(t):
        lx, ly, lvx, lvy = a * math.cos(t), b * math.sin(t), -a * math.sin(t), b * math.cos(t)
        x, y = center[0] + c * lx - s * ly, center[1] + s * lx + c * ly
        return 0.5 * (x * (s * lvx + c * lvy) - y * (c * lvx - s * lvy))

    return dense_simpson(integrand, t0, t1)


ELLIPTICAL_ARCS = [  # (center, semi-axes, rotation, t_start, t_end)
    ((1.0, 2.0), (2.0, 0.75), 0.4, -0.5, 1.8),
    ((1.0, 2.0), (2.0, 0.75), 0.4, 1.8, -0.5),
    ((-3.0, 0.5), (0.4, 1.7), 2.9, 2.0, 5.5),
    ((30.0, -45.0), (1.2, 0.3), -1.3, 0.3, -4.0),
    ((0.0, 0.0), (5.0, 0.05), 0.0, 1.0, 1.001),
    ((0.2, -0.1), (1.0, 0.5), 0.7, -7.0, 3.0),
]


@pytest.mark.parametrize("arc", ELLIPTICAL_ARCS, ids=lambda arc: f"{arc[3]}..{arc[4]}")
@pytest.mark.parametrize("mirror", [False, True], ids=["direct", "mirrored"])
def test_elliptical_area_term_against_quadrature_and_simpson(arc, mirror):
    center, semi_axes, rotation, t0, t1 = arc
    piece = EllipticalArc(Point(*center), semi_axes, rotation, t0, t1)
    if mirror:
        piece = piece.transformed(Similarity(RigidMotion(0.9, True, (4.0, -2.5)), 1.7))
        # The mirror image, written out: reflect in the x-axis after rotating, then scale.
        sim_c, sim_s = math.cos(0.9), math.sin(0.9)
        x = sim_c * center[0] - sim_s * center[1] + 4.0
        y = -(sim_s * center[0] + sim_c * center[1]) - 2.5
        center = (1.7 * x, 1.7 * y)
        semi_axes = (1.7 * semi_axes[0], 1.7 * semi_axes[1])
        rotation, t0, t1 = -(rotation + 0.9), -t0, -t1
    # The terms cancel for an arc far from the origin, so compare on the size of its parts.
    size = (abs(center[0]) + abs(center[1]) + max(semi_axes)) * max(semi_axes) * abs(t1 - t0)
    exact = piece.signed_area_term()
    assert exact == pytest.approx(quadrature_area_term(piece), abs=1e-10 * size)
    assert exact == pytest.approx(
        _ellipse_area_term_by_simpson(center, semi_axes, rotation, t0, t1), abs=1e-12 * size
    )


def test_full_ellipse_area_is_pi_a_b_at_every_scale_and_shift():
    rng = random.Random(17)
    for _ in range(2000):
        b = rng.uniform(0.05, 1.0)
        size = 10.0 ** rng.uniform(-12.0, 12.0)
        shift = (rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
        motion = RigidMotion(rng.uniform(-math.pi, math.pi), rng.random() < 0.5, shift)
        unit = EllipticalArc(Point(0.0, 0.0), (1.0, b), 0.0, 0.0, 2.0 * math.pi)
        ellipse = unit.transformed(Similarity(motion, size))
        a_scaled, b_scaled = ellipse.semi_axes
        expected = math.pi * a_scaled * b_scaled
        assert abs(ellipse.signed_area_term()) == pytest.approx(expected, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("pose", ["plain", "rotated", "mirrored"])
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_whole_turn_length_is_closed_and_matches_quadrature_and_simpson(k, pose, reverse):
    t0, t1 = 0.7, 0.7 + k * 2.0 * math.pi
    arc = EllipticalArc(Point(1.5, -2.0), (2.0, 0.6), 1.1 if pose == "rotated" else 0.0, t0, t1)
    scale = 1.0
    if pose == "mirrored":
        scale = 1.7
        arc = arc.transformed(Similarity(RigidMotion(0.9, True, (4.0, -2.5)), scale))
    if reverse:
        arc = arc.reversed_()
    a, b = 2.0 * scale, 0.6 * scale
    # A mirror and a reversal each turn the ellipse clockwise; the area term carries the sign.
    area = (-1.0) ** ((pose == "mirrored") + reverse) * k * math.pi * a * b
    assert arc.signed_area_term() == pytest.approx(area, rel=1e-14, abs=0.0)
    assert quadrature_area_term(arc) == pytest.approx(area, rel=1e-10, abs=0.0)
    exact = arc._exact_length()
    assert arc.length() == exact
    assert exact == pytest.approx(quadrature_length(arc), rel=1e-10, abs=0.0)
    # The speed |d/dt (a cos t, b sin t)|, integrated over the arc's sweep before it was posed.
    speed = lambda t: math.hypot(a * math.sin(t), b * math.cos(t))
    assert exact == pytest.approx(dense_simpson(speed, t0, t1), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("sweep", [math.pi, 1.5 * math.pi, 2.0 * math.pi * (1.0 - 1e-9)],
                         ids=["half_turn", "three_quarter_turn", "nearly_a_turn"])
def test_part_turn_length_is_closed_and_matches_quadrature_and_simpson(sweep):
    arc = EllipticalArc(Point(1.5, -2.0), (2.0, 0.6), 0.4, 0.7, 0.7 + sweep)
    exact = arc._exact_length()
    assert arc.length() == exact
    assert arc.reversed_()._exact_length() == exact
    assert exact == pytest.approx(quadrature_length(arc), rel=1e-13, abs=0.0)
    speed = lambda t: math.hypot(2.0 * math.sin(t), 0.6 * math.cos(t))
    assert exact == pytest.approx(dense_simpson(speed, 0.7, 0.7 + sweep), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("args, rf, rd", [
    ((0.0, 2.0, 1.0), 1.3110287771461, 1.7972103521034),
    ((2.0, 3.0, 4.0), 0.58408284167715, 0.16510527294261),
])
def test_carlson_integrals_match_the_published_values(args, rf, rd):
    # Test values of Carlson 1995 (arXiv:math/9409227), given to 14 digits.
    assert carlson_rf_rd(*args) == pytest.approx((rf, rd), rel=1e-13, abs=0.0)


def _random_partial_arc(rng):
    """A unit-major arc of axis ratio 1e-3..1 and sweep 1e-6..4 pi, either way, rotated and
    sometimes mirrored; a third start within a few ulps of a quarter end."""
    ratio = 10.0 ** rng.uniform(-3.0, 0.0)
    sweep = 10.0 ** rng.uniform(-6.0, math.log10(4.0 * math.pi))
    t0 = rng.uniform(-7.0, 7.0)
    if rng.random() < 1.0 / 3.0:
        t0 = rng.randrange(-4, 5) * 0.5 * math.pi + rng.choice((0.0, 1.0, -1.0)) * math.ulp(4.0)
    axes = (1.0, ratio) if rng.random() < 0.5 else (ratio, 1.0)
    arc = EllipticalArc(Point(0.3, -0.2), axes, rng.uniform(-3.0, 3.0), t0,
                        t0 + rng.choice((-1.0, 1.0)) * sweep)
    if rng.random() < 0.5:
        arc = arc.transformed(Similarity(RigidMotion(rng.uniform(-3.0, 3.0), True, (1.0, 2.0))))
    return arc, sweep


def test_partial_arc_length_matches_quadrature_over_sweeps_ratios_and_poses():
    rng = random.Random(31)
    worst = {"short": 0.0, "long": 0.0}
    for _ in range(300):
        arc, sweep = _random_partial_arc(rng)
        if arc._turns:
            continue
        exact = arc._exact_length()
        err = abs(exact - quadrature_length(arc)) / exact
        key = "long" if sweep >= 0.1 else "short"
        worst[key] = max(worst[key], err)
    assert worst["short"] <= 1e-10
    assert worst["long"] <= 1e-13


@pytest.mark.parametrize("s", [1e-12, 1e-9, 1e-6, 1.0, 1e6, 1e12])
def test_reference_length_is_scale_free(s):
    # A length is positive, so the reference stops on its relative tolerance at every scale.
    arc = EllipticalArc(Point(0.0, 0.0), (s, 0.03 * s), 0.0, 0.3, 9.4)
    assert quadrature_length(arc) == pytest.approx(arc.length(), rel=1e-12, abs=0.0)


def test_partial_arc_length_scales_at_every_scale():
    # The closed form is scale-free: a posed copy's length is its size times the unit one's.
    rng = random.Random(37)
    for _ in range(300):
        arc, _ = _random_partial_arc(rng)
        size = 10.0 ** rng.uniform(-12.0, 12.0)
        motion = RigidMotion(rng.uniform(-math.pi, math.pi), rng.random() < 0.5, (5.0, -3.0))
        posed = arc.transformed(Similarity(motion, size))
        assert posed.length() == pytest.approx(size * arc.length(), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("k", [-9, -3, -1, 0, 1, 2, 4, 9])
@pytest.mark.parametrize("ratio", [1e-3, 0.3])
def test_short_arc_keeps_its_relative_accuracy(k, ratio):
    # Sweeps of 1e-9..1e-3 on either side of k pi/2, whose float is off the true quarter end,
    # inside the quarter, where the distances to its ends are rounded, and across its middle,
    # where the sweep is split. A part from a quarter end up to 2^-27 (7.5e-9) wide, less at
    # small ratios, is the speed there times its width; 5e-7 lies past that width, where the
    # product would be up to 4e-14 off.
    end = k * 0.5 * math.pi
    for axes in ((1.0, ratio), (ratio, 1.0)):
        speed = lambda t: math.hypot(axes[0] * math.sin(t), axes[1] * math.cos(t))
        for sweep, n in ((1e-9, 2), (5e-7, 10), (1e-6, 20), (1e-3, 4000)):
            for t0 in (end, end - sweep, end + 0.3, end + 0.25 * math.pi - 0.5 * sweep):
                arc = EllipticalArc(Point(0.0, 0.0), axes, 0.0, t0, t0 + sweep)
                expected = dense_simpson(speed, t0, t0 + sweep, n=n)
                assert arc.length() == pytest.approx(expected, rel=1e-14, abs=0.0)
                assert arc.reversed_().length() == arc.length()


class IncompleteIntegralCalled(Exception):
    pass


def test_arcs_between_quarter_ends_take_no_incomplete_integral(monkeypatch):
    # Quarter, half and three-quarter sweeps from float k pi/2, k = -9..9, and sweeps between
    # floats within 4e-16 of quarter ends near 1e9 and 1e12, at axis ratios 1e-3..1 in both
    # orders and scales 1e-12..1e12, mirrored and reversed. The part between each end and its
    # quarter end is its width times the speed there, so no incomplete integral runs; whole
    # quarters come from the half perimeter. The lengths are 40-digit references from the
    # floats (quarter_arc_references.py, mpmath), and each is within 4 ulps.
    def fail(*args):
        raise IncompleteIntegralCalled(args)

    monkeypatch.setattr(curves, "_eighth_arc", fail)
    with pytest.raises(IncompleteIntegralCalled):  # the patch is the one the kernel calls
        EllipticalArc(Point(0.0, 0.0), (1.0, 0.5), 0.0, 0.0, 1.0).length()
    refs = json.loads((pathlib.Path(__file__).parent / "golden" / "quarter_arcs.json").read_text())
    for (a, b), lengths in zip(refs["axes"], refs["lengths"]):
        for (t0, t1), reference in zip(refs["sweeps"], lengths):
            for s0, s1 in ((t0, t1), (t1, t0), (-t0, -t1), (-t1, -t0)):
                length = EllipticalArc(Point(0.0, 0.0), (a, b), 0.0, s0, s1).length()
                error = abs(Decimal(length) - Decimal(reference))
                assert error <= 4 * Decimal(math.ulp(length)), (a, b, s0, s1, length, reference)


def test_ellipse_half_perimeter_is_within_6_ulps_of_its_40_digit_value():
    # Axis ratios 1e-6..1e-12 in both orders at scales 1e-12..1e12, against 2 max(a, b) E(m) of
    # the floats (quarter_arc_references.py, mpmath); the quarter-end arcs above take in the
    # ratios 1e-3..1. The AGM form pi (a^2 - sum 2^(n-1) c_n^2) / M(a, b) cancels at small
    # ratios, up to 34 ulps here.
    refs = json.loads((pathlib.Path(__file__).parent / "golden" / "quarter_arcs.json").read_text())
    assert len(refs["half_perimeters"]) == 18
    for a, b, reference in refs["half_perimeters"]:
        half = ellipse_half_perimeter(a, b)
        error = abs(Decimal(half) - Decimal(reference))
        assert error <= 6 * Decimal(math.ulp(half)), (a, b, half, reference)


@pytest.mark.parametrize(
    "t0, t1, reference",
    [
        # The length of (cos t, 0.3 sin t) between the two floats, to 40 digits (mpmath, 60 digits).
        (1e9, 1000000000.001, "0.0006013153091534277417055101037696289660452"),
        (1e9, 1000000002.0, "1.716695396425505487041407107182817514262"),
        (1e12, 1000000000000.001, "0.000640045450850497969445637964417137982345"),
        (1e12, 1000000000002.0, "1.162345837428364553389040295194435185085"),
        (-1e12, -999999999999.999, "0.0006406856951578651470032288717343901409396"),
        (-1e12, -999999999998.0, "1.711505637828803355866942387494143717502"),
    ],
)
def test_arc_length_at_large_parameters(t0, t1, reference):
    # The quarter index k reaches 6.4e11 here; k times the head of pi/2 in one product rounds
    # for |k| >= 2^20, which put these lengths 4e-9 to 3e-6 off.
    arc = EllipticalArc(Point(0.0, 0.0), (1.0, 0.3), 0.0, t0, t1)
    length = arc.length()
    assert abs(Decimal(length) - Decimal(reference)) <= 16 * Decimal(math.ulp(length))
    assert arc.reversed_().length() == length


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
def test_arc_length_where_the_quotient_rounds_onto_a_quarter_end(sign):
    # t0 lies 0.26 ulp (3.2e-5) below 636619772368 pi/2, but t0 / QUARTER_TURN rounds to that
    # integer; taken as its width times the speed at the quarter end, the part below it put the
    # length 5.6e-11 off. The length of (cos t, 0.3 sin t) to 40 digits (mpmath, 60 digits).
    reference = 0.0002929692686140162322162543817849151798379
    arc = EllipticalArc(Point(0.0, 0.0), (1.0, 0.3), 0.0,
                        sign * 1000000000000.6576, sign * 1000000000000.6566)
    assert arc.length() == pytest.approx(reference, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("size", [1e-300, 1e-200, 1e200, 1e300])
def test_whole_turn_length_at_the_ends_of_the_float_range(size):
    # Squares of semi-axes this size would overflow or underflow; the length squares only
    # their ratio.
    arc = EllipticalArc(Point(0.0, 0.0), (size, 0.4 * size), 0.3, 1.0, 1.0 - 2.0 * math.pi)
    assert arc.length() == pytest.approx(2.0 * size * ellipse_half_perimeter(1.0, 0.4), rel=1e-15)


def test_ellipse_half_perimeter_scales_by_powers_of_two_exactly():
    half = ellipse_half_perimeter(1.0, 0.4)
    for k in (-1000, -900, -1, 1, 900, 1000):
        assert ellipse_half_perimeter(2.0**k, 0.4 * 2.0**k) == 2.0**k * half
    # A minor axis below the least float share of the major one: a segment there and back.
    flat = EllipticalArc(Point(0.0, 0.0), (1e300, 1e-30), 0.0, 0.0, 2.0 * math.pi)
    assert flat.length() == 4e300
    # Past the float range a length is inf, as quadrature's is.
    assert ellipse_half_perimeter(1.7e308, 1.7e308) == math.inf
    assert EllipticalArc(Point(0.0, 0.0), (5e307, 4e307), 0.0, 0.0, 2.0 * math.pi).length() == math.inf


def test_posed_full_ellipse_measure_is_scale_free():
    # S^2 / A of a k-turn ellipse is k times the one-turn value, its fundamental measure.
    rng = random.Random(23)
    worst = 0.0
    for _ in range(2000):
        r = rng.uniform(0.05, 0.95)
        k = rng.choice((1, 2))
        t0 = rng.uniform(-10.0, 10.0)
        size = 10.0 ** rng.uniform(-12.0, 12.0)
        shift = (rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
        motion = RigidMotion(rng.uniform(-math.pi, math.pi), rng.random() < 0.5, shift)
        unit = EllipticalArc(Point(0.0, 0.0), (1.0, r), 0.0, t0, t0 + k * 2.0 * math.pi)
        arc = unit.transformed(Similarity(motion, size))
        if rng.random() < 0.5:
            arc = arc.reversed_()
        s = 0.5 * arc.length()
        a = abs(arc.signed_area_term())
        measure = s * s / (k * a)
        worst = max(worst, abs(measure / fundamental_measure(Ellipse(r)) - 1.0))
    assert worst <= 1e-11


def test_posed_full_ellipse_closes_and_unitizes():
    # point(t_start + 2 pi k) misses the start by rounding, beyond the join tolerance once
    # the coordinates are large; a whole-turn arc ends at its start instead.
    rng = random.Random(29)
    for _ in range(500):
        r = rng.uniform(0.05, 0.95)
        k = rng.choice((1, 2))
        t0 = rng.uniform(-10.0, 10.0)
        size = 10.0 ** rng.uniform(-12.0, 12.0)
        shift = (rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
        motion = RigidMotion(rng.uniform(-math.pi, math.pi), rng.random() < 0.5, shift)
        unit = EllipticalArc(Point(0.0, 0.0), (1.0, r), 0.0, t0, t0 + k * 2.0 * math.pi)
        arc = unit.transformed(Similarity(motion, size))
        if rng.random() < 0.5:
            arc = arc.reversed_()
        assert arc.end == arc.start
        result = unitize(Shape([arc]))
        expected = k * fundamental_measure(Ellipse(r))
        assert result.fundamental_measure == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_parabolic_area_closed_form():
    # Region under y = 1 - x^2 over [-1, 1] has area 4/3.
    blob = sample_shapes()["parabola_blob"]
    assert blob.area() == pytest.approx(4.0 / 3.0, rel=1e-10)
    speed = lambda x: math.hypot(1.0, -2.0 * x)
    expected_perimeter = dense_simpson(speed, -1.0, 1.0, n=40_000) + 2.0
    assert blob.perimeter() == pytest.approx(expected_perimeter, rel=1e-8)


def _parabola_terms_by_simpson(arc):
    """Length and (1/2) int (x y' - y x') dx of a parabolic arc, written out from its definition."""
    alpha, beta, gamma = arc.coefficients
    frame = arc.frame
    c, s = math.cos(frame.rotation_angle), math.sin(frame.rotation_angle)
    mirror = -1.0 if frame.reflect else 1.0
    (tx, ty), x0, x1 = frame.translation, arc.x_start, arc.x_end

    def area_integrand(x):
        y, slope = (alpha * x + beta) * x + gamma, 2.0 * alpha * x + beta
        px, py = c * x - s * y + tx, mirror * (s * x + c * y) + ty
        vx, vy = c - s * slope, mirror * (s + c * slope)
        return 0.5 * (px * vy - py * vx)

    speed = lambda x: math.hypot(1.0, 2.0 * alpha * x + beta)
    return abs(dense_simpson(speed, x0, x1)), dense_simpson(area_integrand, x0, x1)


PARABOLIC_ARCS = {  # (coefficients, x_start, x_end, frame)
    "cap": ((-1.0, 0.0, 1.0), -1.0, 1.0, RigidMotion()),
    "symmetric_cap": ((0.7, 0.3, -0.2), -0.3 / 1.4 - 1.1, -0.3 / 1.4 + 1.1, RigidMotion(0.4)),
    "one_sided": ((0.8, -0.3, 1.1), 0.6, 1.9, RigidMotion(0.7, False, (0.2, -0.4))),
    "one_sided_falling": ((0.8, 0.3, 1.1), -2.2, -0.9, RigidMotion(-2.1, False, (3.0, 1.0))),
    "mirrored": ((-0.8, 0.3, 1.1), -0.6, 1.2, RigidMotion(0.7, True, (0.2, -0.4))),
    "steep": ((40.0, -3.0, 0.5), -0.5, 0.6, RigidMotion(1.3, True, (-2.0, 0.5))),
    "straight": ((0.0, 0.6, -0.3), -1.5, 2.0, RigidMotion(0.9, False, (1.0, 1.0))),
    "alpha_1e-4": ((1e-4, 0.2, 0.1), 0.5, 1.5, RigidMotion(-0.3, True, (0.0, 2.0))),
    "alpha_span_1e-12": ((5e-13, -0.4, 0.3), -1.0, 1.0, RigidMotion(2.5, False, (-1.0, 0.0))),
    "alpha_span_1e-13_about_its_vertex": ((1e-13, 0.0, 0.0), -0.5, 0.5, RigidMotion(0.2)),
}


@pytest.mark.parametrize("name", PARABOLIC_ARCS)
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_parabolic_length_and_area_term_are_closed_and_match_quadrature_and_simpson(name, reverse):
    coefficients, x0, x1, frame = PARABOLIC_ARCS[name]
    arc = ParabolicArc(coefficients, x0, x1, frame)
    if reverse:
        arc = arc.reversed_()
    length, area_term = arc._exact_length(), arc._exact_area_term()
    assert (arc.length(), arc.signed_area_term()) == (length, area_term)
    simpson_length, simpson_area_term = _parabola_terms_by_simpson(arc)
    assert length == pytest.approx(quadrature_length(arc), rel=1e-12, abs=0.0)
    assert length == pytest.approx(simpson_length, rel=1e-12, abs=0.0)
    # The area terms cancel about the frame's offset, so compare on the size of their parts.
    (tx, ty), reach = frame.translation, abs(x0) + abs(x1) + 1.0
    size = (abs(tx) + abs(ty) + reach) * length
    assert area_term == pytest.approx(quadrature_area_term(arc), abs=1e-12 * size)
    assert area_term == pytest.approx(simpson_area_term, abs=1e-12 * size)


def test_parabolic_terms_reverse_and_mirror():
    arc = ParabolicArc((0.8, -0.3, 1.1), 0.6, 1.9, RigidMotion(0.7, False, (0.2, -0.4)))
    back = arc.reversed_()
    assert back.length() == pytest.approx(arc.length(), rel=1e-15, abs=0.0)
    assert back.signed_area_term() == pytest.approx(-arc.signed_area_term(), rel=1e-15, abs=0.0)
    sim = Similarity(RigidMotion(0.9, True, (4.0, -2.5)), 1.7)
    image = arc.transformed(sim)
    assert image.frame.reflect
    assert image.length() == pytest.approx(1.7 * arc.length(), rel=1e-15, abs=0.0)
    # A mirror turns the area term's sign and a similarity scales it by 1.7^2, about the image's
    # origin; the quadrature reference measures the same image independently.
    assert image.signed_area_term() == pytest.approx(
        quadrature_area_term(image), rel=1e-12, abs=0.0)


def test_closed_lengths_hold_where_squares_overflow():
    # (b/a)^2 and u^2 = (2 alpha x)^2 overflow in these arcs, where their closed lengths do not:
    # the flat arc is the segment from cos 0.3 to cos 2.4, and the steep one's slope runs from
    # 2e160 to 4e160. Their 40-digit lengths, from the floats, are to 1e-15.
    flat = EllipticalArc(Point(0.0, 0.0), (1.0, 1e-200), 0.0, 0.3, 2.4)
    assert flat.length() == pytest.approx(1.692730204666851463, rel=1e-15, abs=0.0)
    steep = ParabolicArc((1e300, 0.0, 0.0), 1e-140, 2e-140)
    assert steep.length() == pytest.approx(3.000000000000000057e20, rel=1e-15, abs=0.0)
    # Past the float range a length is inf, as a half perimeter's is.
    assert ParabolicArc((1e300, 0.0, 0.0), 1e7, 2e7).length() == math.inf
    assert EllipticalArc(Point(0.0, 0.0), (1.7e308, 1e-300), 0.0, 0.3, 2.4).length() == math.inf
    # A slope that is itself beyond the float range is named.
    with pytest.raises(DomainError, match="slope 2 alpha x"):
        ParabolicArc((1e300, 0.0, 0.0), 1e10, 2e10).length()


FLAT_STEEP = pathlib.Path(__file__).parent / "golden" / "flat_steep_arcs.json"


def test_flat_and_steep_lengths_are_within_2_ulps_of_their_40_digit_values():
    # Elliptical arcs at axis ratios 1e-101..1e-300 and below 2^-1074, both ways round, over
    # sweeps across k pi, from ends within 2^-26 of it and about t = 0 where the minor axis sets
    # the speed; and parabolic arcs whose slopes of one sign or both reach 1e300. The lengths
    # are 40-digit references from the floats (flat_steep_references.py, mpmath); 2 ulps is at
    # most 4.4e-16 of a length. Each arc and its reversal give one length.
    refs = json.loads(FLAT_STEEP.read_text())
    arcs = [(EllipticalArc(Point(0.0, 0.0), (a, b), 0.0, t0, t1), value)
            for a, b, t0, t1, value in refs["elliptical"]]
    arcs += [(ParabolicArc((alpha, beta, 0.0), x0, x1), value)
             for alpha, beta, x0, x1, value in refs["parabolic"]]
    for arc, value in arcs:
        length = arc.length()
        assert arc.reversed_().length() == length
        assert abs(Decimal(length) - Decimal(value)) <= 2 * Decimal(math.ulp(length)), (arc, value)


def test_flat_and_steep_lengths_match_the_quadrature_reference_at_seeded_draws():
    # Flat arcs of ratio 1e-101..1e-300, and parabolic arcs with alpha up to 1e300 whose slopes,
    # of one sign and up to 1e200, pass the overflow of the old mean-speed form, and where the
    # reference's sums stay in the float range. The reference's relative tolerance is 1e-10, but
    # a flat arc's turn at an end of small speed is a corner to its panels: it misses the worst
    # of these arcs by 7.9e-9, where the closed form is 1e-16 from mpmath's 40 digits. It misses
    # the kink of a steep parabola's speed at its vertex too, so the golden points hold the
    # flat arcs to 2 ulps and the parabolas whose slopes straddle 0.
    rng = random.Random(36)
    for _ in range(200):
        ratio, size = 10.0 ** rng.uniform(-300.0, -101.0), 10.0 ** rng.uniform(0.0, 100.0)
        axes = (size, ratio * size) if rng.random() < 0.5 else (ratio * size, size)
        t0 = rng.uniform(-7.0, 7.0)
        arc = EllipticalArc(Point(1.0, -2.0), axes, rng.uniform(-3.0, 3.0), t0,
                            t0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 1.0))
        assert arc.length() == pytest.approx(quadrature_length(arc), rel=2e-8, abs=0.0), arc
        alpha = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(100.0, 300.0)
        reach = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(100.0, 200.0) / abs(alpha)
        x0, x1 = reach * rng.uniform(0.01, 1.0), reach * rng.uniform(0.01, 1.0)
        arc = ParabolicArc((alpha, rng.uniform(-5.0, 5.0), 0.0), x0, x1)
        assert arc.length() == pytest.approx(quadrature_length(arc), rel=1e-12, abs=0.0), arc


class QuadratureCalled(Exception):
    pass


def _extreme_pieces(rng: random.Random) -> list:
    """One seeded draw of each piece kind at the ends of its range: coordinates, radii and
    axes of 1e-300..1e300, axis ratios down to below 2^-1074, sweeps from 1e-12 to 30 and ends
    on quarter ends, parabolic slopes up to 1e300, and rational ends up to 1e300."""
    big = lambda lo=-300.0, hi=300.0: rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(lo, hi)
    size = abs(big())
    t0 = rng.choice((rng.uniform(-10.0, 10.0), rng.randrange(-8, 9) * 0.5 * math.pi))
    t1 = t0 + big(-12.0, 1.5)
    major, minor = size, max(size * 10.0 ** rng.uniform(-340.0, 0.0), 5e-324)
    scale = rng.uniform(-300.0, 300.0)  # alpha's, and the slope's such that |x0| <= 1e300
    alpha = big(scale, scale)
    x0 = big(max(-300.0, scale - 300.0), min(300.0, scale + 300.0)) / (2.0 * alpha)
    x1 = x0 * rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 0.0)
    return [
        LineSegment(Point(big(), big()), Point(big(), big())),
        Polyline([big() for _ in range(5)], [big() for _ in range(5)]),
        CircularArc(Point(big(), big()), size, t0, t1),
        EllipticalArc(Point(big(), big()), rng.choice(((major, minor), (minor, major))),
                      rng.uniform(-3.0, 3.0), t0, t1),
        ParabolicArc((alpha, 0.0, big()), x0, x1, RigidMotion(rng.uniform(-3.0, 3.0), True)),
        RationalPoint(big(), big(), RigidMotion(rng.uniform(-3.0, 3.0), False, (big(), big()))),
    ]


def test_every_piece_measure_is_closed(monkeypatch):
    # No length or area term calls quadrature: not the reference pieces, the flat arc and the
    # steep parabolic arc among them, nor seeded draws of every kind at its extremes. No area
    # term of those draws is NaN, though 93 of them have parts that overflow with opposite signs.
    def fail(*args, **kwargs):
        raise QuadratureCalled(args)

    monkeypatch.setattr(curves, "adaptive_quadrature", fail)
    with pytest.raises(QuadratureCalled):  # the patch is the one the reference calls
        quadrature_length(sample_pieces()[0])
    rng = random.Random(360)
    pieces = list(reference_pieces().values())
    for _ in range(300):
        pieces += _extreme_pieces(rng)
    for piece in pieces:
        term = piece.signed_area_term()
        assert term == term, piece  # parts that overflow with opposite signs give inf, not NaN
        assert piece.length() >= 0.0, piece


def test_area_term_whose_parts_overflow_with_opposite_signs_is_its_value():
    # Each product is rounded before the difference, so the term is held to a few ulps of
    # the products' sum, as it is where nothing overflows.
    def near(term, products, local=Fraction(0)):
        exact = sum(p - q for p, q in products) / 2 + local
        bound = Fraction(1, 2**50) * sum(abs(p) + abs(q) for p, q in products)
        return abs(Fraction(term) - exact) <= bound

    # A polyline whose two edge terms are +inf and -inf, and whose sum is finite.
    a = 1e155
    xs, ys = [a, -a, a], [a, a, a * (1.0 + 2.0**-33)]
    x, y = [Fraction(v) for v in xs], [Fraction(v) for v in ys]
    term = Polyline(xs, ys).signed_area_term()
    assert math.isfinite(term)
    assert near(term, [(x[i] * y[i + 1], x[i + 1] * y[i]) for i in range(2)])
    # A flat ellipse far out, whose shift products overflow with opposite signs while its
    # local term and chord are finite; scaled to a shift below 1, its minor axis underflows.
    e0 = EllipticalArc(Point(0.0, 0.0), (1e10, 1e-300), 1.0, 0.0, 2.0)
    vx, vy = e0.frame.apply_vector(*e0._local_chord())
    tx = 1e300
    ty = tx * (vy / vx) * (1.0 + 2.0**-20)
    term = EllipticalArc(Point(tx, ty), (1e10, 1e-300), 1.0, 0.0, 2.0).signed_area_term()
    assert math.isfinite(term)
    assert near(term, [(Fraction(tx) * Fraction(vy), Fraction(ty) * Fraction(vx))],
                Fraction(e0.signed_area_term()))
    far = EllipticalArc(Point(tx, tx), (1e10, 1e-300), 1.0, 0.0, 2.0)
    assert far.signed_area_term() == -math.inf
    # A local term of 5.6e471 and a shift term of -1.6e386.
    arc = CircularArc(Point(-6.62365368237654e-257, 2.358887899519665e+151),
                      1.0483950716066684e+237, -8.754078292521575, -8.743857843218894)
    assert arc.signed_area_term() == math.inf
    # The term stays NaN where the piece scaled by 2^-k is not there to measure: a steep arc
    # whose size, the hypot of its chord, is inf, and one whose alpha 2^k overflows.
    steep = (1e300, 0.0, 0.0)
    for arc in (ParabolicArc(steep, 1e10, 2e10, RigidMotion(math.pi / 2, False, (0.0, -5.0))),
                ParabolicArc(steep, 1e5, 1e5 + 1, RigidMotion(0.0, False, (-1e10, 0.0)))):
        assert math.isnan(arc.signed_area_term()), arc


def test_reference_raises_where_an_interior_point_overflows():
    # y = 1e200 x^2 passes the float range inside the span; the integrands' NaN and inf must
    # raise, as Point's finiteness check did when the reference built points.
    arc = ParabolicArc((1e200, 0.0, 0.0), -1e110, 1e110)
    for reference in (quadrature_area_term, quadrature_length):
        with pytest.raises(UnitShapesError):
            reference(arc)


@pytest.mark.parametrize("alpha", [0.0, 1e-300, -1e-300, 1.0])
@pytest.mark.parametrize("x0, x1", [(-1e160, 1e160), (-1e200, 1e200), (1e200, 2e200),
                                    (-2e200, -1e200), (3e200, -1e199), (-1.5, 2.0)])
def test_parabolic_area_term_where_x_squared_overflows(alpha, x0, x1):
    # x0^2 and x1^2 overflow, or x0 x1 cancels them as inf - inf, where the term need not: the
    # straight arc over +-1e160 and the 1e-300 cap over +-1e200 are finite. Held to the exact
    # term in Fractions, or to its infinity where that lies beyond the float range.
    gamma = 0.75
    a, u, v = Fraction(alpha), Fraction(x0), Fraction(x1)
    exact = (v - u) * (a * (u * u + u * v + v * v) / 3 - Fraction(gamma)) / 2
    arc = ParabolicArc((alpha, 0.0, gamma), x0, x1)
    term = arc._local_area_term()
    if abs(exact) > 2**1024:
        assert term == (math.inf if exact > 0 else -math.inf)
    else:
        assert term == pytest.approx(float(exact), rel=1e-15, abs=0.0)
    # The identity frame shifts by nothing, so the placed term is the local one, also where
    # the chord's rise overflows and 0 times it would be NaN.
    assert arc.signed_area_term() == term
    # Shifted up by 5, the term gains -(5/2) (x1 - x0): the unrotated frame's zero entries take
    # no product with an overflowed rise.
    shifted = ParabolicArc((alpha, 0.0, gamma), x0, x1, RigidMotion(0.0, False, (0.0, 5.0)))
    exact -= Fraction(5, 2) * (v - u)
    term = shifted.signed_area_term()
    if abs(exact) > 2**1024:
        assert term == (math.inf if exact > 0 else -math.inf)
    else:
        assert term == pytest.approx(float(exact), rel=1e-15, abs=0.0)


def test_parabolic_arcs_past_the_square_overflow_close_into_measured_shapes():
    # x^2 overflows in both arcs, where their measures do not: a straight arc closed through the
    # origin, and the 1e-300 cap closed by its chord, 1e100 high: its S^2/A is (2e200)^2 /
    # ((4/3) 1e200 1e100) = 3e100, the arc being as long as the chord to 1e-200.
    line = ParabolicArc((0.0, 0.0, 1.0), -1e160, 1e160)
    origin = Point(0.0, 0.0)
    wedge = Shape([line, LineSegment(line.end, origin), LineSegment(origin, line.start)])
    assert wedge.area() == pytest.approx(1e160, rel=1e-15)
    cap = ParabolicArc((1e-300, 0.0, 0.0), -1e200, 1e200)
    result = unitize(Shape([cap, LineSegment(cap.end, cap.start)]))
    assert result.fundamental_measure == pytest.approx(3e100, rel=1e-15)


def test_parabolic_length_is_the_straight_length_as_alpha_vanishes():
    # A graph whose slope changes by 2e-13 over its span: its length is the chord's to rounding,
    # also where the vertex lies 1.4e14 away and u = 2 alpha x + beta cancels.
    for coefficients, x0, x1 in (((0.0, 0.6, -0.3), -1.5, 2.0),
                                 ((1e-13, 0.6, -0.3), -1.5, 2.0),
                                 ((-1e-14, 2.827359203770369, 0.0), 141367960188517.12,
                                  141367960188519.75)):
        alpha, beta, gamma = coefficients
        arc = ParabolicArc(coefficients, x0, x1)
        slope = 2.0 * alpha * 0.5 * (x0 + x1) + beta
        assert arc.length() == pytest.approx(abs(x1 - x0) * math.hypot(1.0, slope), rel=1e-14)
    straight = ParabolicArc((0.0, 0.6, -0.3), -1.5, 2.0)
    assert straight.length() == 3.5 * math.hypot(1.0, 0.6)
    # Zero slope at both ends, the one pair of equal slopes that are not of one sign.
    assert ParabolicArc((0.0, 0.0, 2.0), -1.5, 2.0).length() == 3.5


# --- similarity transforms --------------------------------------------------

# Poses for the arc kinds: any rotation, with and without a mirror, a power-of-two or a
# decimal scale, and a shift of up to 500 sizes, so that two poses shift up to 1e3 sizes.
_scales = st.one_of(st.integers(-40, 40).map(lambda k: 2.0**k),
                    st.floats(-12.0, 12.0).map(lambda e: 10.0**e))
_unit = st.floats(-1.0, 1.0)
_frames = st.builds(lambda angle, reflect, x, y: RigidMotion(angle, reflect, (x, y)),
                    st.floats(-7.0, 7.0), st.booleans(), _unit, _unit)


@st.composite
def _similarities(draw, size: float = 1.0):
    """A pose of a piece of this size; the shift comes before the scale, in the piece's units."""
    shift = (size * draw(st.floats(-500.0, 500.0)), size * draw(st.floats(-500.0, 500.0)))
    motion = RigidMotion(draw(st.floats(-7.0, 7.0)), draw(st.booleans()), shift)
    return Similarity(motion, draw(_scales))


@st.composite
def _pose_pairs(draw):
    first = draw(_similarities())
    return first, draw(_similarities(first.scale))


_unit_arcs = st.one_of(
    st.builds(lambda x, y, r, t, w: CircularArc(Point(x, y), r, t, t + w),
              _unit, _unit, st.floats(0.5, 2.0), st.floats(-4.0, 4.0), st.floats(0.3, 6.0)),
    st.builds(lambda x, y, a, b, rot, t, w: EllipticalArc(Point(x, y), (a, b), rot, t, t + w),
              _unit, _unit, st.floats(0.5, 2.0), st.floats(0.05, 2.0), st.floats(-4.0, 4.0),
              st.floats(-4.0, 4.0), st.floats(0.3, 6.0)),
    st.builds(lambda sign, alpha, beta, gamma, x0, x1, frame:
              ParabolicArc((sign * alpha, beta, gamma), x0, x1, frame),
              st.sampled_from((-1.0, 1.0)), st.floats(0.3, 3.0), _unit, _unit,
              st.floats(-1.5, -0.3), st.floats(0.3, 1.5), _frames),
    st.builds(RationalPoint, st.floats(-3.0, -0.2), st.floats(0.2, 3.0), _frames),
)


def _composed(outer: Similarity, inner: Similarity) -> Similarity:
    """outer o inner as one similarity. The rotations add, or subtract under the inner mirror,
    and the outer shift, taken before the inner scale, joins the rotated inner one."""
    a, b = inner.motion, outer.motion
    angle = a.rotation_angle + (-b.rotation_angle if a.reflect else b.rotation_angle)
    x, y = b.apply_vector(*a.translation)
    shift = (x + b.translation[0] / inner.scale, y + b.translation[1] / inner.scale)
    return Similarity(RigidMotion(angle, a.reflect != b.reflect, shift), inner.scale * outer.scale)


@settings(max_examples=300, deadline=None)
@given(arc=_unit_arcs, poses=_pose_pairs())
def test_posing_twice_is_posing_once_by_the_composition(arc, poses):
    first, second = poses
    twice = arc.transformed(first).transformed(second)
    # A rational arc posed off the unit circle and back is a circular arc: compare the geometry.
    once = arc.transformed(_composed(second, first))
    size = once._size()
    assert twice.start.distance_to(once.start) <= 1e-12 * size
    assert twice.end.distance_to(once.end) <= 1e-12 * size
    assert twice.length() == pytest.approx(once.length(), rel=1e-12, abs=0.0)
    # The area term holds the frame's shift times the chord, so compare on the size of its parts.
    reach = size + math.hypot(*once.frame.translation)
    assert twice.signed_area_term() == pytest.approx(once.signed_area_term(),
                                                     abs=1e-12 * size * reach)


@settings(max_examples=200, deadline=None)
@given(arc=_unit_arcs, pose=_similarities(), bearing=st.floats(0.0, 2.0 * math.pi))
def test_posed_caps_close_round_trip_and_reject_a_gap_of_1e_9_of_their_size(arc, pose, bearing):
    arc = arc.transformed(pose)
    cap = Shape([arc, LineSegment(arc.end, arc.start)])
    restored = shape_from_dict(cap.to_dict())
    assert restored.pieces == cap.pieces
    gap = 1e-9 * arc._size()
    start = Point(arc.start.x + gap * math.cos(bearing), arc.start.y + gap * math.sin(bearing))
    with pytest.raises(DomainError, match="open chain: piece 1 "):
        Shape([arc, LineSegment(arc.end, start)])


def test_identity_similarity_is_pointwise_identity():
    for shape in sample_shapes().values():
        same = shape.transformed(Similarity())
        for p, q in zip(shape.pieces, same.pieces):
            for frac in (0.0, 0.3, 1.0):
                t_p = p.t_start + frac * (p.t_end - p.t_start)
                t_q = q.t_start + frac * (q.t_end - q.t_start)
                assert p.point(t_p).distance_to(q.point(t_q)) <= 1e-12


def test_scaling_circle_by_two():
    doubled = scaled(make_circle(1.0), 2.0)
    assert doubled.area() == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert doubled.pieces[0].radius == pytest.approx(2.0)


def test_scaling_circle_down():
    # One third of a radius-3 circle is the unit circle; areas scale by 1/9.
    big = make_circle(3.0)
    unit = scaled(big, 1.0 / 3.0)
    assert unit.area() == pytest.approx(math.pi, rel=1e-12)
    assert unit.area() / big.area() == pytest.approx(1.0 / 9.0, rel=1e-12)


_shape_keys = sorted(sample_shapes())


@settings(max_examples=60, deadline=None)
@given(
    key=st.sampled_from(_shape_keys),
    lam=st.floats(0.1, 10.0),
    angle=st.floats(0.0, 2.0 * math.pi),
    reflect=st.booleans(),
    tx=st.floats(-10.0, 10.0),
    ty=st.floats(-10.0, 10.0),
)
def test_scaling_laws_under_random_similarity(key, lam, angle, reflect, tx, ty):
    shape = sample_shapes()[key]
    sim = Similarity(RigidMotion(angle, reflect, (tx, ty)), lam)
    image = shape.transformed(sim)
    assert image.area() == pytest.approx(lam * lam * shape.area(), rel=1e-8)
    assert image.semiperimeter() == pytest.approx(lam * shape.semiperimeter(), rel=1e-8)


@settings(max_examples=40, deadline=None)
@given(
    key=st.sampled_from(_shape_keys),
    angle=st.floats(0.0, 2.0 * math.pi),
    reflect=st.booleans(),
    tx=st.floats(-10.0, 10.0),
    ty=st.floats(-10.0, 10.0),
)
def test_rigid_motion_invariance(key, angle, reflect, tx, ty):
    shape = sample_shapes()[key]
    moved = shape.transformed(Similarity(RigidMotion(angle, reflect, (tx, ty))))
    assert moved.area() == pytest.approx(shape.area(), rel=1e-9)
    assert moved.semiperimeter() == pytest.approx(shape.semiperimeter(), rel=1e-9)


def test_reflection_keeps_ccw_orientation():
    mirrored = make_polygon(UNIT_SQUARE).transformed(Similarity(RigidMotion(reflect=True)))
    assert _signed_area(mirrored) == pytest.approx(1.0)


def test_rational_piece_scales_to_circular_arc():
    image = scaled(make_rational_circle(), 2.5)
    assert all(p.kind == "circular_arc" for p in image.pieces)
    assert image.area() == pytest.approx(math.pi * 2.5**2, rel=1e-9)


@pytest.mark.parametrize("scale", [2.0**-30, 0.3, 1.0, 7.1e9])
def test_a_pure_scaling_keeps_every_frame_angle_bit_for_bit(scale):
    # 4.0 lies outside atan2's (-pi, pi], so a frame re-derived from its columns would wrap it.
    frame = RigidMotion(4.0, True, (0.2, -0.4))
    arcs = [CircularArc(Point(0.5, -0.5), 1.25, 4.0, 5.5),
            EllipticalArc(Point(1.0, 2.0), (2.0, 0.75), 4.0, -0.5, 1.8),
            ParabolicArc((-0.8, 0.3, 1.1), -0.6, 1.2, frame)]
    arcs += [RationalPoint(-0.9, 0.8, frame)] if scale == 1.0 else []
    for arc in arcs:
        image = arc.transformed(Similarity(RigidMotion(0.0, False, (3.0, -1.5)), scale))
        assert image.frame.rotation_angle == arc.frame.rotation_angle
        assert image.frame.reflect == arc.frame.reflect
        # A parabola's parameter is its local abscissa, which scales; the others are angles.
        k = scale if arc.kind == "parabolic_arc" else 1.0
        assert (image.t_start, image.t_end) == (k * arc.t_start, k * arc.t_end)


def test_scale_one_rational_frame_is_the_rigid_composition_bit_for_bit():
    rng = random.Random(41)
    for _ in range(200):
        inner = RigidMotion(rng.uniform(-4.0, 4.0), rng.random() < 0.5,
                            (rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)))
        outer = RigidMotion(rng.uniform(-4.0, 4.0), rng.random() < 0.5,
                            (rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)))
        image = RationalPoint(-0.9, 0.8, inner).transformed(Similarity(outer))
        # outer o inner, written out: the columns of the linear part, the inner origin
        # through the rigid motion, then (angle, reflect) read from the columns.
        e1 = outer.apply_vector(*inner.apply_vector(1.0, 0.0))
        e2 = outer.apply_vector(*inner.apply_vector(0.0, 1.0))
        x, y = outer.apply_vector(*inner.translation)
        origin = (x + outer.translation[0], y + outer.translation[1])
        if e1[0] * e2[1] - e1[1] * e2[0] > 0.0:
            expected = RigidMotion(math.atan2(e1[1], e1[0]), False, origin)
        else:
            expected = RigidMotion(math.atan2(-e1[1], e1[0]), True, origin)
        assert image.frame == expected


def _arcs_built_every_way():
    """Circular and elliptical arcs built directly, reversed, and placed with and without a
    mirror at several scales, each with the rotation angle its frame must hold."""
    arcs = [CircularArc(Point(0.5, -0.5), 1.25, 4.0, 5.5),
            CircularArc(Point(-0.0, 3e5), 2e-9, -0.3, 2.0 * math.pi),
            EllipticalArc(Point(1.0, 2.0), (2.0, 0.75), 4.0, -0.5, 1.8),
            EllipticalArc(Point(-7.0, 0.0), (0.3, 1.5), -0.0, 1.0, 1.0 + 4.0 * math.pi)]
    arcs += [arc.reversed_() for arc in arcs]
    frames = [RigidMotion(angle, reflect, (0.2, -0.4)) for angle in (0.0, 1.1, -2.9)
              for reflect in (False, True)]
    arcs += [arc._placed(frame, scale) for arc in arcs for frame in frames for scale in (1.0, 3e-7)]
    return [(arc, 0.0 if arc.kind == "circular_arc" else arc.rotation) for arc in arcs]


def test_an_arc_frame_is_the_checked_rigid_motion_bit_for_bit():
    # Every way of building an arc, placing and reversing it included, gives the frame that
    # RigidMotion's constructor gives for its rotation and center, the -0.0 of a circle's
    # unrotated linear part included.
    bits = lambda values: [float(v).hex() for v in values]
    for arc, angle in _arcs_built_every_way():
        expected = RigidMotion(angle, False, (arc.center.x, arc.center.y))
        frame = arc.frame
        assert (frame.rotation_angle, frame.reflect, frame.translation) == (
            expected.rotation_angle, expected.reflect, expected.translation)
        assert bits([frame.rotation_angle, *frame.translation]) == bits(
            [expected.rotation_angle, *expected.translation])
        assert bits(frame._linear) == bits(expected._linear)
    assert bits(CircularArc(Point(0.0, 0.0), 1.0, 0.0, 1.0).frame._linear) == bits(
        (1.0, -0.0, 0.0, 1.0))


@pytest.mark.parametrize("turns", [0, 1, 2, 3])
def test_whole_turns_are_counted_alike_however_the_arc_is_built(turns):
    # A sweep of k whole turns starting far out, where t_start + 2 pi k rounds, or a part turn.
    t0 = 1e3 + 0.1
    t1 = t0 + (turns * 2.0 * math.pi if turns else 2.5)
    arc = EllipticalArc(Point(1.0, 2.0), (2.0, 0.75), 0.4, t0, t1)
    assert arc._turns == turns
    assert arc.reversed_()._turns == EllipticalArc(arc.center, arc.semi_axes, arc.rotation,
                                                   t1, t0)._turns == turns
    for frame in (RigidMotion(1.1, False, (0.2, -0.4)), RigidMotion(-2.9, True, (5.0, 1.0))):
        placed = arc._placed(frame, 3.0)
        fresh = EllipticalArc(placed.center, placed.semi_axes, placed.rotation, placed.t_start,
                              placed.t_end)
        assert placed._turns == fresh._turns == turns
        assert placed.reversed_()._turns == turns


# --- serialization ----------------------------------------------------------


def test_json_round_trip_all_piece_kinds():
    for name, shape in sample_shapes().items():
        restored = shape_from_json(shape.to_json())
        assert restored.to_dict() == shape.to_dict(), name
        assert restored.area() == pytest.approx(shape.area(), rel=1e-12)
        assert restored.perimeter() == pytest.approx(shape.perimeter(), rel=1e-12)


def test_json_document_layout():
    doc = json.loads(make_circle(2.0, (1.0, -1.0)).to_json())
    assert doc == {
        "pieces": [
            {
                "kind": "circular_arc",
                "center": [1.0, -1.0],
                "radius": 2.0,
                "angle_start": 0.0,
                "angle_end": 2.0 * math.pi,
            }
        ]
    }


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown piece kind"):
        shape_from_dict({"pieces": [{"kind": "nurbs"}]})


def _number_paths(obj, path=()):
    """Paths to every number in a JSON value (booleans excluded)."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _number_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _number_paths(value, path + (i,))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path


def _corrupted_pieces(bad):
    """Each sample piece's JSON with one of its numbers replaced by ``bad``, for every number."""
    for piece in sample_pieces():
        doc = piece.to_dict()
        for path in _number_paths(doc):
            corrupt = json.loads(json.dumps(doc))
            target = corrupt
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = bad
            yield corrupt


def test_non_finite_numbers_rejected_in_every_piece_kind():
    lead = LineSegment(Point(0.0, 0.0), Point(1.0, 0.0)).to_dict()
    checked = 0
    for bad in (math.nan, math.inf, -math.inf):
        for corrupt in _corrupted_pieces(bad):
            with pytest.raises(DomainError, match="piece 1 "):
                shape_from_dict({"pieces": [lead, corrupt]})
            checked += 1
    assert checked >= 3 * 30


def test_nan_literal_in_shape_json_rejected():
    text = '{"pieces": [{"kind": "polyline", "vertices": [[0, 0], [1, 0], [NaN, 1], [0, 0]]}]}'
    with pytest.raises(DomainError, match="piece 0 "):
        shape_from_json(text)
    # The repeated vertex [1, 0] is a zero-length edge, met before the NaN; the NaN is named.
    text = '{"pieces": [{"kind": "polyline", "vertices": [[0, 0], [1, 0], [1, 0], [NaN, 1], [0, 0]]}]}'
    with pytest.raises(DomainError, match="^piece 0 .*: non-finite number in a polyline$"):
        shape_from_json(text)


@pytest.mark.parametrize("bad", ["1", " 1 ", "nan", True, False, None])
def test_non_numbers_rejected_in_every_piece_kind(bad):
    lead = LineSegment(Point(0.0, 0.0), Point(1.0, 0.0)).to_dict()
    checked = 0
    for corrupt in _corrupted_pieces(bad):
        with pytest.raises(DomainError, match="piece 1 .*not a number"):
            shape_from_dict({"pieces": [lead, corrupt]})
        checked += 1
    assert checked >= 30


def test_json_integers_are_numbers():
    text = '{"pieces": [{"kind": "polyline", "vertices": [[0, 0], [2, 0], [2, 1], [0, 1], [0, 0]]}]}'
    shape = shape_from_json(text)
    assert shape.area() == 2.0
    assert all(type(c) is float for v in shape.pieces[0].vertices for c in (v.x, v.y))
    # All ints, or ints beside floats, measure as the float spelling bit for bit, also past
    # 2^53, where an int and its float differ.
    ints = [[0, 0], [0, 3], [2**60 + 1, 7], [5, -2**55 - 1], [4, -1], [0, 0]]
    floats = [[float(x), float(y)] for x, y in ints]
    mixed = [ints[i] if i % 2 else floats[i] for i in range(len(ints))]
    reference = shape_from_json(json.dumps({"pieces": [{"kind": "polyline", "vertices": floats}]}))
    for vertices in (ints, mixed):
        shape = shape_from_json(json.dumps({"pieces": [{"kind": "polyline", "vertices": vertices}]}))
        line = shape.pieces[0]
        assert all(type(c) is float for c in line.xs + line.ys)
        assert (line.xs, line.ys) == (reference.pieces[0].xs, reference.pieces[0].ys)
        assert shape.area().hex() == reference.area().hex()
        assert shape.perimeter().hex() == reference.perimeter().hex()
        assert (unitize(shape).fundamental_measure.hex()
                == unitize(reference).fundamental_measure.hex())


@pytest.mark.parametrize("mirror", [False, True], ids=["as_built", "mirrored"])
@pytest.mark.parametrize("piece", sample_pieces(), ids=lambda p: p.kind)
def test_piece_json_reads_back_the_piece(piece, mirror):
    if mirror:  # at scale 1 each kind stays its kind, and a framed arc's reflect flips
        image = piece.transformed(Similarity(RigidMotion(0.9, True, (-2.0, 0.5))))
        assert "frame" not in piece._fields or image.frame.reflect != piece.frame.reflect
        piece = image
    assert _piece_from_dict(piece.to_dict(), 0) == piece


@pytest.mark.parametrize(
    "piece", [p for p in sample_pieces() if p.kind != "polyline"], ids=lambda p: p.kind)
def test_piece_json_is_its_kind_and_fields(piece):
    # A polyline's JSON is its vertices; every other kind writes its fields under their names.
    assert list(piece.to_dict()) == ["kind", *piece._fields]
    members = [(piece, piece.to_dict())]
    if "frame" in piece._fields:  # the last field; left out, it reads back as the identity
        unframed = type(piece)(*[getattr(piece, name) for name in piece._fields[:-1]])
        doc = unframed.to_dict()
        assert doc.pop("frame") == {"rotation_angle": 0.0, "reflect": False,
                                    "translation": [0.0, 0.0]}
        members += [(unframed, unframed.to_dict()), (unframed, doc)]
    for member, doc in members:
        # Closed by two segments through the chord turned a quarter about the start.
        start, end = member.start, member.end
        apex = Point(start.x - (end.y - start.y), start.y + (end.x - start.x))
        closing = [LineSegment(end, apex), LineSegment(apex, start)]
        restored = shape_from_dict({"pieces": [doc, *(p.to_dict() for p in closing)]})
        assert restored.pieces == Shape([member, *closing]).pieces


@pytest.mark.parametrize(
    "kind, field, bad",
    [
        ("circular_arc", "radius", [1.0]),
        ("circular_arc", "center", 1.0),
        ("elliptical_arc", "semi_axes", 2.0),
        ("parabolic_arc", "coefficients", 1.0),
        ("parabolic_arc", "frame", 5),
        ("rational_point", "frame", []),
        ("line_segment", "start", 1.0),
        ("circular_arc", "center", [1.0]),
        ("elliptical_arc", "semi_axes", [1.0, 2.0, 3.0]),
        ("parabolic_arc", "coefficients", [1.0, 2.0]),
    ],
)
def test_a_field_of_the_wrong_shape_names_the_piece(kind, field, bad):
    piece = next(p for p in sample_pieces() if p.kind == kind).to_dict()
    piece[field] = bad
    words = WRONG_SHAPE_WORDS[field].format(bad=repr(bad))
    with pytest.raises(DomainError, match=f"^{re.escape(f'piece 3 of the shape JSON {words}')}$"):
        _piece_from_dict(piece, 3)


# What the error says of each field above, after the piece: a number, or a list of the wrong
# length, where a list belongs is named with the list's length.
WRONG_SHAPE_WORDS = {
    "radius": "holds a value that is not a number",
    "center": "has center {bad} where a list of 2 numbers belongs",
    "start": "has start {bad} where a list of 2 numbers belongs",
    "semi_axes": "has semi_axes {bad} where a list of 2 numbers belongs",
    "coefficients": "has coefficients {bad} where a list of 3 numbers belongs",
    "frame": "has a frame that is not an object: {bad}",
}


@pytest.mark.parametrize("kind", ["parabolic_arc", "rational_point"])
@pytest.mark.parametrize("reflect", ["false", "true", 0, 1, None, [True]])
def test_frame_reflect_must_be_a_json_boolean(kind, reflect):
    lead = LineSegment(Point(0.0, 0.0), Point(1.0, 0.0)).to_dict()
    piece = next(p for p in sample_pieces() if p.kind == kind).to_dict()
    piece["frame"]["reflect"] = reflect
    with pytest.raises(DomainError, match="piece 1 .*frame.reflect"):
        shape_from_dict({"pieces": [lead, piece]})


# --- cached trigonometry and the one-step similarity map ------------------------------


def _two_step_similarity(sim, p):
    """Motion, then scale, as two Points, with the rotation's cos and sin taken afresh."""
    m = sim.motion
    c, s = math.cos(m.rotation_angle), math.sin(m.rotation_angle)
    x = c * p.x - s * p.y
    y = s * p.x + c * p.y
    if m.reflect:
        y = -y
    q = Point(x + m.translation[0], y + m.translation[1])
    return Point(sim.scale * q.x, sim.scale * q.y)


def test_similarity_apply_matches_two_step_map_exactly():
    rng = random.Random(11)
    for reflect in (False, True):
        for _ in range(1000):
            shift = (rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6))
            motion = RigidMotion(rng.uniform(-10.0, 10.0), reflect, shift)
            sim = Similarity(motion, 10.0 ** rng.uniform(-12.0, 12.0))
            p = Point(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
            got, expected = sim.apply(p), _two_step_similarity(sim, p)
            assert (got.x, got.y) == (expected.x, expected.y)


_coordinate = st.floats(-1e3, 1e3)


@settings(max_examples=300, deadline=None)
@given(
    vertices=st.lists(st.tuples(_coordinate, _coordinate), min_size=2, max_size=12, unique=True),
    angle=st.floats(-10.0, 10.0),
    reflect=st.booleans(),
    shift=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
    exponent=st.floats(-12.0, 12.0),
)
def test_polyline_transformed_is_the_per_point_map_exactly(vertices, angle, reflect, shift, exponent):
    sim = Similarity(RigidMotion(angle, reflect, shift), 10.0**exponent)
    image = [_two_step_similarity(sim, Point(x, y)) for x, y in vertices]
    image = [(p.x, p.y) for p in image]
    line = Polyline(*zip(*vertices))
    if any(a == b for a, b in zip(image, image[1:])):  # a tiny scale rounds vertices together
        with pytest.raises(DomainError, match="zero length"):
            line.transformed(sim)
        return
    moved = line.transformed(sim)
    assert list(zip(moved.xs, moved.ys)) == image


@pytest.mark.parametrize("xs,ys", [((0.0, 1.0, 1.0), (0.0, 0.0)), ((0.0, 1.0), (0.0, 0.0, 1.0))],
                         ids=["more_xs", "more_ys"])
def test_polyline_rejects_coordinate_arrays_of_unequal_length(xs, ys):
    with pytest.raises(DomainError, match=f"got {len(xs)} x and {len(ys)} y"):
        Polyline(xs, ys)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_polyline_rejects_a_non_finite_value_in_either_array(bad):
    # The last two hold a zero-length edge as well, before and after the bad value: the bad
    # value is named.
    for xs, ys in [((0.0, bad, 1.0), (0.0, 0.5, 1.0)), ((0.0, 2.0, 1.0), (0.0, 0.5, bad)),
                   ((0.0, 1.0, 1.0, bad), (0.0, 0.0, 0.0, 1.0)), ((bad, 1.0, 1.0), (0.0, 2.0, 2.0))]:
        with pytest.raises(DomainError, match="^non-finite number in a polyline$"):
            Polyline(xs, ys)
    # The images of finite vertices are checked too.
    with pytest.raises(DomainError, match="non-finite number in a polyline"):
        Polyline((0.0, 1e300), (0.0, 1.0)).transformed(Similarity(scale=1e10))

CACHED_TRIG = {
    "rigid_motion": (
        lambda angle: RigidMotion(angle, True, (1.5, -2.0)),
        "rotation_angle",
        "RigidMotion(rotation_angle=0.7, reflect=True, translation=(1.5, -2.0))",
    ),
    "elliptical_arc": (
        lambda angle: EllipticalArc(Point(1.0, 2.0), (2.0, 0.75), angle, -0.5, 1.8),
        "rotation",
        "EllipticalArc(center=Point(x=1.0, y=2.0), semi_axes=(2.0, 0.75), rotation=0.7,"
        " t_start=-0.5, t_end=1.8)",
    ),
}


@pytest.mark.parametrize("key", sorted(CACHED_TRIG))
def test_cached_trig_leaves_eq_hash_and_repr_to_the_fields(key):
    make, angle_field, expected_repr = CACHED_TRIG[key]
    one, twin = make(0.7), make(0.7)
    assert one == twin
    assert hash(one) == hash(twin) == hash(tuple(getattr(one, name) for name in one._fields))
    assert repr(one) == repr(twin) == expected_repr
    assert angle_field in one._fields
    assert not {"_cos", "_sin"} & set(one._fields)
    assert one != make(0.7000000000000001)


def _with_copies(record):
    """The record, then its copy, deep copy and pickle round trip, each rebuilt by __init__."""
    return [record, copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))]


def test_replace_refreshes_cached_trig():
    # Replacing the angle means building a new record; it and its copies apply the new angle.
    c, s = math.cos(1.9), math.sin(1.9)
    old = RigidMotion(0.7, True, (1.5, -2.0))
    for motion in _with_copies(RigidMotion(1.9, old.reflect, old.translation)):
        assert motion.apply_vector(1.0, 0.0) == (c, -s)
        assert motion.apply_vector(0.0, 1.0) == (-s, -c)

    old_arc = EllipticalArc(Point(1.0, 2.0), (2.0, 0.75), 0.7, -0.5, 1.8)
    x, y = 2.0 * math.cos(0.3), 0.75 * math.sin(0.3)
    vx, vy = -2.0 * math.sin(0.3), 0.75 * math.cos(0.3)
    new_arc = EllipticalArc(old_arc.center, old_arc.semi_axes, 1.9, old_arc.t_start, old_arc.t_end)
    for arc in _with_copies(new_arc):
        assert arc.point(0.3) == Point(1.0 + c * x - s * y, 2.0 + s * x + c * y)
        assert arc.velocity(0.3) == (c * vx - s * vy, s * vx + c * vy)
