"""Piecewise-smooth closed plane curves and their measures.

A Shape is an ordered chain of parametric pieces forming a closed curve,
normalized to counterclockwise orientation at construction. Consecutive pieces join
within ``JOIN_TOL`` times the two pieces' sizes plus 8 ulps of the coordinates there,
so whether a chain closes does not depend on its scale or position.

Each arc is a local curve placed by one frame, a RigidMotion: a radius, semi-axes, a
parabola over an x-range, or a rational t-range. Its image under a similarity composes
the frames and scales the local curve, and its area term is det(frame) times the local
one plus (1/2) T x (p1 - p0), the frame's shift across the chord. Polylines hold absolute
coordinates, and a line segment is the one-edge Polyline.

Area comes from the Green's-theorem line integral (1/2) oint (x dy - y dx); perimeter
from the speed integral. Every piece kind takes both measures in closed form. An
elliptical arc's length is the complete elliptic integral, ``ellipse_half_perimeter`` by
Carlson's R_G, for each whole quarter of its sweep, and the incomplete one for the rest;
both come from Carlson's R_F and R_D, ``carlson_rf_rd``, or flatter than ``FLAT_AXIS_RATIO``
from the segment the arc traces. A parabolic arc's is its span times its mean speed, an
``asinh`` form, ``_mean_hypot``. A trig-free rational arc turns through -2 d on the unit
circle, d = atan t1 - atan t0 = atan2(t1 - t0, 1 + t0 t1), so its length is 2 |d| and its
local area term -d. A length past the float range is inf, and so is an area term, whose
parts, where they overflow with opposite signs, are taken again at coordinates scaled by a
power of two. Adaptive quadrature is one named reference, ``quadrature_length``,
``quadrature_area_term`` and ``quadrature_measures``, which measures any piece or shape as an
independent cross-check of the closed forms, to the one relative tolerance
``quadrature.REL_TOL``; no measure calls it. It takes a rational arc's
wider parts past |t| = 1 through the mirror u = 1/t, so it measures the arc at every finite t.
A Polyline holds coordinate tuples, and ``_edge_terms``, the one loop over its edges, is the
one edge measure: a segment takes its length and area term there.
Edge and piece sums are ``math.fsum``, correctly rounded: they do not depend on the order
of the terms, so a reversed polyline keeps its sums without a second walk, and the digits
are the same on every Python version.

A piece's shape JSON is its kind and its fields, or a polyline's ``vertices``, a list of
[x, y] pairs: ``_json_value`` writes each field and ``_field_from_json`` reads it back. That
layer checks only that numbers are numbers and lists have their lengths, and reads the
vertices in C-level passes; each constructor rejects a NaN, an infinity or an int beyond
the float range by the one rule ``errors.require_finite``, for JSON and every other caller
alike. A Polyline instead scans its coordinates in one C-level pass, and only where its
length is not finite or where it would name a zero-length edge.

All types are immutable values; every operation here is pure.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from itertools import chain

from .errors import DomainError, require_finite
from .quadrature import adaptive_quadrature
from .records import Record, setfield

JOIN_TOL = 1e-12
# Carlson's stop rule for a relative error r = 1e-16: the arguments lie within (3r)^(1/6) of
# R_F's mean and (r/4)^(1/6) of R_D's. Disparate arguments draw together quadratically, then
# fourfold a step, so about 10 to 20 steps suffice.
CARLSON_RF_SHARE = (3.0e-16) ** (1.0 / 6.0)
CARLSON_RD_SHARE = (0.25e-16) ** (1.0 / 6.0)
CARLSON_MAX_STEPS = 64
FLAT_AXIS_RATIO = 1e-100  # a partial arc flatter than this is measured from the segment it traces
TURN = 2.0 * math.pi
QUARTER_TURN = 0.5 * math.pi
# pi/2 as a 33-bit head and its tail (fdlibm's pio2_1, pio2_1t): the head times an integer
# below 2^20 is exact, so a parameter's distance to a quarter end keeps every bit there.
QUARTER_TURN_HEAD = 1.57079632673412561417e+00
QUARTER_TURN_TAIL = 6.07710050650619224932e-11
EIGHTH_TURN = 0.25 * math.pi


class Point(Record):
    __slots__ = _fields = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        require_finite("a point", x, y)
        setfield(self, "x", x)
        setfield(self, "y", y)

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


class RigidMotion(Record):
    """Rotation, optional mirror, then translation: T o S^eps o R.

    The mirror S is fixed as reflection across the x-axis; together with the
    rotation angle this parameterizes every rigid motion of the plane.
    """

    _fields = ("rotation_angle", "reflect", "translation")
    # The linear part sits outside the fields, so ==, hash and repr see only the fields.
    __slots__ = _fields + ("_linear",)

    def __init__(self, rotation_angle: float = 0.0, reflect: bool = False,
                 translation: tuple[float, float] = (0.0, 0.0)) -> None:
        tx, ty = translation
        require_finite("a rigid motion", rotation_angle, tx, ty)
        # The rows of S^eps R: times -1.0 is exact, so a mirrored row negates its sum exactly.
        c, s, mirror = math.cos(rotation_angle), math.sin(rotation_angle), -1.0 if reflect else 1.0
        setfield(self, "rotation_angle", rotation_angle)
        setfield(self, "reflect", reflect)
        setfield(self, "translation", translation)
        setfield(self, "_linear", (c, -s, mirror * s, mirror * c))

    def apply_vector(self, vx: float, vy: float) -> tuple[float, float]:
        """Linear part only (no translation)."""
        xx, xy, yx, yy = self._linear
        return (xx * vx + xy * vy, yx * vx + yy * vy)


class Similarity(Record):
    """A rigid motion followed by a uniform scale lambda > 0."""

    __slots__ = _fields = ("motion", "scale")

    def __init__(self, motion: RigidMotion = RigidMotion(), scale: float = 1.0) -> None:
        require_finite("a similarity scale", scale)
        if not scale > 0.0:
            raise DomainError(f"similarity scale must be positive, got {scale}")
        setfield(self, "motion", motion)
        setfield(self, "scale", scale)

    def apply(self, p: Point) -> Point:
        (x,), (y,) = self.apply_coordinates((p.x,), (p.y,))
        return Point(x, y)

    def apply_coordinates(self, xs: Sequence[float], ys: Sequence[float]) -> tuple[tuple, tuple]:
        """The images' x and y tuples: x' = k ((c x - s y) + tx), y' = k (+-(s x + c y) + ty)."""
        (xx, xy, yx, yy), k, (tx, ty) = self.motion._linear, self.scale, self.motion.translation
        return (tuple([k * ((xx * x + xy * y) + tx) for x, y in zip(xs, ys)]),
                tuple([k * ((yx * x + yy * y) + ty) for x, y in zip(xs, ys)]))


def _frame_image(sim: Similarity, frame: RigidMotion) -> RigidMotion:
    """A placed piece's frame carried by ``sim``: its origin maps to ``sim.apply`` of it, the
    mirror is there when one of the two maps mirrors, and the angle comes from the first
    column of the composed linear part.

    The scale is left to the piece. At scale 1, ``sim.apply`` is the rigid motion's rotation,
    mirror and shift bit for bit: times 1.0 and the -1.0 mirror are exact. A pure scaling and
    shift keeps the frame's angle itself, which atan2 would wrap and may round by an ulp.
    """
    outer = sim.motion
    t = sim.apply(Point(*frame.translation))
    if not (outer.rotation_angle or outer.reflect):
        return RigidMotion(frame.rotation_angle, frame.reflect, (t.x, t.y))
    cos, sin = outer.apply_vector(*frame.apply_vector(1.0, 0.0))
    # One mirror makes the map S_x o R(theta), whose first column is (cos, -sin); two cancel.
    reflect = outer.reflect != frame.reflect
    return RigidMotion(math.atan2(-sin if reflect else sin, cos), reflect, (t.x, t.y))


class CurvePiece(Record, ABC):
    """One smooth run of a shape boundary.

    Pieces are parameterized over (t_start, t_end); the bounds may appear in
    either order, and reversing a piece swaps them (or the vertex list, for
    polylines). Speed never vanishes on the open parameter interval.

    An arc is a local curve placed by one ``frame``, a RigidMotion. Its kind gives the local
    point and velocity (``_local_xy``, ``_local_velocity``), ``_exact_length``,
    ``_local_area_term`` and ``_placed``, the piece of its size times a scale in another
    frame; every kind, Polyline too, gives its length that way. This class gives
    the rest once: the placed point and velocity, the image under a similarity, and the area
    term. Polyline holds absolute coordinates, measured by ``_edge_terms``, the one edge
    measure, and LineSegment is the one-edge Polyline.
    """

    __slots__ = ()

    kind: str
    t_start: float
    t_end: float
    frame: RigidMotion

    # _xy and velocity apply the frame inline, as apply_vector does: the quadrature reference
    # calls them at every node.
    def _xy(self, t: float) -> tuple[float, float]:
        """The point at t as plain floats, which the quadrature reference integrates."""
        x, y = self._local_xy(t)
        (xx, xy, yx, yy), (tx, ty) = self.frame._linear, self.frame.translation
        return (xx * x + xy * y + tx, yx * x + yy * y + ty)

    def point(self, t: float) -> Point:
        return Point(*self._xy(t))

    def velocity(self, t: float) -> tuple[float, float]:
        vx, vy = self._local_velocity(t)
        xx, xy, yx, yy = self.frame._linear
        return (xx * vx + xy * vy, yx * vx + yy * vy)

    def transformed(self, sim: Similarity) -> "CurvePiece":
        """The image under ``sim``: the frames compose, and the local size scales."""
        return self._placed(_frame_image(sim, self.frame), sim.scale)

    @abstractmethod
    def reversed_(self) -> "CurvePiece": ...

    def to_dict(self) -> dict:
        """The piece's shape JSON: its kind, then its fields."""
        return {"kind": self.kind, **{f: _json_value(getattr(self, f)) for f in self._fields}}

    @abstractmethod
    def _size(self) -> float:
        """A length scale the piece already holds, which scales its join tolerance."""

    @property
    def start(self) -> Point:
        return Point(*self._ends()[0])

    @property
    def end(self) -> Point:
        return Point(*self._ends()[1])

    def _ends(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """The start and end coordinates, which Shape joins without building points."""
        return self._xy(self.t_start), self._xy(self._end_parameter())

    def _end_parameter(self) -> float:
        """The parameter the end point is taken at: t_end, or one of the same point."""
        return self.t_end

    def _smooth_spans(self) -> list[tuple["CurvePiece", float, float]]:
        """The quadrature reference's spans: (piece, lo, hi), on which the piece's point and
        velocity are smooth and trace a part of this piece, in its direction."""
        return [(self, self.t_start, self.t_end)]

    def _local_chord(self) -> tuple[float, float]:
        """The local end less the local start."""
        (x0, y0), (x1, y1) = self._local_xy(self.t_start), self._local_xy(self._end_parameter())
        return (x1 - x0, y1 - y0)

    def _exact_area_term(self) -> float:
        # With p = T + R l, (1/2) int p x p' = (1/2) T x (p1 - p0) + det(R) (1/2) int l x l'.
        # p1 - p0 is the local chord through R, not a difference of placed points, which
        # would cancel far from the origin.
        # A zero shift coordinate or linear entry takes no product: 0 times inf would be NaN.
        local = self._local_area_term()
        cx, cy = self._local_chord()
        vx, vy = self.frame.apply_vector(cx, cy)
        if vx != vx or vy != vy:
            xx, xy, yx, yy = self.frame._linear
            vx = (xx * cx if xx else 0.0) + (xy * cy if xy else 0.0)
            vy = (yx * cx if yx else 0.0) + (yy * cy if yy else 0.0)
        tx, ty = self.frame.translation
        shift = (tx * vy if tx else 0.0) - (ty * vx if ty else 0.0)
        local = -local if self.frame.reflect else local
        term = 0.5 * shift + local
        if term != term:  # parts of opposite signs overflowed
            return self._rescaled_area_term(local, vx, vy)
        return term

    def _rescaled_area_term(self, local: float, vx: float, vy: float) -> float:
        """The area term where its parts overflow with opposite signs, from coordinates scaled
        by 2^-k: inf of the term's sign past the float range, else its finite value.

        Where the local term and chord are finite, only the shift's products overflowed: the
        shift scales by the 2^-k that takes it below 1, and the term with it. Else the piece
        scaled by 2^-k about the origin, its shift and size below 1, has the term 4^-k times
        this one. The term stays NaN where that piece cannot be built (a minor axis or a
        parabola's span underflows, or its curvature overflows) or its size is not finite.
        """
        tx, ty = self.frame.translation
        if -math.inf < local + vx + vy < math.inf:
            k = math.frexp(max(abs(tx), abs(ty)))[1]
            s = 2.0**-k
            shift = (tx * s * vy if tx else 0.0) - (ty * s * vx if ty else 0.0)
            return _times_two_to(0.5 * shift + local * s, k)
        k = math.frexp(max(abs(tx), abs(ty), self._size()))[1]  # 0 for an infinite size
        if k <= 0:
            return math.nan
        try:
            scaled = self.transformed(Similarity(scale=2.0**-k))
        except DomainError:
            return math.nan
        return _times_two_to(scaled._exact_area_term(), 2 * k)

    def length(self) -> float:
        """The piece's length, in closed form for every kind; inf past the float range."""
        return self._exact_length()

    def signed_area_term(self) -> float:
        """Contribution of this piece to (1/2) oint (x dy - y dx), closed for every kind."""
        return self._exact_area_term()


def quadrature_length(piece: CurvePiece) -> float:
    """The piece's length by adaptive quadrature of its speed, span by span.

    The reference for every closed form. A length is positive, so no absolute floor is
    needed: the quadrature stops on its relative tolerance at any scale.
    """
    hypot = math.hypot
    total = 0.0
    for part, lo, hi in piece._smooth_spans():
        velocity = part.velocity
        total += abs(adaptive_quadrature(lambda t: hypot(*velocity(t)), lo, hi, abs_tol=0.0))
    return total


def quadrature_area_term(piece: CurvePiece) -> float:
    """The piece's ``signed_area_term`` by adaptive quadrature of (1/2)(x y' - y x').

    The term can be 0 or cancel, so it keeps quadrature's absolute floor of 1e-12, which is
    not scale-free: below unit size the floor, not the relative tolerance, stops it. A
    scale-free floor needs a size for each piece (ROADMAP item 2).
    """
    total = 0.0
    for part, lo, hi in piece._smooth_spans():
        xy, velocity = part._xy, part.velocity

        def integrand(t: float) -> float:
            x, y = xy(t)
            vx, vy = velocity(t)
            return 0.5 * (x * vy - y * vx)

        total += adaptive_quadrature(integrand, lo, hi)
    return total


def quadrature_measures(shape: "Shape") -> tuple[float, float]:
    """The shape's area and semiperimeter from the quadrature reference alone."""
    area = abs(_total([quadrature_area_term(p) for p in shape.pieces]))
    return area, 0.5 * _total([quadrature_length(p) for p in shape.pieces])


def _edge_terms(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """The polyline's length and its Green's-theorem area term (1/2) sum (ax by - bx ay).

    Raises DomainError on a zero-length edge. Both sums are ``_total``'s fsum, correctly
    rounded, so neither depends on the edge order (sum() does, and rounds differently on
    Python 3.12+). Where area terms overflow with opposite signs, or within one term, the sum
    is taken again at the coordinates over the power of two that takes the largest below 1.
    """
    hypot = math.hypot
    edges = []
    area_terms = []
    coordinates = zip(xs, ys)
    ax, ay = next(coordinates)
    for bx, by in coordinates:
        edges.append(hypot(ax - bx, ay - by))
        area_terms.append(ax * by - bx * ay)
        ax, ay = bx, by
    # An edge's length is 0.0 exactly when both coordinate differences are: hypot
    # rounds to at least the larger of them, and a subnormal difference is not 0.0.
    if 0.0 in edges:
        raise DomainError("degenerate polyline edge (zero length)")
    area = _total(area_terms)
    if area != area:
        k = math.frexp(max(map(abs, chain(xs, ys))))[1]
        s = 2.0**-k
        xs, ys = [x * s for x in xs], [y * s for y in ys]
        area = _times_two_to(math.fsum([ax * by - bx * ay for ax, ay, bx, by in
                                        zip(xs, ys, xs[1:], ys[1:])]), 2 * k)
    return _total(edges), 0.5 * area


def _times_two_to(x: float, k: int) -> float:
    """x 2^k, exact, or inf of x's sign past the float range."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.copysign(math.inf, x)


def _total(terms: list[float]) -> float:
    """The correctly rounded sum of the terms, or where fsum raises, sum()'s: inf where finite
    terms overflow and NaN where they hold +inf and -inf, both of which unitize rejects.
    """
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return sum(terms)


def _check_finite(xs: Sequence[float], ys: Sequence[float]) -> None:
    try:
        finite = all(map(math.isfinite, chain(xs, ys)))
    except OverflowError:
        raise DomainError("number beyond the float range in a polyline") from None
    if not finite:
        raise DomainError("non-finite number in a polyline")


class Polyline(CurvePiece):
    _fields = ("xs", "ys")
    # The length and the area term sit outside the fields, so ==, hash and repr see only the fields.
    __slots__ = _fields + ("_length", "_area_term")

    kind = "polyline"
    t_start = 0.0

    def __init__(self, xs: Sequence[float], ys: Sequence[float]) -> None:
        xs, ys = tuple(xs), tuple(ys)
        if len(xs) != len(ys) or len(xs) < 2:
            raise DomainError(f"polyline needs 2+ (x, y) vertices, got {len(xs)} x and {len(ys)} y")
        # A NaN or an infinity makes an edge's hypot NaN or inf, and so the length: the
        # coordinates are scanned only then, or where a zero-length edge would be named first.
        try:
            length, area_term = _edge_terms(xs, ys)
        except DomainError:
            _check_finite(xs, ys)
            raise
        except OverflowError:  # an int beyond the float range, or int terms that sum beyond it
            raise DomainError("number beyond the float range in a polyline or its terms") from None
        if not length < math.inf:
            _check_finite(xs, ys)
        setfield(self, "xs", xs)
        setfield(self, "ys", ys)
        setfield(self, "_length", length)
        setfield(self, "_area_term", area_term)

    @property
    def vertices(self) -> tuple[Point, ...]:
        return tuple(map(Point, self.xs, self.ys))

    def _ends(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return (self.xs[0], self.ys[0]), (self.xs[-1], self.ys[-1])

    @property
    def t_end(self) -> float:  # type: ignore[override]
        return float(len(self.xs) - 1)

    def _edge(self, t: float) -> int:
        last = len(self.xs) - 2
        return last if t >= last else int(t) if t >= 1.0 else 0  # a NaN t takes edge 0

    def _xy(self, t: float) -> tuple[float, float]:
        i = self._edge(t)
        xs, ys, f = self.xs, self.ys, t - i
        return (xs[i] + f * (xs[i + 1] - xs[i]), ys[i] + f * (ys[i + 1] - ys[i]))

    def velocity(self, t: float) -> tuple[float, float]:
        i = self._edge(t)
        return (self.xs[i + 1] - self.xs[i], self.ys[i + 1] - self.ys[i])

    def reversed_(self) -> "Polyline":
        # Each edge keeps its length and negates its area term exactly, and the sums are
        # order-free, so the reversal takes them over. A reversed segment stays a segment.
        line = self.__class__.__new__(self.__class__)
        setfield(line, "xs", self.xs[::-1])
        setfield(line, "ys", self.ys[::-1])
        setfield(line, "_length", self._length)
        setfield(line, "_area_term", -self._area_term)
        return line

    def transformed(self, sim: Similarity) -> "Polyline":
        return Polyline(*sim.apply_coordinates(self.xs, self.ys))

    def _smooth_spans(self) -> list[tuple[CurvePiece, float, float]]:
        return [(self, float(i), float(i + 1)) for i in range(len(self.xs) - 1)]

    def _exact_length(self) -> float:
        return self._length

    _size = _exact_length

    def _exact_area_term(self) -> float:
        return self._area_term

    def to_dict(self) -> dict:
        return {"kind": self.kind, "vertices": [[x, y] for x, y in zip(self.xs, self.ys)]}


class LineSegment(Polyline):
    """The straight piece from ``start`` to ``end``: the one-edge Polyline, which ``_edge_terms``
    measures. Its kind, its fields and JSON and its image under a similarity are a segment's."""

    _fields = ("start", "end")  # CurvePiece's start and end, read from the stored coordinates
    __slots__ = ()

    kind = "line_segment"

    def __init__(self, start: Point, end: Point) -> None:
        # Finite coordinates differ by 0.0, a zero length, exactly when they are equal.
        if start.x == end.x and start.y == end.y:
            raise DomainError("degenerate line segment (zero length)")
        Polyline.__init__(self, (start.x, end.x), (start.y, end.y))

    def transformed(self, sim: Similarity) -> "LineSegment":
        return LineSegment(sim.apply(self.start), sim.apply(self.end))

    to_dict = CurvePiece.to_dict


class CircularArc(CurvePiece):
    """Arc of radius r: the local curve r (cos t, sin t) over the angles, in a frame that
    shifts it to the center."""

    _fields = ("center", "radius", "angle_start", "angle_end")
    # The frame sits outside the fields, so ==, hash and repr see only the fields.
    __slots__ = _fields + ("frame",)

    kind = "circular_arc"

    def __init__(self, center: Point, radius: float, angle_start: float, angle_end: float) -> None:
        require_finite("a circular arc", radius, angle_start, angle_end)
        if not radius > 0.0:
            raise DomainError(f"arc radius must be positive, got {radius}")
        if angle_start == angle_end:
            raise DomainError("degenerate circular arc (zero sweep)")
        setfield(self, "center", center)
        setfield(self, "radius", radius)
        setfield(self, "angle_start", angle_start)
        setfield(self, "angle_end", angle_end)
        setfield(self, "frame", RigidMotion(0.0, False, (center.x, center.y)))

    @property
    def t_start(self) -> float:  # type: ignore[override]
        return self.angle_start

    @property
    def t_end(self) -> float:  # type: ignore[override]
        return self.angle_end

    def _local_xy(self, t: float) -> tuple[float, float]:
        return (self.radius * math.cos(t), self.radius * math.sin(t))

    def _local_velocity(self, t: float) -> tuple[float, float]:
        return (-self.radius * math.sin(t), self.radius * math.cos(t))

    def _local_area_term(self) -> float:
        # 1.0 * takes an int size to the float it spells, so its square overflows to inf as the
        # float's does, not in converting an int product; a float's bits do not move.
        return 0.5 * (1.0 * self.radius * self.radius * (self.angle_end - self.angle_start))

    def _placed(self, frame: RigidMotion, scale: float) -> "CircularArc":
        # The frame's rotation and mirror fold into the angles: S R(rot) takes t to -(t + rot).
        rot = frame.rotation_angle
        a0, a1 = self.angle_start + rot, self.angle_end + rot
        if frame.reflect:
            a0, a1 = -a0, -a1
        return CircularArc(Point(*frame.translation), scale * self.radius, a0, a1)

    def reversed_(self) -> "CircularArc":
        return CircularArc(self.center, self.radius, self.angle_end, self.angle_start)

    def _exact_length(self) -> float:
        return self.radius * abs(self.angle_end - self.angle_start)

    def _size(self) -> float:
        return self.radius


def _mean_hypot(c: float, u0: float, u1: float) -> float:
    """The mean of sqrt(c^2 + u^2) for u from u0 to u1, c > 0, inf past the float range: the
    divided difference of g(u) = (u sqrt(c^2 + u^2) + c^2 asinh(u/c)) / 2. The arguments are
    scaled by the power of two taking the largest into [1, 2): no square or cube overflows."""
    if u0 == u1 == 0.0:  # equal non-zero ends take the first branch below
        return c
    same_sign = u0 > 0.0 < u1 or u0 < 0.0 > u1  # told before an end far below c underflows
    unit = math.ldexp(1.0, math.frexp(max(c, abs(u0), abs(u1)))[1] - 1)
    c, u0, u1 = c / unit, u0 / unit, u1 / unit
    r0, r1, cc = math.hypot(c, u0), math.hypot(c, u1), c * c
    if same_sign:
        # g(u1) - g(u0) would cancel. u1 r1 - u0 r0 and asinh's argument, (u1 r0 - u0 r1) / c^2,
        # are u1 - u0 times ratios of like-signed sums, and u1 - u0 cancels against the divisor.
        ratio = (u0 + u1) / (u1 * r0 + u0 * r1)
        z = (u1 - u0) * ratio
        asinh_over_z = math.asinh(z) / z if z else 1.0
        return 0.5 * ((u0 + u1) * (cc + u0 * u0 + u1 * u1) / (u1 * r1 + u0 * r0)
                      + cc * ratio * asinh_over_z) * unit
    return (u1 * r1 + cc * math.asinh(u1 / c) - u0 * r0 - cc * math.asinh(u0 / c)) / (
        2.0 * (u1 - u0)) * unit  # ends either side of 0: the terms add, like-signed


def ellipse_half_perimeter(a: float, b: float) -> float:
    """Half the perimeter of the ellipse with semi-axes a, b > 0, by Carlson's R_G.

    That is 4 R_G(0, a^2, b^2) (Carlson 1995, arXiv:math/9409227). With z = (minor/major)^2,
    2 R_G(0, 1, z) = z R_F(0, 1, z) + z (1 - z) R_D(0, 1, z) / 3, whose terms are all
    positive, so nothing cancels at any axis ratio. Where z leaves the normal range, R_D's 1/z
    would overflow; the bracket has rounded to 1 since z = 2^-60, so the half perimeter is
    2 major, a segment there and back. A half perimeter beyond the float range is inf.
    """
    major, minor = max(a, b), min(a, b)
    ratio = minor / major
    z = ratio * ratio
    if z < 2.0**-1022:
        return 2.0 * major
    rf, rd = carlson_rf_rd(0.0, 1.0, z)
    return 2.0 * major * (z * rf + z * (1.0 - z) * rd / 3.0)


def carlson_rf_rd(x: float, y: float, z: float) -> tuple[float, float]:
    """Carlson's symmetric integrals R_F(x, y, z) and R_D(x, y, z), for x, y >= 0 not both 0, z > 0.

    Duplication (Carlson 1995, arXiv:math/9409227): each step maps every argument v to
    (v + lam) / 4, with lam = sqrt(x y) + sqrt(x z) + sqrt(y z), which keeps R_F and
    moves R_D by a known term; the two integrals share the sequence. Once the
    arguments lie within the paper's share of their means, a fifth-order series
    about each mean is exact to rounding.
    """
    x0, y0, z0 = x, y, z
    mean_f, mean_d = (x + y + z) / 3.0, (x + y + 3.0 * z) / 5.0
    spread_f = max(abs(mean_f - x), abs(mean_f - y), abs(mean_f - z)) / CARLSON_RF_SHARE
    spread_d = max(abs(mean_d - x), abs(mean_d - y), abs(mean_d - z)) / CARLSON_RD_SHARE
    af, ad = mean_f, mean_d
    shrink = 1.0  # 4^-n after n steps
    tail = 0.0  # R_D's sum of the terms the steps moved it by
    for _ in range(CARLSON_MAX_STEPS):
        if shrink * spread_f < af and shrink * spread_d < ad:
            break
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        tail += shrink / (sz * (z + lam))
        shrink *= 0.25
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        af, ad = 0.25 * (af + lam), 0.25 * (ad + lam)
    else:
        raise ArithmeticError(f"R_F, R_D at ({x0}, {y0}, {z0}) did not converge")
    # The arguments' relative offsets from each mean: (mean_0 - v_0) 4^-n / mean_n.
    dx, dy = (mean_f - x0) * shrink / af, (mean_f - y0) * shrink / af
    dz = -(dx + dy)
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / math.sqrt(af)
    dx, dy = (mean_d - x0) * shrink / ad, (mean_d - y0) * shrink / ad
    dz = -(dx + dy) / 3.0
    xy, zz = dx * dy, dz * dz
    e2, e3, e4, e5 = xy - 6.0 * zz, (3.0 * xy - 8.0 * zz) * dz, 3.0 * (xy - zz) * zz, xy * zz * dz
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
              - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    return rf, shrink * series / (ad * math.sqrt(ad)) + 3.0 * tail


def _eighth_arc(theta0: float, theta1: float, sweep: float, p: float, q: float) -> float:
    """int sqrt(p^2 cos^2 t + q^2 sin^2 t) dt over [theta0, theta1], 0 <= theta0 < theta1 <= pi/4.

    That is p (E(theta1 | m) - E(theta0 | m)) with m = 1 - (q/p)^2. Legendre's addition
    theorem writes the difference as E(sigma) - m sin(theta0) sin(theta1) sin(sigma), with
    F(sigma) = F(theta1) - F(theta0). sin(sigma) is formed from sin(sweep), sweep = theta1 -
    theta0 as the caller has it, and sums of positive terms, so a short sweep keeps its
    relative accuracy, and on [0, pi/4] the last subtraction loses at most a factor 2.
    E(sigma) comes from R_F and R_D.
    """
    r2 = (q / p) ** 2
    m = (1.0 - q / p) * (1.0 + q / p)
    s0, c0, s1, c1 = math.sin(theta0), math.cos(theta0), math.sin(theta1), math.cos(theta1)
    delta0, delta1 = math.sqrt(c0 * c0 + r2 * s0 * s0), math.sqrt(c1 * c1 + r2 * s1 * s1)
    s01 = s0 * s1
    s_sum = math.sin(theta0 + theta1)
    # s1 c0 delta0 - s0 c1 delta1, times its conjugate sum, is sin(sweep) times this numerator.
    numerator = ((c0 + s0 * c1 * s_sum / (c0 + c1)) * (s1 * c0 * c0 + s0 * c1 * c1)
                 + r2 * s01 * s01 * s_sum)
    den = 1.0 - m * s01 * s01
    sin_sigma = math.sin(sweep) * (numerator / (s1 * c0 * delta0 + s0 * c1 * delta1)) / den
    cos_sigma = (c0 * c1 + s01 * delta0 * delta1) / den
    cos2 = cos_sigma * cos_sigma
    rf, rd = carlson_rf_rd(cos2, cos2 + r2 * sin_sigma * sin_sigma, 1.0)
    return p * sin_sigma * (rf - m * (sin_sigma * sin_sigma * rd / 3.0 + s01))


def _past_quarter(t: float, k: int) -> float:
    """t - k pi/2, for a quarter index |k| < 2^40 (|t| up to about 1.7e12).

    k is split into a multiple of 2^20 and a remainder below 2^20, each of which times the
    head is exact. t less the first product is exact too, as both are multiples of 2^-32 and
    the difference is below 2^21, and so is the next difference. Only k times the tail, by at
    most 2^-47, and the last difference round. For |k| < 2^20 the first product is 0.
    """
    rest = math.fmod(k, 2.0**20)
    return ((t - (k - rest) * QUARTER_TURN_HEAD) - rest * QUARTER_TURN_HEAD) - k * QUARTER_TURN_TAIL


def _quarter_offsets(t: float, k: int) -> tuple[float, float]:
    """The distances from k pi/2 up to t and from t up to (k + 1) pi/2.

    pi/2 is taken in two parts, so each distance is exact where it is short: there the
    speed, and so the length, changes fastest against an error in where the quarter ends.
    """
    return _past_quarter(t, k), -_past_quarter(t, k + 1)


def _part_quarter_arc(p: float, q: float, start: tuple[float, float], end: tuple[float, float],
                      sweep: float) -> float:
    """int sqrt(p^2 cos^2 u + q^2 sin^2 u) du from start to end, a part of [0, pi/2] sweep wide.

    The speed is p at u = 0 and q at pi/2, and symmetric about each end, so each half of
    the quarter is measured from its own end by ``_eighth_arc``. Each end comes as its
    ``_quarter_offsets``, both distances, so neither is formed from the other: a short
    distance keeps every bit. A part split at pi/4 passes on widths that add up to sweep.
    """
    (u0, v0), (u1, v1) = start, end
    # An end past the quarter's end by less than an ulp is taken at it; the speed is
    # stationary there. The other end lies at least an ulp further on, inside the quarter.
    u0, v1 = max(u0, 0.0), max(v1, 0.0)
    if min(p, q) < FLAT_AXIS_RATIO:
        # Flat, from the end of small speed: big sqrt(w^2 + ratio^2) to 2^30 ratio, big sin w past.
        big, ratio, w0, w1 = (q, p / q, u0, u1) if p < q else (p, q / p, v1, v0)
        if w1 < 2.0**30 * ratio:
            return big * sweep * _mean_hypot(ratio, w0, w1)
        return 2.0 * big * math.sin(0.5 * sweep) * math.sin(0.5 * (w0 + w1))
    if u1 <= EIGHTH_TURN:
        return _eighth_arc(u0, u1, sweep, p, q)
    if v0 <= EIGHTH_TURN:
        return _eighth_arc(v1, v0, sweep, q, p)
    near = EIGHTH_TURN - u0
    return (_eighth_arc(u0, EIGHTH_TURN, near, p, q)
            + _eighth_arc(v1, EIGHTH_TURN, sweep - near, q, p))


def _from_quarter_end(speeds: list[tuple[float, float]], k: int, t: float) -> float:
    """int of the speed from k pi/2 to t, negative where t lies below k pi/2, for t within a
    quarter of k pi/2. ``speeds[k % 2]`` is (speed at k pi/2, speed at (k + 1) pi/2).

    The speed is stationary at a quarter end: with s_k the speed there and s_o the other
    axis's, s(k pi/2 + w) = s_k (1 + (s_o^2/s_k^2 - 1) w^2/2 + ...). So a part w wide with
    |w| max(s_k, s_o) < 2^-27 s_k is s_k w to within 2^-56 of itself: its width times s_k,
    correct to rounding. The bound scales with the axis ratio, as the w^2 term does. This
    takes the rounding-width parts that a half or quarter sweep leaves at its quarter ends,
    and t = k pi/2 itself. A wider part is measured in the quarter it lies in, which the
    sign of t's two-part offset from k pi/2 tells.
    """
    here, there = speeds[k % 2]
    past = _past_quarter(t, k)
    if abs(past) * max(here, there) < 2.0**-27 * here:
        return here * past
    if past > 0.0:
        end = (past, -_past_quarter(t, k + 1))
        return _part_quarter_arc(here, there, (0.0, QUARTER_TURN), end, past)
    return -_part_quarter_arc(there, here, (_past_quarter(t, k - 1), -past),
                              (QUARTER_TURN, 0.0), -past)


def _whole_turns(t0: float, t1: float) -> int:
    """k when the sweep from t0 to t1 is k >= 1 whole turns, else 0.

    Whole means |t1 - t0| is within a few ulps of |t0| + |t1| of 2 pi k: the rounding of
    writing t0 + 2 pi k as a float. Where those ulps reach a quarter radian the parameter is
    too coarse to tell, and no sweep is whole.
    """
    sweep = abs(t1 - t0)
    turns = round(sweep / TURN)
    slack = 4.0 * math.ulp(abs(t0) + abs(t1))
    return turns if turns and abs(sweep - turns * TURN) <= slack < 0.25 else 0


def elliptic_arc_length(a: float, b: float, t0: float, t1: float) -> float:
    """Length of (a cos t, b sin t) for t from t0 to t1, for semi-axes a, b > 0.

    The sweep is split at multiples of pi/2: each whole quarter is half of
    ``ellipse_half_perimeter(a, b)``, and each part quarter an incomplete elliptic
    integral by ``_part_quarter_arc``. A part between a quarter end k pi/2 and an end of
    the sweep that is w wide, with |w| max(a, b) < 2^-27 times the speed at k pi/2, is
    that speed times w: the speed is stationary there (``_from_quarter_end``). So a half
    or quarter sweep whose ends lie within rounding of quarter ends takes no incomplete integral.
    The semi-axes are first scaled by the power of two that takes the major one into [1, 2),
    and a length past the float range is inf.
    """
    lo, hi = min(t0, t1), max(t0, t1)
    exponent = math.frexp(max(a, b))[1] - 1
    a, b = math.ldexp(a, -exponent), math.ldexp(b, -exponent)
    # The speed at k pi/2 is b for even k and a for odd k.
    speeds = [(b, a), (a, b)]
    # The quotient of an end within rounding of a quarter end can fall on either side of it
    # (11 (pi/2) / (pi/2) is 11 less an ulp). Each end takes a quarter end within 4 ulps of its
    # quotient into the sweep, so the part between them is a stray width on either side, which
    # the signed parts measure as a stationary sliver, not as a quarter less that width.
    q0, q1 = lo / QUARTER_TURN, hi / QUARTER_TURN
    first, last = math.ceil(q0 - 4.0 * math.ulp(q0)), math.floor(q1 + 4.0 * math.ulp(q1))
    if first > last:  # no quarter end inside the sweep
        length = _part_quarter_arc(*speeds[last % 2], _quarter_offsets(lo, last),
                                   _quarter_offsets(hi, last), hi - lo)
        return length * 2.0**exponent
    length = _from_quarter_end(speeds, last, hi) - _from_quarter_end(speeds, first, lo)
    if last > first:
        length += (last - first) * (0.5 * ellipse_half_perimeter(a, b))
    return length * 2.0**exponent


class EllipticalArc(CurvePiece):
    """Arc of an axis pair (a, b) ellipse: the local curve (a cos t, b sin t), in the frame
    that rotates it by ``rotation`` and shifts it to the center.

    A sweep of k whole turns is k closed ellipses: its length is 2k times
    ``ellipse_half_perimeter(a, b)``. Any other sweep's length is ``elliptic_arc_length``:
    whole quarters from that half perimeter, the rest an incomplete elliptic integral, all by
    Carlson's R_F and R_D. The area term is closed for every sweep.
    """

    _fields = ("center", "semi_axes", "rotation", "t_start", "t_end")
    # The whole-turn count and the frame sit outside the fields, so ==, hash and repr see only
    # the fields.
    __slots__ = _fields + ("_turns", "frame")

    kind = "elliptical_arc"

    def __init__(self, center: Point, semi_axes: tuple[float, float], rotation: float,
                 t_start: float, t_end: float) -> None:
        a, b = semi_axes
        require_finite("an elliptical arc", a, b, rotation, t_start, t_end)
        if not (a > 0.0 and b > 0.0):
            raise DomainError(f"ellipse semi-axes must be positive, got {semi_axes}")
        if t_start == t_end:
            raise DomainError("degenerate elliptical arc (zero sweep)")
        setfield(self, "center", center)
        setfield(self, "semi_axes", semi_axes)
        setfield(self, "rotation", rotation)
        setfield(self, "t_start", t_start)
        setfield(self, "t_end", t_end)
        setfield(self, "_turns", _whole_turns(t_start, t_end))
        setfield(self, "frame", RigidMotion(rotation, False, (center.x, center.y)))

    def _local_xy(self, t: float) -> tuple[float, float]:
        a, b = self.semi_axes
        return (a * math.cos(t), b * math.sin(t))

    def _local_velocity(self, t: float) -> tuple[float, float]:
        a, b = self.semi_axes
        return (-a * math.sin(t), b * math.cos(t))

    def _end_parameter(self) -> float:
        # Whole turns end at the start, which t_start + 2 pi k misses by rounding (sin(2 pi) is
        # -2.4e-16). Any other sweep ends where its end less its whole turns does.
        t0, t1 = self.t_start, self.t_end
        return t0 if self._turns else t1 - TURN * int((t1 - t0) / TURN)

    def _exact_length(self) -> float:
        # A closed ellipse's length is the complete elliptic integral, Carlson's R_G; every
        # other sweep adds an incomplete one.
        a, b = self.semi_axes
        if self._turns:
            return 2.0 * self._turns * ellipse_half_perimeter(a, b)
        return elliptic_arc_length(a, b, self.t_start, self.t_end)

    def _local_area_term(self) -> float:
        a, b = self.semi_axes
        return 0.5 * (1.0 * a * b * (self.t_end - self.t_start))  # 1.0 * as in CircularArc's

    def _placed(self, frame: RigidMotion, scale: float) -> "EllipticalArc":
        a, b = self.semi_axes
        rotation, t0, t1 = frame.rotation_angle, self.t_start, self.t_end
        if frame.reflect:
            # S R(rot) = R(-rot) S, and S takes the local point at t to the one at -t.
            rotation, t0, t1 = -rotation, -t0, -t1
        return EllipticalArc(Point(*frame.translation), (scale * a, scale * b), rotation, t0, t1)

    def _size(self) -> float:
        return max(self.semi_axes)

    def reversed_(self) -> "EllipticalArc":
        return EllipticalArc(self.center, self.semi_axes, self.rotation, self.t_end, self.t_start)


class ParabolicArc(CurvePiece):
    """Graph y = alpha x^2 + beta x + gamma in a local frame, placed rigidly.

    Both measures are closed: the length an ``asinh`` form, ``_mean_hypot``, kept accurate as
    alpha (x1 - x0) -> 0, exact for alpha = 0, a straight segment, and inf past the float
    range; and the area term a cubic.
    """

    __slots__ = _fields = ("coefficients", "x_start", "x_end", "frame")

    kind = "parabolic_arc"

    def __init__(self, coefficients: tuple[float, float, float], x_start: float, x_end: float,
                 frame: RigidMotion = RigidMotion()) -> None:
        alpha, beta, gamma = coefficients
        require_finite("a parabolic arc", alpha, beta, gamma, x_start, x_end)
        if x_start == x_end:
            raise DomainError("degenerate parabolic arc (zero span)")
        setfield(self, "coefficients", coefficients)
        setfield(self, "x_start", x_start)
        setfield(self, "x_end", x_end)
        setfield(self, "frame", frame)

    @property
    def t_start(self) -> float:  # type: ignore[override]
        return self.x_start

    @property
    def t_end(self) -> float:  # type: ignore[override]
        return self.x_end

    def _local_xy(self, t: float) -> tuple[float, float]:
        alpha, beta, gamma = self.coefficients
        return (t, (alpha * t + beta) * t + gamma)

    def _local_velocity(self, t: float) -> tuple[float, float]:
        alpha, beta, _ = self.coefficients
        return (1.0, 2.0 * alpha * t + beta)

    def _exact_length(self) -> float:
        # The speed is sqrt(1 + u^2), u = 2 alpha x + beta: the length is |x1 - x0| times its mean.
        alpha, beta, _ = self.coefficients
        x0, x1 = self.x_start, self.x_end
        u0, u1 = 2.0 * alpha * x0 + beta, 2.0 * alpha * x1 + beta
        length = abs(x1 - x0) * _mean_hypot(1.0, u0, u1)
        if not length < math.inf:  # past the float range, unless the slope itself is
            require_finite("the slope 2 alpha x + beta of a parabolic arc", u0, u1)
        return length

    def _local_chord(self) -> tuple[float, float]:
        # The rise as a divided difference, which does not cancel against gamma.
        alpha, beta, _ = self.coefficients
        x0, x1 = self.x_start, self.x_end
        dx = x1 - x0
        return (dx, dx * (alpha * (x0 + x1) + beta))

    def _local_area_term(self) -> float:
        # x y' - y = alpha x^2 - gamma: the term is (alpha (x1^3 - x0^3) / 3 - gamma (x1 - x0)) / 2
        alpha, _, gamma = self.coefficients
        x0, x1 = 1.0 * self.x_start, 1.0 * self.x_end  # as in CircularArc's
        quadratic = alpha * (x0 * x0 + x0 * x1 + x1 * x1)
        if not math.isfinite(quadratic):  # x^2 overflowed, maybe to inf - inf: divide out the
            size = max(abs(x0), abs(x1))  # larger end, and multiply alpha by it first
            u0, u1 = x0 / size, x1 / size
            quadratic = alpha * size * size * (u0 * u0 + u0 * u1 + u1 * u1)
        return 0.5 * ((x1 - x0) * (quadratic / 3.0 - gamma))

    def _placed(self, frame: RigidMotion, scale: float) -> "ParabolicArc":
        # Scaling a graph y = a x^2 + b x + c by lambda keeps it parabolic with
        # coefficients (a/lambda, b, lambda c) in the stretched abscissa.
        alpha, beta, gamma = self.coefficients
        return ParabolicArc((alpha / scale, beta, scale * gamma), scale * self.x_start,
                            scale * self.x_end, frame)

    def _size(self) -> float:
        return math.hypot(*self._local_chord())

    def reversed_(self) -> "ParabolicArc":
        return ParabolicArc(self.coefficients, self.x_end, self.x_start, self.frame)


class RationalPoint(CurvePiece):
    """Unit-circle arc via t -> (2t/(1+t^2), (1-t^2)/(1+t^2)), placed rigidly.

    The parameterization is trig-free: both coordinates and their derivatives
    are rational in t. t in [-1, 1] covers the upper half of the circle.

    Both measures are closed at every finite t, from the one ``_sweep``. The quadrature
    reference measures the arc at every finite t too: its spans, ``_smooth_spans``, take each
    part past |t| = 1 through the mirror u = 1/t, so every span it integrates lies in [-1, 1].
    """

    __slots__ = _fields = ("t_start", "t_end", "frame")

    kind = "rational_point"

    def __init__(self, t_start: float, t_end: float, frame: RigidMotion = RigidMotion()) -> None:
        require_finite("a rational arc", t_start, t_end)
        if t_start == t_end:
            raise DomainError("degenerate rational arc (zero sweep)")
        setfield(self, "t_start", t_start)
        setfield(self, "t_end", t_end)
        setfield(self, "frame", frame)

    def _local_xy(self, t: float) -> tuple[float, float]:
        flip = 1.0
        if t * t == math.inf:  # divided through by t^2, x(t) = x(1/t) and y(t) = -y(1/t)
            t, flip = 1.0 / t, -1.0
        d = 1.0 + t * t
        return (2.0 * t / d, flip * (1.0 - t * t) / d)

    def _local_velocity(self, t: float) -> tuple[float, float]:
        try:
            d = (1.0 + t * t) ** 2
        except OverflowError:  # a finite 1 + t^2 whose square overflows; an infinite one gives inf
            d = math.inf
        if d < math.inf:
            return (2.0 * (1.0 - t * t) / d, -4.0 * t / d)
        # Divided through by t^4, with u = 1/t: (2 u^2 (u^2 - 1), -4 u^3) / (1 + u^2)^2.
        u = 1.0 / t
        d = (1.0 + u * u) ** 2
        return (2.0 * u * u * (u * u - 1.0) / d, -4.0 * u * u * u / d)

    def _sweep(self) -> float:
        """d = atan t1 - atan t0, in (-pi, pi): the point at t sits at polar angle
        pi/2 - 2 atan t, so the arc turns through -2 d.

        (1 + t0 t1, t1 - t0) is (cos d, sin d) sqrt((1 + t0^2)(1 + t1^2)): atan2 takes its
        branch from the signs, and nearly equal ends do not cancel.
        """
        t0, t1 = self.t_start, self.t_end
        big = max(abs(t0), abs(t1))
        if big * big == math.inf:
            # t0 t1 or t1 - t0 could overflow: a power of two scales both arguments exactly.
            s = 2.0 ** -math.frexp(big)[1]
            return math.atan2(t1 * s - t0 * s, s + (t0 * s) * t1)
        return math.atan2(t1 - t0, 1.0 + t0 * t1)

    def _exact_length(self) -> float:
        return 2.0 * abs(self._sweep())

    def _local_area_term(self) -> float:
        # On the unit circle (1/2) int (x y' - y x') is half the polar angle turned, -2 d.
        return -self._sweep()

    def _smooth_spans(self) -> list[tuple[CurvePiece, float, float]]:
        # Far out in t the arc is a sliver that quadrature's panels miss. The point at t is the
        # mirror (y -> -y) of the one at u = 1/t, at speed 2/(1 + u^2) in u, so each part past
        # t = +-1 is measured in u, in the frame composed with S, R(rot) S = S R(-rot), but one
        # narrower than its nearer end, whose width 1/t rounds off, in t while 2/t^2 is normal.
        t0, t1, frame = self.t_start, self.t_end, self.frame
        mirrored = RationalPoint(-1.0, 1.0, RigidMotion(
            -frame.rotation_angle, not frame.reflect, frame.translation))
        cuts = [c for c in (-1.0, 1.0) if min(t0, t1) < c < max(t0, t1)]
        ends = [t0, *(cuts if t0 < t1 else cuts[::-1]), t1]
        return [(self, lo, hi) if abs(hi - lo) < min(abs(lo), abs(hi)) < 2.0**500
                or abs(lo) <= 1.0 >= abs(hi) else (mirrored, 1.0 / lo, 1.0 / hi)
                for lo, hi in zip(ends, ends[1:])]

    def _placed(self, frame: RigidMotion, scale: float) -> CurvePiece:
        if scale == 1.0:
            return RationalPoint(self.t_start, self.t_end, frame)
        # A non-unit scale leaves the unit circle, so the image is the circular arc it is: on the
        # unit circle the parameter t sits at polar angle pi/2 - 2 atan(t).
        a0, a1 = (QUARTER_TURN - 2.0 * math.atan(t) for t in (self.t_start, self.t_end))
        return CircularArc(Point(0.0, 0.0), 1.0, a0, a1)._placed(frame, scale)

    def _size(self) -> float:
        return 1.0  # the unit circle's radius

    def reversed_(self) -> "RationalPoint":
        return RationalPoint(self.t_end, self.t_start, self.frame)


class Shape:
    """A closed counterclockwise chain of curve pieces.

    Consecutive pieces must join, and the chain must return to its starting point,
    within ``JOIN_TOL`` times the two pieces' sizes (a radius, a larger semi-axis, a
    chord or a length) plus 8 ulps of the largest coordinate at the join: a relative
    distance, so a chain closes or not alike at every scale and shift. Orientation is
    normalized at construction: a clockwise chain is reversed so the signed area is positive.
    Simplicity (no self-intersection) is the caller's responsibility; the
    family builders in this package guarantee it by construction.
    """

    __slots__ = ("pieces", "_area", "_perimeter")

    def __init__(self, pieces: Iterable[CurvePiece]):
        pieces = tuple(pieces)
        if not pieces:
            raise DomainError("a shape needs at least one piece")
        joins = [(p._ends(), p._size()) for p in pieces]
        # A non-finite coordinate raises the point's own DomainError, in the order the chain
        # reads them: its start, then each piece's end and the next piece's start.
        ((x0, y0), _), _ = joins[0]
        if (x0 - x0) + (y0 - y0):
            Point(x0, y0)
        last = len(joins) - 1
        for i, ((_, (ex, ey)), size) in enumerate(joins):
            ((sx, sy), _), next_size = joins[i + 1] if i < last else joins[0]
            if (ex - ex) + (ey - ey) + (sx - sx) + (sy - sy):
                for x, y in ((ex, ey), (sx, sy)):
                    Point(x, y)
            gap = math.hypot(ex - sx, ey - sy)
            # Past the pieces' share, the rounding of coordinates far from the origin may remain.
            tol = JOIN_TOL * (size + next_size)
            if gap > tol and gap > tol + 8.0 * math.ulp(max(abs(ex), abs(ey), abs(sx), abs(sy))):
                raise DomainError(
                    f"open chain: piece {i} ends {gap:.3e} away from the next start"
                )
        self._closed(pieces)

    def _closed(self, pieces: tuple[CurvePiece, ...]) -> None:
        """Take a closed chain: its area, and its pieces run counterclockwise."""
        signed_area = _total([p.signed_area_term() for p in pieces])
        self._area = _enclosed_area(signed_area)
        if signed_area < 0.0:  # a clockwise chain
            pieces = tuple(p.reversed_() for p in reversed(pieces))
        self.pieces = pieces
        self._perimeter = None  # summed on the first read

    def area(self) -> float:
        return self._area

    def perimeter(self) -> float:
        if self._perimeter is None:
            self._perimeter = _total([p.length() for p in self.pieces])
        return self._perimeter

    def semiperimeter(self) -> float:
        return 0.5 * self.perimeter()

    def transformed(self, sim: Similarity) -> "Shape":
        """The image under ``sim``: a similarity keeps the chain closed, so its joins are not
        checked again; a mirror reverses the chain, so the orientation rule still applies."""
        image = Shape.__new__(Shape)
        image._closed(tuple(p.transformed(sim) for p in self.pieces))
        return image

    def to_dict(self) -> dict:
        return {"pieces": [p.to_dict() for p in self.pieces]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def __repr__(self) -> str:
        kinds = ", ".join(p.kind for p in self.pieces)
        return f"Shape({kinds})"


def _enclosed_area(signed_area: float) -> float:
    """The orientation rule of every measured chain: its area is |signed area|.

    A chain of negative signed area runs clockwise, and Shape reverses its pieces. A chain
    of zero signed area encloses nothing and is rejected, as is a NaN sum, which only area
    terms that overflow with opposite signs give.
    """
    if signed_area == 0.0:
        raise DomainError("degenerate shape (zero enclosed area)")
    if signed_area != signed_area:
        raise DomainError("the shape's area terms overflow the float range with opposite signs")
    return abs(signed_area)


def scaled(shape: Shape, factor: float) -> Shape:
    """Pure rescaling about the origin."""
    return shape.transformed(Similarity(scale=factor))


def make_circle(radius: float, center: tuple[float, float] = (0.0, 0.0)) -> Shape:
    return Shape([CircularArc(Point(*center), radius, 0.0, 2.0 * math.pi)])


def make_polygon(vertices: Sequence[tuple[float, float]]) -> Shape:
    """Closed polygon from a vertex loop (first vertex not repeated)."""
    xs, ys = [x for x, _ in vertices], [y for _, y in vertices]
    return Shape([Polyline(xs + xs[:1], ys + ys[:1])])


def make_rational_circle() -> Shape:
    """The unit circle built from two trig-free rational arcs.

    The upper half runs t: 1 -> -1; the lower half reuses the same formula
    under an x-axis mirror, so no trigonometric function enters the pieces.
    """
    upper = RationalPoint(1.0, -1.0)
    lower = RationalPoint(-1.0, 1.0, RigidMotion(reflect=True))
    return Shape([upper, lower])


def _json_value(value):
    """A field as shape JSON: a point as [x, y], a tuple as a list, a frame as its fields."""
    if isinstance(value, Point):
        return [value.x, value.y]
    if isinstance(value, RigidMotion):
        return {name: _json_value(getattr(value, name)) for name in value._fields}
    return list(value) if isinstance(value, tuple) else value


class _Malformed(Exception):
    """What is wrong with one piece's JSON; ``_piece_from_dict`` names the piece."""


# What JSON numbers decode to; bool is a subclass of int but not a number here.
_NUMBER_TYPES = frozenset({int, float})
# The fields that shape JSON writes as lists, each with its length, and of those the points.
_POINT_FIELDS = frozenset({"center", "start", "end"})
_LIST_LENGTHS = {**dict.fromkeys(_POINT_FIELDS, 2), "semi_axes": 2, "coefficients": 3,
                 "translation": 2}


def _field_from_json(name: str, value):
    """The field ``name`` read back as ``_json_value`` writes it: a number as a float, a list
    as a tuple of floats (a Point for a center, start or end), a frame as a RigidMotion.

    Only the types and list lengths are checked here; each constructor rejects a NaN or an
    infinity itself.
    """
    if name == "frame":
        if type(value) is not dict:
            raise _Malformed(f"has a frame that is not an object: {value!r}")
        reflect = value.get("reflect", False)
        if type(reflect) is not bool:
            raise _Malformed(f"has a frame.reflect that is not true or false: {reflect!r}")
        angle = _field_from_json("rotation_angle", value.get("rotation_angle", 0.0))
        shift = _field_from_json("translation", value.get("translation", [0, 0]))
        return RigidMotion(angle, reflect, shift)
    length = _LIST_LENGTHS.get(name)
    if length is None:
        if type(value) not in _NUMBER_TYPES:
            raise _Malformed("holds a value that is not a number")
        return float(value)
    if type(value) is not list or len(value) != length:
        raise _Malformed(f"has {name} {value!r} where a list of {length} numbers belongs")
    if not _NUMBER_TYPES.issuperset(map(type, value)):
        raise _Malformed("holds a value that is not a number")
    floats = tuple(map(float, value))
    return Point(*floats) if name in _POINT_FIELDS else floats


# Each kind but the polyline, read as its _fields, its constructor's arguments in order.
_PIECE_KINDS = {cls.kind: cls for cls in (
    LineSegment, CircularArc, EllipticalArc, ParabolicArc, RationalPoint)}


def _parse_piece(d: dict) -> CurvePiece:
    kind = d["kind"]
    if kind == "polyline":
        # C-level passes over the vertices: one for the numbers' types, one for the pairs, and
        # zip for the coordinate tuples, which Polyline keeps. Polyline rejects a NaN or an
        # infinity, and fewer than 2 vertices, itself.
        vertices = d["vertices"]
        # A set of the types, which also tells whether an int is present; _field_from_json
        # keeps its cheaper test for the other kinds' short lists.
        types = set(map(type, chain.from_iterable(vertices)))
        if not types <= _NUMBER_TYPES:
            raise _Malformed("holds a value that is not a number")
        if not {2}.issuperset(map(len, vertices)):
            raise _Malformed("has a vertex that is not a pair of numbers")
        xs, ys = zip(*vertices) if vertices else ((), ())
        if int in types:
            xs, ys = tuple(map(float, xs)), tuple(map(float, ys))
        return Polyline(xs, ys)
    if kind not in _PIECE_KINDS:
        raise ValueError(f"unknown piece kind: {kind!r}")
    cls = _PIECE_KINDS[kind]
    # A frame, always the last argument, may be left out for the constructor's identity.
    return cls(*[_field_from_json(name, d[name]) for name in cls._fields
                 if name in d or name != "frame"])


def _piece_from_dict(d: dict, piece: int) -> CurvePiece:
    """The piece, or a DomainError naming it; errors are caught, so a valid piece pays nothing."""
    try:
        return _parse_piece(d)
    except _Malformed as exc:
        raise DomainError(f"piece {piece} of the shape JSON {exc}") from None
    except KeyError as exc:
        raise DomainError(f"piece {piece} of the shape JSON lacks the field {exc}") from None
    except (LookupError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise DomainError(f"piece {piece} of the shape JSON is invalid: {exc}") from None


def shape_from_dict(d: dict) -> Shape:
    """Shape from its JSON document.

    Rejects NaN and infinities, which ``json`` accepts, and documents of the
    wrong structure, with a DomainError that names the piece.
    """
    pieces = d.get("pieces") if isinstance(d, dict) else None
    if not isinstance(pieces, list):
        raise DomainError('shape JSON must be an object whose "pieces" is a list')
    return Shape([_piece_from_dict(p, i) for i, p in enumerate(pieces)])


def shape_from_json(text: str) -> Shape:
    return shape_from_dict(json.loads(text))
