"""Shape families with closed-form fundamental measures and unit-shape builders.

Each family is one parameter record class, listed once in ``FAMILIES``,
which also carries its rows of the standard ``catalog`` table and its
seeded draw for the verify suites; ``fundamental_measure`` evaluates its
closed form (the ellipse's half perimeter by Carlson's R_G) and
``build_unit_shape`` constructs its concrete unit-scale member so the
curve kernel can cross-check the formulas. Adaptive quadrature of the ellipse's speed
integral is kept only as the reference that the ``conciliation`` suite of
``verify`` holds that half perimeter to.
"""

from __future__ import annotations

import math
import typing

from .curves import EllipticalArc, Point, Shape, ellipse_half_perimeter, make_polygon
from .errors import DomainError
from .quadrature import adaptive_quadrature
from .records import Record, setfield


def _square_over(s: float, d: float) -> float:
    """s^2 / d, or s (s / d) where the square overflows but the quotient may not."""
    try:
        return s**2 / d
    except OverflowError:
        return s * (s / d)


class RightTriangle(Record):
    """Right triangles indexed by an acute angle."""

    __slots__ = _fields = ("theta",)
    name = "right_triangle"
    bracket = (1e-6, math.pi / 2.0 - 1e-6)
    table = ((math.pi / 4.0,),)
    draw = classmethod(lambda cls, rng: cls(rng.uniform(0.15, math.pi / 2.0 - 0.15)))

    def __init__(self, theta: float) -> None:
        if not 0.0 < theta < math.pi / 2.0:
            raise DomainError(f"right-triangle angle must lie in (0, pi/2), got {theta}")
        setfield(self, "theta", theta)

    def _measure(self) -> float:
        return (1.0 + 1.0 / math.cos(self.theta)) * (1.0 + 1.0 / math.sin(self.theta))

    def _unit_shape(self) -> Shape:
        base = 1.0 + 1.0 / math.tan(self.theta) + 1.0 / math.sin(self.theta)
        return make_polygon([(0.0, 0.0), (base, 0.0), (base, base * math.tan(self.theta))])


class Triangle(Record):
    """General triangles indexed by the two shorter-to-longest side ratios.

    The pair must satisfy r <= 1, s <= 1 and r + s > 1 (a triangle with its
    longest side normalized exists exactly then).
    """

    __slots__ = _fields = ("r", "s")
    name = "triangle"
    seeds = ((1.0, 1.0), (0.9, 0.9), (0.75, 0.95), (0.95, 0.75), (0.8, 0.85))
    step = 0.05
    table = ((1.0, 1.0),)

    @classmethod
    def draw(cls, rng):
        while True:
            r, s = rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0)
            if r + s > 1.1:
                return cls(r, s)

    @staticmethod
    def admits(r: float, s: float) -> bool:
        """Whether (r, s) is a triangle-friendly ratio pair; the optimizer's objective asks
        this first, so a probe outside costs no DomainError."""
        return 0.0 < r <= 1.0 and 0.0 < s <= 1.0 and r + s > 1.0

    def __init__(self, r: float, s: float) -> None:
        if not Triangle.admits(r, s):
            raise DomainError(f"({r}, {s}) is not a triangle-friendly ratio pair")
        setfield(self, "r", r)
        setfield(self, "s", s)

    def _heron_product(self) -> float:
        """Heron's factors of 16 area^2 but the perimeter, in Kahan's order for needle-like
        triangles (W. Kahan, "Miscalculating Area and Angles of a Needle-like Triangle", 2014):
        with sides 1 >= b >= c, (1 + (b - c))(c + (1 - b))(c - (1 - b)). b + c > 1 puts b in
        [1/2, 1], so 1 - b is exact and each factor rounds once."""
        b, c = max(self.r, self.s), min(self.r, self.s)
        return (1.0 + (b - c)) * (c + (1.0 - b)) * (c - (1.0 - b))

    def _measure(self) -> float:
        return (self.r + self.s + 1.0) ** 1.5 / math.sqrt(self._heron_product())

    def _unit_shape(self) -> Shape:
        # Longest side c on the x-axis. The apex's height is twice the area over c, and the area
        # is the semiperimeter c (1 + r + s) / 2, so the height is 1 + r + s; its x is
        # c (1 + s^2 - r^2) / 2 with the squares' difference as a product. Neither cancels as
        # the triangle flattens.
        r, s = self.r, self.s
        c = 2.0 * math.sqrt((r + s + 1.0) / self._heron_product())
        x3 = 0.5 * c * (1.0 + (s - r) * (s + r))
        return make_polygon([(0.0, 0.0), (c, 0.0), (x3, r + s + 1.0)])


class Rectangle(Record):
    """Rectangles indexed by the height-to-length ratio."""

    __slots__ = _fields = ("r",)
    name = "rectangle"
    bracket = (0.01, 100.0)
    table = ((1.0,),)
    draw = classmethod(lambda cls, rng: cls(rng.uniform(0.1, 10.0)))

    def __init__(self, r: float) -> None:
        if not 0.0 < r < math.inf:
            raise DomainError(f"rectangle ratio must be positive and finite, got {r}")
        setfield(self, "r", r)

    def _measure(self) -> float:
        return _square_over(1.0 + self.r, self.r)

    def _unit_shape(self) -> Shape:
        length = (1.0 + self.r) / self.r
        height = 1.0 + self.r
        return make_polygon([(0.0, 0.0), (length, 0.0), (length, height), (0.0, height)])


class Rhombus(Record):
    """Rhombi indexed by an interior angle."""

    __slots__ = _fields = ("theta",)
    name = "rhombus"
    bracket = (0.01, math.pi - 0.01)
    table = ((math.pi / 2.0,),)
    draw = classmethod(lambda cls, rng: cls(rng.uniform(0.2, math.pi - 0.2)))
    quantities = {"h": lambda theta: rhombus_short_diagonal(theta)}

    def __init__(self, theta: float) -> None:
        if not 0.0 < theta < math.pi:
            raise DomainError(f"rhombus angle must lie in (0, pi), got {theta}")
        setfield(self, "theta", theta)

    def _measure(self) -> float:
        return 4.0 / math.sin(self.theta)

    def _unit_shape(self) -> Shape:
        return build_unit_shape(Parallelogram(self.theta, 1.0))


class Parallelogram(Record):
    """Parallelograms indexed by an interior angle and a side ratio."""

    __slots__ = _fields = ("theta", "r")
    name = "parallelogram"
    seeds = ((math.pi / 2.0, 1.0), (1.0, 0.5), (2.0, 2.0), (0.6, 1.5), (2.4, 0.8))
    step = 0.1
    table = ((math.pi / 2.0, 1.0),)
    draw = classmethod(
        lambda cls, rng: cls(rng.uniform(0.2, math.pi - 0.2), rng.uniform(0.2, 5.0)))

    def __init__(self, theta: float, r: float) -> None:
        if not 0.0 < theta < math.pi:
            raise DomainError(f"parallelogram angle must lie in (0, pi), got {theta}")
        if not 0.0 < r < math.inf:
            raise DomainError(f"parallelogram ratio must be positive and finite, got {r}")
        setfield(self, "theta", theta)
        setfield(self, "r", r)

    def _measure(self) -> float:
        return _square_over(1.0 + self.r, self.r * math.sin(self.theta))

    def _unit_shape(self) -> Shape:
        # The longer side lies along x, so the far vertices differ from the near ones by the
        # short side, which keeps its bits at any ratio. For r <= 1 the long side is 1 and the
        # float operations are those of sides 1 and r.
        long, short = max(1.0, self.r), min(1.0, self.r)
        unit = (long + short) / (long * short * math.sin(self.theta))
        base = long * unit
        ox = short * unit * math.cos(self.theta)
        oy = short * unit * math.sin(self.theta)
        return make_polygon([(0.0, 0.0), (base, 0.0), (base + ox, oy), (ox, oy)])


class Ellipse(Record):
    """Ellipses indexed by the semi-minor to semi-major axis ratio."""

    __slots__ = _fields = ("r",)
    name = "ellipse"
    bracket = (0.01, 0.99)
    table = ((0.5,),)
    draw = classmethod(lambda cls, rng: cls(rng.uniform(0.05, 0.95)))
    quantities = {"a": lambda r: ellipse_semi_minor(r)}
    boundary_infimum = math.pi  # the circle's measure, which the ellipses fall toward as r -> 1

    def __init__(self, r: float) -> None:
        if not 0.0 < r < 1.0:
            raise DomainError(f"ellipse axis ratio must lie in (0, 1), got {r}")
        setfield(self, "r", r)

    def _measure(self) -> float:
        return ellipse_half_perimeter(1.0, self.r) ** 2 / (math.pi * self.r)

    def _unit_shape(self) -> Shape:
        semi_minor = ellipse_semi_minor(self.r)
        semi_major = semi_minor / self.r
        return Shape(
            [EllipticalArc(Point(0.0, 0.0), (semi_major, semi_minor), 0.0, 0.0, 2.0 * math.pi)]
        )


class RegularPolygon(Record):
    __slots__ = _fields = ("m",)
    name = "regular_polygon"
    table = tuple((m,) for m in range(3, 13))
    draw = classmethod(lambda cls, rng: cls(rng.randrange(3, 13)))

    def __init__(self, m: int) -> None:
        if not (isinstance(m, int) and m >= 3):
            raise DomainError(f"regular polygon needs an integer m >= 3, got {m}")
        setfield(self, "m", m)

    def _measure(self) -> float:
        return self.m * math.tan(math.pi / self.m)

    def _unit_shape(self) -> Shape:
        # Unit apothem: circumradius 1/cos(pi/m), one edge centered below the x-axis.
        m = self.m
        radius = 1.0 / math.cos(math.pi / m)
        offset = -math.pi / 2.0 + math.pi / m
        angles = (offset + 2.0 * math.pi * k / m for k in range(m))
        return make_polygon([(radius * math.cos(a), radius * math.sin(a)) for a in angles])


# The one list of families. Each class carries its ``name``, ``_measure``, ``_unit_shape``, its
# rows of the standard ``catalog`` table as parameter tuples (``table``), ``draw(rng)``, a seeded
# member away from blow-up boundaries for the verify suites, and search data: a one-parameter
# ``bracket``, or two-parameter Nelder-Mead ``seeds`` and ``step``. Some add scan ``quantities``,
# which call this module's function by its name at each call, so a rebinding of it is seen, and
# ``boundary_infimum``, the measure's infimum past the bracket's upper end.
FAMILIES = (RightTriangle, Triangle, Rectangle, Rhombus, Parallelogram, Ellipse, RegularPolygon)
FamilyParam = typing.Union[FAMILIES]  # a parameter record of any one family
FAMILY_BY_NAME = {cls.name: cls for cls in FAMILIES}


def family_key(name: str) -> str:
    """``name`` spelled as a family's ``name``: "-" may stand for "_"."""
    return str(name).replace("-", "_")


def family_named(name: str) -> type[FamilyParam]:
    """The family class called ``name``, where "-" may stand for "_"."""
    key = family_key(name)
    if key not in FAMILY_BY_NAME:
        raise DomainError(f"unknown family: {key!r}")
    return FAMILY_BY_NAME[key]


def family_to_dict(p: FamilyParam) -> dict:
    return {"family": p.name, **{name: getattr(p, name) for name in p._fields}}


def family_from_dict(d: dict) -> FamilyParam:
    cls = family_named(d["family"])
    return cls(**{name: d[name] for name in cls._fields})


def _ellipse_speed_integral_by_quadrature(r: float) -> float:
    """int_0^pi sqrt(1 + (r^2 - 1) cos^2 t) dt, the unit-semi-major speed integral."""
    k = r * r - 1.0
    return adaptive_quadrature(lambda t: math.sqrt(1.0 + k * math.cos(t) ** 2), 0.0, math.pi)


def ellipse_semi_minor(r: float) -> float:
    """Semi-minor axis of the unit ellipse with axis ratio r; lies in (2/pi, 1).

    It is also the ellipse's mean radius: the radius of the circle whose semiperimeter
    matches the ellipse with semi-major axis 1 and semi-minor axis r.
    """
    Ellipse(r)
    return ellipse_half_perimeter(1.0, r) / math.pi


def rhombus_short_diagonal(theta: float) -> float:
    """Shortest diagonal of the unit rhombus with interior angle theta."""
    Rhombus(theta)
    side = 2.0 / math.sin(theta)
    return 2.0 * side * min(math.sin(theta / 2.0), math.cos(theta / 2.0))


def fundamental_measure(p: FamilyParam) -> float:
    """Closed-form area (= semiperimeter) of the family's unit shape.

    Raises DomainError where the measure overflows the float range, as it does
    near the edges of the open domains (a ratio or angle near 0, say).
    """
    if type(p) not in FAMILIES:
        raise DomainError(f"unsupported family parameter: {p!r}")
    try:
        measure = p._measure()
    except (OverflowError, ZeroDivisionError):
        measure = math.inf
    if measure == math.inf:
        raise DomainError(f"the {p.name} measure at {p!r} overflows the float range")
    return measure


def build_unit_shape(p: FamilyParam) -> Shape:
    """Concrete unit-scale member of the family, in a canonical pose.

    Every DomainError it raises names the family and the parameter: ``fundamental_measure``'s
    where the measure overflows (its closed form can overflow in a square first), else the
    perimeter's overflow or the builder's own error.
    """
    if type(p) not in FAMILIES:
        raise DomainError(f"unsupported family parameter: {p!r}")
    try:
        shape = p._unit_shape()
        perimeter = 2.0 * shape.area()  # a unit shape's perimeter is twice its area
    except (DomainError, OverflowError, ZeroDivisionError) as exc:
        fundamental_measure(p)  # raises the measure's overflow error where it overflows too
        raise DomainError(f"the unit {p.name} at {p!r} cannot be built: {exc}") from None
    if perimeter == math.inf:
        fundamental_measure(p)
        raise DomainError(f"the unit {p.name} perimeter at {p!r} overflows the float range")
    return shape
