"""Reference values computed without unitshapes, and a self-check for them.

Every expected value the benchmark compares against comes from here: closed
forms written from the geometry (Heron, shoelace, AGM, the parabola's
asinh length, edge-based Platonic formulas), never from the package. The
self-check pins each formula against a second, independent computation.
"""

from __future__ import annotations

import math

AGM_MAX_ITER = 64  # the AGM converges quadratically; 64 steps is far beyond need

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)
PHI = (1.0 + SQRT5) / 2.0

# Known minima of the fundamental measure over each family.
MINIMA = {
    "right_triangle": 3.0 + 2.0 * SQRT2,
    "rectangle": 4.0,
    "rhombus": 4.0,
    "triangle": 3.0 * SQRT3,
    "parallelogram": 4.0,
}


def elliptic_e(m: float) -> float:
    """Complete elliptic integral of the second kind E(m), 0 <= m < 1, by the AGM.

    E = K (1 - sum_n 2^(n-1) c_n^2) with K = pi / (2 AGM(1, sqrt(1 - m))).
    The loop stops once c_n is below an ulp-scale share of a_n; a stop on
    c_n == 0 alone can cycle forever with a_n and b_n one ulp apart.
    """
    if not 0.0 <= m < 1.0:
        raise ValueError(f"elliptic parameter must lie in [0, 1), got {m}")
    a, b, c = 1.0, math.sqrt(1.0 - m), math.sqrt(m)
    weight = 0.5
    total = weight * c * c
    for _ in range(AGM_MAX_ITER):
        if c <= 1e-15 * a:
            return math.pi / (2.0 * a) * (1.0 - total)
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        weight *= 2.0
        total += weight * c * c
    raise ArithmeticError(f"AGM for E({m}) did not converge in {AGM_MAX_ITER} steps")


def ellipse_perimeter(a: float, b: float) -> float:
    """Perimeter of the ellipse with semi-axes a, b: 4 max(a,b) E(1 - (min/max)^2)."""
    hi, lo = max(a, b), min(a, b)
    return 4.0 * hi * elliptic_e(1.0 - (lo / hi) ** 2)


def parabola_length(alpha: float, beta: float, x0: float, x1: float) -> float:
    """Arc length of y = alpha x^2 + beta x + gamma between abscissae x0 and x1."""

    def antiderivative(x: float) -> float:
        v = 2.0 * alpha * x + beta
        return (v * math.sqrt(1.0 + v * v) + math.asinh(v)) / (4.0 * alpha)

    return abs(antiderivative(x1) - antiderivative(x0))


def parabola_cap_area(alpha: float, x0: float, x1: float) -> float:
    """Area between a parabola y = alpha x^2 + ... and its chord over [x0, x1]."""
    return abs(alpha) * abs(x1 - x0) ** 3 / 6.0


def polygon_area_perimeter(points: list[tuple[float, float]]) -> tuple[float, float]:
    """Shoelace area and perimeter of a closed vertex loop, on centred coordinates."""
    n = len(points)
    cx = math.fsum(p[0] for p in points) / n
    cy = math.fsum(p[1] for p in points) / n
    xs = [p[0] - cx for p in points]
    ys = [p[1] - cy for p in points]
    twice_area = math.fsum(
        xs[i] * ys[(i + 1) % n] - xs[(i + 1) % n] * ys[i] for i in range(n)
    )
    perimeter = math.fsum(
        math.hypot(xs[(i + 1) % n] - xs[i], ys[(i + 1) % n] - ys[i]) for i in range(n)
    )
    return abs(twice_area) / 2.0, perimeter


def measure(area: float, perimeter: float) -> float:
    """Fundamental measure S^2 / A: area (= semiperimeter) of the unit member."""
    return (0.5 * perimeter) ** 2 / area


# Family measures from side lengths (Heron, base times height), not from the
# package's simplified forms.


def right_triangle_measure(theta: float) -> float:
    legs = math.sin(theta) + math.cos(theta)
    return measure(0.5 * math.sin(theta) * math.cos(theta), 1.0 + legs)


def triangle_measure(r: float, s: float) -> float:
    p = 1.0 + r + s
    heron = 0.25 * math.sqrt(p * (-1.0 + r + s) * (1.0 - r + s) * (1.0 + r - s))
    return measure(heron, p)


def rectangle_measure(r: float) -> float:
    return measure(r, 2.0 * (1.0 + r))


def rhombus_measure(theta: float) -> float:
    return measure(math.sin(theta), 4.0)


def parallelogram_measure(theta: float, r: float) -> float:
    return measure(r * math.sin(theta), 2.0 * (1.0 + r))


def ellipse_measure(r: float) -> float:
    return measure(math.pi * r, ellipse_perimeter(1.0, r))


def regular_polygon_measure(m: int) -> float:
    """Unit circumradius: area (m/2) sin(2 pi/m), perimeter 2 m sin(pi/m)."""
    return measure(0.5 * m * math.sin(2.0 * math.pi / m), 2.0 * m * math.sin(math.pi / m))


def ellipse_unit_semi_minor(r: float) -> float:
    """Semi-minor axis of the unit ellipse with axis ratio r: S / (pi r) * r."""
    area, semi = math.pi * r, 0.5 * ellipse_perimeter(1.0, r)
    return semi / area * r


def rhombus_unit_short_diagonal(theta: float) -> float:
    """Shortest diagonal of the unit rhombus: side 2/sin(theta) from A = S."""
    side = 2.0 / math.sin(theta)
    return 2.0 * side * min(math.sin(theta / 2.0), math.cos(theta / 2.0))


FAMILY_MEASURES = {
    "right_triangle": lambda p: right_triangle_measure(p["theta"]),
    "triangle": lambda p: triangle_measure(p["r"], p["s"]),
    "rectangle": lambda p: rectangle_measure(p["r"]),
    "rhombus": lambda p: rhombus_measure(p["theta"]),
    "parallelogram": lambda p: parallelogram_measure(p["theta"], p["r"]),
    "ellipse": lambda p: ellipse_measure(p["r"]),
    "regular_polygon": lambda p: regular_polygon_measure(p["m"]),
}


def platonic_unit_volumes() -> dict[str, float]:
    """Volume at unit inradius, V(a) / r(a)^3, from the edge-length formulas."""
    forms = {  # (volume at edge 1, inradius at edge 1)
        "tetrahedron": (1.0 / (6.0 * SQRT2), 1.0 / (2.0 * math.sqrt(6.0))),
        "cube": (1.0, 0.5),
        "octahedron": (SQRT2 / 3.0, 1.0 / math.sqrt(6.0)),
        "dodecahedron": (
            (15.0 + 7.0 * SQRT5) / 4.0,
            0.5 * math.sqrt((25.0 + 11.0 * SQRT5) / 10.0),
        ),
        "icosahedron": (5.0 * (3.0 + SQRT5) / 12.0, PHI * PHI / (2.0 * SQRT3)),
    }
    return {kind: v / r**3 for kind, (v, r) in forms.items()}


def golden_platonic_forms() -> dict[str, float]:
    """The table's golden-ratio forms: 8 sqrt3, 8, 4 sqrt3, 20 xi/phi^3, 20 sqrt3/phi^4."""
    xi = 2.0 * math.sin(math.pi / 5.0)
    return {
        "tetrahedron": 8.0 * SQRT3,
        "cube": 8.0,
        "octahedron": 4.0 * SQRT3,
        "dodecahedron": 20.0 * xi / PHI**3,
        "icosahedron": 20.0 * SQRT3 / PHI**4,
    }


def rel_err(got: float, want: float) -> float:
    if not math.isfinite(got):
        return math.inf
    return abs(got - want) / abs(want)


def _simpson(f, a: float, b: float, n: int = 20_000) -> float:
    h = (b - a) / n
    total = f(a) + f(b)
    total += 4.0 * math.fsum(f(a + i * h) for i in range(1, n, 2))
    total += 2.0 * math.fsum(f(a + i * h) for i in range(2, n, 2))
    return total * h / 3.0


def self_check() -> list[str]:
    """Cross-check every reference formula; return a description of each mismatch."""
    problems = []

    def expect(name: str, got: float, want: float, tol: float) -> None:
        err = rel_err(got, want)
        if not err <= tol:
            problems.append(f"{name}: {got!r} vs {want!r} (rel err {err:.2e})")

    for m in (0.0, 0.3, 0.75, 0.99):
        dense = _simpson(lambda t: math.sqrt(1.0 - m * math.sin(t) ** 2), 0.0, math.pi / 2.0)
        expect(f"E({m}) vs Simpson", elliptic_e(m), dense, 1e-11)
    expect("E(0)", elliptic_e(0.0), math.pi / 2.0, 1e-15)
    # A stop on c_n <= 1e-17 never ends for these: a_n and b_n stay one ulp apart.
    for m in (0.004, 0.031, 0.5):
        expect(f"E({m}) terminates", elliptic_e(m), elliptic_e(m), 0.0)

    for alpha, beta, x0, x1 in ((1.0, 0.0, -1.0, 1.0), (-0.3, 0.7, -2.0, 5.0), (4.0, -1.0, 0.1, 0.6)):
        dense = _simpson(lambda x: math.hypot(1.0, 2.0 * alpha * x + beta), x0, x1)
        expect(f"parabola length {alpha, beta}", parabola_length(alpha, beta, x0, x1), dense, 1e-11)
        chord = lambda x: (alpha * x + beta) * x
        line = lambda x: chord(x0) + (chord(x1) - chord(x0)) * (x - x0) / (x1 - x0)
        dense = _simpson(lambda x: abs(line(x) - chord(x)), x0, x1)
        expect(f"parabola cap area {alpha, beta}", parabola_cap_area(alpha, x0, x1), dense, 1e-11)

    square = [(1e6 + 0.0, 1e6 + 0.0), (1e6 + 1.0, 1e6 + 0.0), (1e6 + 1.0, 1e6 + 1.0), (1e6 + 0.0, 1e6 + 1.0)]
    expect("shoelace square area", polygon_area_perimeter(square)[0], 1.0, 1e-15)
    expect("shoelace square perimeter", polygon_area_perimeter(square)[1], 4.0, 1e-15)
    for m in (3, 7, 64):
        ngon = [(math.cos(2 * math.pi * k / m), math.sin(2 * math.pi * k / m)) for k in range(m)]
        expect(f"shoelace {m}-gon", measure(*polygon_area_perimeter(ngon)), m * math.tan(math.pi / m), 1e-13)
        expect(f"regular {m}-gon", regular_polygon_measure(m), m * math.tan(math.pi / m), 1e-13)

    q, h = math.pi / 4.0, 1e-3
    argmins = {  # family: (measure, argmin, admissible neighbours of the argmin)
        "right_triangle": (right_triangle_measure, (q,), [(q - h,), (q + h,)]),
        "rectangle": (rectangle_measure, (1.0,), [(1.0 - h,), (1.0 + h,)]),
        "rhombus": (rhombus_measure, (2 * q,), [(2 * q - h,), (2 * q + h,)]),
        "triangle": (triangle_measure, (1.0, 1.0), [(1.0 - h, 1.0), (1.0, 1.0 - h)]),
        "parallelogram": (
            parallelogram_measure, (2 * q, 1.0), [(2 * q - h, 1.0), (2 * q, 1.0 + h)]
        ),
    }
    for name, (f, x, neighbours) in argmins.items():
        expect(f"minimum of {name}", f(*x), MINIMA[name], 1e-14)
        for y in neighbours:
            if not f(*y) > MINIMA[name]:
                problems.append(f"{name}: value at {y} is not above the minimum")
    expect("ellipse measure at r -> 1", ellipse_measure(1.0 - 1e-9), math.pi, 1e-8)
    expect("unit ellipse semi-minor", ellipse_unit_semi_minor(0.5), 2.0 * elliptic_e(0.75) / math.pi, 1e-15)
    expect("unit rhombus diagonal", rhombus_unit_short_diagonal(math.pi / 2.0), 2.0 * SQRT2, 1e-15)

    golden = golden_platonic_forms()
    for kind, value in platonic_unit_volumes().items():
        expect(f"{kind} unit volume", value, golden[kind], 1e-13)
    return problems
