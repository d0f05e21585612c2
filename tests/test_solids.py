import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unitshapes import solids as solids_module
from unitshapes.errors import DomainError
from unitshapes.solids import (
    KINDS,
    UNIT_VOLUMES,
    PlatonicSolid,
    SolidMeasures,
    facets,
    measures,
    solids_table,
    unitize_solid,
    vertices,
)
from unitshapes.verify import check_platonic_table

PHI = 2.0 * math.cos(math.pi / 5.0)
XI = 2.0 * math.sin(math.pi / 5.0)


def test_cube_edge_two():
    m = measures(PlatonicSolid("cube", 2.0))
    assert m.volume == pytest.approx(8.0, rel=1e-12)
    assert m.surface_area == pytest.approx(24.0, rel=1e-12)
    assert m.inradius == pytest.approx(1.0, rel=1e-12)


def test_tetrahedron_unit_insphere_volume():
    unit = unitize_solid(PlatonicSolid("tetrahedron"))
    assert measures(unit).volume == pytest.approx(8.0 * math.sqrt(3.0), rel=1e-9)


def test_octahedron_unit_insphere_volume():
    unit = unitize_solid(PlatonicSolid("octahedron"))
    assert measures(unit).volume == pytest.approx(4.0 * math.sqrt(3.0), rel=1e-9)


def test_icosahedron_unit_insphere_volume():
    unit = unitize_solid(PlatonicSolid("icosahedron", 3.7))
    assert measures(unit).volume == pytest.approx(20.0 * math.sqrt(3.0) / PHI**4, rel=1e-9)


def test_dodecahedron_unit_insphere_volume():
    unit = unitize_solid(PlatonicSolid("dodecahedron"))
    assert measures(unit).volume == pytest.approx(20.0 * XI / PHI**3, rel=1e-9)


def test_unitize_cube_edge_five():
    # SA/(3V) = 150/375 = 2/5, so edge 5 rescales to edge 2.
    unit = unitize_solid(PlatonicSolid("cube", 5.0))
    assert unit.edge_length == pytest.approx(2.0, rel=1e-12)


def test_unitize_idempotent():
    for kind in KINDS:
        unit = unitize_solid(PlatonicSolid(kind, 3.1))
        again = unitize_solid(unit)
        assert again.edge_length == pytest.approx(unit.edge_length, rel=1e-12)
        m = measures(unit)
        assert m.volume == pytest.approx(m.surface_area / 3.0, rel=1e-9)
        assert m.inradius == pytest.approx(1.0, rel=1e-9)


def test_vertex_counts_and_edge_lengths():
    expected_counts = {
        "tetrahedron": 4,
        "cube": 8,
        "octahedron": 6,
        "dodecahedron": 20,
        "icosahedron": 12,
    }
    for kind, count in expected_counts.items():
        pts = vertices(PlatonicSolid(kind, 1.0))
        assert len(pts) == count
        # The shortest pairwise distance is the edge length.
        shortest = min(
            math.dist(pts[i], pts[j])
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
        )
        assert shortest == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(KINDS), lam=st.floats(-12.0, 12.0).map(lambda e: 10.0**e))
@example(kind="dodecahedron", lam=1e-12)
@example(kind="icosahedron", lam=1e12)
def test_solid_scaling_laws(kind, lam):
    base = measures(PlatonicSolid(kind, 1.3))
    scaled_ = measures(PlatonicSolid(kind, 1.3 * lam))
    assert scaled_.volume == pytest.approx(lam**3 * base.volume, rel=1e-9)
    assert scaled_.surface_area == pytest.approx(lam**2 * base.surface_area, rel=1e-9)
    assert scaled_.fundamental_measure == pytest.approx(base.fundamental_measure, rel=1e-9)


def test_volume_derivative_equals_surface_area():
    # V(lambda) = lambda^3 Pi and SA(lambda) = 3 lambda^2 Pi, so dV/dlambda = SA.
    h = 1e-5
    for kind in KINDS:
        unit = unitize_solid(PlatonicSolid(kind))
        edge = unit.edge_length
        v_plus = measures(PlatonicSolid(kind, edge * (1.0 + h))).volume
        v_minus = measures(PlatonicSolid(kind, edge * (1.0 - h))).volume
        derivative = (v_plus - v_minus) / (2.0 * h)
        assert derivative == pytest.approx(measures(unit).surface_area, rel=1e-5)


def test_table_ordering():
    values = [UNIT_VOLUMES[kind][1] for kind in KINDS]
    assert values == sorted(values, reverse=True)


def test_table_check_passes():
    report = check_platonic_table()
    assert report.passed
    assert report.worst_slack <= 1e-9


def test_table_check_names_a_cube_volume_moved_by_1e_6(monkeypatch):
    expression, value = UNIT_VOLUMES["cube"]
    monkeypatch.setitem(UNIT_VOLUMES, "cube", (expression, value + 1e-6))
    report = check_platonic_table()
    assert not report.passed
    assert [c["solid"] for c in report.counterexamples] == ["cube"]


def test_solids_table_rows():
    rows = solids_table()
    assert [row["solid"] for row in rows] == list(KINDS)
    for row in rows:
        expression, value = UNIT_VOLUMES[row["solid"]]
        assert row["expression"] == expression
        assert row["fundamental_measure"] == pytest.approx(value, rel=1e-9)
        assert row["inradius"] == pytest.approx(1.0, rel=1e-9)


def test_invalid_solids_rejected():
    with pytest.raises(DomainError):
        PlatonicSolid("teapot")
    for edge in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            PlatonicSolid("cube", edge)


def test_volume_outside_float_range_rejected():
    # At 1e-170 every facet normal underflows to zero length; at 1e200 it overflows.
    for kind in KINDS:
        for edge in (1e-120, 1e-160, 1e-170, 1e-300, 1e120, 1e200, 1e300):
            with pytest.raises(DomainError, match="outside the float range"):
                measures(PlatonicSolid(kind, edge))


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2])


def _dot(p, q):
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _cross(p, q):
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def _centroid(pts):
    return tuple(sum(c) / len(pts) for c in zip(*pts))


def _measures_by_enumeration(solid):
    """Volume, surface area and inradius with the facets enumerated afresh for this solid."""
    pts = vertices(solid)
    tol = 1e-9 * solid.edge_length
    covered, found = set(), []
    for tri in itertools.combinations(range(len(pts)), 3):
        if tri in covered:
            continue
        a = pts[tri[0]]
        n = _cross(_sub(pts[tri[1]], a), _sub(pts[tri[2]], a))
        norm = math.hypot(*n)
        if norm <= tol * solid.edge_length:
            continue
        ux, uy, uz = n[0] / norm, n[1] / norm, n[2] / norm
        offset = ux * a[0] + uy * a[1] + uz * a[2]
        sides = [ux * x + uy * y + uz * z - offset for x, y, z in pts]
        above, below = max(sides) > tol, min(sides) < -tol
        if above and below:
            continue
        on = [i for i, d in enumerate(sides) if -tol <= d <= tol]
        covered.update(itertools.combinations(on, 3))
        u = (-ux, -uy, -uz) if above else (ux, uy, uz)
        poly = [pts[i] for i in on]
        g = _centroid(poly)
        e1 = _sub(poly[0], g)
        e2 = _cross(u, e1)
        poly.sort(key=lambda p: math.atan2(_dot(_sub(p, g), e2), _dot(_sub(p, g), e1)))
        found.append((u, poly))
    centroid = _centroid(pts)
    cone_sum = surface_area = 0.0
    inradius = math.inf
    for u, poly in found:
        g = _centroid(poly)
        rim = [_sub(p, g) for p in poly]
        area = 0.0
        for p, q in zip(rim, rim[1:] + rim[:1]):
            area += 0.5 * math.hypot(*_cross(p, q))
        h = _dot(u, _sub(poly[0], centroid))
        surface_area += area
        cone_sum += area * h
        inradius = min(inradius, h)
    volume = cone_sum / 3.0
    return SolidMeasures(volume, surface_area, inradius, volume / inradius**3)


def test_cached_incidence_gives_the_enumerated_measures_exactly():
    # The facet incidence is found once per kind, on the canonical model; the measures
    # of every solid must still equal a fresh enumeration on its own vertices.
    rng = random.Random(3)
    edges = [1e-5, 1.0, 1e90] + [10.0 ** rng.uniform(-5.0, 90.0) for _ in range(40)]
    solids_ = [PlatonicSolid(kind, edge) for kind in KINDS for edge in edges]
    solids_ += [unitize_solid(PlatonicSolid(kind)) for kind in KINDS]
    expected = {solid: _measures_by_enumeration(solid) for solid in solids_}
    for order in (KINDS, KINDS[::-1], KINDS[2:] + KINDS[:2]):
        solids_module._incidence.cache_clear()
        for kind in order:
            for solid in solids_:
                if solid.kind == kind:
                    assert measures(solid) == expected[solid], solid


def _vector_area(poly):
    # Half the norm of sum p_i x p_(i+1): the area of a planar polygon whose
    # vertices are in cyclic order, wherever the origin lies.
    sx = sy = sz = 0.0
    for (ax, ay, az), (bx, by, bz) in zip(poly, poly[1:] + poly[:1]):
        sx += ay * bz - az * by
        sy += az * bx - ax * bz
        sz += ax * by - ay * bx
    return 0.5 * math.sqrt(sx * sx + sy * sy + sz * sz)


def test_facet_enumeration():
    expected = {  # kind: (facets, vertices per facet)
        "tetrahedron": (4, 3),
        "cube": (6, 4),
        "octahedron": (8, 3),
        "dodecahedron": (12, 5),
        "icosahedron": (20, 3),
    }
    for kind, (count, corners) in expected.items():
        solid = PlatonicSolid(kind, 1.7)
        found = facets(solid)
        assert len(found) == count
        assert all(len(poly) == corners for _, poly in found)
        # No vertex set is reported twice.
        assert len({frozenset(poly) for _, poly in found}) == count
        for u, poly in found:
            assert math.hypot(*u) == pytest.approx(1.0, rel=1e-12)
            # Outward: every vertex lies on the inner side of the facet plane.
            offset = sum(a * b for a, b in zip(u, poly[0]))
            assert all(
                sum(a * b for a, b in zip(u, p)) <= offset + 1e-9 for p in vertices(solid)
            )
            # Angular order: consecutive corners are joined by an edge.
            for p, q in zip(poly, poly[1:] + poly[:1]):
                assert math.dist(p, q) == pytest.approx(1.7, rel=1e-12)
        # The vector area is exact only for cyclically ordered polygons.
        total = sum(_vector_area(poly) for _, poly in found)
        assert total == pytest.approx(measures(solid).surface_area, rel=1e-12)
