import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unitshapes.errors import DomainError
from unitshapes.solids import (
    KINDS,
    PlatonicSolid,
    expected_unit_measures,
    facets,
    measures,
    solids_table,
    table_check,
    unitize_solid,
    vertices,
)

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
    expected = expected_unit_measures()
    values = [expected[kind] for kind in KINDS]
    assert values == sorted(values, reverse=True)


def test_table_check_passes():
    report = table_check()
    assert report.passed
    assert report.worst_slack <= 1e-9


def test_solids_table_rows():
    rows = solids_table()
    assert [row["solid"] for row in rows] == list(KINDS)
    expected = expected_unit_measures()
    for row in rows:
        assert row["fundamental_measure"] == pytest.approx(expected[row["solid"]], rel=1e-9)
        assert row["inradius"] == pytest.approx(1.0, rel=1e-9)


def test_invalid_solids_rejected():
    with pytest.raises(DomainError):
        PlatonicSolid("teapot")
    for edge in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            PlatonicSolid("cube", edge)


def test_volume_outside_float_range_rejected():
    for edge in (1e-120, 1e120):
        with pytest.raises(DomainError):
            measures(PlatonicSolid("cube", edge))


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
