"""Platonic solids from explicit vertex models; the 3D unit condition V = SA/3.

Volume, surface area and inradius are all computed from the vertex
coordinates, never from closed-form solid formulas, so the golden-ratio
table is a genuine cross-check of the vertex models. The facets come from
enumerating vertex triples: a plane through three vertices that leaves every
vertex on one side holds one facet, and the vertices on it, ordered by angle,
are that facet's polygon. That incidence is found once per kind, on the
canonical model, and reused; each solid's facet normals and measures are
computed from its own scaled vertices.
"""

from __future__ import annotations

import functools
import math
import sys
from itertools import combinations

from .errors import DomainError, require_finite
from .records import Record, setfield

Vec = tuple[float, float, float]

_PHI = (1.0 + math.sqrt(5.0)) / 2.0

# Canonical vertex sets with known edge lengths.
_BASES: dict[str, tuple[list[Vec], float]] = {
    "tetrahedron": (
        [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)],
        2.0 * math.sqrt(2.0),
    ),
    "cube": (
        [(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
        2.0,
    ),
    "octahedron": (
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
        math.sqrt(2.0),
    ),
    "dodecahedron": (
        [(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
        + [
            p
            for a in (-1.0 / _PHI, 1.0 / _PHI)
            for b in (-_PHI, _PHI)
            for p in [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
        ],
        2.0 / _PHI,
    ),
    "icosahedron": (
        [
            p
            for a in (-1.0, 1.0)
            for b in (-_PHI, _PHI)
            for p in [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
        ],
        2.0,
    ),
}

KINDS = tuple(_BASES)


class PlatonicSolid(Record):
    __slots__ = _fields = ("kind", "edge_length")

    def __init__(self, kind: str, edge_length: float = 1.0) -> None:
        if kind not in _BASES:
            raise DomainError(f"unknown solid kind {kind!r}; choose from {KINDS}")
        require_finite("a solid's edge length", edge_length)
        if not edge_length > 0.0:
            raise DomainError(f"edge length must be positive, got {edge_length}")
        setfield(self, "kind", kind)
        setfield(self, "edge_length", edge_length)


class SolidMeasures(Record):
    """Volume, surface area, inradius, and the volume rescaled to unit inradius."""

    __slots__ = _fields = ("volume", "surface_area", "inradius", "fundamental_measure")

    def __init__(self, volume: float, surface_area: float, inradius: float,
                 fundamental_measure: float) -> None:
        setfield(self, "volume", volume)
        setfield(self, "surface_area", surface_area)
        setfield(self, "inradius", inradius)
        setfield(self, "fundamental_measure", fundamental_measure)


# On-plane tolerance, as a fraction of the edge length.
_PLANE_TOL = 1e-9


def _sub(p: Vec, q: Vec) -> Vec:
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2])


def _dot(p: Vec, q: Vec) -> float:
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _cross(p: Vec, q: Vec) -> Vec:
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def _centroid(pts: list[Vec]) -> Vec:
    return tuple(sum(c) / len(pts) for c in zip(*pts))


def vertices(solid: PlatonicSolid) -> list[Vec]:
    base, base_edge = _BASES[solid.kind]
    k = solid.edge_length / base_edge
    return [(x * k, y * k, z * k) for x, y, z in base]


@functools.cache
def _incidence(kind: str) -> tuple[tuple[tuple[int, int, int], bool, tuple[int, ...]], ...]:
    """Each facet of the kind's canonical model: the vertex triple that defines it, whether
    that triple's normal points inward, and the facet's vertex indices in angular order."""
    pts, edge_length = _BASES[kind]
    tol = _PLANE_TOL * edge_length
    covered: set[tuple[int, int, int]] = set()
    found = []
    for tri in combinations(range(len(pts)), 3):
        if tri in covered:
            continue  # a triple of an already found facet spans that facet's plane
        a = pts[tri[0]]
        n = _cross(_sub(pts[tri[1]], a), _sub(pts[tri[2]], a))
        norm = math.hypot(*n)  # no three vertices of a convex solid are collinear
        ux, uy, uz = n[0] / norm, n[1] / norm, n[2] / norm
        offset = ux * a[0] + uy * a[1] + uz * a[2]
        above = below = False
        on = []
        for i, (x, y, z) in enumerate(pts):
            d = ux * x + uy * y + uz * z - offset
            if d > tol:
                above = True
            elif d < -tol:
                below = True
            else:
                on.append(i)
            if above and below:
                break
        else:
            covered.update(combinations(on, 3))
            u = (-ux, -uy, -uz) if above else (ux, uy, uz)
            found.append((tri, above, _angular_order(on, pts, u)))
    return tuple(found)


def _angular_order(on: list[int], pts: list[Vec], u: Vec) -> tuple[int, ...]:
    """Sort indices of coplanar points by angle about their centroid, counter-clockwise about u."""
    g = _centroid([pts[i] for i in on])
    e1 = _sub(pts[on[0]], g)
    e2 = _cross(u, e1)

    def angle(i: int) -> float:
        r = _sub(pts[i], g)
        return math.atan2(_dot(r, e2), _dot(r, e1))

    return tuple(sorted(on, key=angle))


def facets(solid: PlatonicSolid) -> list[tuple[Vec, list[Vec]]]:
    """Each facet as (outward unit normal, its vertices in angular order).

    The incidence is the canonical model's; each normal comes from this solid's own vertices.
    """
    pts = vertices(solid)
    found = []
    for (i, j, k), inward, order in _incidence(solid.kind):
        a = pts[i]
        n = _cross(_sub(pts[j], a), _sub(pts[k], a))
        norm = math.hypot(*n)
        if norm == 0.0:
            raise _out_of_range(solid)
        ux, uy, uz = n[0] / norm, n[1] / norm, n[2] / norm
        u = (-ux, -uy, -uz) if inward else (ux, uy, uz)
        found.append((u, [pts[m] for m in order]))
    return found


def _out_of_range(solid: PlatonicSolid) -> DomainError:
    return DomainError(
        f"edge length {solid.edge_length} puts the {solid.kind}'s volume outside the float range"
    )


def measures(solid: PlatonicSolid) -> SolidMeasures:
    centroid = _centroid(vertices(solid))
    cone_sum = 0.0  # sum of facet area times height: three times the volume
    surface_area = 0.0
    inradius = math.inf
    for u, poly in facets(solid):
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
    if not sys.float_info.min <= volume < math.inf:
        raise _out_of_range(solid)
    return SolidMeasures(volume, surface_area, inradius, volume / inradius**3)


def unitize_solid(solid: PlatonicSolid) -> PlatonicSolid:
    """Rescale so volume equals one-third of surface area (unit insphere)."""
    m = measures(solid)
    factor = m.surface_area / (3.0 * m.volume)
    return PlatonicSolid(solid.kind, solid.edge_length * factor)


# Each unit solid's volume in closed form, as its expression and value, with phi the golden
# ratio 2 cos(pi/5) and xi = 2 sin(pi/5).
UNIT_VOLUMES = {
    "tetrahedron": ("8*sqrt(3)", 8.0 * math.sqrt(3.0)),
    "cube": ("8", 8.0),
    "octahedron": ("4*sqrt(3)", 4.0 * math.sqrt(3.0)),
    "dodecahedron": ("20*xi/phi^3", 20.0 * (2.0 * math.sin(math.pi / 5.0)) / _PHI**3),
    "icosahedron": ("20*sqrt(3)/phi^4", 20.0 * math.sqrt(3.0) / _PHI**4),
}


def solids_table() -> list[dict]:
    """One row per unit solid, in the traditional tetra-to-icosa order."""
    rows = []
    for kind in KINDS:
        unit = unitize_solid(PlatonicSolid(kind))
        m = measures(unit)
        rows.append(
            {
                "solid": kind,
                "fundamental_measure": m.volume,
                "expression": UNIT_VOLUMES[kind][0],
                "surface_area": m.surface_area,
                "inradius": m.inradius,
                "edge_length": unit.edge_length,
            }
        )
    return rows
