"""Unit shapes: canonicalize similar plane shapes to area = semiperimeter.

The toolkit represents piecewise-smooth closed curves, rescales any shape to
the unique member of its similarity class whose area equals its semiperimeter,
evaluates closed-form measures for a catalog of families, minimizes those
measures, and numerically verifies the scaling laws, the area-additivity of
Pythagorean rescalings, the isoperimetric inequality and its polygonal and
three-dimensional analogues.

``import unitshapes`` loads only the measuring core: ``errors``, ``records``,
``quadrature``, ``curves`` and ``unitize``. The other layers, ``catalog``,
``optimize``, ``solids`` and ``verify``, load on the first read of one of their
names or of the module itself (PEP 562), which binds all of that module's names
here at once.
"""

from .curves import (
    CircularArc,
    CurvePiece,
    EllipticalArc,
    LineSegment,
    ParabolicArc,
    Point,
    Polyline,
    RationalPoint,
    RigidMotion,
    Shape,
    Similarity,
    make_circle,
    make_polygon,
    make_rational_circle,
    scaled,
    shape_from_dict,
    shape_from_json,
)
from .errors import DomainError, NotConverged, QuadratureFailure, UnitShapesError

# Imported here, not deferred: the submodule ``unitize`` has the function's name, and the
# import system binds a submodule onto its package when it first loads it.
from .unitize import UnitizationResult, tong_inradius, unitize

__version__ = "0.1.0"

# The layers loaded on first read, each with its public names.
_DEFERRED = {
    "catalog": ("FAMILIES", "Ellipse", "FamilyParam", "Parallelogram", "Rectangle",
                "RegularPolygon", "Rhombus", "RightTriangle", "Triangle", "build_unit_shape",
                "ellipse_semi_minor", "family_from_dict", "family_named", "family_to_dict",
                "fundamental_measure", "rhombus_short_diagonal"),
    "optimize": ("MinimizationResult", "minimize_1d", "minimize_2d", "scan"),
    "solids": ("PlatonicSolid", "SolidMeasures", "measures", "unitize_solid"),
    "verify": ("VerificationReport", "check_blob_pythagoras", "check_calculus",
               "check_conciliation", "check_idempotence", "check_isoperimetric",
               "check_mgon_bound", "check_platonic_table", "check_rational_circle",
               "check_scale_equivalence", "check_unit_floor", "random_simple_mgon", "run_suite"),
}
# Each deferred name, the modules' own included, to its module.
_HOME = {name: module for module, names in _DEFERRED.items() for name in (module, *names)}

__all__ = sorted({name for name in globals() if not name.startswith("_")} | _HOME.keys())


def __getattr__(name: str):
    """A deferred name on its first read: its module loads, and all of that module's names
    are bound here at once, so later reads do not come back here."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ is the C import path, which ``-X importtime`` reports, as it does not report
    # importlib.import_module. Loading binds the submodule here.
    __import__(f"{__name__}.{module}")
    loaded = globals()[module]
    globals().update({n: getattr(loaded, n) for n in _DEFERRED[module]})
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
