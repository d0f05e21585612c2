"""Unit shapes: canonicalize similar plane shapes to area = semiperimeter.

The toolkit represents piecewise-smooth closed curves, rescales any shape to
the unique member of its similarity class whose area equals its semiperimeter,
evaluates closed-form measures for a catalog of families, minimizes those
measures, and numerically verifies the scaling laws, the area-additivity of
Pythagorean rescalings, the isoperimetric inequality and its polygonal and
three-dimensional analogues.
"""

from .catalog import (
    FAMILIES,
    Ellipse,
    FamilyParam,
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
from .optimize import MinimizationResult, minimize_1d, minimize_2d, scan
from .solids import PlatonicSolid, SolidMeasures, measures, unitize_solid
from .unitize import UnitizationResult, tong_inradius, unitize
from .verify import (
    VerificationReport,
    check_blob_pythagoras,
    check_calculus,
    check_conciliation,
    check_idempotence,
    check_isoperimetric,
    check_mgon_bound,
    check_platonic_table,
    check_rational_circle,
    check_scale_equivalence,
    check_unit_floor,
    random_simple_mgon,
    run_suite,
)

__version__ = "0.1.0"
