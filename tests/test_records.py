"""The value-record protocol, over every record class in the package.

Each case builds a record from keyword arguments in field order and pins its
repr, ``Name(field=value, ...)`` with each value's own repr.
"""

import copy
import importlib
import pickle

import pytest

from unitshapes.catalog import (
    Ellipse,
    Parallelogram,
    Rectangle,
    RegularPolygon,
    Rhombus,
    RightTriangle,
    Triangle,
    build_unit_shape,
)
from unitshapes.curves import (
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
)
from unitshapes.optimize import MinimizationResult, ScanResult
from unitshapes.records import Record
from unitshapes.solids import PlatonicSolid, SolidMeasures
from unitshapes.unitize import UnitizationResult
from unitshapes.verify import VerificationReport

UNIT_SQUARE = build_unit_shape(Rectangle(1.0))
MOTION = RigidMotion(0.7, True, (1.5, -2.0))

# class -> (field values by name, one field changed, defaults of the omitted fields, repr)
CASES = {
    Point: (dict(x=1.0, y=2.0), ("y", 2.5), {}, "Point(x=1.0, y=2.0)"),
    RigidMotion: (
        dict(rotation_angle=0.7, reflect=True, translation=(1.5, -2.0)),
        ("reflect", False),
        dict(rotation_angle=0.0, reflect=False, translation=(0.0, 0.0)),
        "RigidMotion(rotation_angle=0.7, reflect=True, translation=(1.5, -2.0))",
    ),
    Similarity: (
        dict(motion=MOTION, scale=2.5),
        ("scale", 3.0),
        dict(motion=RigidMotion(), scale=1.0),
        "Similarity(motion=RigidMotion(rotation_angle=0.7, reflect=True, translation=(1.5, -2.0)),"
        " scale=2.5)",
    ),
    LineSegment: (
        dict(start=Point(0.5, -1.0), end=Point(2.0, 3.0)),
        ("end", Point(2.0, 3.5)),
        {},
        "LineSegment(start=Point(x=0.5, y=-1.0), end=Point(x=2.0, y=3.0))",
    ),
    Polyline: (
        dict(xs=(0.0, 1.0, 2.0), ys=(0.0, 0.5, -0.25)),
        ("ys", (0.0, 0.5, -0.5)),
        {},
        "Polyline(xs=(0.0, 1.0, 2.0), ys=(0.0, 0.5, -0.25))",
    ),
    CircularArc: (
        dict(center=Point(0.5, -0.5), radius=1.25, angle_start=0.3, angle_end=2.4),
        ("radius", 1.5),
        {},
        "CircularArc(center=Point(x=0.5, y=-0.5), radius=1.25, angle_start=0.3, angle_end=2.4)",
    ),
    EllipticalArc: (
        dict(center=Point(1.0, 2.0), semi_axes=(2.0, 0.75), rotation=0.4, t_start=-0.5, t_end=1.8),
        ("rotation", 0.5),
        {},
        "EllipticalArc(center=Point(x=1.0, y=2.0), semi_axes=(2.0, 0.75), rotation=0.4,"
        " t_start=-0.5, t_end=1.8)",
    ),
    ParabolicArc: (
        dict(coefficients=(-0.8, 0.3, 1.1), x_start=-0.6, x_end=1.2, frame=MOTION),
        ("x_end", 1.3),
        dict(frame=RigidMotion()),
        "ParabolicArc(coefficients=(-0.8, 0.3, 1.1), x_start=-0.6, x_end=1.2,"
        " frame=RigidMotion(rotation_angle=0.7, reflect=True, translation=(1.5, -2.0)))",
    ),
    RationalPoint: (
        dict(t_start=-0.9, t_end=0.8, frame=MOTION),
        ("t_end", 0.9),
        dict(frame=RigidMotion()),
        "RationalPoint(t_start=-0.9, t_end=0.8,"
        " frame=RigidMotion(rotation_angle=0.7, reflect=True, translation=(1.5, -2.0)))",
    ),
    RightTriangle: (dict(theta=0.5), ("theta", 0.6), {}, "RightTriangle(theta=0.5)"),
    Triangle: (dict(r=0.8, s=0.7), ("s", 0.75), {}, "Triangle(r=0.8, s=0.7)"),
    Rectangle: (dict(r=0.5), ("r", 2.0), {}, "Rectangle(r=0.5)"),
    Rhombus: (dict(theta=0.5), ("theta", 1.0), {}, "Rhombus(theta=0.5)"),
    Parallelogram: (dict(theta=1.0, r=0.5), ("r", 0.25), {}, "Parallelogram(theta=1.0, r=0.5)"),
    Ellipse: (dict(r=0.5), ("r", 0.25), {}, "Ellipse(r=0.5)"),
    RegularPolygon: (dict(m=7), ("m", 8), {}, "RegularPolygon(m=7)"),
    MinimizationResult: (
        dict(argmin=(0.5,), min_value=4.0, iterations=12, converged=False, boundary_infimum=3.5),
        ("iterations", 13),
        dict(boundary_infimum=None),
        "MinimizationResult(argmin=(0.5,), min_value=4.0, iterations=12, converged=False,"
        " boundary_infimum=3.5)",
    ),
    ScanResult: (
        dict(family="ellipse", quantity="Pi", params=[0.1, 0.2], values=[1.0, 2.0],
             monotone_runs=[(0.1, 0.2, "increasing")], minimum=(0.1, 1.0), maximum=(0.2, 2.0)),
        ("quantity", "a"),
        {},
        "ScanResult(family='ellipse', quantity='Pi', params=[0.1, 0.2], values=[1.0, 2.0],"
        " monotone_runs=[(0.1, 0.2, 'increasing')], minimum=(0.1, 1.0), maximum=(0.2, 2.0))",
    ),
    PlatonicSolid: (
        dict(kind="cube", edge_length=2.0),
        ("kind", "tetrahedron"),
        dict(edge_length=1.0),
        "PlatonicSolid(kind='cube', edge_length=2.0)",
    ),
    SolidMeasures: (
        dict(volume=8.0, surface_area=24.0, inradius=1.0, fundamental_measure=8.0),
        ("inradius", 2.0),
        {},
        "SolidMeasures(volume=8.0, surface_area=24.0, inradius=1.0, fundamental_measure=8.0)",
    ),
    UnitizationResult: (
        dict(tong_inradius_reciprocal=1.5, unit_shape=UNIT_SQUARE, fundamental_measure=4.0),
        ("fundamental_measure", 5.0),
        {},
        "UnitizationResult(tong_inradius_reciprocal=1.5, unit_shape=Shape(polyline),"
        " fundamental_measure=4.0)",
    ),
    VerificationReport: (
        dict(claim="c", instances_tested=2, worst_slack=0.5, counterexamples=[{"a": 1}],
             details={"k": 1}),
        ("claim", "d"),
        {},
        "VerificationReport(claim='c', instances_tested=2, worst_slack=0.5,"
        " counterexamples=[{'a': 1}], details={'k': 1})",
    ),
}
# The records whose fields hold lists or dicts, and so are unhashable, as a tuple holding one is.
UNHASHABLE = {ScanResult, VerificationReport}
# Record classes that subclass another record class, each with its base's arguments for the
# same value: a segment is the one-edge polyline through its two ends.
SUBCLASSES = {LineSegment: (Polyline, dict(xs=(0.5, 2.0), ys=(-1.0, 3.0)))}


def _comparable(record):
    """The field values, with each Shape (equal only to itself) as its JSON document."""
    values = (getattr(record, name) for name in record._fields)
    return [v.to_dict() if isinstance(v, Shape) else v for v in values]


def test_the_table_covers_every_record_class():
    found = set()
    for name in ("catalog", "curves", "optimize", "solids", "unitize", "verify"):
        module = importlib.import_module(f"unitshapes.{name}")
        found |= {
            value for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, Record)
            and value not in (Record, CurvePiece)
        }
    assert found == set(CASES)
    assert len(found) == 22


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_record_protocol(cls):
    kwargs, (changed, other_value), defaults, expected_repr = CASES[cls]
    record = cls(**kwargs)
    assert cls._fields == tuple(kwargs)
    assert repr(record) == repr(cls(*kwargs.values())) == expected_repr

    # == and != over the field values, never across classes: the table holds records of
    # different classes with equal values, e.g. Rectangle(r=0.5) and Ellipse(r=0.5).
    twin, other = cls(**kwargs), cls(**{**kwargs, changed: other_value})
    assert record == twin and not record != twin
    assert record != other and not record == other
    for other_cls, (other_kwargs, *_) in CASES.items():
        if other_cls is not cls:
            foreign = other_cls(**other_kwargs)
            assert record.__eq__(foreign) is NotImplemented
            assert record != foreign

    first = cls._fields[0]
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == hash(tuple(kwargs.values()))
    with pytest.raises(AttributeError, match=f"cannot assign to field '{first}'"):
        setattr(record, first, kwargs[first])
    with pytest.raises(AttributeError, match=f"cannot delete field '{first}'"):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert record == twin

    # Defaults, with a fresh container for each instance.
    given = {k: v for k, v in kwargs.items() if k not in defaults}
    bare, bare_twin = cls(**given), cls(**given)
    for name, default in defaults.items():
        assert getattr(bare, name) == default
        if isinstance(default, (list, dict)):
            assert getattr(bare, name) is not getattr(bare_twin, name)

    # Round trips rebuild through __init__; a Shape is equal only to itself, so a record
    # holding one is compared by the shape's document after a deep round trip.
    assert copy.copy(record) == record
    holds_shape = any(isinstance(v, Shape) for v in kwargs.values())
    for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone is not record
        assert repr(clone) == expected_repr
        assert _comparable(clone) == _comparable(record)
        assert (clone == record) is not holds_shape


@pytest.mark.parametrize("cls", list(SUBCLASSES), ids=lambda cls: cls.__name__)
def test_a_subclass_record_is_its_base_but_never_equal_to_it(cls):
    base, base_kwargs = SUBCLASSES[cls]
    kwargs, *_ = CASES[cls]
    record, twin = cls(**kwargs), base(**base_kwargs)
    assert isinstance(record, base) and not isinstance(twin, cls)
    assert (record.length(), record.signed_area_term()) == (twin.length(), twin.signed_area_term())
    # == never crosses classes, a subclass included, so the two are unequal either way round.
    assert record.__eq__(twin) is NotImplemented and twin.__eq__(record) is NotImplemented
    assert record != twin and twin != record
