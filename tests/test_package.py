"""The package namespace: ``import unitshapes`` loads the measuring core, and every public name
resolves to its defining module's object, loaded or not.

Each check runs in a fresh interpreter, so modules the test session has loaded do not count.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import unitshapes

SRC = str(pathlib.Path(unitshapes.__file__).resolve().parents[1])
CORE = ["unitshapes", "unitshapes.curves", "unitshapes.errors", "unitshapes.quadrature",
        "unitshapes.records", "unitshapes.unitize"]
# The package's public names before its layers were deferred, by defining module.
PUBLIC = {
    "catalog": ["Ellipse", "FAMILIES", "FamilyParam", "Parallelogram", "Rectangle",
                "RegularPolygon", "Rhombus", "RightTriangle", "Triangle", "build_unit_shape",
                "ellipse_semi_minor", "family_from_dict", "family_named", "family_to_dict",
                "fundamental_measure", "rhombus_short_diagonal"],
    "curves": ["CircularArc", "CurvePiece", "EllipticalArc", "LineSegment", "ParabolicArc",
               "Point", "Polyline", "RationalPoint", "RigidMotion", "Shape", "Similarity",
               "make_circle", "make_polygon", "make_rational_circle", "scaled",
               "shape_from_dict", "shape_from_json"],
    "errors": ["DomainError", "NotConverged", "QuadratureFailure", "UnitShapesError"],
    "optimize": ["MinimizationResult", "minimize_1d", "minimize_2d", "scan"],
    "solids": ["PlatonicSolid", "SolidMeasures", "measures", "unitize_solid"],
    "unitize": ["UnitizationResult", "tong_inradius", "unitize"],
    "verify": ["VerificationReport", "check_blob_pythagoras", "check_calculus",
               "check_conciliation", "check_idempotence", "check_isoperimetric",
               "check_mgon_bound", "check_platonic_table", "check_rational_circle",
               "check_scale_equivalence", "check_unit_floor", "random_simple_mgon", "run_suite"],
}
# The submodules the package binds by their names; ``unitize`` names the function.
MODULES = ["catalog", "curves", "errors", "optimize", "quadrature", "records", "solids", "verify"]
NAMES = sorted(MODULES + [name for names in PUBLIC.values() for name in names])


def fresh(code: str):
    """The JSON that ``code`` prints as its last line, run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_only_the_measuring_core():
    loaded = fresh("import json, sys; import unitshapes;"
                   " print(json.dumps(sorted(m for m in sys.modules if m.startswith('unitshapes'))))")
    assert loaded == CORE


def test_every_public_name_is_its_defining_modules_object():
    code = f"""
import importlib, json, sys
import unitshapes
listed = dir(unitshapes)
wrong = []
for module, names in {PUBLIC!r}.items():
    for name in names:
        if getattr(unitshapes, name) is not getattr(importlib.import_module('unitshapes.' + module), name):
            wrong.append(name)
for module in {MODULES!r}:
    if getattr(unitshapes, module) is not sys.modules['unitshapes.' + module]:
        wrong.append(module)
print(json.dumps([wrong, listed, unitshapes.__all__]))
"""
    wrong, listed, exported = fresh(code)
    assert wrong == []
    assert set(NAMES) <= set(listed)
    assert "__version__" in listed
    assert exported == NAMES


def test_star_import_binds_every_public_name():
    code = """
from unitshapes import *
import json
import unitshapes
bound = {n: v for n, v in globals().items() if not n.startswith('_')}
print(json.dumps(sorted(n for n, v in bound.items() if v is getattr(unitshapes, n, None))))
"""
    assert fresh(code) == NAMES


@pytest.mark.parametrize("first", ["unitshapes.verify", "unitshapes.cli"])
def test_unitize_stays_the_function_whichever_module_loads_first(first):
    code = f"""
import json, sys
import {first}
import unitshapes
print(json.dumps([unitshapes.unitize is sys.modules['unitshapes.unitize'].unitize,
                  unitshapes.fundamental_measure is unitshapes.catalog.fundamental_measure]))
"""
    assert fresh(code) == [True, True]
