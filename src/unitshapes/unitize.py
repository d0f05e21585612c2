"""Canonicalization of a shape to its unit representative (area = semiperimeter).

Every shape C determines a unique scale factor S(C)/A(C); rescaling by it
yields the one shape in C's similarity class whose area equals its
semiperimeter. That common value is the class's fundamental measure, and
indexing the class by multiples of the unit shape makes area differentiate
to perimeter; the ``calculus`` and ``idempotence`` suites of ``verify``
check both claims.
"""

from __future__ import annotations

import math

from .curves import Shape, scaled
from .errors import DomainError
from .records import Record, setfield


class UnitizationResult(Record):
    """S/A of the input shape (units 1/length), the unit shape, and its common value A = S.

    ``unitize`` leaves the unit shape, ``scaled(input, S/A)``, to be built when first read.
    """

    __slots__ = ("tong_inradius_reciprocal", "fundamental_measure", "_unit_shape", "_input")
    _fields = ("tong_inradius_reciprocal", "unit_shape", "fundamental_measure")

    def __init__(self, tong_inradius_reciprocal: float, unit_shape: Shape,
                 fundamental_measure: float) -> None:
        setfield(self, "tong_inradius_reciprocal", tong_inradius_reciprocal)
        setfield(self, "_unit_shape", unit_shape)
        setfield(self, "_input", None)
        setfield(self, "fundamental_measure", fundamental_measure)

    @property
    def unit_shape(self) -> Shape:
        if self._unit_shape is None:
            setfield(self, "_unit_shape", scaled(self._input, self.tong_inradius_reciprocal))
        return self._unit_shape

    def to_dict(self) -> dict:
        return {
            "tong_inradius_reciprocal": self.tong_inradius_reciprocal,
            "fundamental_measure": self.fundamental_measure,
            "unit_shape": self.unit_shape.to_dict(),
        }


def tong_inradius(shape: Shape) -> float:
    """Area over semiperimeter: the calculus-friendly index of the shape."""
    return shape.area() / shape.semiperimeter()


def unitize(shape: Shape) -> UnitizationResult:
    """The member scaled by u = S/A has A' = u^2 A = u S = S', so the measure is u S."""
    area, semiperimeter = shape.area(), shape.semiperimeter()
    upsilon = semiperimeter / area  # inf / inf is nan, caught below
    measure = upsilon * semiperimeter
    if not (math.isfinite(area) and math.isfinite(upsilon) and math.isfinite(measure)):
        raise DomainError(f"the shape's area, its scale S/A to the unit shape or the measure"
                          f" (S/A)*S overflows the float range: A={area!r}, S={semiperimeter!r}")
    result = UnitizationResult(upsilon, None, measure)
    setfield(result, "_input", shape)
    return result
