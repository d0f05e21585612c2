"""Canonicalization of a shape to its unit representative (area = semiperimeter).

Every shape C determines a unique scale factor S(C)/A(C); rescaling by it
yields the one shape in C's similarity class whose area equals its
semiperimeter. That common value is the class's fundamental measure, and
indexing the class by multiples of the unit shape makes area differentiate
to perimeter.
"""

from __future__ import annotations

import math

from .curves import Shape, scaled
from .errors import DomainError
from .records import MutableRecord, Record, setfield


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


def idempotence_check(shape: Shape, tol: float = 1e-9) -> bool:
    """Unitizing a unit shape must leave scale and measure fixed."""
    first = unitize(shape)
    second = unitize(first.unit_shape)
    scale_fixed = abs(second.tong_inradius_reciprocal - 1.0) <= tol
    measure_fixed = (
        abs(second.fundamental_measure - first.fundamental_measure)
        <= tol * first.fundamental_measure
    )
    return scale_fixed and measure_fixed


class IndexedFamilyProbe(Record):
    """Sample points for probing the indexing of a unit shape's family."""

    __slots__ = _fields = ("base_unit_shape", "lambdas")

    def __init__(self, base_unit_shape: Shape, lambdas: tuple[float, ...]) -> None:
        a = base_unit_shape.area()
        s = base_unit_shape.semiperimeter()
        if abs(a - s) > 1e-6 * s:
            raise DomainError(f"probe base is not a unit shape: A={a!r}, S={s!r}")
        if any(lam <= 0.0 for lam in lambdas):
            raise DomainError("family indices must be positive")
        setfield(self, "base_unit_shape", base_unit_shape)
        setfield(self, "lambdas", lambdas)


class IndexingEntry(Record):
    """One index lambda: the area's central finite difference against 2 S(lambda), both measured."""

    __slots__ = _fields = ("lam", "area_derivative", "twice_semiperimeter", "derivative_rel_err",
                           "identity_rel_err", "ok")

    def __init__(self, lam: float, area_derivative: float, twice_semiperimeter: float,
                 derivative_rel_err: float, identity_rel_err: float, ok: bool) -> None:
        setfield(self, "lam", lam)
        setfield(self, "area_derivative", area_derivative)
        setfield(self, "twice_semiperimeter", twice_semiperimeter)
        setfield(self, "derivative_rel_err", derivative_rel_err)
        setfield(self, "identity_rel_err", identity_rel_err)
        setfield(self, "ok", ok)


class IndexingReport(MutableRecord):
    __slots__ = _fields = ("entries", "failures")

    def __init__(self, entries: list[IndexingEntry] | None = None,
                 failures: list[float] | None = None) -> None:
        self.entries = [] if entries is None else entries
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures


def check_calculus_friendly(
    probe: IndexedFamilyProbe,
    derivative_rel_tol: float = 1e-5,
    identity_rel_tol: float = 1e-12,
) -> IndexingReport:
    """Verify that area differentiates to perimeter along the family index.

    Two independent checks per sampled index lambda:

    * a central finite difference of the kernel-measured area A(lambda), with
      step 1e-5 * lambda, against the kernel-measured perimeter 2 S(lambda);
    * the kernel-measured area difference A(lambda + d) - A(lambda) against
      the exact quadratic-growth identity
      A(lambda + d) - A(lambda) = 2 * ((lambda + (lambda + d)) / 2) * d * Pi,
      which holds for any increment. The increment here is lambda / 4, large
      enough that the difference of the two areas carries no cancellation,
      so the identity must hold to roundoff.
    """
    base = probe.base_unit_shape
    measure = 0.5 * (base.area() + base.semiperimeter())
    report = IndexingReport()
    for lam in probe.lambdas:
        h = 1e-5 * lam
        area_plus = scaled(base, lam + h).area()
        area_minus = scaled(base, lam - h).area()
        derivative = (area_plus - area_minus) / (2.0 * h)
        member = scaled(base, lam)
        perimeter = 2.0 * member.semiperimeter()
        deriv_err = abs(derivative - perimeter) / perimeter

        d = 0.25 * lam
        delta_area = scaled(base, lam + d).area() - member.area()
        strip = 2.0 * ((lam + (lam + d)) / 2.0) * d * measure
        identity_err = abs(delta_area - strip) / abs(strip)

        ok = deriv_err <= derivative_rel_tol and identity_err <= identity_rel_tol
        report.entries.append(
            IndexingEntry(lam, derivative, perimeter, deriv_err, identity_err, ok)
        )
        if not ok:
            report.failures.append(lam)
    return report


def measure_multiset_match(a: Shape, b: Shape, rel_tol: float = 1e-8) -> bool:
    """Congruence surrogate: equal area, semiperimeter and piece-length multiset."""
    if abs(a.area() - b.area()) > rel_tol * max(a.area(), b.area()):
        return False
    if abs(a.semiperimeter() - b.semiperimeter()) > rel_tol * max(
        a.semiperimeter(), b.semiperimeter()
    ):
        return False
    lengths_a = sorted(p.length() for p in a.pieces)
    lengths_b = sorted(p.length() for p in b.pieces)
    if len(lengths_a) != len(lengths_b):
        return False
    scale = max(lengths_a[-1], lengths_b[-1])
    return all(
        math.isclose(x, y, rel_tol=0.0, abs_tol=rel_tol * scale)
        for x, y in zip(lengths_a, lengths_b)
    )
