"""Derivative-free minimization of family measures, plus grid scans.

1D families use golden-section search on a bracket; 2D families use
Nelder-Mead restarted from a fixed seed list, with +inf as the out-of-domain
penalty (the triangle-friendly region is open and the objective blows up at
its boundary, so penalties are the natural constraint handling).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from itertools import groupby

from .catalog import FAMILIES, family_named, fundamental_measure
from .errors import DomainError, NotConverged, require_finite
from .records import Record, setfield

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Each search datum a family record may carry, as an error names it.
_SEARCH_DATA = {"bracket": "search bracket over a real parameter",
                "seeds": "search seeds over two real parameters"}


def _searchable(family: str, data: str):
    """The family class named ``family``, which must carry the search ``data`` ("bracket" or
    "seeds")."""
    cls = family_named(family)
    if not hasattr(cls, data):
        names = sorted(other.name for other in FAMILIES if hasattr(other, data))
        raise DomainError(f"family {cls.name!r} has no {_SEARCH_DATA[data]}; choose from {names}")
    return cls


class MinimizationResult(Record):
    __slots__ = _fields = ("argmin", "min_value", "iterations", "converged", "boundary_infimum")

    def __init__(self, argmin: tuple[float, ...], min_value: float, iterations: int,
                 converged: bool, boundary_infimum: float | None = None) -> None:
        setfield(self, "argmin", argmin)
        setfield(self, "min_value", min_value)
        setfield(self, "iterations", iterations)
        setfield(self, "converged", converged)
        setfield(self, "boundary_infimum", boundary_infimum)

    def to_dict(self) -> dict:
        """The fields, the argmin as a list; a boundary infimum only where there is one."""
        d = {name: getattr(self, name) for name in self._fields}
        d["argmin"] = list(self.argmin)
        if self.boundary_infimum is None:
            del d["boundary_infimum"]
        return d


def golden_section(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> tuple[float, float, int]:
    """Minimize a unimodal function on [lo, hi] to parameter tolerance tol.

    Returns (argmin, value, iterations). Only interior points are evaluated,
    so open-domain endpoints are safe bracket bounds.
    """
    a, b = (lo, hi) if lo < hi else (hi, lo)
    h = b - a
    c = b - _GOLDEN * h
    d = a + _GOLDEN * h
    fc, fd = f(c), f(d)
    iterations = 0
    while h > tol:
        if iterations >= max_iter:
            raise NotConverged(
                f"golden-section interval still {h:.3e} wide after {max_iter} iterations"
            )
        iterations += 1
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _GOLDEN * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _GOLDEN * h
            fd = f(d)
    x = c if fc < fd else d
    fx = fc if fc < fd else fd
    return x, fx, iterations


def _sorted3(p, q, r):
    """Three (value, point) pairs in ascending value, equal values kept in order, as sorted() does."""
    if q[0] < p[0]:
        p, q = q, p
    if r[0] < q[0]:
        return (r, p, q) if r[0] < p[0] else (p, r, q)
    return p, q, r


def nelder_mead(
    f: Callable[[Sequence[float]], float],
    start: Sequence[float],
    step: float = 0.1,
    tol: float = 1e-8,
    max_iter: int = 1000,
) -> tuple[tuple[float, float], float, int, bool]:
    """Minimize f over the plane; f may return +inf as an out-of-domain penalty, never NaN.

    Returns (argmin, value, iterations, converged) where convergence means
    the simplex diameter dropped below tol. The first vertex is ``start``;
    the other two step from it along each axis, forwards unless only the
    backward step lands in the domain. Each probe is evaluated once, and the
    start after the probes.
    """
    x, y = start
    probes = []
    for forward, backward in (((x + step, y), (x - step, y)), ((x, y + step), (x, y - step))):
        value, point = f(forward), forward
        if not math.isfinite(value):
            back = f(backward)
            if math.isfinite(back):
                value, point = back, backward
        probes.append((value, point))
    simplex = [(f((x, y)), (x, y)), *probes]
    fb, b = simplex[0]  # with no step taken, the start is returned as it is
    simplex = _sorted3(*simplex)
    for iterations in range(max_iter):
        (fb, b), (fm, m), (fw, w) = simplex
        if max(math.dist(b, m), math.dist(b, w)) <= tol:
            return b, fb, iterations, True
        # The centroid of the best two, summed from 0 as sum() does, so -0.0 reads +0.0.
        cx, cy = (0 + b[0] + m[0]) / 2, (0 + b[1] + m[1]) / 2
        reflected = (cx + (cx - w[0]), cy + (cy - w[1]))
        fr = f(reflected)
        if fb <= fr < fm:
            simplex = simplex[0], (fr, reflected), simplex[1]
        elif fr < fb:
            expanded = (cx + 2.0 * (cx - w[0]), cy + 2.0 * (cy - w[1]))
            fe = f(expanded)
            simplex = ((fe, expanded) if fe < fr else (fr, reflected)), simplex[0], simplex[1]
        else:
            contracted = (cx + 0.5 * (w[0] - cx), cy + 0.5 * (w[1] - cy))
            fc = f(contracted)
            if fc < fw:
                simplex = _sorted3(simplex[0], simplex[1], (fc, contracted))
            else:
                shrunk = [(b[0] + 0.5 * (p[0] - b[0]), b[1] + 0.5 * (p[1] - b[1])) for p in (m, w)]
                simplex = _sorted3(simplex[0], *((f(p), p) for p in shrunk))
    return b, fb, max_iter, False  # the best vertex before the last step


def _penalized(make: Callable) -> Callable[[Sequence[float]], float]:
    """The family's measure at a parameter pair, or +inf outside its domain. A family with an
    ``admits`` test answers +inf there before building a member."""
    admits = getattr(make, "admits", None)

    def objective(x: Sequence[float]) -> float:
        if admits is not None and not admits(*x):
            return math.inf
        try:
            return fundamental_measure(make(*x))
        except DomainError:
            return math.inf

    return objective


def minimize_1d(
    family: str,
    bracket: tuple[float, float] | None = None,
    tol: float = 1e-10,
) -> MinimizationResult:
    """Golden-section minimum of a one-parameter family's measure."""
    make = _searchable(family, "bracket")
    lo, hi = bracket if bracket is not None else make.bracket
    require_finite("the bracket", lo, hi)
    if not lo < hi:
        raise DomainError(f"empty bracket ({lo}, {hi})")

    x, fx, iterations = golden_section(lambda t: fundamental_measure(make(t)), lo, hi, tol=tol)
    edge = 10.0 * max(tol, 1e-12 * (hi - lo))
    interior = (x - lo > edge) and (hi - x > edge)
    boundary_inf = getattr(make, "boundary_infimum", None) if hi - x <= edge else None
    return MinimizationResult((x,), fx, iterations, interior, boundary_inf)


def minimize_2d(
    family: str,
    tol: float = 1e-8,
) -> MinimizationResult:
    """Best Nelder-Mead result over the family's fixed restart seeds."""
    make = _searchable(family, "seeds")
    objective = _penalized(make)
    runs = [nelder_mead(objective, seed, step=make.step, tol=tol) for seed in make.seeds]
    x, fx, _, converged = min(runs, key=lambda run: run[1])  # the first seed's run on a tie
    if not converged:
        raise NotConverged(f"no Nelder-Mead restart met tolerance {tol} for {family!r}")
    return MinimizationResult(x, fx, sum(run[2] for run in runs), converged)


_QUANTITY_OWNER = {q: cls for cls in FAMILIES for q in getattr(cls, "quantities", ())}
SCAN_QUANTITIES = ("Pi", *sorted(_QUANTITY_OWNER))


class ScanResult(Record):
    __slots__ = _fields = ("family", "quantity", "params", "values", "monotone_runs", "minimum",
                           "maximum")

    def __init__(self, family: str, quantity: str, params: list[float], values: list[float],
                 monotone_runs: list[tuple[float, float, str]], minimum: tuple[float, float],
                 maximum: tuple[float, float]) -> None:
        setfield(self, "family", family)
        setfield(self, "quantity", quantity)
        setfield(self, "params", params)
        setfield(self, "values", values)
        setfield(self, "monotone_runs", monotone_runs)
        setfield(self, "minimum", minimum)
        setfield(self, "maximum", maximum)


def scan(family: str, quantity: str, lo: float, hi: float, n: int) -> ScanResult:
    """Evaluate a family quantity on a uniform grid and describe its shape.

    Quantities: "Pi" (the fundamental measure, any family with a search bracket), or a
    name in one family's ``quantities``, for that family only.
    """
    if n < 2:
        raise DomainError(f"scan needs at least two grid points, got {n}")
    if quantity not in SCAN_QUANTITIES:
        raise DomainError(f"unknown scan quantity {quantity!r}; choose from {SCAN_QUANTITIES}")
    if quantity == "Pi":
        make = _searchable(family, "bracket")
        evaluate = lambda t: fundamental_measure(make(t))
    else:
        make, owner = family_named(family), _QUANTITY_OWNER[quantity]
        if make is not owner:
            raise DomainError(f"quantity {quantity!r} is defined for the {owner.name} family only")
        evaluate = owner.quantities[quantity]

    require_finite("the scan range", lo, hi)
    params = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    params[-1] = hi
    values = [evaluate(t) for t in params]

    # Each maximal run of equal step directions; a NaN step compares neither way, so is flat.
    steps = ["increasing" if b > a else "decreasing" if b < a else "flat"
             for a, b in zip(values, values[1:])]
    monotone_runs, start = [], 0
    for direction, run in groupby(steps):
        end = start + len(list(run))
        monotone_runs.append((params[start], params[end], direction))
        start = end

    i_min = min(range(n), key=values.__getitem__)
    i_max = max(range(n), key=values.__getitem__)
    return ScanResult(make.name, quantity, params, values, monotone_runs,
                      (params[i_min], values[i_min]), (params[i_max], values[i_max]))
