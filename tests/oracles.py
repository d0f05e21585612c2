"""Independent brute-force oracles used to pin expected values in the tests.

Nothing here goes through the package's quadrature or search code: integrals
use dense composite Simpson, minima come from exhaustive grid evaluation of
numpy-vectorized closed forms (with one zoom pass where grid resolution alone
cannot reach the required value accuracy), and arctangents are Taylor series
in 80-digit decimal arithmetic.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from typing import Callable

import numpy as np


def dense_simpson(f: Callable[[float], float], a: float, b: float, n: int = 20_000) -> float:
    if n % 2:
        n += 1
    h = (b - a) / n
    total = f(a) + f(b)
    for i in range(1, n):
        total += f(a + i * h) * (4.0 if i % 2 else 2.0)
    return total * h / 3.0


def simpson_vector(values: np.ndarray, h: float) -> np.ndarray:
    """Composite Simpson along the last axis of an odd-length sample array."""
    n = values.shape[-1] - 1
    assert n % 2 == 0
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return values @ weights * (h / 3.0)


# Vectorized closed forms for the one-parameter family measures.

def measure_right_triangle(theta: np.ndarray) -> np.ndarray:
    return (1.0 + 1.0 / np.cos(theta)) * (1.0 + 1.0 / np.sin(theta))


def measure_rectangle(r: np.ndarray) -> np.ndarray:
    return (1.0 + r) ** 2 / r


def measure_rhombus(theta: np.ndarray) -> np.ndarray:
    return 4.0 / np.sin(theta)


def measure_triangle(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    product = (-r + s + 1.0) * (r - s + 1.0) * (r + s - 1.0)
    out = np.full(np.broadcast(r, s).shape, np.inf)
    ok = product > 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide((r + s + 1.0) ** 1.5, np.sqrt(product), out=out, where=ok)
    return out


def measure_parallelogram(theta: np.ndarray, r: np.ndarray) -> np.ndarray:
    return (1.0 + r) ** 2 / (r * np.sin(theta))


def ellipse_measure_grid(r: np.ndarray, n_quad: int = 2048) -> np.ndarray:
    """Unit-ellipse measure on an r-grid via vectorized Simpson."""
    t = np.linspace(0.0, math.pi, n_quad + 1)
    cos2 = np.cos(t) ** 2
    integrand = np.sqrt(1.0 + (r[:, None] ** 2 - 1.0) * cos2[None, :])
    integral = simpson_vector(integrand, math.pi / n_quad)
    return integral**2 / (math.pi * r)


def grid_min_1d(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                n: int = 1_000_000) -> tuple[float, float]:
    """Single-pass dense-grid minimum over [lo, hi]."""
    xs = np.linspace(lo, hi, n)
    ys = f(xs)
    i = int(np.argmin(ys))
    return float(xs[i]), float(ys[i])


def grid_min_2d(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    xlo: float,
    xhi: float,
    ylo: float,
    yhi: float,
    n: int = 2000,
    zoom: bool = True,
) -> tuple[float, float, float]:
    """Dense-grid minimum over a rectangle, with one zoom pass.

    The zoom re-grids the cell neighborhood of the coarse minimum at the same
    point count, which is what makes 1e-6 value accuracy reachable by brute
    force alone.
    """
    xs = np.linspace(xlo, xhi, n)
    ys = np.linspace(ylo, yhi, n)
    values = f(xs[:, None], ys[None, :])
    i, j = np.unravel_index(np.argmin(values), values.shape)
    best = (float(xs[i]), float(ys[j]), float(values[i, j]))
    if not zoom:
        return best
    dx = (xhi - xlo) / (n - 1)
    dy = (yhi - ylo) / (n - 1)
    x0, x1 = max(xlo, best[0] - 2 * dx), min(xhi, best[0] + 2 * dx)
    y0, y1 = max(ylo, best[1] - 2 * dy), min(yhi, best[1] + 2 * dy)
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    values = f(xs[:, None], ys[None, :])
    i, j = np.unravel_index(np.argmin(values), values.shape)
    return float(xs[i]), float(ys[j]), float(values[i, j])


def measure_multiset_match(a, b, rel_tol: float = 1e-8) -> bool:
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


def decimal_atan(x: Decimal) -> Decimal:
    """atan x to 80 digits: atan x = pi/2 - atan(1/x) past 1, then the half-angle step
    atan x = 2 atan(x / (1 + sqrt(1 + x^2))) until the Taylor series converges fast."""
    with localcontext() as ctx:
        ctx.prec = 80
        if abs(x) > 1:
            return (decimal_atan(Decimal(1)) * 2).copy_sign(x) - decimal_atan(1 / x)
        halvings = 0
        while abs(x) > Decimal("1e-4"):
            x /= 1 + (1 + x * x).sqrt()
            halvings += 1
        total, power, n = Decimal(0), x, 1
        while abs(power) > abs(x) * Decimal("1e-82"):
            total += power / n
            power *= -x * x
            n += 2
        return total * 2**halvings


def rational_arc_sweep(t0: float, t1: float) -> Decimal:
    """atan t1 - atan t0 to about 80 digits, half the rational arc's signed length. Past 1 on
    one side atan t = +-pi/2 - atan(1/t), so the two pi/2 cancel before any rounding."""
    a, b = Decimal(t0), Decimal(t1)
    with localcontext() as ctx:
        ctx.prec = 80
        if min(abs(a), abs(b)) > 1 and (a > 0) == (b > 0):
            return decimal_atan(1 / a) - decimal_atan(1 / b)
        return decimal_atan(b) - decimal_atan(a)
