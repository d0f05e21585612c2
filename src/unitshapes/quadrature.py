"""Adaptive Gauss-Kronrod quadrature for smooth-by-pieces integrands.

A 7-point Gauss / 15-point Kronrod pair is applied per interval; the worst
interval (largest error estimate) is bisected until the summed error estimate
meets tolerance. Intervals are never split beyond ``MAX_DEPTH`` halvings of
the original interval, nor more than ``MAX_BISECTIONS`` times in all; either
limit raises QuadratureFailure, which signals a pathological integrand.

Every integral stops on the one relative tolerance ``REL_TOL``, the reference's
accuracy wherever it cross-checks a closed form; only the absolute floor varies.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable

from .errors import QuadratureFailure

# Bisections per call: the package's integrands need at most about 60, and an
# integrand whose error estimate is rounding noise would bisect without end.
MAX_BISECTIONS = 2000
MAX_DEPTH = 60  # halvings of the original interval, down to 2^-60 of it
REL_TOL = 1e-10  # the summed error estimate's share of |integral| at which a call stops

# The 15-point Kronrod rule on [-1, 1] and its embedded 7-point Gauss rule: the weights of the
# centre node, then (abscissa, Kronrod weight, Gauss weight) of each symmetric node pair,
# outward. The Gauss weight is 0.0 at the Kronrod-only nodes; adding 0.0 times a finite sum
# leaves the Gauss estimate as it is, so both estimates accumulate in node order.
_CENTER_WK = 0.2094821410847278
_CENTER_WG = 0.4179591836734694
_NODE_PAIRS = (
    (0.2077849550078985, 0.2044329400752989, 0.0),
    (0.4058451513773972, 0.1903505780647854, 0.3818300505051189),
    (0.5860872354676911, 0.1690047266392679, 0.0),
    (0.7415311855993944, 0.1406532597155259, 0.2797053914892767),
    (0.8648644233597691, 0.1047900103222502, 0.0),
    (0.9491079123427585, 0.0630920926299786, 0.1294849661688697),
    (0.9914553711208126, 0.0229353220105292, 0.0),
)


def _gauss_kronrod_15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Return (Kronrod estimate, |Kronrod - Gauss| error estimate) on [a, b]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(mid)
    kron = _CENTER_WK * fc
    gauss = _CENTER_WG * fc
    for xk, wk, wg in _NODE_PAIRS:
        x = half * xk
        fsum = f(mid - x) + f(mid + x)
        kron += wk * fsum
        gauss += wg * fsum
    kron *= half
    gauss *= half
    return kron, abs(kron - gauss)


def adaptive_quadrature(
    f: Callable[[float], float],
    a: float,
    b: float,
    abs_tol: float = 1e-12,
) -> float:
    """Integrate f from a to b (either order) to the requested tolerance.

    Convergence requires the summed per-interval error estimate to fall below
    max(abs_tol, REL_TOL * |integral|). Raises QuadratureFailure if the worst
    remaining interval has already been bisected MAX_DEPTH times, after
    MAX_BISECTIONS bisections, or if the estimate or its error is NaN, as where
    the integrand overflows.
    """
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    value, err = _gauss_kronrod_15(f, a, b)
    # Heap of (-error, tiebreak, lo, hi, value, error, depth); worst interval first.
    counter = itertools.count()
    heap = [(-err, next(counter), a, b, value, err, 0)]
    total = value
    total_err = err

    while total_err > max(abs_tol, REL_TOL * abs(total)):
        if len(heap) > MAX_BISECTIONS:  # each bisection adds one interval to the heap
            raise QuadratureFailure(f"no convergence on [{a}, {b}] after {MAX_BISECTIONS}"
                                    f" bisections: error estimate {total_err:.3e}")
        neg_err, _, lo, hi, val, err, depth = heapq.heappop(heap)
        if depth >= MAX_DEPTH:
            raise QuadratureFailure(
                f"interval [{lo}, {hi}] still contributes error {err:.3e} at depth {depth}"
            )
        mid = 0.5 * (lo + hi)
        left_val, left_err = _gauss_kronrod_15(f, lo, mid)
        right_val, right_err = _gauss_kronrod_15(f, mid, hi)
        total += left_val + right_val - val
        total_err += left_err + right_err - err
        heapq.heappush(heap, (-left_err, next(counter), lo, mid, left_val, left_err, depth + 1))
        heapq.heappush(heap, (-right_err, next(counter), mid, hi, right_val, right_err, depth + 1))

    # The loop's test is false for a NaN error, so it can stop with a NaN estimate.
    if math.isnan(total) or math.isnan(total_err):
        raise QuadratureFailure(f"the integrand is NaN or overflows on [{a}, {b}]")
    return sign * total
