"""Write ``golden/flat_steep_arcs.json``: 40-digit lengths of elliptical arcs flatter than
``curves.FLAT_AXIS_RATIO`` and of steep parabolic arcs, for ``test_curves``.

Each elliptical case is an axis pair (a, b) and a sweep (t0, t1) of (a cos t, b sin t), all
floats, at axis ratios 1e-101..1e-300 and below 2^-1074, in both axis orders, over sweeps
across multiples of pi, from ends within 2^-26 of them, and about t = 0 within the width where
the minor axis still sets the speed. With e the axis ratio and w the distance from the nearest
end of small speed, the speed is major sqrt(sin^2 w + e^2 cos^2 w) = major sqrt(e^2 + (1 - e^2)
sin^2 w), so each part between multiples of pi/2 is major e (E(w1 | m) - E(w0 | m)) with
m = 1 - 1/e^2: mpmath's incomplete elliptic integral, at 80 digits and more where the part is
short. A second quadrature of the speed over [0, w], split geometrically, checks each part.

Each parabolic case is (alpha, beta, x0, x1) with slopes u = 2 alpha x + beta of one sign or
both, up to about 1e300: its length is |g(u1) - g(u0)| / (4 |alpha|), g(u) = u sqrt(1 + u^2) +
asinh u, from the floats at 4,200 bits, where no difference cancels.

Tests read the JSON only; mpmath is needed to regenerate it, from the root of the repository:

    python tests/flat_steep_references.py
"""

from __future__ import annotations

import json
import math
import pathlib

from mpmath import mp, mpf

OUT = pathlib.Path(__file__).resolve().parent / "golden" / "flat_steep_arcs.json"

PI, HALF_PI = math.pi, 0.5 * math.pi
# (major, minor): ratios 1e-101..1e-300 at several scales, and two below 2^-1074, whose
# minor axis scaled with the major one underflows to 0.
AXES = [(1.0, 1e-101), (1.0, 1e-154), (1e100, 1e-100), (1.0, 1e-200), (1e-100, 1e-300),
        (1.0, 1e-300), (1e300, 1e-30), (2.0, 5e-324)]
# Sweeps with the major axis along x, whose speed is small at k pi: across k pi, from or to
# ends within 2^-26 of it, and short ones beside it.
SWEEPS = [(0.3, 4.0), (0.3, 2.0), (-1.0, 7.0), (2.0, 10.0), (4.0, 0.3),
          (PI - 1e-8, 1.0), (PI + 1.4e-8, 5.0), (2.0 * PI - 1e-9, 2.0 * PI + 3e-9),
          (-PI - 5e-9, -PI + 1e-8), (0.0, 1e-9), (-1e-8, 2.0), (1.0, 1.0 + 1e-9)]
# The same with the major axis along y, whose speed is small at pi/2 + k pi.
SWEEPS_Y = [(1.8, 5.5), (0.1, HALF_PI + 1e-8), (HALF_PI - 1e-9, 3.0 * HALF_PI + 2e-9),
            (-HALF_PI - 3e-9, -HALF_PI + 2e-8), (3.0, 0.5)]
# About t = 0, as multiples of the axis ratio: the speed is the minor axis's within about that
# width, and the forms split at 2^27 ratios. Such an arc is about ratio^2 long, so its axes are
# ones whose length is in the normal range relative to the major axis.
NEAR_ZERO = [(0.0, 3.0), (-2.0, 5.0), (0.5, 1e9), (-1e10, -4.0), (1e3, 1e9)]
NEAR_ZERO_AXES = [(1.0, 1e-101), (1e100, 1e-20), (1e-100, 1e-250)]

STEEP = [
    (1e300, 0.0, -1e-140, 2e-140),  # u straddles 0, up to 4e160
    (1e300, 0.0, 1e-140, 2e-140),  # one sign
    (3e102, 0.0, 0.5, 1.0),  # just past where (u0 + u1)(1 + u0^2 + u1^2) overflowed
    (1e110, 0.0, 1.0, 2.0),
    (-1e200, 3.0, -2e-50, 1e-50),
    (1e300, 0.0, 1e-10, 1.0000001e-10),  # a short span at u = 2e290
    (1e300, 0.0, 0.1, 0.2),  # u up to 4e299
    (1e300, 1e300, -0.7, 0.2),
    (-2.5e250, -1.0, 3e-97, -7e-98),
    (1e154, 0.5, -1.0, 1.0),  # u^2 of the ends just past the float range
]


def flat_length(a: float, b: float, t0: float, t1: float):
    """The 40-digit length of (a cos t, b sin t) from t0 to t1, b << a or a << b."""
    major, minor = mpf(max(a, b)), mpf(min(a, b))
    shift = 0 if a >= b else mp.pi / 2  # where the speed is small: k pi, or pi/2 + k pi
    lo, hi = sorted((mpf(t0) - shift, mpf(t1) - shift))
    ratio = minor / major
    m = 1 - 1 / ratio**2
    cuts = [lo] + [k * mp.pi / 2 for k in range(int(mp.ceil(lo / (mp.pi / 2))),
                                                 int(mp.floor(hi / (mp.pi / 2))) + 1)
                   if lo < k * mp.pi / 2 < hi] + [hi]
    total = mpf(0)
    for x, y in zip(cuts, cuts[1:]):
        k = mp.nint((x + y) / 2 / mp.pi)
        w0, w1 = x - k * mp.pi, y - k * mp.pi
        digits = 80 + max(0, int(-mp.log10((w1 - w0) / max(abs(w0), abs(w1)))))
        with mp.workdps(digits):
            part = ratio * (mp.ellipe(w1, m) - mp.ellipe(w0, m))
            check = from_zero(ratio, w1) - from_zero(ratio, w0)
        assert abs(part - check) <= mpf(10) ** -42 * part, (a, b, t0, t1, part, check)
        total += part
    return major * total


def from_zero(ratio, w):
    """int_0^w sqrt(sin^2 v + ratio^2 cos^2 v) dv by quadrature, in v = |w| s over s in [0, 1]
    split at ratio 16^j / |w|, of the speed over its value at w: mpmath's tolerance is
    absolute, so the integrand it sees is about 1 in size."""
    if not w:
        return mpf(0)
    speed = lambda v: mp.sqrt(mp.sin(v) ** 2 + ratio**2 * mp.cos(v) ** 2)
    size = abs(w)
    top = speed(size)
    points, s = [mpf(0)], ratio / size
    while s < 1:
        points.append(s)
        s *= 16
    points.append(mpf(1))
    return mp.sign(w) * size * top * mp.quad(lambda s: speed(size * s) / top, points)


def parabolic_length(alpha: float, beta: float, x0: float, x1: float):
    with mp.workprec(4200):
        al, be = mpf(alpha), mpf(beta)
        u0, u1 = 2 * al * mpf(x0) + be, 2 * al * mpf(x1) + be
        g = lambda u: u * mp.sqrt(1 + u * u) + mp.asinh(u)
        return abs((g(u1) - g(u0)) / (4 * al))


def elliptical_cases() -> list[tuple[float, float, float, float]]:
    cases = []
    for major, minor in AXES:
        cases += [(major, minor, t0, t1) for t0, t1 in SWEEPS]
        cases += [(minor, major, t0, t1) for t0, t1 in SWEEPS_Y]
    for major, minor in NEAR_ZERO_AXES:
        cases += [(major, minor, s0 * minor / major, s1 * minor / major) for s0, s1 in NEAR_ZERO]
    return cases


def main() -> None:
    mp.dps = 60
    elliptical = [[a, b, t0, t1, mp.nstr(flat_length(a, b, t0, t1), 40)]
                  for a, b, t0, t1 in elliptical_cases()]
    parabolic = [[*case, mp.nstr(parabolic_length(*case), 40)] for case in STEEP]
    rows = lambda cases: ",\n".join(json.dumps(case) for case in cases)
    OUT.write_text(f'{{"elliptical": [\n{rows(elliptical)}],\n'
                   f'"parabolic": [\n{rows(parabolic)}]}}\n')


if __name__ == "__main__":
    main()
