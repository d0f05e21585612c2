"""Write ``golden/quarter_arcs.json``: 40-digit lengths of elliptical arcs whose ends lie
within rounding of quarter ends k pi/2, and of half perimeters, for ``test_curves``.

Each case is an axis pair (a, b) and a sweep (t0, t1) of (a cos t, b sin t), all floats. The
lengths come from mpmath at 60 digits, from the floats themselves: whole quarters by the
complete integral E(m), and the part between each end and its nearest quarter end by
mpmath's quadrature. Short sweeps are checked against a quadrature over the whole sweep,
split at the quarter ends. ``half_perimeters`` holds axis pairs at ratios 1e-6..1e-12 and each
one's half perimeter, 2 max(a, b) E(m), as [a, b, value]; the half sweeps between quarter ends
already measure the half perimeters of the pairs in ``axes``. Tests read the JSON only; mpmath
is needed to regenerate it, from the root of the repository:

    python tests/quarter_arc_references.py
"""

from __future__ import annotations

import json
import math
import pathlib

from mpmath import mp, mpf

mp.dps = 60
OUT = pathlib.Path(__file__).resolve().parent / "golden" / "quarter_arcs.json"

RATIOS = (1e-3, 0.05, 0.5)
HALF_PERIMETER_RATIOS = (1e-12, 1e-9, 1e-6)
SCALES = (1e-12, 1.0, 1e12)
# Quarter indices k whose float k pi/2 lies within 4e-16 of k pi/2: denominators of the
# continued fractions of (pi/2)/ulp, for t near 1e9 and 1e12 (and twice one of them).
LARGE = {"1e9": (133768429, 455432915, 589201344, 2 * 455432915),
         "1e12": (247148399641, 358682241669, 2 * 358682241669)}


def axis_pairs(ratios: tuple[float, ...] = RATIOS) -> list[tuple[float, float]]:
    """Each scale's pairs at each ratio in both orders, then its circle."""
    pairs = []
    for scale in SCALES:
        for ratio in ratios:
            pairs += [(scale, scale * ratio), (scale * ratio, scale)]
        pairs.append((scale, scale))
    return pairs


def sweeps() -> list[tuple[float, float]]:
    """Quarter, half and three-quarter sweeps from float k pi/2, k = -9..9, and sweeps between
    the large quarter ends, across 0 and from 0."""
    out = [(k * (math.pi / 2.0), k * (math.pi / 2.0) + j * (math.pi / 2.0))
           for k in range(-9, 10) for j in (1, 2, 3)]
    for ks in LARGE.values():
        ends = [float(k * mp.pi / 2) for k in ks]  # the float nearest k pi/2
        out += list(zip(ends, ends[1:]))
        out += [(-ends[-1], ends[0]), (0.0, ends[-1])]
    return out


def speed(a, b, t):
    return mp.sqrt((a * mp.sin(t)) ** 2 + (b * mp.cos(t)) ** 2)


def quarter(a, b):
    """The length of a quarter of the ellipse, pi/2 wide between quarter ends."""
    p, q = max(a, b), min(a, b)
    return p * mp.ellipe(1 - (q / p) ** 2)


def from_zero(a, b, t):
    """int_0^t of the speed: j whole quarters to the quarter end j pi/2 nearest t, plus the
    part from there to t."""
    j = int(mp.nint(t / (mp.pi / 2)))
    rest = t - j * mp.pi / 2
    return j * quarter(a, b) + mp.quad(lambda u: speed(a, b, u),
                                       [j * mp.pi / 2, j * mp.pi / 2 + rest])


def length(a: float, b: float, t0: float, t1: float):
    a, b, t0, t1 = mpf(a), mpf(b), mpf(t0), mpf(t1)
    return abs(from_zero(a, b, t1) - from_zero(a, b, t0))


def quadrature_length(a: float, b: float, t0: float, t1: float):
    a, b, t0, t1 = mpf(a), mpf(b), mpf(t0), mpf(t1)
    lo, hi = min(t0, t1), max(t0, t1)
    cuts = [lo] + [k * mp.pi / 2 for k in range(int(mp.ceil(lo / (mp.pi / 2))),
                                                 int(mp.floor(hi / (mp.pi / 2))) + 1)
                   if lo < k * mp.pi / 2 < hi] + [hi]
    return mp.quad(lambda u: speed(a, b, u), cuts)


def main() -> None:
    pairs, arcs = axis_pairs(), sweeps()
    lengths = []
    for a, b in pairs:
        row = []
        for t0, t1 in arcs:
            value = length(a, b, t0, t1)
            if abs(t1 - t0) < 10.0:
                check = quadrature_length(a, b, t0, t1)
                assert abs(value - check) <= mpf(10) ** -45 * value, (a, b, t0, t1, value, check)
            row.append(mp.nstr(value, 40))
        lengths.append(row)
    halves = [[a, b, mp.nstr(2 * quarter(mpf(a), mpf(b)), 40)]
              for a, b in axis_pairs(HALF_PERIMETER_RATIOS) if (a, b) not in pairs]
    rows = ",\n".join(json.dumps(row) for row in lengths)
    OUT.write_text(f'{{"axes": {json.dumps(pairs)},\n'
                   f'"sweeps": {json.dumps(arcs)},\n"lengths": [\n{rows}],\n'
                   f'"half_perimeters": {json.dumps(halves)}}}\n')


if __name__ == "__main__":
    main()
