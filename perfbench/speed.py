"""How fast the CPU runs right now, measured with a fixed kernel of the benchmark's own code.

On a shared host this machine's CPU speed drifts by up to +-30 % within
seconds, with no steal time and no clock change visible in the guest. A
fixed pure-Python kernel slows in step with the program, so the benchmark
reports timed metrics in reference seconds: raw seconds times (kernel rate
/ REFERENCE_RATE), the rate sampled right before and after each timed
interval, in the process that did the work. The program's own code never
runs in the kernel, so a change to the program moves the metrics fully.

This module imports only ``refs`` and the standard library, so that CLI and
set-up children can load it without preloading anything the package imports.
"""

from __future__ import annotations

import math
import time

import refs

REFERENCE_RATE = 30_000.0  # kernel calls in one reference second
_POLYGON = [(math.cos(0.7 * k) * (1.0 + 0.3 * math.sin(k)), math.sin(0.7 * k)) for k in range(40)]


def kernel() -> None:
    refs.polygon_area_perimeter(_POLYGON)
    refs.ellipse_perimeter(1.0, 0.3)


def sample(seconds: float) -> float:
    """Kernel rate over about ``seconds``, relative to REFERENCE_RATE."""
    calls, start = 0, time.perf_counter()
    while True:
        kernel()
        calls += 1
        now = time.perf_counter()
        if now - start >= seconds:
            return calls / (now - start) / REFERENCE_RATE


class Speed:
    """Speed factors for consecutive intervals of in-process work."""

    def __init__(self, sample_s: float) -> None:
        self.sample_s = sample_s
        self.factors: list[float] = []
        self._previous = sample(sample_s)

    def factor(self) -> float:
        """Reference seconds per raw second over the interval since the last call."""
        current = sample(self.sample_s)
        factor = 0.5 * (self._previous + current)
        self._previous = current
        self.factors.append(factor)
        return factor
