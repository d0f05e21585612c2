import math

import pytest

from unitshapes.curves import ParabolicArc, RigidMotion, quadrature_area_term
from unitshapes.errors import QuadratureFailure
from unitshapes.quadrature import MAX_BISECTIONS, adaptive_quadrature

from oracles import dense_simpson


def test_polynomial_exact():
    assert adaptive_quadrature(lambda t: t * t, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-13)


def test_sine_lobe():
    assert adaptive_quadrature(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12)


def test_reversed_bounds_flip_sign():
    forward = adaptive_quadrature(math.sin, 0.0, math.pi)
    backward = adaptive_quadrature(math.sin, math.pi, 0.0)
    assert backward == pytest.approx(-forward, rel=1e-12)


def test_empty_interval():
    assert adaptive_quadrature(math.exp, 2.0, 2.0) == 0.0


def test_oscillatory():
    value = adaptive_quadrature(lambda t: math.cos(10.0 * t) ** 2, 0.0, 2.0 * math.pi)
    assert value == pytest.approx(math.pi, rel=1e-10)


def test_kink_needs_subdivision():
    value = adaptive_quadrature(lambda t: abs(t - 0.3), 0.0, 1.0)
    exact = 0.5 * (0.3**2 + 0.7**2)
    assert value == pytest.approx(exact, rel=1e-10)


def test_elliptic_integrand_matches_simpson():
    f = lambda t: math.sqrt(1.0 + (0.25 - 1.0) * math.cos(t) ** 2)
    adaptive = adaptive_quadrature(f, 0.0, math.pi)
    simpson = dense_simpson(f, 0.0, math.pi, n=200_000)
    assert adaptive == pytest.approx(simpson, rel=1e-10)


def test_sqrt_singularity_converges_within_budget():
    value = adaptive_quadrature(lambda t: 1.0 / math.sqrt(abs(t)), 0.0, 1.0)
    assert value == pytest.approx(2.0, rel=1e-9)


def test_harsh_singularity_exhausts_budget():
    # 1/t^0.99 is integrable but cannot be pinned down in 60 halvings; the
    # depth cap must trip rather than return a low-confidence value.
    with pytest.raises(QuadratureFailure):
        adaptive_quadrature(lambda t: 1.0 / abs(t) ** 0.99, 0.0, 1.0)


def test_rounding_noise_exhausts_the_bisection_budget():
    # x*y' - y*x' cancels between terms near 1e180, so every interval's error estimate is
    # rounding noise that bisection never shrinks; without a breadth budget this ran for minutes.
    arc = ParabolicArc((1e300, 0.0, 0.0), 1e-140, 2e-140, RigidMotion(0.3, True, (1.0, 2.0)))
    with pytest.raises(QuadratureFailure, match=f"after {MAX_BISECTIONS} bisections"):
        quadrature_area_term(arc)


@pytest.mark.parametrize(
    "f",
    [
        lambda t: math.nan,
        lambda t: math.nan if t == 0.5 else 1.0,
        lambda t: math.inf,
        lambda t: math.inf if t > 0.5 else -math.inf,
    ],
    ids=["nan", "nan_at_one_node", "inf", "both_infinities"],
)
def test_nan_estimate_raises_instead_of_returning(f):
    # The convergence test is false for a NaN error, so without a check the NaN came back.
    with pytest.raises(QuadratureFailure):
        adaptive_quadrature(f, 0.0, 1.0)
