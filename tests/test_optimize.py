import math

import numpy as np
import pytest

from unitshapes.errors import DomainError, NotConverged
from unitshapes.optimize import (
    golden_section,
    minimize_1d,
    minimize_2d,
    nelder_mead,
    scan,
)

import oracles


# --- search primitives ------------------------------------------------------


def test_golden_section_quadratic():
    x, fx, _ = golden_section(lambda t: (t - 2.3) ** 2 + 1.0, 0.0, 5.0)
    assert x == pytest.approx(2.3, abs=1e-7)
    assert fx == pytest.approx(1.0, abs=1e-12)


def test_golden_section_budget():
    with pytest.raises(NotConverged):
        golden_section(lambda t: t * t, -1.0, 1.0, tol=1e-10, max_iter=3)


def test_nelder_mead_shifted_bowl():
    x, fx, _, converged = nelder_mead(
        lambda p: (p[0] - 1.5) ** 2 + 2.0 * (p[1] + 0.5) ** 2, (0.0, 0.0)
    )
    assert converged
    assert x[0] == pytest.approx(1.5, abs=1e-6)
    assert x[1] == pytest.approx(-0.5, abs=1e-6)
    assert fx == pytest.approx(0.0, abs=1e-10)


def test_nelder_mead_with_infinite_penalty():
    def objective(p):
        if p[0] > 1.0 or p[1] > 1.0:
            return math.inf
        return (p[0] - 2.0) ** 2 + (p[1] - 2.0) ** 2

    x, fx, _, converged = nelder_mead(objective, (0.5, 0.5), step=0.2)
    assert converged
    assert x[0] == pytest.approx(1.0, abs=1e-6)
    assert x[1] == pytest.approx(1.0, abs=1e-6)


# --- family minimization against dense-grid oracles --------------------------


def test_right_triangle_minimum():
    result = minimize_1d("right_triangle", (0.0, math.pi / 2.0))
    assert result.converged
    assert result.argmin[0] == pytest.approx(math.pi / 4.0, abs=1e-7)
    assert result.min_value == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), rel=1e-12)
    _, oracle_value = oracles.grid_min_1d(
        oracles.measure_right_triangle, 1e-4, math.pi / 2.0 - 1e-4
    )
    assert result.min_value == pytest.approx(oracle_value, abs=1e-6)


def test_rectangle_minimum():
    result = minimize_1d("rectangle", (0.01, 100.0))
    assert result.converged
    assert result.argmin[0] == pytest.approx(1.0, abs=1e-6)
    assert result.min_value == pytest.approx(4.0, rel=1e-12)
    _, oracle_value = oracles.grid_min_1d(oracles.measure_rectangle, 0.01, 100.0)
    assert result.min_value == pytest.approx(oracle_value, abs=1e-6)


def test_rhombus_minimum():
    result = minimize_1d("rhombus", (0.01, math.pi - 0.01))
    assert result.converged
    assert result.argmin[0] == pytest.approx(math.pi / 2.0, abs=1e-7)
    assert result.min_value == pytest.approx(4.0, rel=1e-12)
    _, oracle_value = oracles.grid_min_1d(oracles.measure_rhombus, 0.01, math.pi - 0.01)
    assert result.min_value == pytest.approx(oracle_value, abs=1e-6)


def test_ellipse_reports_boundary_infimum():
    result = minimize_1d("ellipse", (0.01, 0.99))
    assert not result.converged
    assert result.boundary_infimum == pytest.approx(math.pi, rel=1e-12)
    assert result.argmin[0] == pytest.approx(0.99, abs=1e-6)
    assert result.min_value >= math.pi - 1e-9
    # Oracle: vectorized Simpson on a coarse-then-zoomed grid; the measure is
    # strictly decreasing so both passes pin the bracket's upper edge.
    rs = np.linspace(0.01, 0.99, 2001)
    values = oracles.ellipse_measure_grid(rs)
    i = int(np.argmin(values))
    assert i == len(rs) - 1
    zoom = np.linspace(rs[-2], 0.99, 2001)
    zoom_values = oracles.ellipse_measure_grid(zoom)
    oracle_value = float(zoom_values.min())
    assert result.min_value == pytest.approx(oracle_value, abs=1e-6)


def test_triangle_minimum_is_equilateral():
    result = minimize_2d("triangle")
    assert result.converged
    assert result.argmin[0] == pytest.approx(1.0, abs=1e-6)
    assert result.argmin[1] == pytest.approx(1.0, abs=1e-6)
    assert result.min_value == pytest.approx(3.0 * math.sqrt(3.0), rel=1e-9)
    _, _, oracle_value = oracles.grid_min_2d(
        oracles.measure_triangle, 1e-3, 1.0, 1e-3, 1.0
    )
    assert result.min_value == pytest.approx(oracle_value, abs=1e-6)


def test_parallelogram_minimum_is_square():
    result = minimize_2d("parallelogram")
    assert result.converged
    assert result.argmin[0] == pytest.approx(math.pi / 2.0, abs=1e-6)
    assert result.argmin[1] == pytest.approx(1.0, abs=1e-6)
    assert result.min_value == pytest.approx(4.0, rel=1e-9)
    _, _, oracle_value = oracles.grid_min_2d(
        oracles.measure_parallelogram, 0.01, math.pi - 0.01, 0.05, 5.0
    )
    assert result.min_value == pytest.approx(oracle_value, abs=1e-6)


def test_stationary_seed_stays_put():
    # The equilateral corner is a stationary point; starting there must not move.
    result = minimize_2d("triangle")
    assert math.dist(result.argmin, (1.0, 1.0)) <= 1e-6


def test_min_value_is_objective_at_argmin():
    from unitshapes.catalog import FAMILIES, fundamental_measure

    searched = [cls for cls in FAMILIES if hasattr(cls, "bracket") or hasattr(cls, "seeds")]
    assert {cls.name for cls in searched} == {
        "right_triangle", "rectangle", "rhombus", "ellipse", "triangle", "parallelogram"
    }
    for cls in searched:
        minimize = minimize_1d if hasattr(cls, "bracket") else minimize_2d
        result = minimize(cls.name)
        assert result.min_value == pytest.approx(
            fundamental_measure(cls(*result.argmin)), rel=1e-10
        )


def test_minimum_values_respect_circle_floor():
    for family in ("right_triangle", "rectangle", "rhombus", "ellipse"):
        assert minimize_1d(family).min_value >= math.pi - 1e-9
    for family in ("triangle", "parallelogram"):
        assert minimize_2d(family).min_value >= math.pi - 1e-9


def test_unknown_family_rejected():
    with pytest.raises(DomainError):
        minimize_1d("moebius")
    with pytest.raises(DomainError):
        minimize_2d("rectangle")
    with pytest.raises(DomainError):
        minimize_1d("rectangle", (5.0, 5.0))


# --- scans --------------------------------------------------------------------


def test_scan_ellipse_measure_decreases_to_pi():
    result = scan("ellipse", "Pi", 0.01, 0.99, 1000)
    assert result.monotone_runs == [(0.01, 0.99, "decreasing")]
    assert result.minimum[0] == pytest.approx(0.99)
    assert result.minimum[1] > math.pi
    assert result.minimum[1] == pytest.approx(math.pi, abs=2e-4)


def test_scan_semi_minor_increasing():
    result = scan("ellipse", "a", 0.01, 0.99, 200)
    assert result.monotone_runs == [(0.01, 0.99, "increasing")]
    assert 2.0 / math.pi < result.minimum[1] < result.maximum[1] < 1.0


def test_scan_rhombus_diagonal():
    result = scan("rhombus", "h", 0.01, math.pi - 0.01, 201)
    assert len(result.monotone_runs) == 2
    assert result.maximum[1] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-4)
    lo_val, hi_val = result.endpoint_values
    assert lo_val == pytest.approx(2.0, abs=1e-2)
    assert hi_val == pytest.approx(2.0, abs=1e-2)


def test_scan_validation():
    with pytest.raises(DomainError):
        scan("ellipse", "Pi", 0.1, 0.9, 1)
    with pytest.raises(DomainError):
        scan("rectangle", "a", 0.1, 0.9, 10)
    with pytest.raises(DomainError):
        scan("triangle", "Pi", 0.1, 0.9, 10)
    # The grid is floats, so an integer-parameter family is refused by name, not at its first point.
    with pytest.raises(DomainError, match="scan needs a one-parameter family, got 'regular-polygon'"):
        scan("regular-polygon", "Pi", 3.0, 8.0, 6)
