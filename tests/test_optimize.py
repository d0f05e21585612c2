import math
import random
from collections import Counter

import numpy as np
import pytest

from unitshapes import catalog, optimize
from unitshapes.catalog import FAMILIES, Parallelogram, Triangle, fundamental_measure
from unitshapes.errors import DomainError, NotConverged
from unitshapes.optimize import (
    _penalized,
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


@pytest.mark.parametrize(
    "start, expected",
    [
        ((0.5, 0.5), [(0.7, 0.5), (0.5, 0.7), (0.5, 0.5)]),
        ((0.9, 0.5), [(0.9 + 0.2, 0.5), (0.9 - 0.2, 0.5), (0.9, 0.7), (0.9, 0.5)]),
        ((0.9, 0.9), [(0.9 + 0.2, 0.9), (0.9 - 0.2, 0.9), (0.9, 0.9 + 0.2), (0.9, 0.9 - 0.2),
                      (0.9, 0.9)]),
    ],
    ids=["both_forward", "x_backward", "both_backward"],
)
def test_nelder_mead_evaluates_each_start_probe_once(start, expected):
    calls = []

    def objective(p):
        calls.append(tuple(p))
        return math.inf if p[0] > 1.0 or p[1] > 1.0 else p[0] ** 2 + p[1] ** 2

    nelder_mead(objective, start, step=0.2, max_iter=0)
    assert calls == expected


def test_triangle_objective_answers_outside_probes_without_building(monkeypatch):
    objective = _penalized(Triangle)
    equilateral = fundamental_measure(Triangle(1.0, 1.0))
    built = []
    init = Triangle.__init__

    def counted(self, r, s):
        built.append((r, s))
        init(self, r, s)

    monkeypatch.setattr(Triangle, "__init__", counted)
    for outside in [(0.4, 0.5), (0.5, 0.5), (1.2, 0.9), (0.9, -0.1), (math.nan, 0.9)]:
        assert objective(outside) == math.inf
    assert built == []
    assert objective((1.0, 1.0)) == equilateral
    assert built == [(1.0, 1.0)]


# --- the two-parameter simplex against the n-dimensional one ----------------


def reference_nelder_mead(f, start, step=0.1, tol=1e-8, max_iter=1000, moves=None):
    """The n-dimensional Nelder-Mead that ``nelder_mead`` replaced, kept as its oracle.

    ``moves`` counts the step each iteration took and how the search ended.
    """
    moves = Counter() if moves is None else moves
    n = len(start)
    simplex = [tuple(start)]
    for i in range(n):
        for direction in (1.0, -1.0):
            cand = list(start)
            cand[i] += direction * step
            if math.isfinite(f(cand)):
                simplex.append(tuple(cand))
                break
        else:
            cand = list(start)
            cand[i] += step
            simplex.append(tuple(cand))
    values = [f(x) for x in simplex]

    alpha, gamma, beta, delta = 1.0, 2.0, 0.5, 0.5
    iterations = 0
    while iterations < max_iter:
        order = sorted(range(n + 1), key=lambda i: values[i])
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        diameter = max(
            math.dist(simplex[0], simplex[i]) for i in range(1, n + 1)
        )
        if diameter <= tol:
            moves["converged"] += 1
            return simplex[0], values[0], iterations, True
        iterations += 1

        centroid = tuple(
            sum(simplex[i][k] for i in range(n)) / n for k in range(n)
        )
        worst = simplex[-1]
        reflected = tuple(centroid[k] + alpha * (centroid[k] - worst[k]) for k in range(n))
        fr = f(reflected)
        if values[0] <= fr < values[-2]:
            moves["reflect"] += 1
            simplex[-1], values[-1] = reflected, fr
            continue
        if fr < values[0]:
            moves["expand"] += 1
            expanded = tuple(centroid[k] + gamma * (centroid[k] - worst[k]) for k in range(n))
            fe = f(expanded)
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
            continue
        contracted = tuple(centroid[k] + beta * (worst[k] - centroid[k]) for k in range(n))
        fc = f(contracted)
        if fc < values[-1]:
            moves["contract"] += 1
            simplex[-1], values[-1] = contracted, fc
            continue
        moves["shrink"] += 1
        best = simplex[0]
        simplex = [
            best,
            *(
                tuple(best[k] + delta * (x[k] - best[k]) for k in range(n))
                for x in simplex[1:]
            ),
        ]
        values = [values[0], *(f(x) for x in simplex[1:])]

    moves["max_iter"] += 1
    return simplex[0], values[0], iterations, False


def _seeded_objectives(seed):
    """Objectives drawn from ``seed``, each with a start, step, tolerance and budget."""
    rng = random.Random(seed)
    a, b = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
    k = rng.uniform(0.5, 20.0)
    angle = rng.uniform(0.0, math.pi)
    c, s = math.cos(angle), math.sin(angle)
    wall = rng.uniform(-1.0, 1.0)

    def bowl(p):
        return (p[0] - a) ** 2 + k * (p[1] - b) ** 2

    def valley(p):  # a long valley along a random direction, 1000 times steeper across it
        u, v = c * (p[0] - a) + s * (p[1] - b), -s * (p[0] - a) + c * (p[1] - b)
        return u * u + 1000.0 * v * v

    def walled(p):  # the minimum lies past the wall x + y = wall, so the search ends on it
        return math.inf if p[0] + p[1] > wall else (p[0] - 2.0) ** 2 + (p[1] - 2.0) ** 2

    def terraced(p):  # values on a coarse grid, so vertices tie
        return round(bowl(p), 1)

    def rosenbrock(p):
        return (1.0 - p[0]) ** 2 + 100.0 * (p[1] - p[0] * p[0]) ** 2

    start = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
    return [
        (bowl, start, 0.1, 1e-8, 1000),
        (valley, start, 0.3, 1e-9, 1000),
        (walled, (wall - 1.0, 0.0), 0.2, 1e-8, 1000),
        (walled, (wall - 0.05, -1.0), 0.1, 1e-8, 1000),  # the first probe lands past the wall
        (walled, (wall, 0.0), 0.1, 1e-8, 1000),  # both probes along y land past the wall
        (terraced, start, 0.5, 1e-6, 200),
        (rosenbrock, start, 0.1, 1e-10, rng.randrange(1, 40)),  # stopped by max_iter
        (rosenbrock, start, 0.1, 1e-10, 0),  # stopped before the first step
        # A simplex of signed zeros, which a negative tolerance keeps from converging.
        (rosenbrock, (-0.0, -0.0), 0.0, -1.0, 5),
    ]


def _traced(f):
    calls = []

    def objective(p):
        calls.append(tuple(p))
        return f(p)

    return objective, calls


def _assert_same_search(f, start, step=0.1, **kwargs):
    objective, calls = _traced(f)
    oracle_objective, oracle_calls = _traced(f)
    moves = Counter()
    result = nelder_mead(objective, start, step=step, **kwargs)
    expected = reference_nelder_mead(oracle_objective, start, step=step, moves=moves, **kwargs)
    assert repr(result) == repr(expected)
    # The oracle evaluates its probes (the backward one only where the forward one is out of
    # the domain), then the start and its two kept probes again. nelder_mead keeps each probe's
    # value, so its calls are the oracle's without those two repeats.
    x, y = start
    probes = sum(1 if math.isfinite(f(p)) else 2 for p in ((x + step, y), (x, y + step)))
    repeats = oracle_calls[probes + 1:probes + 3]
    assert len(repeats) == 2 and set(repeats) <= set(oracle_calls[:probes])
    del oracle_calls[probes + 1:probes + 3]
    assert repr(calls) == repr(oracle_calls)
    return moves


def test_nelder_mead_matches_the_n_dimensional_oracle_on_seeded_objectives():
    moves = Counter()
    for seed in range(40):
        for f, start, step, tol, max_iter in _seeded_objectives(seed):
            moves += _assert_same_search(f, start, step=step, tol=tol, max_iter=max_iter)
    assert set(moves) == {"reflect", "expand", "contract", "shrink", "converged", "max_iter"}, moves


@pytest.mark.parametrize("tol", [1e-7, 3e-8, 1e-8])
@pytest.mark.parametrize("family", [cls for cls in FAMILIES if hasattr(cls, "seeds")],
                         ids=lambda cls: cls.name)
def test_nelder_mead_matches_the_n_dimensional_oracle_on_families(family, tol):
    for seed in family.seeds:
        _assert_same_search(_penalized(family), seed, step=family.step, tol=tol)


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


def _stub_restarts(monkeypatch, runs):
    """Make nelder_mead answer the family's restart seeds, in order, with ``runs``, each a
    (value, iterations, converged), at the seed itself."""
    answers = iter(runs)

    def stub(f, start, step, tol):
        value, iterations, converged = next(answers)
        return tuple(start), value, iterations, converged

    monkeypatch.setattr(optimize, "nelder_mead", stub)


def test_minimize_2d_takes_the_first_seed_of_the_tied_best(monkeypatch):
    seeds = Parallelogram.seeds
    _stub_restarts(monkeypatch, [(5.0, 1, True), (4.0, 2, True), (4.0, 3, False), (4.5, 4, True),
                                 (4.0, 5, True)])
    result = minimize_2d("parallelogram")
    assert result.argmin == seeds[1]
    assert result.min_value == 4.0
    assert result.converged
    assert result.iterations == 1 + 2 + 3 + 4 + 5  # every run's, not the best run's


def test_minimize_2d_raises_when_no_restart_converges(monkeypatch):
    _stub_restarts(monkeypatch, [(4.0, 1000, False)] * len(Triangle.seeds))
    with pytest.raises(NotConverged, match="no Nelder-Mead restart met tolerance 1e-08"):
        minimize_2d("triangle")


def test_parallelogram_objective_is_inf_where_the_angle_is_0():
    # Parallelogram has no ``admits`` test, so the objective meets its DomainError.
    assert _penalized(Parallelogram)((0.0, 1.0)) == math.inf


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
    lo_val, hi_val = result.values[0], result.values[-1]
    assert lo_val == pytest.approx(2.0, abs=1e-2)
    assert hi_val == pytest.approx(2.0, abs=1e-2)


def test_scan_validation():
    # "Pi", then the families' own quantities in name order: the CLI's --quantity choices.
    assert optimize.SCAN_QUANTITIES == ("Pi", "a", "h")
    with pytest.raises(DomainError):
        scan("ellipse", "Pi", 0.1, 0.9, 1)
    with pytest.raises(DomainError, match="^quantity 'a' is defined for the ellipse family only$"):
        scan("rectangle", "a", 0.1, 0.9, 10)
    with pytest.raises(DomainError):
        scan("triangle", "Pi", 0.1, 0.9, 10)
    # The grid is floats, so an integer-parameter family is refused by name, not at its first point.
    with pytest.raises(DomainError, match="scan needs a one-parameter family, got 'regular-polygon'"):
        scan("regular-polygon", "Pi", 3.0, 8.0, 6)
    with pytest.raises(DomainError, match=r"unknown scan quantity 'b'; choose from \('Pi', 'a', 'h'\)"):
        scan("ellipse", "b", 0.1, 0.9, 10)
    with pytest.raises(DomainError, match="quantity 'h' is defined for the rhombus family only"):
        scan("rectangle", "h", 0.1, 0.9, 10)


def test_scan_calls_the_quantity_through_its_catalog_name(monkeypatch):
    # A wrapper bound in place of catalog.ellipse_semi_minor must see every grid point, so a
    # record that held the function itself, captured at import, fails here.
    calls = []
    original = catalog.ellipse_semi_minor

    def counting(r):
        calls.append(r)
        return original(r)

    monkeypatch.setattr(catalog, "ellipse_semi_minor", counting)
    result = scan("ellipse", "a", 0.1, 0.9, 7)
    assert calls == result.params and len(calls) == 7
    assert result.values == [original(r) for r in calls]


def test_upper_end_minimizer_without_an_infimum_reports_none():
    result = minimize_1d("rectangle", (0.01, 0.5))  # (1 + r)^2 / r falls until r = 1
    assert result.argmin[0] == pytest.approx(0.5, abs=1e-8)
    assert (result.converged, result.boundary_infimum) == (False, None)
