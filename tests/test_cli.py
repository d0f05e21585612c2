import io
import json
import math
import os
import pathlib
import subprocess
import sys
from decimal import Decimal

import pytest

from unitshapes import cli
from unitshapes.curves import shape_from_dict, shape_from_json
from unitshapes.errors import DomainError


def invoke(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_single_family_json(capsys):
    code, out, _ = invoke(capsys, "catalog", "--family", "rectangle", "--r", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"family": "rectangle", "r": 1.0, "Pi": 4.0}


def test_catalog_table_csv(capsys):
    code, out, _ = invoke(capsys, "catalog", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,params,Pi"
    assert len(lines) >= 16


def test_catalog_degrees_flag(capsys):
    code, out, _ = invoke(capsys, "catalog", "--family", "rhombus", "--theta", "90",
                          "--degrees", "--format", "json")
    assert code == 0
    assert json.loads(out)["Pi"] == pytest.approx(4.0, rel=1e-12)


def test_minimize_triangle(capsys):
    code, out, _ = invoke(capsys, "minimize", "--family", "triangle")
    assert code == 0
    doc = json.loads(out)
    assert doc["argmin"][0] == pytest.approx(1.0, abs=1e-6)
    assert doc["argmin"][1] == pytest.approx(1.0, abs=1e-6)
    assert doc["min_value"] == pytest.approx(3.0 * math.sqrt(3.0), rel=1e-9)
    assert doc["converged"] is True


def test_minimize_ellipse_boundary(capsys):
    code, out, _ = invoke(capsys, "minimize", "--family", "ellipse")
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is False
    assert doc["boundary_infimum"] == pytest.approx(math.pi, rel=1e-12)


def test_unitize_round_trip(capsys):
    code, out, _ = invoke(capsys, "unitize", "--family", "ellipse", "--r", "0.5",
                          "--scale", "3.0")
    assert code == 0
    doc = json.loads(out)
    shape = shape_from_dict(doc["unit_shape"])
    measure = doc["fundamental_measure"]
    assert shape.area() == pytest.approx(measure, rel=1e-12)
    assert shape.semiperimeter() == pytest.approx(measure, rel=1e-12)
    assert doc["tong_inradius_reciprocal"] == pytest.approx(1.0 / 3.0, rel=1e-9)


def test_unitize_from_file(tmp_path, capsys):
    from unitshapes.curves import make_circle

    path = tmp_path / "shape.json"
    path.write_text(make_circle(5.0).to_json())
    code, out, _ = invoke(capsys, "unitize", "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["fundamental_measure"] == pytest.approx(math.pi, rel=1e-9)
    assert doc["tong_inradius_reciprocal"] == pytest.approx(0.2, rel=1e-12)


def test_unitize_joins_a_half_disk_of_radius_1e8(tmp_path, capsys):
    # The arc ends 1.2e-8 from the diameter's start, 1.2e-16 of its radius.
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"pieces": [
        {"kind": "circular_arc", "center": [0, 0], "radius": 1e8, "angle_start": 0,
         "angle_end": 3.141592653589793},
        {"kind": "line_segment", "start": [-1e8, 0], "end": [1e8, 0]}]}))
    code, out, err = invoke(capsys, "unitize", "--input", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["fundamental_measure"] == 4.207416099162478  # (pi + 2)^2 / (2 pi)


def test_unitize_of_a_far_square_with_overflowing_terms_is_one_error_line(tmp_path, capsys):
    # Its four segments' area terms are -inf, inf, inf, -inf; their NaN sum once printed A=nan.
    lo, hi = 1e160 - 1e150, 1e160 + 1e150
    corners = [[lo, lo], [hi, lo], [hi, hi], [lo, hi]]
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"pieces": [
        {"kind": "line_segment", "start": a, "end": b}
        for a, b in zip(corners, corners[1:] + corners[:1])]}))
    code, out, err = invoke(capsys, "unitize", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "nan" not in err


# (3 pi/4 + sqrt(2)/2)^2 / (3 pi/4 + 1/2) to 40 digits: three quarters of the unit circle closed
# by the chord of the last quarter.
FAR_ARC_MEASURE = 3.285425663922348629275983730303651840662


@pytest.mark.parametrize("t", ["1e16", "1e100"])
def test_unitize_of_a_rational_arc_from_a_far_t_gives_its_measure(t, tmp_path, capsys):
    # The area term's quadrature lost the arc from t = 1e16 and printed 18.767629358460457; the
    # closed forms measure it at every t.
    path = tmp_path / "shape.json"
    path.write_text('{"pieces": [{"kind": "rational_point", "t_start": ' + t + ', "t_end": -1.0},'
                    ' {"kind": "line_segment", "start": [-1, 0], "end": [0, -1]}]}')
    code, out, err = invoke(capsys, "unitize", "--input", str(path), "--format", "json")
    assert (code, err) == (0, "")
    measure = json.loads(out)["fundamental_measure"]
    assert abs(measure - FAR_ARC_MEASURE) <= 1e-15 * FAR_ARC_MEASURE


def test_scan_csv(capsys):
    code, out, _ = invoke(capsys, "scan", "--family", "ellipse", "--quantity", "a",
                          "--lo", "0.1", "--hi", "0.9", "--n", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "param,value"
    assert len(lines) == 6
    first = float(lines[1].split(",")[1])
    last = float(lines[-1].split(",")[1])
    assert 2.0 / math.pi < first < last < 1.0


def test_verify_suite_exit_zero(capsys):
    code, out, _ = invoke(capsys, "verify", "--suite", "isoperimetric", "--seed", "42")
    assert code == 0
    for line in out.strip().splitlines():
        doc = json.loads(line)
        assert doc["pass"] is True


def test_solids_csv_five_rows(capsys):
    code, out, _ = invoke(capsys, "solids", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "solid,fundamental_measure"
    assert len(lines) == 6
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron"]
    cube_value = float(lines[2].split(",")[1])
    assert cube_value == pytest.approx(8.0, rel=1e-9)


def test_deterministic_output(capsys):
    _, first, _ = invoke(capsys, "verify", "--suite", "mgon", "--seed", "42")
    _, second, _ = invoke(capsys, "verify", "--suite", "mgon", "--seed", "42")
    assert first == second
    _, third, _ = invoke(capsys, "verify", "--suite", "mgon", "--seed", "43")
    assert first != third


def test_catalog_deterministic(capsys):
    _, first, _ = invoke(capsys, "catalog", "--format", "json")
    _, second, _ = invoke(capsys, "catalog", "--format", "json")
    assert first == second


def test_verify_tol_override(capsys):
    # An absurdly tight tolerance must flip sampled equality checks to failure
    # and drive the exit code to 1.
    code, out, _ = invoke(capsys, "verify", "--suite", "mgon", "--seed", "42",
                          "--tol", "1e-30")
    assert code == 1
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert any(not doc["pass"] for doc in lines)


def test_usage_error_exit_two(capsys):
    code, _, err = invoke(capsys, "catalog", "--family", "heptagram")
    assert code == 2
    assert "error" in err.lower()


def test_domain_error_exit_two(capsys):
    code, _, err = invoke(capsys, "catalog", "--family", "rectangle", "--r", "-1")
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize(
    "params, message",
    [
        (["rectangle", "--r", "inf"], "rectangle ratio must be positive and finite"),
        (["parallelogram", "--theta", "1", "--r", "inf"], "parallelogram ratio must be positive and finite"),
        (["rectangle", "--r", "1e-320"], "overflows the float range"),
        (["parallelogram", "--theta", "1e-200", "--r", "1e200"], "overflows the float range"),
        (["rhombus", "--theta", "1e-320"], "overflows the float range"),
        (["right_triangle", "--theta", "1e-320"], "overflows the float range"),
        (["parallelogram", "--theta", "1", "--r", "1e-320"], "overflows the float range"),
    ],
)
def test_catalog_infinite_or_overflowing_measure_exit_two(capsys, params, message):
    code, out, err = invoke(capsys, "catalog", "--family", *params)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("r, line", [("1e200", '"Pi": 1e+200}'), ("1e308", '"Pi": 1e+308}')])
def test_catalog_measure_past_the_square_overflow(capsys, r, line):
    code, out, err = invoke(capsys, "catalog", "--family", "rectangle", "--r", r, "--format", "json")
    assert (code, err) == (0, "")
    assert out.endswith(line + "\n")


@pytest.mark.parametrize(
    "params, shown",
    [
        (["parallelogram", "--theta", "1e-200", "--r", "1e200"],
         "parallelogram measure at Parallelogram(theta=1e-200, r=1e+200)"),
        (["rectangle", "--r", "1e308"], "unit rectangle perimeter at Rectangle(r=1e+308)"),
        (["rectangle", "--r", "1e-320"], "rectangle measure at Rectangle(r=1e-320)"),
        (["rhombus", "--theta", "1e-320"], "rhombus measure at Rhombus(theta=1e-320)"),
        (["right_triangle", "--theta", "1e-320"],
         "right_triangle measure at RightTriangle(theta=1e-320)"),
        (["parallelogram", "--theta", "1", "--r", "1e-320"],
         "parallelogram measure at Parallelogram(theta=1.0, r=1e-320)"),
    ],
)
def test_unitize_overflowing_family_names_the_parameter(capsys, params, shown):
    code, out, err = invoke(capsys, "unitize", "--family", *params)
    assert (code, out) == (2, "")
    assert err == f"error: the {shown} overflows the float range\n"


@pytest.mark.parametrize(
    "fmt, expected",
    [
        ("csv", "tong_inradius_reciprocal,fundamental_measure\n1.0,1e+200\n"),
        ("json", '{"tong_inradius_reciprocal": 1.0, "fundamental_measure": 1e+200, "unit_shape": '
                 '{"pieces": [{"kind": "polyline", "vertices": [[0.0, 0.0], [1.0, 0.0], '
                 '[1.0, 1e+200], [0.0, 1e+200], [0.0, 0.0]]}]}}\n'),
    ],
    ids=["csv", "json"],
)
def test_unitize_builds_member_whose_closed_form_overflows_in_a_square(capsys, fmt, expected):
    # (1 + r)**2 / r overflows in the square past r ~ 1.34e154, where the measure is taken as
    # (1 + r) ((1 + r) / r); the unit rectangle itself (1 by r, perimeter ~2r) is representable.
    code, out, err = invoke(capsys, "unitize", "--family", "rectangle", "--r", "1e200",
                            "--format", fmt)
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["catalog", "--family", "rectangle", "--r", "2", "--theta", "5", "--m", "9"], "theta"),
        (["unitize", "--family", "ellipse", "--r", "0.5", "--s", "3"], "s"),
        (["catalog", "--family", "regular-polygon", "--m", "5", "--r", "1"], "r"),
        (["unitize", "--family", "triangle", "--r", "0.8", "--s", "0.9", "--theta", "1"], "theta"),
    ],
)
def test_parameter_flag_the_family_does_not_take_exit_two(capsys, argv, flag):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: family {argv[2]!r} takes no --{flag}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["catalog", "--family", "rectangle", "--r", "2", "--degrees"],
        ["catalog", "--family", "regular_polygon", "--m", "5", "--degrees", "--format", "json"],
        ["unitize", "--family", "ellipse", "--r", "0.5", "--degrees"],
        ["unitize", "--family", "triangle", "--r", "0.8", "--s", "0.9", "--degrees"],
    ],
)
def test_degrees_with_a_family_that_takes_no_theta_exit_two(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: family {argv[2]!r} takes no --degrees\n")


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["catalog", "--r", "2", "--theta", "1"], "--theta, --r"),
        (["catalog", "--m", "5", "--degrees", "--format", "json"], "--m, --degrees"),
        (["unitize", "--input", "SHAPE", "--r", "2"], "--r"),
        (["unitize", "--s", "0.5"], "--s"),  # the shape comes on stdin
    ],
    ids=["catalog", "catalog_degrees", "unitize_input", "unitize_stdin"],
)
def test_family_parameter_flags_without_family_exit_two(capsys, tmp_path, monkeypatch, argv, flags):
    argv = _with_square_input(tmp_path, monkeypatch, argv)
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: family parameters need --family, got {flags}\n")


@pytest.mark.parametrize(
    "argv", [["unitize", "--input", "SHAPE", "--scale", "5"], ["unitize", "--scale", "5"]],
    ids=["input", "stdin"],
)
def test_unitize_scale_without_family_exit_two(capsys, tmp_path, monkeypatch, argv):
    argv = _with_square_input(tmp_path, monkeypatch, argv)
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (2, "", "error: --scale applies only to a shape built with --family\n")


def test_unitize_family_with_input_exit_two(capsys, tmp_path, monkeypatch):
    argv = _with_square_input(tmp_path, monkeypatch, ["unitize", "--input", "SHAPE", "--family",
                                                      "rectangle", "--r", "2"])
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (2, "", "error: give --family or --input, not both\n")


def _with_square_input(tmp_path, monkeypatch, argv):
    """argv with SHAPE naming a unit-square JSON file; the same document also waits on stdin."""
    from unitshapes.curves import make_polygon

    document = make_polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]).to_json()
    path = tmp_path / "square.json"
    path.write_text(document)
    monkeypatch.setattr(sys, "stdin", io.StringIO(document))
    return [str(path) if arg == "SHAPE" else arg for arg in argv]


def test_unitize_scale_one_is_no_scale(capsys):
    family = ["unitize", "--family", "ellipse", "--r", "0.3", "--format", "csv"]
    assert invoke(capsys, *family, "--scale", "1") == invoke(capsys, *family)


GOLDEN = pathlib.Path(__file__).parent / "golden"

# Each golden file holds the stdout of its argv; "GOLDEN/" names an input file kept beside it.
GOLDEN_RUNS = {
    # Every suite's report, the rational circle's quadrature digits among them.
    **{f"verify_{suite}_seed{seed}.jsonl": ["verify", "--suite", suite, "--seed", str(seed),
                                            "--format", "json"]
       for suite in ("mgon", "all") for seed in (0, 7, 42)},
    # --tol replaces every check's own tolerance: at 1e-6 all of seed 5 passes; at 1e-15 three
    # claims of seed 9 fail on rounding alone (GOLDEN_EXIT).
    **{f"verify_all_seed{seed}_tol{tol}.jsonl": ["verify", "--suite", "all", "--seed", str(seed),
                                                  "--tol", tol, "--format", "json"]
       for seed, tol in ((5, "1e-6"), (9, "1e-15"))},
    "catalog.json": ["catalog", "--format", "json"],
    "unitize_regular_polygon_m7.json": ["unitize", "--family", "regular_polygon", "--m", "7",
                                        "--format", "json"],
    "unitize_polyline_cw.json": ["unitize", "--input", "GOLDEN/polyline_cw.json", "--format", "json"],
    "unitize_polyline_ccw.json": ["unitize", "--input", "GOLDEN/polyline_ccw.json", "--format", "json"],
    # A half-ellipse and a parabolic cap closed by their chords, and a quarter-ellipse closed by
    # its semi-axes: partial arcs, whose lengths are closed forms.
    **{f"unitize_{name}.json": ["unitize", "--input", f"GOLDEN/{name}.json", "--format", "json"]
       for name in ("half_ellipse", "quarter_ellipse", "parabolic_cap")},
}


# The exit code of each golden run that does not exit 0: verify exits 1 when a claim fails.
GOLDEN_EXIT = {"verify_all_seed9_tol1e-15.jsonl": 1}
# The golden runs that have no file of their own, each as the file and the marker of its lines:
# the mgon suite's reports are the -gon_bound lines of the same seed's "all" run.
GOLDEN_LINES = {f"verify_mgon_seed{seed}.jsonl": (f"verify_all_seed{seed}.jsonl", "-gon_bound")
                for seed in (0, 7, 42)}


def golden_text(name: str) -> str:
    if name not in GOLDEN_LINES:
        return (GOLDEN / name).read_text()
    source, marker = GOLDEN_LINES[name]
    lines = (GOLDEN / source).read_text().splitlines(keepends=True)
    return "".join(line for line in lines if marker in line)


@pytest.mark.parametrize("name", GOLDEN_RUNS, ids=lambda name: name.split(".")[0])
def test_stdout_is_the_golden_output(capsys, name):
    argv = [arg.replace("GOLDEN/", f"{GOLDEN}/") for arg in GOLDEN_RUNS[name]]
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (GOLDEN_EXIT.get(name, 0), golden_text(name), "")


# S^2/A of each golden input to 40 digits, every piece's length and area term evaluated at 60
# digits (mpmath) from the input's own floats, with the allowed error of the printed measure.
# The clockwise polyline lies about 1e3 sizes from the origin, where the shoelace cancels.
GOLDEN_MEASURES = {
    "polyline_cw": ("3.993292589989998755890254350685523741974", "rel", 1e-11),
    "polyline_ccw": ("3.763808433938221686061252606964970971187", "ulp", 2),
    "half_ellipse": ("6.224573706537775678913492935667109306086", "ulp", 2),
    "quarter_ellipse": ("5.279305406079840731878605786493664009681", "ulp", 2),
    "parabolic_cap": ("4.608868268228530714764766464913463415243", "ulp", 2),
}


@pytest.mark.parametrize("name", GOLDEN_MEASURES)
def test_golden_unitize_measure_is_near_its_reference(name):
    reference, unit, bound = GOLDEN_MEASURES[name]
    measure = json.loads((GOLDEN / f"unitize_{name}.json").read_text())["fundamental_measure"]
    error = abs(Decimal(measure) - Decimal(reference))
    allowed = bound * math.ulp(measure) if unit == "ulp" else bound * measure
    assert error <= Decimal(allowed)


def test_unitize_does_not_recheck_the_joins_of_the_unit_shape(tmp_path, capsys):
    # A posed half-ellipse whose joins pass at its own scale; scaled by S/A, the arc's end lies
    # 1.017e-12 from the chord's start, one ulp of the coordinates there.
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"pieces": [
        {"kind": "elliptical_arc", "center": [449631.72834503104, -582473.1592047474],
         "semi_axes": [846.7535845159815, 160.40676771950282], "rotation": 3.6973146781661277,
         "t_start": -3.141592653589793, "t_end": -6.283185307179586},
        {"kind": "line_segment", "start": [448912.39444926864, -582919.8698261769],
         "end": [450351.0622407934, -582026.4485833179]}]}))
    code, out, err = invoke(capsys, "unitize", "--input", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["fundamental_measure"] == pytest.approx(14.071090462411929, rel=1e-9)


def test_unitize_unit_shape_overflow_exits_two_only_where_it_is_printed(tmp_path, capsys):
    # A 1e-10 by 1e290 sliver 1e300 up the y axis: S/A = 1e10 and the measure 1e300 are finite,
    # but the unit shape's y coordinates are about 1e310.
    path = tmp_path / "shape.json"
    path.write_text('{"pieces": [{"kind": "polyline", "vertices": [[0, 1e300], [1e-10, 1e300],'
                    ' [1e-10, 1.0000000001e300], [0, 1.0000000001e300], [0, 1e300]]}]}')
    code, out, err = invoke(capsys, "unitize", "--input", str(path), "--format", "csv")
    assert (code, err) == (0, "")
    assert out.startswith("tong_inradius_reciprocal,fundamental_measure\n")
    code, out, err = invoke(capsys, "unitize", "--input", str(path), "--format", "json")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, line",
    [
        (["scan", "--family", "rectangle", "--quantity", "Pi", "--lo", "0.1", "--hi", "2",
          "--n", str(cli.MAX_SCAN_POINTS + 1)],
         f"error: --n is at most {cli.MAX_SCAN_POINTS}, got {cli.MAX_SCAN_POINTS + 1}\n"),
        (["unitize", "--family", "regular_polygon", "--m", str(cli.MAX_POLYGON_ORDER + 1)],
         f"error: --m is at most {cli.MAX_POLYGON_ORDER} for unitize, "
         f"got {cli.MAX_POLYGON_ORDER + 1}\n"),
    ],
    ids=["scan-n", "unitize-m"],
)
def test_a_size_flag_past_its_ceiling_exits_two_with_one_line(capsys, argv, line):
    # Just past the ceiling, so a missing check costs one ceiling-sized call, not a huge one.
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (2, "", line)


def test_catalog_polygon_order_has_no_ceiling(capsys):
    code, out, _ = invoke(capsys, "catalog", "--family", "regular_polygon", "--m", "10000000000000",
                          "--format", "json")
    assert (code, json.loads(out)["Pi"]) == (0, pytest.approx(math.pi, rel=1e-15))


@pytest.mark.parametrize("r", ["1e17", "1e200"])
def test_unitize_parallelogram_far_past_the_square_builds(capsys, r):
    # The long side lies along x, so a ratio of 1e17 keeps the short side's bits.
    code, out, err = invoke(capsys, "unitize", "--family", "parallelogram", "--theta", "1",
                            "--r", r, "--format", "json")
    _, catalog_out, _ = invoke(capsys, "catalog", "--family", "parallelogram", "--theta", "1",
                               "--r", r, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["fundamental_measure"] == pytest.approx(
        json.loads(catalog_out)["Pi"], rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "pieces, shown",
    [
        ([{"kind": "elliptical_arc", "center": [1.5e308, 0], "semi_axes": [1e308, 1e308],
           "rotation": 0, "t_start": 0, "t_end": 2.0 * math.pi}], "inf, 0.0"),
        ([{"kind": "circular_arc", "center": [1.7e308, 0], "radius": 1e308,
           "angle_start": math.pi, "angle_end": 2.0 * math.pi},
          {"kind": "line_segment", "start": [0.7e308, 0], "end": [1.7e308, 0]}],
         "inf, -2.4492935982947064e+292"),
        ([{"kind": "parabolic_arc", "coefficients": [1e300, 0, 0], "x_start": -1e10, "x_end": 1e10},
          {"kind": "line_segment", "start": [1e10, 1e300], "end": [-1e10, 1e300]}], "nan, inf"),
        # The chain's start is read first, before the open join after the arc.
        ([{"kind": "circular_arc", "center": [1.7e308, 0], "radius": 1e308, "angle_start": 0,
           "angle_end": math.pi},
          {"kind": "line_segment", "start": [-1e308, 0], "end": [1e308, 0]}], "inf, 0.0"),
    ],
    ids=["ellipse-start", "circle-end", "parabola-start", "start-before-open-join"],
)
def test_unitize_non_finite_piece_end_is_the_point_error(tmp_path, capsys, pieces, shown):
    # Each end overflows though the piece's own numbers are finite: the joins raise the error a
    # Point of those coordinates raises, before any measure is taken.
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"pieces": pieces}))
    code, out, err = invoke(capsys, "unitize", "--input", str(path))
    assert (code, out, err) == (2, "", f"error: non-finite number in a point: {shown}\n")


@pytest.mark.parametrize(
    "piece, shown",
    [
        ('"circular_arc", "center": [0, 0], "radius": NaN, "angle_start": 0, "angle_end": 1',
         "a circular arc: nan, 0.0, 1.0"),
        ('"circular_arc", "center": [0, 0], "radius": 1, "angle_start": Infinity,'
         ' "angle_end": Infinity', "a circular arc: 1.0, inf, inf"),
        ('"elliptical_arc", "center": [0, 0], "semi_axes": [NaN, 1], "rotation": 0,'
         ' "t_start": 0, "t_end": 1', "an elliptical arc: nan, 1.0, 0.0, 0.0, 1.0"),
        ('"elliptical_arc", "center": [0, 0], "semi_axes": [2, 1], "rotation": -Infinity,'
         ' "t_start": 0, "t_end": 1', "an elliptical arc: 2.0, 1.0, -inf, 0.0, 1.0"),
        ('"parabolic_arc", "coefficients": [NaN, 0, 0], "x_start": -1, "x_end": 1',
         "a parabolic arc: nan, 0.0, 0.0, -1.0, 1.0"),
        ('"parabolic_arc", "coefficients": [1, 0, 0], "x_start": Infinity, "x_end": Infinity',
         "a parabolic arc: 1.0, 0.0, 0.0, inf, inf"),
        ('"rational_point", "t_start": -1, "t_end": NaN', "a rational arc: -1.0, nan"),
        ('"rational_point", "t_start": Infinity, "t_end": Infinity', "a rational arc: inf, inf"),
    ],
    ids=["circle-nan-radius", "circle-equal-infinite-ends", "ellipse-nan-axis",
         "ellipse-infinite-rotation", "parabola-nan-alpha", "parabola-equal-infinite-ends",
         "rational-nan-end", "rational-equal-infinite-ends"],
)
def test_unitize_names_a_non_finite_arc_number_in_one_line(tmp_path, capsys, piece, shown):
    # The finiteness rule runs before each arc's positivity and zero-sweep tests.
    path = tmp_path / "shape.json"
    path.write_text('{"pieces": [{"kind": %s}]}' % piece)
    code, out, err = invoke(capsys, "unitize", "--input", str(path))
    assert (code, out, err) == (
        2, "", f"error: piece 0 of the shape JSON is invalid: non-finite number in {shown}\n")


@pytest.mark.parametrize("argv, named", [
    (["minimize", "--family", "rectangle", "--lo", "0.5", "--hi", "inf"], "the bracket"),
    (["scan", "--family", "rectangle", "--lo", "0.5", "--hi", "inf", "--n", "3"], "the scan range"),
], ids=["minimize", "scan"])
def test_a_non_finite_bracket_or_range_is_named_as_typed(capsys, argv, named):
    # One line naming the numbers given, not the NaN a search would make of the infinity.
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: non-finite number in {named}: 0.5, inf\n")


def test_scan_rejects_regular_polygon_up_front(capsys):
    code, out, err = invoke(capsys, "scan", "--family", "regular_polygon", "--lo", "3", "--hi", "8",
                            "--n", "6")
    assert (code, out) == (2, "")
    assert err == "error: scan needs a one-parameter family, got 'regular_polygon'\n"


def test_missing_param_exit_two(capsys):
    code, _, err = invoke(capsys, "catalog", "--family", "rectangle")
    assert code == 2
    assert "--r" in err


def test_unitize_without_input_exit_two(capsys):
    code, _, err = invoke(capsys, "unitize")
    assert code == 2
    assert "stdin" in err


def test_pretty_formats_render(capsys):
    for argv in (
        ["catalog"],
        ["minimize", "--family", "rhombus", "--format", "pretty"],
        ["scan", "--family", "rhombus", "--quantity", "h", "--lo", "0.1", "--hi", "3.0",
         "--n", "51", "--format", "pretty"],
        ["verify", "--suite", "rational-circle", "--format", "pretty"],
        ["solids"],
    ):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        assert out.strip()


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_minimize_rejects_bad_tol(capsys, tol):
    code, out, err = invoke(capsys, "minimize", "--family", "rectangle", "--tol", tol)
    assert code == 2
    assert out == ""
    assert "--tol" in err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_verify_rejects_bad_tol(capsys, tol):
    code, out, err = invoke(capsys, "verify", "--suite", "mgon", "--tol", tol)
    assert code == 2
    assert out == ""
    assert "--tol" in err


def test_verify_names_a_tol_that_is_not_a_number(capsys):
    code, out, err = invoke(capsys, "verify", "--tol", "abc")
    assert (code, out, err) == (2, "", "error: argument --tol: invalid float value: 'abc'\n")


@pytest.mark.parametrize("bound", [["--lo", "5.0"], ["--hi", "5.0"]])
def test_minimize_rejects_half_bracket(capsys, bound):
    code, out, err = invoke(capsys, "minimize", "--family", "rectangle", *bound)
    assert code == 2
    assert out == ""
    assert "--lo and --hi" in err


def test_minimize_rejects_bracket_for_two_parameter_family(capsys):
    code, out, err = invoke(capsys, "minimize", "--family", "triangle", "--lo", "5", "--hi", "6")
    assert code == 2
    assert out == ""
    assert "one-parameter" in err


def test_minimize_bracket_is_applied(capsys):
    code, out, _ = invoke(capsys, "minimize", "--family", "rectangle", "--lo", "2", "--hi", "3")
    assert code == 0
    assert 2.0 <= json.loads(out)["argmin"][0] <= 3.0


def test_minimize_tol_is_applied(capsys):
    _, coarse, _ = invoke(capsys, "minimize", "--family", "rectangle", "--tol", "1e-3")
    _, default, _ = invoke(capsys, "minimize", "--family", "rectangle")
    assert json.loads(coarse)["iterations"] < json.loads(default)["iterations"]


def test_unitize_nan_vertex_exit_two(tmp_path, capsys):
    path = tmp_path / "shape.json"
    path.write_text('{"pieces": [{"kind": "polyline",'
                    ' "vertices": [[0, 0], [1, 0], [NaN, 1], [0, 0]]}]}')
    code, out, err = invoke(capsys, "unitize", "--input", str(path))
    assert code == 2
    assert out == ""
    assert "piece 0" in err


@pytest.mark.parametrize(
    "vertices, words",
    [
        ("[[0, 0], [1, 0, 0], [1, 1], [0, 0]]", "has a vertex that is not a pair of numbers"),
        ("[[0, 0], [1, 0], [1, 1, 2], [0]]", "has a vertex that is not a pair of numbers"),
        ("[[0, 0], 5, [1, 1], [0, 0]]", "is invalid: 'int' object is not iterable"),
        ("[[0, 0], [true, 0], [1, 1], [0, 0]]", "holds a value that is not a number"),
        ('[[0, 0], ["1", 0], [1, 1], [0, 0]]', "holds a value that is not a number"),
        ("[]", "is invalid: polyline needs 2+ (x, y) vertices, got 0 x and 0 y"),
        ("[[0, 0]]", "is invalid: polyline needs 2+ (x, y) vertices, got 1 x and 1 y"),
        ("[[0, 0], [1, 0], [1, 0], [NaN, 1], [0, 0]]",
         "is invalid: non-finite number in a polyline"),
    ],
    ids=["three_numbers", "mixed_lengths", "bare_number", "true", "string", "empty",
         "one_vertex", "nan_after_a_repeated_vertex"],
)
def test_unitize_names_a_malformed_polyline_in_one_line(tmp_path, capsys, vertices, words):
    document = '{"pieces": [{"kind": "polyline", "vertices": %s}]}' % vertices
    with pytest.raises(DomainError) as raised:
        shape_from_json(document)
    assert str(raised.value) == f"piece 0 of the shape JSON {words}"
    path = tmp_path / "shape.json"
    path.write_text(document)
    code, out, err = invoke(capsys, "unitize", "--input", str(path))
    assert (code, out, err) == (2, "", f"error: piece 0 of the shape JSON {words}\n")


def test_unitize_overflowing_shape_json_names_the_overflow(tmp_path, capsys):
    # Area and perimeter are both inf, so S/A would be NaN.
    path = tmp_path / "shape.json"
    path.write_text('{"pieces": [{"kind": "polyline",'
                    ' "vertices": [[-1e308, 0], [1e308, 0], [0, 1e308], [-1e308, 0]]}]}')
    code, out, err = invoke(capsys, "unitize", "--input", str(path))
    assert (code, out) == (2, "")
    assert "overflows the float range" in err
    assert "nan" not in err


def test_unitize_line_segments_of_infinite_length_name_the_overflow(tmp_path, capsys):
    # The second segment is inf long; its ends are its own finite points, not start + 0 * inf.
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"pieces": [
        {"kind": "line_segment", "start": [-1e308, 0], "end": [1e308, 0]},
        {"kind": "line_segment", "start": [1e308, 0], "end": [-1e308, 1]}]}))
    code, out, err = invoke(capsys, "unitize", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: the shape's area, its scale S/A to the unit shape or the measure "
                   "(S/A)*S overflows the float range: A=5e+307, S=inf\n")


@pytest.mark.parametrize(
    "vertices, raised",
    [
        # Finite edges of 1.6e308 and 0.5 whose sum passes the float range; the area is 8e307.
        ([[0, 0], [1.6e308, 0], [1.6e308, 0.5], [0, 0.5], [0, 0]], OverflowError),
        # Area terms +inf, +inf and -inf: products of 1e200 coordinates overflow either way.
        ([[1e200, 0], [1e200, 1e200], [0, 1e200], [1e200, 0]], ValueError),
    ],
    ids=["edges_sum_past_the_range", "area_terms_hold_both_infinities"],
)
def test_unitize_exits_two_where_the_correctly_rounded_sum_raises(tmp_path, capsys, vertices, raised):
    pairs = list(zip(vertices, vertices[1:]))
    edges = [math.hypot(ax - bx, ay - by) for (ax, ay), (bx, by) in pairs]
    area_terms = [ax * by - bx * ay for (ax, ay), (bx, by) in pairs]
    with pytest.raises(raised):
        math.fsum(edges if raised is OverflowError else area_terms)
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"pieces": [{"kind": "polyline", "vertices": vertices}]}))
    code, out, err = invoke(capsys, "unitize", "--input", str(path))
    assert (code, out) == (2, "")
    assert "overflows the float range" in err


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_141_without_a_traceback(unbuffered):
    # The reader is gone before the command writes, as in `unit-shapes catalog | true`. Buffered,
    # the write fails at the flush before exit; unbuffered, in the first print.
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "PYTHONUNBUFFERED": unbuffered}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "unitshapes.cli", "catalog"], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.parametrize(
    "document,message",
    [
        ('{"pieces": [{"kind": "polyline"}]}', "piece 0"),
        ('{"pieces": 5}', "pieces"),
        ("[1, 2]", "pieces"),
        ("{}", "pieces"),
        ('{"pieces": [{"kind": "line_segment", "start": [0], "end": [1, 1]}]}', "piece 0"),
        # With "false" read as true this is a closed circle, so only the type check rejects it.
        ('{"pieces": [{"kind": "rational_point", "t_start": -1, "t_end": 1,'
         ' "frame": {"reflect": "false"}}, {"kind": "rational_point", "t_start": 1, "t_end": -1}]}',
         "frame.reflect"),
    ],
)
def test_unitize_malformed_shape_json_exit_two(tmp_path, capsys, document, message):
    path = tmp_path / "shape.json"
    path.write_text(document)
    code, out, err = invoke(capsys, "unitize", "--input", str(path))
    assert code == 2
    assert out == ""
    assert message in err


def test_cli_import_loads_no_numpy_or_scipy():
    # A fresh interpreter, so modules loaded by the test session do not count; the modules it
    # holds before the import (its site hooks may load third-party ones) are the baseline.
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys; before = set(sys.modules); import unitshapes.cli;"
            " print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    loaded = proc.stdout.split()
    assert "unitshapes.cli" in loaded
    foreign = [name for name in loaded
               if name.partition(".")[0] not in sys.stdlib_module_names | {"unitshapes"}]
    assert foreign == []
    # Records are plain classes: no dataclass code generation, nor the inspect and typing it loads.
    assert not {"numpy", "scipy", "click", "csv", "dataclasses", "inspect", "typing"} & set(loaded)


@pytest.mark.parametrize(
    "argv,named",
    [
        ([], "COMMAND"),
        (["bogus"], "'bogus'"),
        (["catalog", "--format", "xml"], "--format"),
        (["catalog", "--family", "rectangle", "--r", "abc"], "--r: invalid float value: 'abc'"),
        (["minimize"], "--family"),
        (["scan", "--family", "ellipse", "--lo", "0.1"], "--hi"),
        (["catalog", "--bogus", "1"], "--bogus"),
        (["catalog", "--fam", "rectangle", "--r", "1"], "--fam"),
        (["unitize", "--input", "missing.json"], "does not exist"),
        (["verify", "--suite", "nope"], "'nope'"),
        (["verify", "--seed", "x"], "--seed"),
    ],
)
def test_usage_errors_print_one_line_and_exit_two(capsys, tmp_path, monkeypatch, argv, named):
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert named in err


def test_unitize_input_directory_exit_two(capsys, tmp_path):
    code, out, err = invoke(capsys, "unitize", "--input", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: argument --input: cannot read")


def test_negative_scientific_value_is_a_value(capsys):
    code, out, err = invoke(capsys, "catalog", "--family", "rhombus", "--theta", "-1e-3")
    assert code == 2
    assert out == ""
    assert err == "error: rhombus angle must lie in (0, pi), got -0.001\n"


def test_help_lists_every_subcommand(capsys):
    code, out, err = invoke(capsys, "--help")
    assert code == 0
    assert err == ""
    assert out.startswith("usage: unit-shapes")
    for name in ["catalog", "unitize", "minimize", "scan", "verify", "solids"]:
        assert f"\n    {name} " in out


@pytest.mark.parametrize(
    "command,options",
    [
        ("catalog", ["--family", "--theta", "--r", "--s", "--m", "--degrees", "--format"]),
        ("unitize", ["--family", "--theta", "--r", "--s", "--m", "--degrees", "--scale", "--input",
                     "--format"]),
        ("minimize", ["--family", "--lo", "--hi", "--tol", "--format"]),
        ("scan", ["--family", "--quantity", "--lo", "--hi", "--n", "--format"]),
        ("verify", ["--suite", "--seed", "--tol", "--format"]),
        ("solids", ["--format"]),
    ],
)
def test_subcommand_help_lists_every_option(capsys, command, options):
    code, out, err = invoke(capsys, command, "--help")
    assert code == 0
    assert err == ""
    assert out.startswith(f"usage: unit-shapes {command}")
    for option in options:
        assert f"\n  {option}" in out


@pytest.mark.parametrize(
    "piece",
    [
        {"kind": "line_segment", "start": [0, 0], "end": ["1", 0]},
        {"kind": "polyline", "vertices": [["0", "0"], [True, "0"], ["1", " 1 "], [False, 0]]},
        {"kind": "circular_arc", "center": [0, 0], "radius": True, "angle_start": 0,
         "angle_end": 6.283185307179586},
        {"kind": "elliptical_arc", "center": [0, 0], "semi_axes": [2, "1"], "rotation": 0,
         "t_start": 0, "t_end": 6.283185307179586},
        {"kind": "parabolic_arc", "coefficients": [-1, 0, 1], "x_start": -1, "x_end": 1,
         "frame": {"rotation_angle": False}},
        {"kind": "rational_point", "t_start": "-1", "t_end": 1},
    ],
    ids=lambda piece: piece["kind"],
)
def test_unitize_rejects_non_numbers_in_every_piece_kind(tmp_path, capsys, piece):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"pieces": [piece]}))
    code, out, err = invoke(capsys, "unitize", "--input", str(path))
    assert code == 2
    assert out == ""
    assert "piece 0" in err and "not a number" in err
