"""Command-line front end: catalog tables, unitization, minimization, scans,
verification suites and the solids table, with pretty/json/csv output.

Exit codes: 0 on success, 1 when a verification suite reports a failure,
2 on usage or domain errors.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys

import click

from . import catalog, optimize, solids, verify
from .catalog import build_unit_shape, family_from_dict, family_to_dict, fundamental_measure
from .curves import scaled, shape_from_json
from .errors import UnitShapesError
from .unitize import unitize

FORMATS = click.Choice(["pretty", "json", "csv"])


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _family_param(family: str, theta, r, s, m, degrees: bool):
    d: dict = {"family": family.replace("-", "_")}
    if theta is not None:
        d["theta"] = math.radians(theta) if degrees else theta
    if r is not None:
        d["r"] = r
    if s is not None:
        d["s"] = s
    if m is not None:
        d["m"] = m
    try:
        return family_from_dict(d)
    except KeyError as exc:
        raise click.UsageError(f"family {family!r} needs parameter --{exc.args[0]}")


def _tolerance(ctx, param, value: float | None) -> float | None:
    if value is not None and not (value > 0.0 and math.isfinite(value)):
        raise click.BadParameter(f"must be positive and finite, got {value}")
    return value


def _param_options(fn):
    fn = click.option("--theta", type=float, default=None,
                      help="Angle parameter (radians unless --degrees).")(fn)
    fn = click.option("--r", type=float, default=None, help="Ratio parameter.")(fn)
    fn = click.option("--s", type=float, default=None,
                      help="Second ratio parameter (triangles).")(fn)
    fn = click.option("--m", type=int, default=None, help="Polygon order (regular polygons).")(fn)
    fn = click.option("--degrees", is_flag=True, help="Interpret --theta in degrees.")(fn)
    return fn


# Canonical parameters for the no-argument catalog table.
_TABLE_ENTRIES = [
    catalog.RightTriangle(math.pi / 4.0),
    catalog.Triangle(1.0, 1.0),
    catalog.Rectangle(1.0),
    catalog.Rhombus(math.pi / 2.0),
    catalog.Parallelogram(math.pi / 2.0, 1.0),
    catalog.Ellipse(0.5),
] + [catalog.RegularPolygon(m) for m in range(3, 13)]


@click.group()
def main() -> None:
    """Unit-shape toolkit: canonicalize, measure, minimize and verify."""


@main.command(name="catalog")
@click.option("--family", default=None, help="Family name; omit for the standard table.")
@_param_options
@click.option("--format", "fmt", type=FORMATS, default="pretty")
def catalog_cmd(family, theta, r, s, m, degrees, fmt):
    """Fundamental measures of catalog families."""
    if family is None:
        entries = _TABLE_ENTRIES
    else:
        entries = [_family_param(family, theta, r, s, m, degrees)]
    rows = []
    for p in entries:
        d = family_to_dict(p)
        name = d.pop("family")
        rows.append({"family": name, "params": d, "Pi": fundamental_measure(p)})
    if fmt == "json":
        for row in rows:
            click.echo(json.dumps({"family": row["family"], **row["params"], "Pi": row["Pi"]}))
    elif fmt == "csv":
        click.echo(
            _csv_text(
                ["family", "params", "Pi"],
                [[row["family"], json.dumps(row["params"]), repr(row["Pi"])] for row in rows],
            )
        )
    else:
        for row in rows:
            params = ", ".join(f"{k}={v:g}" for k, v in row["params"].items())
            click.echo(f"{row['family']:<16} {params:<24} Pi = {row['Pi']:.12g}")


@main.command(name="unitize")
@click.option("--family", default=None, help="Build the family's unit shape, then unitize.")
@_param_options
@click.option("--scale", type=float, default=1.0, help="Pre-scale applied to the built shape.")
@click.option("--input", "input_path", type=click.Path(exists=True), default=None,
              help="Read a shape JSON document instead of building one.")
@click.option("--format", "fmt", type=FORMATS, default="json")
def unitize_cmd(family, theta, r, s, m, degrees, scale, input_path, fmt):
    """Canonicalize a shape so its area equals its semiperimeter."""
    if input_path is not None:
        with open(input_path, "r", encoding="utf-8") as fh:
            shape = shape_from_json(fh.read())
    elif family is not None:
        shape = build_unit_shape(_family_param(family, theta, r, s, m, degrees))
        if scale != 1.0:
            shape = scaled(shape, scale)
    else:
        try:
            text = sys.stdin.read() if not sys.stdin.isatty() else ""
        except OSError:
            text = ""
        if not text.strip():
            raise click.UsageError("provide --family, --input, or a shape JSON document on stdin")
        shape = shape_from_json(text)
    result = unitize(shape)
    if fmt == "csv":
        click.echo(
            _csv_text(
                ["tong_inradius_reciprocal", "fundamental_measure"],
                [[repr(result.tong_inradius_reciprocal), repr(result.fundamental_measure)]],
            )
        )
    elif fmt == "pretty":
        click.echo(f"scale to unit      : {result.tong_inradius_reciprocal:.12g}")
        click.echo(f"fundamental measure: {result.fundamental_measure:.12g}")
    else:
        click.echo(json.dumps(result.to_dict()))


@main.command(name="minimize")
@click.option("--family", required=True)
@click.option("--lo", type=float, default=None,
              help="Bracket low end (one-parameter families; needs --hi).")
@click.option("--hi", type=float, default=None,
              help="Bracket high end (one-parameter families; needs --lo).")
@click.option("--tol", type=float, default=None, callback=_tolerance,
              help="Parameter tolerance override.")
@click.option("--format", "fmt", type=FORMATS, default="json")
def minimize_cmd(family, lo, hi, tol, fmt):
    """Minimize a family's fundamental measure over its parameters."""
    name = family.replace("-", "_")
    tol_arg = {} if tol is None else {"tol": tol}
    if (lo is None) != (hi is None):
        raise click.UsageError("--lo and --hi set the bracket together; give both or neither")
    if name in optimize.FAMILIES_2D:
        if lo is not None:
            raise click.UsageError(f"--lo/--hi bracket one-parameter families; {family!r} has two")
        result = optimize.minimize_2d(name, **tol_arg)
    else:
        bracket = None if lo is None else (lo, hi)
        result = optimize.minimize_1d(name, bracket, **tol_arg)
    if fmt == "csv":
        click.echo(
            _csv_text(
                ["argmin", "min_value", "converged"],
                [[json.dumps(list(result.argmin)), repr(result.min_value), result.converged]],
            )
        )
    elif fmt == "pretty":
        args = ", ".join(f"{x:.10g}" for x in result.argmin)
        click.echo(f"argmin    : ({args})")
        click.echo(f"min value : {result.min_value:.12g}")
        click.echo(f"converged : {result.converged}")
        if result.boundary_infimum is not None:
            click.echo(f"boundary infimum : {result.boundary_infimum:.12g}")
    else:
        click.echo(json.dumps(result.to_dict()))


@main.command(name="scan")
@click.option("--family", required=True)
@click.option("--quantity", type=click.Choice(list(optimize.SCAN_QUANTITIES)), default="Pi")
@click.option("--lo", type=float, required=True)
@click.option("--hi", type=float, required=True)
@click.option("--n", type=int, default=200)
@click.option("--format", "fmt", type=FORMATS, default="csv")
def scan_cmd(family, quantity, lo, hi, n, fmt):
    """Grid-evaluate a family quantity; report monotone runs and extrema."""
    result = optimize.scan(family, quantity, lo, hi, n)
    if fmt == "csv":
        click.echo(_csv_text(["param", "value"], [[repr(p), repr(v)] for p, v in result.rows()]))
    elif fmt == "json":
        click.echo(
            json.dumps(
                {
                    "family": result.family,
                    "quantity": result.quantity,
                    "monotone_runs": [list(run) for run in result.monotone_runs],
                    "minimum": list(result.minimum),
                    "maximum": list(result.maximum),
                    "endpoints": list(result.endpoint_values),
                }
            )
        )
    else:
        click.echo(f"{result.quantity} over [{lo:g}, {hi:g}] ({n} points)")
        for a, b, direction in result.monotone_runs:
            click.echo(f"  {direction:<10} on [{a:.6g}, {b:.6g}]")
        click.echo(f"  minimum {result.minimum[1]:.10g} at {result.minimum[0]:.10g}")
        click.echo(f"  maximum {result.maximum[1]:.10g} at {result.maximum[0]:.10g}")


@main.command(name="verify")
@click.option("--suite", default="all", type=click.Choice(sorted(verify.SUITES) + ["all"]))
@click.option("--seed", type=int, default=0, help="RNG seed for sampled checks.")
@click.option("--tol", type=float, default=None, callback=_tolerance,
              help="Tolerance override for every check.")
@click.option("--format", "fmt", type=click.Choice(["pretty", "json"]), default="json")
def verify_cmd(suite, seed, tol, fmt):
    """Run a verification suite; exit 1 if any claim fails."""
    reports = verify.run_suite(suite, seed=seed, tol=tol)
    failed = False
    for report in reports:
        failed = failed or not report.passed
        if fmt == "json":
            click.echo(report.to_json_line())
        else:
            status = "pass" if report.passed else "FAIL"
            click.echo(
                f"{status}  {report.claim:<32} instances={report.instances_tested}"
                f" worst_slack={report.worst_slack:.3e}"
            )
    if failed:
        sys.exit(1)


@main.command(name="solids")
@click.option("--format", "fmt", type=FORMATS, default="pretty")
def solids_cmd(fmt):
    """The five unit Platonic solids and their fundamental measures."""
    rows = solids.solids_table()
    if fmt == "csv":
        click.echo(
            _csv_text(
                ["solid", "fundamental_measure"],
                [[row["solid"], repr(row["fundamental_measure"])] for row in rows],
            )
        )
    elif fmt == "json":
        for row in rows:
            click.echo(json.dumps(row))
    else:
        for row in rows:
            click.echo(
                f"{row['solid']:<13} measure = {row['fundamental_measure']:.12g}"
                f"  ({row['expression']})"
            )


def run(argv: list[str] | None = None) -> int:
    """Programmatic entry point returning the process exit code."""
    try:
        main.main(args=argv, standalone_mode=False)
        return 0
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 2
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    except (UnitShapesError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2


def entry() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entry()
