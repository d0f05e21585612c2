"""Command-line front end: catalog tables, unitization, minimization, scans,
verification suites and the solids table, with pretty/json/csv output.

Exit codes: 0 on success, 1 when a verification suite reports a failure,
2 on usage or domain errors, reported as one ``error: ...`` line on stderr,
and 141 (128 + SIGPIPE, as a shell reports a process that SIGPIPE ended) when
the reader of stdout has closed it before the output is written, as in
``unit-shapes catalog | true``; then no traceback is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import catalog, optimize, solids, verify
from .catalog import build_unit_shape, family_named, family_to_dict, fundamental_measure
from .curves import scaled, shape_from_json
from .errors import UnitShapesError
from .unitize import unitize

FORMATS = ["pretty", "json", "csv"]
# Ceilings of the flags that size an allocation: past them a call exits 2 before allocating.
# ``catalog --m`` has none, since its measure is a closed form.
MAX_SCAN_POINTS = 10**5  # scan --n
MAX_POLYGON_ORDER = 10**5  # unitize --family regular_polygon --m


class UsageError(Exception):
    """A bad command line; ``run`` reports it and returns exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise UsageError(message)

    def _parse_optional(self, arg_string: str):
        # A negative number in any float spelling ("-1e-3", "-inf") is a value, not an option.
        if arg_string.startswith("-"):
            try:
                float(arg_string)
                return None
            except ValueError:
                pass
        return super()._parse_optional(arg_string)


def _csv_text(header: list[str], rows: list[list]) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _family_param(family: str | None, theta, r, s, m, degrees: bool):
    """The member of ``family`` the parameter flags give, or None without --family, where
    those flags mean nothing: then any that were given are named."""
    given = {"theta": theta, "r": r, "s": s, "m": m}
    if family is None:
        named = [f"--{flag}" for flag, value in given.items() if value is not None]
        if degrees:
            named.append("--degrees")
        if named:
            raise UsageError(f"family parameters need --family, got {', '.join(named)}")
        return None
    cls = family_named(family)
    if theta is not None and degrees:
        given["theta"] = math.radians(theta)
    for flag, value in given.items():
        if value is None and flag in cls._fields:
            raise UsageError(f"family {family!r} needs parameter --{flag}")
        if value is not None and flag not in cls._fields:
            raise UsageError(f"family {family!r} takes no --{flag}")
    if degrees and "theta" not in cls._fields:
        raise UsageError(f"family {family!r} takes no --degrees")
    return cls(**{name: given[name] for name in cls._fields})


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    # Not errors.require_finite: argparse prints any ValueError from a type function, a
    # DomainError too, as "invalid _tolerance value: 'nan'" and drops its message.
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


def _existing_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise argparse.ArgumentTypeError(f"path {path!r} does not exist") from None
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot read {path!r}: {exc.strerror}") from None


def _param_options(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--theta", type=float, help="Angle parameter (radians unless --degrees).")
    cmd.add_argument("--r", type=float, help="Ratio parameter.")
    cmd.add_argument("--s", type=float, help="Second ratio parameter (triangles).")
    cmd.add_argument("--m", type=int, help="Polygon order (regular polygons).")
    cmd.add_argument("--degrees", action="store_true", help="Interpret --theta in degrees.")


def catalog_cmd(family, theta, r, s, m, degrees, fmt):
    """Fundamental measures of catalog families."""
    param = _family_param(family, theta, r, s, m, degrees)
    entries = [param] if param is not None else [
        cls(*row) for cls in catalog.FAMILIES for row in cls.table]
    rows = [(family_to_dict(p), fundamental_measure(p)) for p in entries]
    if fmt == "json":
        for d, measure in rows:
            print(json.dumps({**d, "Pi": measure}))
    elif fmt == "csv":
        print(
            _csv_text(
                ["family", "params", "Pi"],
                [[d.pop("family"), json.dumps(d), repr(measure)] for d, measure in rows],
            )
        )
    else:
        for d, measure in rows:
            family = d.pop("family")
            params = ", ".join(f"{k}={v:g}" for k, v in d.items())
            print(f"{family:<16} {params:<24} Pi = {measure:.12g}")


def unitize_cmd(family, theta, r, s, m, degrees, scale, input_text, fmt):
    """Canonicalize a shape so its area equals its semiperimeter."""
    if family is not None and input_text is not None:
        raise UsageError("give --family or --input, not both")
    param = _family_param(family, theta, r, s, m, degrees)
    if param is not None:
        if m is not None and m > MAX_POLYGON_ORDER:
            raise UsageError(f"--m is at most {MAX_POLYGON_ORDER} for unitize, got {m}")
        shape = build_unit_shape(param)
        if scale not in (None, 1.0):
            shape = scaled(shape, scale)
    else:
        if scale is not None:
            raise UsageError("--scale applies only to a shape built with --family")
        if input_text is None:
            try:
                input_text = sys.stdin.read() if not sys.stdin.isatty() else ""
            except OSError:
                input_text = ""
            if not input_text.strip():
                raise UsageError("provide --family, --input, or a shape JSON document on stdin")
        shape = shape_from_json(input_text)
    result = unitize(shape)
    if fmt == "csv":
        print(
            _csv_text(
                ["tong_inradius_reciprocal", "fundamental_measure"],
                [[repr(result.tong_inradius_reciprocal), repr(result.fundamental_measure)]],
            )
        )
    elif fmt == "pretty":
        print(f"scale to unit      : {result.tong_inradius_reciprocal:.12g}")
        print(f"fundamental measure: {result.fundamental_measure:.12g}")
    else:
        print(json.dumps(result.to_dict()))


def minimize_cmd(family, lo, hi, tol, fmt):
    """Minimize a family's fundamental measure over its parameters."""
    tol_arg = {} if tol is None else {"tol": tol}
    if (lo is None) != (hi is None):
        raise UsageError("--lo and --hi set the bracket together; give both or neither")
    family = catalog.family_key(family)  # the optimizers' errors echo the name they are given
    if hasattr(catalog.FAMILY_BY_NAME.get(family), "seeds"):
        if lo is not None:
            raise UsageError(f"--lo/--hi bracket one-parameter families; {family!r} has two")
        result = optimize.minimize_2d(family, **tol_arg)
    else:
        bracket = None if lo is None else (lo, hi)
        result = optimize.minimize_1d(family, bracket, **tol_arg)
    if fmt == "csv":
        print(
            _csv_text(
                ["argmin", "min_value", "converged"],
                [[json.dumps(list(result.argmin)), repr(result.min_value), result.converged]],
            )
        )
    elif fmt == "pretty":
        args = ", ".join(f"{x:.10g}" for x in result.argmin)
        print(f"argmin    : ({args})")
        print(f"min value : {result.min_value:.12g}")
        print(f"converged : {result.converged}")
        if result.boundary_infimum is not None:
            print(f"boundary infimum : {result.boundary_infimum:.12g}")
    else:
        print(json.dumps(result.to_dict()))


def scan_cmd(family, quantity, lo, hi, n, fmt):
    """Grid-evaluate a family quantity; report monotone runs and extrema."""
    if n > MAX_SCAN_POINTS:
        raise UsageError(f"--n is at most {MAX_SCAN_POINTS}, got {n}")
    result = optimize.scan(family, quantity, lo, hi, n)
    if fmt == "csv":
        rows = zip(result.params, result.values)
        print(_csv_text(["param", "value"], [[repr(p), repr(v)] for p, v in rows]))
    elif fmt == "json":
        print(
            json.dumps(
                {
                    "family": result.family,
                    "quantity": result.quantity,
                    "monotone_runs": result.monotone_runs,
                    "minimum": result.minimum,
                    "maximum": result.maximum,
                    "endpoints": (result.values[0], result.values[-1]),
                }
            )
        )
    else:
        print(f"{result.quantity} over [{lo:g}, {hi:g}] ({n} points)")
        for a, b, direction in result.monotone_runs:
            print(f"  {direction:<10} on [{a:.6g}, {b:.6g}]")
        print(f"  minimum {result.minimum[1]:.10g} at {result.minimum[0]:.10g}")
        print(f"  maximum {result.maximum[1]:.10g} at {result.maximum[0]:.10g}")


def verify_cmd(suite, seed, tol, fmt):
    """Run a verification suite; exit 1 if any claim fails."""
    reports = verify.run_suite(suite, seed=seed, tol=tol)
    failed = False
    for report in reports:
        failed = failed or not report.passed
        if fmt == "json":
            print(report.to_json_line())
        else:
            status = "pass" if report.passed else "FAIL"
            print(
                f"{status}  {report.claim:<32} instances={report.instances_tested}"
                f" worst_slack={report.worst_slack:.3e}"
            )
    return 1 if failed else 0


def solids_cmd(fmt):
    """The five unit Platonic solids and their fundamental measures."""
    rows = solids.solids_table()
    if fmt == "csv":
        print(
            _csv_text(
                ["solid", "fundamental_measure"],
                [[row["solid"], repr(row["fundamental_measure"])] for row in rows],
            )
        )
    elif fmt == "json":
        for row in rows:
            print(json.dumps(row))
    else:
        for row in rows:
            print(
                f"{row['solid']:<13} measure = {row['fundamental_measure']:.12g}"
                f"  ({row['expression']})"
            )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="unit-shapes", allow_abbrev=False,
                     description="Unit-shape toolkit: canonicalize, measure, minimize and verify.")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name: str, handler):
        doc = handler.__doc__
        cmd = commands.add_parser(name, help=doc, description=doc, allow_abbrev=False)
        cmd.set_defaults(handler=handler)
        return cmd

    cmd = command("catalog", catalog_cmd)
    cmd.add_argument("--family", help="Family name; omit for the standard table.")
    _param_options(cmd)
    cmd.add_argument("--format", dest="fmt", choices=FORMATS, default="pretty")

    cmd = command("unitize", unitize_cmd)
    cmd.add_argument("--family", help="Build the family's unit shape, then unitize.")
    _param_options(cmd)
    cmd.add_argument("--scale", type=float, help="Pre-scale applied to the built shape.")
    cmd.add_argument("--input", dest="input_text", type=_existing_file, metavar="PATH",
                     help="Read a shape JSON document instead of building one.")
    cmd.add_argument("--format", dest="fmt", choices=FORMATS, default="json")

    cmd = command("minimize", minimize_cmd)
    cmd.add_argument("--family", required=True)
    cmd.add_argument("--lo", type=float, help="Bracket low end (one-parameter families; needs --hi).")
    cmd.add_argument("--hi", type=float, help="Bracket high end (one-parameter families; needs --lo).")
    cmd.add_argument("--tol", type=_tolerance, help="Parameter tolerance override.")
    cmd.add_argument("--format", dest="fmt", choices=FORMATS, default="json")

    cmd = command("scan", scan_cmd)
    cmd.add_argument("--family", required=True)
    cmd.add_argument("--quantity", choices=list(optimize.SCAN_QUANTITIES), default="Pi")
    cmd.add_argument("--lo", type=float, required=True)
    cmd.add_argument("--hi", type=float, required=True)
    cmd.add_argument("--n", type=int, default=200)
    cmd.add_argument("--format", dest="fmt", choices=FORMATS, default="csv")

    cmd = command("verify", verify_cmd)
    cmd.add_argument("--suite", choices=sorted(verify.SUITES) + ["all"], default="all")
    cmd.add_argument("--seed", type=int, default=0, help="RNG seed for sampled checks.")
    cmd.add_argument("--tol", type=_tolerance,
                     help="Replace every check's own tolerance: relative to S^2 in the "
                          "isoperimetric and m-gon checks, absolute in the unit floor and the "
                          "rational circle, relative to the c-area in blob Pythagoras (so a "
                          "larger value can add failures there) and relative elsewhere.")
    cmd.add_argument("--format", dest="fmt", choices=["pretty", "json"], default="json")

    cmd = command("solids", solids_cmd)
    cmd.add_argument("--format", dest="fmt", choices=FORMATS, default="pretty")
    return parser


def run(argv: list[str] | None = None) -> int:
    """Programmatic entry point returning the process exit code."""
    try:
        args = vars(_build_parser().parse_args(argv))
        del args["command"]
        return args.pop("handler")(**args) or 0
    except SystemExit as exc:  # --help prints its text, then exits 0
        return exc.code or 0
    except (UsageError, UnitShapesError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # Python's exit flush would fail on the closed pipe again, so stdout goes to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry()
