"""Command-line front end.

Commands: classify, expand, polygon, factor, catalog (list | selfcheck).
Input is polynomial text in x and y, or a path to a file holding it.
Exit codes: 0 success, 1 domain errors, 2 usage errors.
"""

import json
import os
import sys
from fractions import Fraction

import click

from .curve import CurveError, factor_rational, format_poly, parse_poly
from .newton import polygon_json
from .puiseux import branch_json, display_jet, expand_to_separation
from .diagram import build_diagram, canonical_code, render_ascii, to_json as diagram_to_json
from .catalog import NotInCatalog, all_classes, classify_diagram, self_check
from .classify import ClassificationReport, classify_all, classify_point

SCHEMA_VERSION = 1


def _read_input(text: str) -> str:
    if os.path.exists(text) and os.path.isfile(text):
        with open(text) as fh:
            return fh.read().strip()
    return text


def _parse_rat(text: str) -> Fraction:
    return Fraction(text.strip())


def _parse_cap(text: str) -> Fraction:
    try:
        cap = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"bad --cap value: {exc}")
    if cap <= 0:
        raise click.UsageError("--cap must be positive")
    return cap


def _parse_point(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise click.UsageError("--point expects x,y with rational coordinates")
    try:
        return (_parse_rat(parts[0]), _parse_rat(parts[1]))
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"bad --point value: {exc}")


def _emit_json(payload: dict):
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    click.echo(json.dumps(payload, ensure_ascii=False, indent=1))


def _jet_text(b) -> str:
    parts = []
    for e, c in display_jet(b):
        cs = str(c)
        if cs == "1":
            parts.append(f"+x^({e})")
        elif cs == "-1":
            parts.append(f"-x^({e})")
        else:
            piece = cs if cs.startswith("-") else "+" + cs
            parts.append(f"{piece}*x^({e})")
    if not parts:
        return "y = 0"
    joined = " ".join(parts)
    if joined.startswith("+"):
        joined = joined[1:]
    return "y = " + joined


def _branch_line(prefix: str, b) -> str:
    tag = "real" if b.real_representable else "conjugate"
    return (f"{prefix}{_jet_text(b)}   [ramification {b.ramification}, "
            f"separates at {b.separated_at}, {tag}]")


def _print_report_ascii(r: ClassificationReport):
    click.echo(f"point ({r.point[0]}, {r.point[1]})  multiplicity {r.multiplicity}")
    if r.shear_lambda:
        click.echo(f"shear applied: (x, y) <- (x + {r.shear_lambda}*y, y)")
    click.echo(f"tangent cone: {r.tangent_cone}")
    click.echo("branches:")
    for b in r.branches:
        click.echo(_branch_line("  ", b))
    click.echo(render_ascii(r.diagram))
    click.echo(f"code: {r.code}")
    res = r.catalog_result
    if isinstance(res, NotInCatalog):
        click.echo(f"class: not in catalog ({res.reason})")
    else:
        caps = []
        if res.irreducible:
            caps.append("irreducible")
        if res.reducible:
            caps.append("reducible")
        click.echo(f"class: {res.arnold_label} [{'/'.join(caps)}-capable]")
    kind = "irreducible" if r.q_irreducible else f"{len(r.q_factors)} factors"
    click.echo(f"Q-factorization: {kind}")
    for w in r.warnings:
        click.echo(f"warning: {w}")


@click.group()
def main():
    """Exact classification of real plane curve singularities (degree <= 5 catalog)."""


@main.command("classify")
@click.argument("poly")
@click.option("--point", "point_text", default=None, help="x,y rational coordinates")
@click.option("--cap", "cap_text", default="8", help="expansion depth cap p/q")
@click.option("--format", "fmt", type=click.Choice(["ascii", "json"]), default="ascii")
@click.option(
    "--context",
    type=click.Choice(["irreducible", "reducible", "auto"]),
    default="auto",
    help="force the applicability flag used for catalog lookup",
)
def cmd_classify(poly, point_text, cap_text, fmt, context):
    """Classify the singular point(s) of a curve."""
    cap = _parse_cap(cap_text)
    try:
        f = parse_poly(_read_input(poly))
        if point_text is not None:
            reports = [classify_point(f, _parse_point(point_text), cap=cap)]
        else:
            reports = classify_all(f, cap=cap)
        if context != "auto":
            forced = context == "irreducible"
            for r in reports:
                r.catalog_result = classify_diagram(
                    r.diagram,
                    {"curve_degree": f.total_degree(), "q_irreducible": forced},
                )
                r.warnings = r.warnings + (f"context forced to {context}",)
    except click.UsageError:
        raise
    except CurveError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    if fmt == "json":
        _emit_json({"reports": [r.to_json() for r in reports]})
    else:
        if not reports:
            click.echo("no singular points")
        for k, r in enumerate(reports):
            if k:
                click.echo("")
            _print_report_ascii(r)


@main.command("expand")
@click.argument("poly")
@click.option("--cap", "cap_text", default="8", help="expansion depth cap p/q")
@click.option("--format", "fmt", type=click.Choice(["ascii", "json"]), default="ascii")
def cmd_expand(poly, cap_text, fmt):
    """Puiseux expansions at the origin, to pairwise separation."""
    cap = _parse_cap(cap_text)
    try:
        f = parse_poly(_read_input(poly))
        branches = expand_to_separation(f, cap=cap)
        diagram = build_diagram(branches)
    except click.UsageError:
        raise
    except CurveError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    if fmt == "json":
        _emit_json(
            {
                "branches": [branch_json(b) for b in branches],
                "diagram": json.loads(diagram_to_json(diagram)),
            }
        )
    else:
        for i, b in enumerate(branches, 1):
            click.echo(_branch_line(f"branch#{i}: ", b))
        click.echo(render_ascii(diagram))
        click.echo(f"code: {canonical_code(diagram)}")


@main.command("polygon")
@click.argument("poly")
@click.option("--format", "fmt", type=click.Choice(["ascii", "json"]), default="json")
def cmd_polygon(poly, fmt):
    """Newton polygon (lower convex hull) of the support."""
    try:
        f = parse_poly(_read_input(poly))
        payload = polygon_json(f)
    except CurveError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    if fmt == "json":
        _emit_json(payload)
    else:
        click.echo("vertices: " + " ".join(f"({i},{j})" for i, j in payload["vertices"]))
        for seg in payload["segments"]:
            flag = " multiple-root" if seg["multiple_root"] else ""
            click.echo(
                f"segment ({seg['from'][0]},{seg['from'][1]}) -> "
                f"({seg['to'][0]},{seg['to'][1]}) exponent {seg['exponent']}{flag}"
            )


@main.command("factor")
@click.argument("poly")
@click.option("--format", "fmt", type=click.Choice(["ascii", "json"]), default="ascii")
def cmd_factor(poly, fmt):
    """Factor into Q-irreducible factors."""
    try:
        f = parse_poly(_read_input(poly))
        fl = factor_rational(f)
    except CurveError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    if fmt == "json":
        _emit_json(
            {
                "unit": str(fl.unit),
                "factors": [[format_poly(p), m] for p, m in fl.factors],
            }
        )
    else:
        pieces = [f"({format_poly(p)})" + (f"^{m}" if m > 1 else "") for p, m in fl.factors]
        unit = "" if fl.unit == 1 else f"{fl.unit} * "
        click.echo(unit + (" * ".join(pieces) if pieces else "1"))


@main.group("catalog")
def cmd_catalog():
    """Catalog operations."""


@cmd_catalog.command("list")
@click.option("--format", "fmt", type=click.Choice(["ascii", "json"]), default="ascii")
def cmd_catalog_list(fmt):
    """Print the full catalog table."""
    classes = all_classes()
    if fmt == "json":
        _emit_json(
            {
                "classes": [
                    {
                        "id": c.id,
                        "arnold_label": c.arnold_label,
                        "irreducible": c.irreducible,
                        "reducible": c.reducible,
                        "code": c.code,
                        "representative": format_poly(c.representative),
                        "notes": c.notes,
                    }
                    for c in classes
                ]
            }
        )
    else:
        for c in classes:
            flags = ("I" if c.irreducible else "-") + ("R" if c.reducible else "-")
            click.echo(f"{c.id:3d} {c.arnold_label:10s} {flags}  {c.code}")


@cmd_catalog.command("selfcheck")
@click.option("--format", "fmt", type=click.Choice(["ascii", "json"]), default="ascii")
def cmd_catalog_selfcheck(fmt):
    """Re-run the pipeline on every stored representative."""
    report = self_check()
    if fmt == "json":
        _emit_json(report)
    else:
        click.echo(
            f"rows {report['rows']}, irreducible-flagged {report['irreducible_flagged']}, "
            f"reducible-flagged {report['reducible_flagged']}"
        )
        for fail in report["failures"]:
            click.echo(f"FAIL id={fail['id']}: {fail['error']}")
        click.echo("selfcheck: " + ("ok" if report["ok"] else "FAILED"))
    if not report["ok"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
