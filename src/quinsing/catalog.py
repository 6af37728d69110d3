"""Catalog of real quintic singular-point types, keyed by canonical diagram code.

The table ships as package data (data/catalog.json): 60 physical rows, each
flagged for whether the type occurs on irreducible quintics, on reducible
ones, or both (42 irreducible-capable and 49 reducible-capable in total).
Lookup is an exact string match on the canonical code plus the applicability
flag selected by the caller's context.
"""

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
import json
from typing import Dict, Optional, Tuple

from .curve import BiPoly, parse_poly, factor_rational
from .diagram import Diagram, build_diagram, canonical_code
from .puiseux import expand_to_separation


@dataclass(frozen=True)
class SingularityClass:
    id: int
    arnold_label: str
    irreducible: bool
    reducible: bool
    code: str
    representative: BiPoly
    notes: str


@dataclass(frozen=True)
class NotInCatalog:
    """Lookup miss; a value, not an error."""

    code: str
    reason: str


_CLASSES: Optional[Tuple[SingularityClass, ...]] = None
_BY_CODE: Dict[str, SingularityClass] = {}


def _load() -> Tuple[SingularityClass, ...]:
    global _CLASSES
    if _CLASSES is None:
        raw = json.loads(
            resources.files("quinsing").joinpath("data/catalog.json").read_text()
        )
        if raw.get("schema_version") != 1:
            raise ValueError("unsupported catalog schema version")
        rows = []
        for r in raw["classes"]:
            rows.append(
                SingularityClass(
                    id=int(r["id"]),
                    arnold_label=r["arnold_label"],
                    irreducible=bool(r["irreducible"]),
                    reducible=bool(r["reducible"]),
                    code=r["code"],
                    representative=parse_poly(r["representative"]),
                    notes=r["notes"],
                )
            )
        rows.sort(key=lambda c: c.id)
        _CLASSES = tuple(rows)
        _BY_CODE.clear()
        for c in _CLASSES:
            if c.code in _BY_CODE:
                raise ValueError("duplicate canonical code in catalog data")
            _BY_CODE[c.code] = c
    return _CLASSES


def all_classes() -> Tuple[SingularityClass, ...]:
    return _load()


def classify_diagram(d: Diagram, context: dict):
    """Exact-code lookup guarded by the caller's context.

    context: {"curve_degree": int, "q_irreducible": bool}.  Degree above 5 is
    outside the tables; within degree 5 the matching row must carry the
    applicability flag selected by q_irreducible, which means irreducible
    over R, as the paper's flags do.  For a quintic, classify_point sets it
    iff the curve has one Q-factor and the point is not 5-fold.  Below
    degree 5 one Q-factor does not settle it (y^2 - 2*x^4 is two real
    parabolas), and the caller's flag is used as given.
    """
    _load()
    code = canonical_code(d)
    degree = int(context["curve_degree"])
    if degree > 5:
        return NotInCatalog(code, f"degree {degree} curve; the tables stop at degree 5")
    row = _BY_CODE.get(code)
    if row is None:
        return NotInCatalog(code, "code not realized by any quintic singular point")
    if context["q_irreducible"] and not row.irreducible:
        return NotInCatalog(
            code, f"code matches {row.arnold_label} but only on reducible quintics"
        )
    if not context["q_irreducible"] and not row.reducible:
        return NotInCatalog(
            code, f"code matches {row.arnold_label} but only on irreducible quintics"
        )
    return row


def self_check(cap: Fraction = Fraction(8)) -> dict:
    """Re-run the pipeline on every stored representative.

    Checks per row: pipeline code equals the stored code, the representative
    is square-free, and its rational factor count matches the stored flags
    (single-flag rows must witness their flag; dual-flag rows store the
    irreducible instance).  The representative has degree at most 5, and
    the lookup of its diagram, with its degree and factor count, returns the
    row itself.  Also checks global counts, pairwise code
    distinctness, and that the two multiplicity-4 pair-of-pairs types (real
    pairs vs conjugate pairs at 3/2) are distinct rows.
    """
    failures = []
    classes = _load()
    for c in classes:
        try:
            diagram = build_diagram(expand_to_separation(c.representative, cap=cap))
        except Exception as exc:  # report, keep going
            failures.append({"id": c.id, "error": f"pipeline: {exc}"})
            continue
        got = canonical_code(diagram)
        if got != c.code:
            failures.append({"id": c.id, "error": f"code {got} != stored {c.code}"})
        factors = factor_rational(c.representative).factors
        if any(m > 1 for _, m in factors):
            failures.append({"id": c.id, "error": "representative not square-free"})
        nfac = len(factors)
        if c.irreducible and nfac != 1:
            failures.append({"id": c.id, "error": "irreducible-flagged rep factors over Q"})
        if c.reducible and not c.irreducible and nfac < 2:
            failures.append({"id": c.id, "error": "reducible-only rep is Q-irreducible"})
        degree = c.representative.total_degree()
        if degree > 5:
            failures.append({"id": c.id, "error": f"representative has degree {degree} > 5"})
        found = classify_diagram(diagram, {"curve_degree": degree, "q_irreducible": nfac == 1})
        if found != c:
            failures.append({"id": c.id, "error": f"lookup of the representative gives {found}"})

    codes = [c.code for c in classes]
    n_irr = sum(1 for c in classes if c.irreducible)
    n_red = sum(1 for c in classes if c.reducible)
    if len(set(codes)) != len(codes):
        failures.append({"id": None, "error": "canonical codes not pairwise distinct"})
    if n_irr != 42:
        failures.append({"id": None, "error": f"irreducible-flagged count {n_irr} != 42"})
    if n_red != 49:
        failures.append({"id": None, "error": f"reducible-flagged count {n_red} != 49"})
    if len(set(c.id for c in classes)) != len(classes):
        failures.append({"id": None, "error": "class ids not unique"})

    split = [c for c in classes if c.arnold_label in ("Y1_1,1", "Y1*_1,1")]
    if len(split) != 2 or split[0].code == split[1].code:
        failures.append({"id": None, "error": "pair-of-pairs split classes not distinct"})

    return {
        "rows": len(classes),
        "irreducible_flagged": n_irr,
        "reducible_flagged": n_red,
        "failures": failures,
        "ok": not failures,
    }
