"""Locate rational singular points and run the full pipeline at each one.

Orchestration only: translation, the de-verticalizing shear, the square-free
guard, expansion, diagram building, and catalog lookup all delegate to the
other modules.
"""

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .curve import (
    BiPoly,
    CurveError,
    _frac,
    factor_rational,
    format_poly,
    from_sympy,
    linear_change,
    multiplicity_at_origin,
    q_poly,
    resultant,
    tangent_cone,
    to_sympy,
    translate,
)
from .newton import polygon_json
from .puiseux import ProBranch, branch_json, expand_to_separation
from .diagram import Diagram, build_diagram, canonical_code
from .catalog import SingularityClass, classify_diagram


class ClassifyError(CurveError):
    pass


IRRATIONAL_WARNING = (
    "only rational singular points are located; irrational or complex-conjugate "
    "singular points may exist and are not reported"
)


# ---------------------------------------------------------------------------
# rational singular point location


def _rational_roots(coeffs: Sequence[Fraction]) -> List[Fraction]:
    """Rational roots of sum(coeffs[k] * t^k); input need not be normalized."""
    if not any(coeffs[1:]):
        return []  # constant or zero
    return sorted(_frac(r) for r in q_poly(coeffs).ground_roots())


def _common_zeros(g: BiPoly, h: BiPoly, others: Sequence[BiPoly], zero_resultant: str) -> set:
    """Rational common zeros of g, h and others; g must involve y.

    The x-coordinates are the rational roots of Res_y(g, h), the
    y-coordinates those of g(x0, y).  A zero resultant raises ClassifyError
    with the message `zero_resultant`.
    """
    rx = resultant(g, h, "y")
    if rx.is_zero():
        raise ClassifyError(zero_resultant)
    pts = set()
    for x0 in _rational_roots([c.coeff(0, 0) for c in rx.coeffs_in("x")]):
        for y0 in _rational_roots([c.eval_at(x0, 0) for c in g.coeffs_in("y")]):
            if all(p.eval_at(x0, y0) == 0 for p in (h, *others)):
                pts.add((x0, y0))
    return pts


def _q_factors(f: BiPoly) -> Tuple[Tuple[BiPoly, int], ...]:
    if f.total_degree() <= 8:
        return factor_rational(f).factors
    return tuple((from_sympy(base), int(mult)) for base, mult in to_sympy(f).factor_list()[1])


@functools.lru_cache(maxsize=1)
def _ensure_square_free(f: BiPoly) -> Tuple[Tuple[BiPoly, int], ...]:
    """The Q-factors of f, refusing a repeated one.

    Memoised on the last curve, so that rational_singular_points and every
    classify_point of one classify_all share a single factorization.
    """
    factors = _q_factors(f)
    if any(m > 1 for _, m in factors):
        raise ClassifyError("multiple component: curve is not square-free")
    return factors


def rational_singular_points(f: BiPoly) -> List[Tuple[Fraction, Fraction]]:
    """All rational common zeros of (f, df/dx, df/dy), via resultants.

    Points with irrational or non-real coordinates are not searched for; see
    IRRATIONAL_WARNING.
    """
    gs = [g for g, _ in _ensure_square_free(f)]
    pts = set()
    for g in gs:
        # a line is smooth, and an irreducible factor in x alone of degree >= 2
        # has no rational zeros at all
        if g.total_degree() > 1 and g.degree_in("y") > 0:
            pts |= _common_zeros(
                g, g.partial("y"), [g.partial("x")],
                "square-free factor shares a root with its y-derivative",
            )
    for g1, g2 in itertools.combinations(gs, 2):
        if g1.degree_in("y") == 0:
            g1, g2 = g2, g1
        if g1.degree_in("y") > 0:  # distinct irreducibles in x alone share no roots
            pts |= _common_zeros(g1, g2, [], "common factor between supposedly coprime factors")
    return sorted(pts)


# ---------------------------------------------------------------------------
# per-point pipeline


@dataclass
class ClassificationReport:
    input: str
    point: Tuple[Fraction, Fraction]
    shift: Tuple[Fraction, Fraction]
    shear_lambda: int  # 0 when no shear was needed
    multiplicity: int
    tangent_cone: str
    newton_polygon: dict
    branches: Tuple[ProBranch, ...]
    diagram: Diagram
    code: str
    catalog_result: object  # SingularityClass or NotInCatalog
    q_factors: Tuple[Tuple[str, int], ...]
    q_irreducible: bool
    cap: Fraction
    warnings: Tuple[str, ...] = ()

    @property
    def shear_matrix(self) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        return ((1, self.shear_lambda), (0, 1))

    def to_json(self) -> dict:
        if isinstance(self.catalog_result, SingularityClass):
            cat = {
                "matched": True,
                "id": self.catalog_result.id,
                "arnold_label": self.catalog_result.arnold_label,
                "irreducible": self.catalog_result.irreducible,
                "reducible": self.catalog_result.reducible,
            }
        else:
            cat = {
                "matched": False,
                "code": self.catalog_result.code,
                "reason": self.catalog_result.reason,
            }
        return {
            "input": self.input,
            "point": [str(self.point[0]), str(self.point[1])],
            "shift": [str(self.shift[0]), str(self.shift[1])],
            "shear_lambda": self.shear_lambda,
            "shear_matrix": [[1, self.shear_lambda], [0, 1]],
            "multiplicity": self.multiplicity,
            "tangent_cone": self.tangent_cone,
            "newton_polygon": self.newton_polygon,
            "branches": [branch_json(b) for b in self.branches],
            "code": self.code,
            "catalog": cat,
            "q_factors": [[t, m] for t, m in self.q_factors],
            "q_irreducible": self.q_irreducible,
            "cap": str(self.cap),
            "warnings": list(self.warnings),
        }


def classify_point(
    f: BiPoly, p: Tuple[Fraction, Fraction], cap: Fraction = Fraction(8)
) -> ClassificationReport:
    factors = _ensure_square_free(f)
    p = (Fraction(p[0]), Fraction(p[1]))
    g = translate(f, p)
    if g.is_zero() or g.coeff(0, 0) != 0:
        raise ClassifyError(f"point {p} is not on the curve")
    m = multiplicity_at_origin(g)
    if m < 2:
        raise ClassifyError(f"point {p} is a smooth point (multiplicity 1)")
    cone = tangent_cone(g)
    lam = 0
    if cone.coeff(0, m) == 0:
        lam = 1
        while cone.eval_at(Fraction(lam), Fraction(1)) == 0:
            lam += 1
        g = linear_change(g, [[1, lam], [0, 1]])
        cone = tangent_cone(g)
    branches = expand_to_separation(g, cap=cap)
    diagram = build_diagram(branches)
    code = canonical_code(diagram)
    q_irr = len(factors) == 1
    # the lookup's flag is over R: a Q-irreducible quintic with a rational
    # 5-fold point is a cone of five conjugate lines
    degree = f.total_degree()
    result = classify_diagram(
        diagram, {"curve_degree": degree, "q_irreducible": q_irr and not m == 5 == degree}
    )
    return ClassificationReport(
        input=format_poly(f),
        point=p,
        shift=p,
        shear_lambda=lam,
        multiplicity=m,
        tangent_cone=format_poly(cone),
        newton_polygon=polygon_json(g),
        branches=tuple(branches),
        diagram=diagram,
        code=code,
        catalog_result=result,
        q_factors=tuple((format_poly(q), mult) for q, mult in factors),
        q_irreducible=q_irr,
        cap=Fraction(cap),
    )


def classify_all(f: BiPoly, cap: Fraction = Fraction(8)) -> List[ClassificationReport]:
    """classify_point over every rational singular point, in point order."""
    reports = []
    for p in rational_singular_points(f):
        r = classify_point(f, p, cap=cap)
        r.warnings = r.warnings + (IRRATIONAL_WARNING,)
        reports.append(r)
    return reports
