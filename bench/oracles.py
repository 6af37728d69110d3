"""Correctness oracles, run after the timed region.

Each classified point is reduced to a `PointResult` right after its curve is
classified, so the reports themselves need not be kept.  The oracles then
check every result against the benchmark's own exact computations:

- the point is singular: f = f_x = f_y = 0 there;
- the branch count equals the multiplicity of the translated polynomial;
- the Milnor number read from the report by Teissier's lemma,
  mu = sum over ordered pairs i != j of contact(b_i, b_j) - m + 1,
  equals ord_x Res_y(f_x, f_y) computed by sympy after a certified shear;
- the planted point is among the reported points;
- workload checks: the expected code at the planted point (sign_sweep,
  catalog_affine) and the expected catalog row (catalog_affine).
"""

import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import List, Optional, Tuple

import sympy

import polyq

_SX, _SY = sympy.symbols("x y")


@dataclass(frozen=True)
class PointResult:
    """What the benchmark keeps of one classified point."""

    point: Tuple[F, F]
    code: str
    catalog_id: Optional[int]  # None when the lookup found no row
    branches: int
    contact_sum: F  # sum over ordered pairs i != j of the contact exponents


def summarize(report, contact_exponent) -> PointResult:
    bs = report.branches
    total = sum(
        (contact_exponent(bs[i], bs[j]) for i in range(len(bs)) for j in range(len(bs)) if i != j),
        F(0),
    )
    return PointResult(
        point=tuple(report.point),
        code=report.code,
        catalog_id=getattr(report.catalog_result, "id", None),
        branches=len(bs),
        contact_sum=total,
    )


def milnor_from_report(r: PointResult) -> F:
    """Teissier's lemma with x transversal: mu = I(f, f_y) - m + 1."""
    return r.contact_sum - r.branches + 1


def _upoly_y(p: polyq.Poly) -> sympy.Poly:
    """p(0, y) as a univariate sympy Poly."""
    return sympy.Poly.from_dict(
        {(j,): sympy.Rational(c.numerator, c.denominator) for (i, j), c in p.items() if i == 0} or {(0,): 0},
        _SY, domain=sympy.QQ,
    )


def _yx_poly(p: polyq.Poly) -> sympy.Poly:
    """p as a sympy Poly with y as the main variable, x as the second."""
    return sympy.Poly.from_dict(
        {(j, i): sympy.Rational(c.numerator, c.denominator) for (i, j), c in p.items()} or {(0, 0): 0},
        _SY, _SX, domain=sympy.QQ,
    )


def _certified(h: polyq.Poly) -> bool:
    """True when ord_x Res_y(h_x, h_y) counts only the origin.

    The y-leading coefficient of h_y must be a nonzero constant, so no
    common zero escapes to infinity as x -> 0; and h_x(0, y), h_y(0, y) may
    share no root but y = 0.
    """
    hx, hy = polyq.partial(h, "x"), polyq.partial(h, "y")
    if not hy:
        return False
    top = max(j for _i, j in hy)
    if any(i > 0 for i, j in hy if j == top):
        return False
    g = _upoly_y(hx).gcd(_upoly_y(hy))
    if g.is_zero:
        return False
    return len(g.monoms()) == 1  # c * y^k


def milnor_by_resultant(p: polyq.Poly, point: Tuple[F, F], rng: random.Random) -> int:
    """mu at `point` as ord_x Res_y(f_x, f_y) after a random certified shear."""
    g = polyq.translate(p, point)
    for _ in range(64):
        a = F(rng.randint(-12, 12), rng.randint(1, 5))
        h = polyq.affine(g, ((1, a), (0, 1)), (F(0), F(0)))  # h(x, y) = g(x + a*y, y)
        if not _certified(h):
            continue
        fx, fy = _yx_poly(polyq.partial(h, "x")), _yx_poly(polyq.partial(h, "y"))
        res = fx.resultant(fy)
        if res.is_zero:
            # f_x, f_y share a curve; it misses the origin on a square-free
            # curve singular there, so dividing it out keeps the local count
            common = fx.gcd(fy)
            if common.eval({_SY: 0, _SX: 0}) == 0:
                raise ValueError("f_x and f_y share a component through the point")
            res = fx.quo(common).resultant(fy.quo(common))
        return min(m[0] for m in res.monoms())
    raise ValueError("no certified shear found")


def check_points(case, results: List[PointResult], rng: random.Random) -> List[str]:
    """Every problem found on the points reported for one curve."""
    problems = []
    p = case.poly
    px, py = polyq.partial(p, "x"), polyq.partial(p, "y")
    for r in results:
        x0, y0 = r.point
        if polyq.evaluate(p, x0, y0) or polyq.evaluate(px, x0, y0) or polyq.evaluate(py, x0, y0):
            problems.append(f"{r.point} is not a singular point")
            continue
        m = polyq.order_at_origin(polyq.translate(p, r.point))
        if r.branches != m:
            problems.append(f"{r.point}: {r.branches} branches, multiplicity {m}")
        mu_report = milnor_from_report(r)
        mu_res = milnor_by_resultant(p, r.point, rng)
        if mu_report != mu_res:
            problems.append(f"{r.point}: mu {mu_report} from the report, {mu_res} by resultant")
    return problems


def check_planted(case, results: List[PointResult]) -> Tuple[List[str], bool]:
    """(problems, lookup_failed) at the planted point.

    A catalog_affine curve whose planted point found no catalog row at all
    is a failed operation rather than a wrong answer; a different row, or a
    code other than the expected one, is a wrong answer.
    """
    at = [r for r in results if r.point == case.planted]
    if not at:
        return [f"planted point {case.planted} not reported"], False
    r = at[0]
    problems = []
    if case.expect_code is not None and r.code != case.expect_code:
        problems.append(f"{case.label}: code {r.code}, expected {case.expect_code}")
    lookup_failed = False
    if case.expect_id is not None:
        if r.catalog_id is None:
            lookup_failed = True
        elif r.catalog_id != case.expect_id:
            problems.append(f"{case.label}: matched row {r.catalog_id}, expected {case.expect_id}")
    return problems, lookup_failed
