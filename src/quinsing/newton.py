"""Newton polygons at the origin and their segment polynomials.

The polygon is the lower-left hull of the support, from the y-axis
intercept down to the lowest-j vertex, vertices by increasing i.  Each
segment of inclination p/q contributes the univariate polynomial whose
roots are the leading coefficients of expansions y = c*x^(p/q) + ...
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .curve import BiPoly, CurveError
from . import algebraic
from .algebraic import RATIONAL_TOWER

Point = Tuple[int, int]


class NewtonError(CurveError):
    pass


@dataclass(frozen=True)
class Segment:
    start: Point  # higher-j end
    end: Point  # lower-j end
    exponent: Fraction  # delta_i / delta_j, in lowest terms p/q

    @property
    def p(self) -> int:
        return self.exponent.numerator

    @property
    def q(self) -> int:
        return self.exponent.denominator


@dataclass(frozen=True)
class NewtonPolygon:
    vertices: Tuple[Point, ...]
    segments: Tuple[Segment, ...]


def polygon_of_support(support: Sequence[Point]) -> NewtonPolygon:
    """Hull of an arbitrary nonzero-coefficient support set."""
    pts = sorted(set(support))
    if not pts:
        raise NewtonError("zero polynomial has no Newton polygon")
    if min(i for i, _ in pts) > 0:
        raise NewtonError("divisible by x: vertical line component at the origin")
    if len(pts) == 1 and pts[0][0] == 0 and pts[0][1] > 0:
        raise NewtonError("pure power of y: no remaining support")
    # start: lowest j on the y-axis; end: lowest j overall (leftmost on ties)
    start = min((j, i) for i, j in pts if i == 0)
    start = (start[1], start[0])
    min_j = min(j for _, j in pts)
    end = min((i, j) for i, j in pts if j == min_j)
    vertices: List[Point] = [start]
    current = start
    while current != end:
        # steepest descent: maximize delta_j / delta_i (least negative slope last)
        best = None
        for p in pts:
            if p[1] >= current[1] or p[0] <= current[0]:
                continue
            if best is None:
                best = p
                continue
            # compare slopes (j - cj)/(i - ci): pick the most negative; ties: farthest
            lhs = (p[1] - current[1]) * (best[0] - current[0])
            rhs = (best[1] - current[1]) * (p[0] - current[0])
            if lhs < rhs or (lhs == rhs and p[0] > best[0]):
                best = p
        if best is None:
            break
        vertices.append(best)
        current = best
    segments = []
    for a, b in zip(vertices, vertices[1:]):
        mu = Fraction(b[0] - a[0], a[1] - b[1])
        segments.append(Segment(start=a, end=b, exponent=mu))
    return NewtonPolygon(tuple(vertices), tuple(segments))


def newton_polygon(f: BiPoly) -> NewtonPolygon:
    if f.coeff(0, 0) != 0:
        raise NewtonError("the origin is not on the curve")
    return polygon_of_support(f.terms)


def segment_poly_coeffs(terms: Dict[Point, object], seg: Segment, zero):
    """Ascending coefficient list of the segment polynomial, degree = j-extent."""
    (i0, j0), (i1, j1) = seg.start, seg.end
    extent = j0 - j1
    out = [zero] * (extent + 1)
    for (i, j), c in terms.items():
        if j1 <= j <= j0 and (i - i0) * (j0 - j1) == (j0 - j) * (i1 - i0):
            out[j - j1] = c
    return out


def has_multiple_root(coeffs: Sequence, tower) -> bool:
    """gcd(psi, psi') nonconstant; works over Q and over towers alike."""
    p = list(coeffs)
    dp = algebraic._poly_derivative(p, tower)
    g = algebraic._poly_gcd(p, dp, tower)
    return len(g) > 1


def polygon_json(f: BiPoly) -> dict:
    poly = newton_polygon(f)
    segs = []
    for seg in poly.segments:
        coeffs = segment_poly_coeffs(f.terms, seg, Fraction(0))
        segs.append(
            {
                "from": list(seg.start),
                "to": list(seg.end),
                "exponent": str(seg.exponent),
                "multiple_root": has_multiple_root(coeffs, RATIONAL_TOWER),
            }
        )
    return {"vertices": [list(v) for v in poly.vertices], "segments": segs}
