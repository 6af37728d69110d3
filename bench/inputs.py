"""Seeded inputs for the three workloads.

Every input is made here from a `random.Random` seeded by the benchmark's
`--seed`, without calling the program: curves are built with `polyq` and
handed to the program as text.  Inputs come in rounds; a run classifies
whole rounds only, so every run sees the same mix of curve types.

- `sign_sweep`: one curve per side (discriminant > 0, < 0) of each of the
  six sign-governed split levels of the two deep families, 12 per round.
  The two sides of a level are one timing sample: the real side costs a
  third of the conjugate side, so single-curve times are bimodal.
  The formulas below restate the chains of case splits of the two deep
  tangency families, (y+x^2)^2 + tail and y^2(y-x) - x^5 + 2x^3y + tail,
  that the program's `families` module holds; the benchmark keeps its own
  copy so that its inputs stay fixed while the program changes.
- `random_located`: sparse random quintics singular at the origin, 20 per
  round in fixed strata of the tangent cone, each moved to a random
  rational point by a random affine map.
- `catalog_affine`: the 60 catalog representatives, each under a fresh
  random affine map, 60 per round.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable, List, Optional, Set, Tuple

import sympy

import polyq

WORKLOADS = ("sign_sweep", "random_located", "catalog_affine")


@dataclass(frozen=True)
class Case:
    """One operation: a curve as text, the point planted on it and what the
    workload expects there."""

    text: str
    poly: polyq.Poly
    planted: Tuple[F, F]
    expect_code: Optional[str] = None  # sign_sweep and catalog_affine
    expect_id: Optional[int] = None  # catalog_affine
    label: str = ""
    group: int = 0  # cases of one round sharing a group form one timing sample


# ---------------------------------------------------------------------------
# square-freeness, checked with sympy on a Poly built straight from the dict
# (no expression objects, so sympy's expression cache is left alone)

_SX, _SY = sympy.symbols("x y")


def _sympy_poly(p: polyq.Poly) -> sympy.Poly:
    return sympy.Poly.from_dict(
        {m: sympy.Rational(c.numerator, c.denominator) for m, c in p.items()},
        _SX, _SY, domain=sympy.QQ,
    )


def square_free(p: polyq.Poly) -> bool:
    """True when no factor of positive degree divides p twice: the gcd of
    p, p_x and p_y is a constant."""
    sp = _sympy_poly(p)
    g = sp.gcd(sp.diff(_SX)).gcd(sp.diff(_SY))
    return g.total_degree() == 0


# ---------------------------------------------------------------------------
# sign_sweep: the two deep families and their deciding quantities


def _tail(pairs) -> polyq.Poly:
    return polyq.add(*(polyq.monomial(i, j, c) for i, j, c in pairs))


def double_parabola(a, b, c, d, e, f, g, h, j, k, l, m) -> polyq.Poly:
    base = polyq.power(polyq.add(polyq.Y, polyq.monomial(2, 0)), 2)
    return polyq.add(base, _tail([
        (5, 0, a), (3, 1, b), (1, 2, c), (4, 1, d), (2, 2, e), (0, 3, f),
        (3, 2, g), (1, 3, h), (2, 3, j), (0, 4, k), (1, 4, l), (0, 5, m),
    ]))


def line_plus_double(a, b, c, d, e, f, g, h) -> polyq.Poly:
    base = _tail([(1, 2, -1), (0, 3, 1), (5, 0, -1), (3, 1, 2)])  # y^2(y-x) - x^5 + 2x^3y
    return polyq.add(base, _tail([
        (4, 1, a), (2, 2, b), (3, 2, c), (1, 3, d),
        (2, 3, e), (0, 4, f), (1, 4, g), (0, 5, h),
    ]))


def _linear_root(fun: Callable[[F], F]) -> F:
    v0 = fun(F(0))
    slope = fun(F(1)) - v0
    if slope == 0:
        raise ZeroDivisionError("quantity does not depend on the unknown")
    return -v0 / slope


def dp_split3(a, c, d, e, f):
    return a**2 - 2*a*c + c**2 - 4*e + 4*f + 4*d


def dp_case_e(a, c, d, f):
    return (a**2 - 2*a*c + c**2 + 4*f + 4*d) / 4


def dp_case_g(a, c, d, f, h):
    return a**2*c/2 - a*c**2/4 - a**3/4 + f*a/2 - f*c/2 - d*a/2 + d*c/2 + h


def dp_disc1(a, c, d, f, h, j, k):
    return (256*f**2 + 256*f*c**2 - 256*f*a**2 - 512*d*f + 256*c**2*a**2 + 256*a**4
            + 512*d*a**2 + 256*d**2 - 512*d*c*a + 1024*j - 512*h*c + 512*h*a
            - 512*a**3*c - 1024*k)


def dp_disc2(a, c, d, f, h, j, l):
    return (-4*a*d*f + 8*l + 4*d*c**2*a + 4*f*c*a**2 - 4*d*c*a**2 - 4*j*c - 4*h*c*a
            - f*c**3 + 2*c*f**2 - 2*c**3*a**2 - 2*c*d**2 + 2*a*f**2 + 2*c**2*a**3
            + 2*a*d**2 + 2*h*c**2 - 4*h*f + 4*h*d)


def dp_disc3(a, c, d, f, h, j, m):
    return (20480*c**2*a**2*d + 16384*m - 4096*f*c**3*a - 8192*f*c**2*a**2
            + 8192*h*c**2*a + 4096*f*c**2*d - 8192*h*c*d - 16384*d**2*c*a - 8192*j*c*a
            + 4096*a**2*d**2 + 4096*c**2*a**4 + 4096*h**2 + 4096*a**2*f**2 + 8192*a*d*h
            - 8192*c*a**2*h - 8192*h*a*f + 4096*d**3 - 1024*f**2*c**2 + 4096*f**2*d
            + 1024*d**2*c**2 - 8192*d**2*f - 8192*j*f + 8192*j*d + 1024*c**4*a**2
            - 8192*c**3*a**3 + 16384*f*c*a*d - 2048*d*c**3*a - 8192*a**3*d*c
            - 8192*a**2*d*f + 8192*c*a**3*f)


def dp_disc4(a, c, d, f, h, j):
    return (72*c**2*a**3*d + 8*a*f*c**2*d - 56*a*h*c*d + 24*a*h*c*f + 8*a**3*d**2
            + 8*c**2*a**5 + 8*a*h**2 + 8*a**3*f**2 + 14*c**4*a**3 - 28*c**3*a**4
            - a**2*c**5 - 12*c*h**2 - 3*f**2*c**3 - d**2*c**3 + 72*f*c*a**2*d
            - 8*f*c**3*a**2 - 40*f*c**2*a**3 + 40*h*c**2*a**2 - 60*d**2*c*a**2
            - 12*f**2*c*a**2 + 16*a**2*d*h - 16*c*a**3*h - 16*h*a**2*f - 36*d*c**3*a**2
            - 16*a**4*d*c - 16*a**3*d*f + 16*c*a**4*f - 4*f*c**3*d + 8*h*c**2*d
            + 12*h*c**2*f - 14*a*f**2*c**2 + 4*a*f*c**4 + 30*a*d**2*c**2 - 8*a*h*c**3
            + 2*a*d*c**4 - 32*a*d**2*f + 8*d*c*f**2 + 16*d*a*f**2 - 16*d*h*f - 8*c*d**3
            + 16*a*d**3 + 16*h*d**2 + 16*j*h - 16*j*a*f + 16*j*a*d - 16*j*c*a**2
            - 8*j*f*c - 8*j*d*c + 8*j*a*c**2)


def dp_disc5(a, c, d, f, h):
    return (1024*(4*a**2 - 28*c*a + c**2 + 24*d - 8*f)
            * (-2*h + 2*a*f - 2*a*d + 2*c*a**2 + f*c + d*c - a*c**2)**2)


def lpd_split3(a, c, d):
    return 1 - 2*a + a**2 + 4*d + 4*c


def lpd_case_d(a, c):
    return -(1 - 2*a + a**2 + 4*c) / 4


def lpd_case_f(a, c, e):
    return -(F(1, 8) - a/8 - a**2/8 - c/2 + a*c/2 + a**3/8 + e)


def lpd_disc1(a, c, e, g):
    return (256*c**2 - 128*c + 384*c*a**2 - 256*c*a + 80 - 32*a**2 - 64*a + 80*a**4
            - 64*a**3 - 512*e + 1024*g + 512*a*e)


def _rnd(rng: random.Random) -> F:
    return F(rng.randint(-8, 8), rng.choice([1, 2]))


def _dp_split3(rng):
    a, c, d, e, f = (_rnd(rng) for _ in range(5))
    tail = [_rnd(rng) for _ in range(6)]
    return dp_split3(a, c, d, e, f), double_parabola(a, a + c, c, d, e, f, *tail)


def _dp_disc1(rng):
    a, c, d, f, h, j, k, l, m = (_rnd(rng) for _ in range(9))
    e, g = dp_case_e(a, c, d, f), dp_case_g(a, c, d, f, h)
    return dp_disc1(a, c, d, f, h, j, k), double_parabola(a, a + c, c, d, e, f, g, h, j, k, l, m)


def _dp_disc3(rng):
    a = F(0)
    c, d, f, h, j, m = (_rnd(rng) for _ in range(6))
    e, g = dp_case_e(a, c, d, f), dp_case_g(a, c, d, f, h)
    k = _linear_root(lambda k: dp_disc1(a, c, d, f, h, j, k))
    l = _linear_root(lambda l: dp_disc2(a, c, d, f, h, j, l))
    return dp_disc3(a, c, d, f, h, j, m), double_parabola(a, a + c, c, d, e, f, g, h, j, k, l, m)


def _dp_disc5(rng):
    a = F(0)
    c, d, f, h = (_rnd(rng) for _ in range(4))
    e, g = dp_case_e(a, c, d, f), dp_case_g(a, c, d, f, h)
    try:
        j = _linear_root(lambda j: dp_disc4(a, c, d, f, h, j))
    except ZeroDivisionError:
        return None, None  # h sits where the j-coefficient of dp_disc4 vanishes
    k = _linear_root(lambda k: dp_disc1(a, c, d, f, h, j, k))
    l = _linear_root(lambda l: dp_disc2(a, c, d, f, h, j, l))
    m = _linear_root(lambda m: dp_disc3(a, c, d, f, h, j, m))
    return dp_disc5(a, c, d, f, h), double_parabola(a, a + c, c, d, e, f, g, h, j, k, l, m)


def _lpd_split3(rng):
    a, c, d = (_rnd(rng) for _ in range(3))
    tail = [_rnd(rng) for _ in range(4)]
    return lpd_split3(a, c, d), line_plus_double(a, -a - 1, c, d, *tail)


def _lpd_disc1(rng):
    a, c, e, g, h = (_rnd(rng) for _ in range(5))
    d, f = lpd_case_d(a, c), lpd_case_f(a, c, e)
    return lpd_disc1(a, c, e, g), line_plus_double(a, -a - 1, c, d, e, f, g, h)


def _split_codes(family: str, n: int) -> Tuple[str, str]:
    """Codes for a positive (real pair) and a negative (conjugate pair) sign."""
    real, conj = f"({n}:•,•|braces:)", f"({n}:•,•|braces:•)"
    if family == "lpd":
        return f"(1:{real},•|braces:)", f"(1:{conj},•|braces:)"
    return real, conj


SWEEP_LEVELS = (
    ("dp", 3, _dp_split3),
    ("dp", 4, _dp_disc1),
    ("dp", 5, _dp_disc3),
    ("dp", 6, _dp_disc5),
    ("lpd", 3, _lpd_split3),
    ("lpd", 4, _lpd_disc1),
)


def _sweep_round(rng: random.Random, seen: Set[str]) -> List[Case]:
    cases = []
    for level, (family, n, sampler) in enumerate(SWEEP_LEVELS):
        codes = dict(zip((1, -1), _split_codes(family, n)))
        for side in (1, -1):
            while True:
                s, poly = sampler(rng)
                if s is None or s == 0 or (s > 0) != (side > 0):
                    continue
                text = polyq.to_text(poly)
                if text not in seen and square_free(poly):
                    break
            seen.add(text)
            cases.append(Case(
                text=text, poly=poly, planted=(F(0), F(0)),
                expect_code=codes[side], label=f"{family}{n}{'+' if side > 0 else '-'}",
                group=level,
            ))
    return cases


# ---------------------------------------------------------------------------
# random affine maps


def _fresh_image(rng: random.Random, seen: Set[str], draw: Callable[[], polyq.Poly]):
    """(text, moved curve, planted point) for the first affine image of a
    drawn curve whose text is not in `seen`; the text is added to it."""
    while True:
        moved, q = _affine_image(rng, draw())
        text = polyq.to_text(moved)
        if text not in seen:
            seen.add(text)
            return text, moved, q


def _affine_image(rng: random.Random, p: polyq.Poly) -> Tuple[polyq.Poly, Tuple[F, F]]:
    """p moved by a random invertible rational affine map phi with phi(0) = q.

    The moved curve is P(u) = p(B (u - q)) for a random matrix B with entries
    in {-1, 0, 1} and nonzero determinant, so the singular point of p at the
    origin sits at q.  Small entries keep the spread of coefficient sizes,
    and with it the spread of costs among moves of one curve, small.
    """
    while True:
        b = [[F(rng.randint(-1, 1)) for _ in range(2)] for _ in range(2)]
        if b[0][0] * b[1][1] - b[0][1] * b[1][0] != 0:
            break
    q = tuple(F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(2))
    shift = (-(b[0][0] * q[0] + b[0][1] * q[1]), -(b[1][0] * q[0] + b[1][1] * q[1]))
    return polyq.affine(p, b, shift), q


# ---------------------------------------------------------------------------
# random_located: sparse quintics singular at the origin

_RANDOM_MONOMIALS = [(i, d - i) for d in range(2, 6) for i in range(d + 1)]

# Strata by the lowest-degree part at the origin: a nondegenerate quadratic
# part (A_1), a nonzero square (A_k, k >= 2), multiplicity 3, and
# multiplicity 4 or 5.  Of 20000 unconstrained draws of total degree 5, 18932
# were square-free, and 45.1%, 29.0%, 22.3% and 3.6% of those fell in each;
# the counts in one round of 20 are those shares rounded by largest remainder.  Fixing the counts keeps the mix of cheap and deep points the
# same in every run.
RANDOM_STRATA = (("node", 9), ("cusp", 6), ("triple", 4), ("quadruple", 1))


def _stratum(p: polyq.Poly) -> str:
    a, b, c = (p.get(m, 0) for m in ((2, 0), (1, 1), (0, 2)))
    if a or b or c:
        return "node" if b * b - 4 * a * c != 0 else "cusp"
    return "triple" if any(i + j == 3 for i, j in p) else "quadruple"


def _free_quintic(rng: random.Random) -> polyq.Poly:
    """A sparse quintic singular at the origin, of total degree 5, in no
    particular stratum and not yet checked to be square-free."""
    while True:
        p = {
            m: F(rng.choice([-3, -2, -1, 1, 2, 3]))
            for m in _RANDOM_MONOMIALS
            if rng.random() < 0.35
        }
        if polyq.total_degree(p) == 5:
            return p


def _random_quintic(rng: random.Random, stratum: str) -> polyq.Poly:
    while True:
        p = _free_quintic(rng)
        if _stratum(p) == stratum and square_free(p):
            return p


def _random_round(rng: random.Random, seen: Set[str]) -> List[Case]:
    cases = []
    for stratum, count in RANDOM_STRATA:
        for _ in range(count):
            text, moved, q = _fresh_image(rng, seen, lambda: _random_quintic(rng, stratum))
            cases.append(Case(text=text, poly=moved, planted=q, label=stratum, group=len(cases)))
    return cases


# ---------------------------------------------------------------------------
# catalog_affine: every catalog representative, freshly moved each round


def load_catalog(root: Path) -> List[dict]:
    """The program's catalog data file, read directly as the benchmark's
    reference: id, code and representative of every class."""
    raw = json.loads((root / "src" / "quinsing" / "data" / "catalog.json").read_text())
    return [
        {"id": int(r["id"]), "code": r["code"], "label": r["arnold_label"],
         "poly": polyq.parse(r["representative"])}
        for r in raw["classes"]
    ]


def _catalog_round(rng: random.Random, seen: Set[str], rows: List[dict]) -> List[Case]:
    cases = []
    for row in rows:
        text, moved, q = _fresh_image(rng, seen, lambda: row["poly"])
        cases.append(Case(
            text=text, poly=moved, planted=q,
            expect_code=row["code"], expect_id=row["id"], label=row["label"], group=len(cases),
        ))
    return cases


def round_maker(
    workload: str, seed: int, root: Path, seen: Set[str], stream: str = "timed"
) -> Callable[[], List[Case]]:
    """A function returning the next round of the workload's seeded stream.

    Streams with different names draw from independent generators.  A curve
    whose text is in `seen` is drawn again, and every curve handed out is
    added to it, so makers sharing one set never hand out a curve twice."""
    rng = random.Random(f"{workload}:{stream}:{seed}")
    if workload == "sign_sweep":
        return lambda: _sweep_round(rng, seen)
    if workload == "random_located":
        return lambda: _random_round(rng, seen)
    if workload == "catalog_affine":
        rows = load_catalog(root)
        return lambda: _catalog_round(rng, seen, rows)
    raise ValueError(f"unknown workload {workload!r}")
