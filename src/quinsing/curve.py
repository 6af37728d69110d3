"""Exact bivariate polynomial arithmetic over Q, and the bridge to sympy.

Polynomials are sparse maps (i, j) -> Fraction for the monomial x^i y^j.
Everything here is exact rational arithmetic; there is no floating point
in this module.  Factorization and resultants delegate to sympy (the
replacements for Maple's `factor` and `resultant`); everything else is
implemented directly.

sympy's polynomial algebra is reached only through `Poly` objects over QQ
built straight from coefficients: `to_sympy` for x, y and `q_poly` for T.
Results are read back from the Poly's coefficients through `_frac`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, List, Sequence, Tuple

import sympy

Rat = Fraction
Monomial = Tuple[int, int]

_SX, _SY, _T = sympy.symbols("x y T")


class CurveError(ValueError):
    """Domain error from the curve layer (bad input, violated precondition)."""


class ParseError(CurveError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _trimmed(terms: Dict[Monomial, Fraction]) -> Dict[Monomial, Fraction]:
    return {m: c for m, c in terms.items() if c != 0}


class BiPoly:
    """Immutable sparse polynomial in x, y with Fraction coefficients."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Dict[Monomial, Fraction] | None = None):
        self.terms: Dict[Monomial, Fraction] = _trimmed(dict(terms or {}))
        self._hash = None

    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly({})

    @staticmethod
    def const(c) -> "BiPoly":
        return BiPoly({(0, 0): Fraction(c)})

    @staticmethod
    def monomial(i: int, j: int, c=1) -> "BiPoly":
        return BiPoly({(i, j): Fraction(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __add__(self, other: "BiPoly") -> "BiPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return BiPoly(out)

    def __neg__(self) -> "BiPoly":
        return BiPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        out: Dict[Monomial, Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                m = (i1 + i2, j1 + j2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return BiPoly(out)

    def scale(self, c) -> "BiPoly":
        c = Fraction(c)
        return BiPoly({m: c * v for m, v in self.terms.items()})

    def __pow__(self, n: int) -> "BiPoly":
        if n < 0:
            raise CurveError("negative polynomial power")
        result = BiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def total_degree(self) -> int:
        if not self.terms:
            raise CurveError("degree of zero polynomial")
        return max(i + j for i, j in self.terms)

    def degree_in(self, var: str) -> int:
        if not self.terms:
            raise CurveError("degree of zero polynomial")
        k = 0 if var == "x" else 1
        return max(m[k] for m in self.terms)

    def coeff(self, i: int, j: int) -> Fraction:
        return self.terms.get((i, j), Fraction(0))

    def eval_at(self, xv, yv) -> Fraction:
        xv, yv = Fraction(xv), Fraction(yv)
        return sum((c * xv**i * yv**j for (i, j), c in self.terms.items()), Fraction(0))

    def partial(self, var: str) -> "BiPoly":
        out: Dict[Monomial, Fraction] = {}
        for (i, j), c in self.terms.items():
            if var == "x" and i > 0:
                out[(i - 1, j)] = out.get((i - 1, j), Fraction(0)) + c * i
            elif var == "y" and j > 0:
                out[(i, j - 1)] = out.get((i, j - 1), Fraction(0)) + c * j
        return BiPoly(out)

    # univariate view, used by singular-point search
    def coeffs_in(self, var: str) -> List["BiPoly"]:
        """Coefficient list in `var`, ascending, entries polynomials in the other variable."""
        if not self.terms:
            return []
        k = 0 if var == "x" else 1
        deg = max(m[k] for m in self.terms)
        out: List[Dict[Monomial, Fraction]] = [dict() for _ in range(deg + 1)]
        for (i, j), c in self.terms.items():
            if var == "x":
                out[i][(0, j)] = c
            else:
                out[j][(i, 0)] = c
        return [BiPoly(d) for d in out]

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"BiPoly({format_poly(self)!r})"


def _term_key(m: Monomial):
    # graded lex with x > y, descending
    i, j = m
    return (-(i + j), -i)


def format_poly(p: BiPoly) -> str:
    """Deterministic printing; re-parsing the output reproduces p."""
    if p.is_zero():
        return "0"
    parts: List[str] = []
    for m in sorted(p.terms, key=_term_key):
        c = p.terms[m]
        i, j = m
        factors = []
        if i == 1:
            factors.append("x")
        elif i > 1:
            factors.append(f"x^{i}")
        if j == 1:
            factors.append("y")
        elif j > 1:
            factors.append(f"y^{j}")
        body = "*".join(factors)
        ac = abs(c)
        if not factors:
            text = str(ac)
        elif ac == 1:
            text = body
        else:
            text = f"{ac}*{body}"
        if not parts:
            parts.append(text if c > 0 else "-" + text)
        else:
            parts.append(("+ " if c > 0 else "- ") + text)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# parsing
#
# expr   := ['+'|'-'] term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := base ('^' nat)?
# base   := rational | 'x' | 'y' | '(' expr ')'
#
# No implicit multiplication: "xy" and "2x" are errors.


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def parse(self) -> BiPoly:
        result = self.expr()
        if self.peek():
            self.error(f"unexpected {self.text[self.pos]!r}")
        return result

    def expr(self) -> BiPoly:
        result = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            t = self.term()
            result = result + (t.scale(-1) if op == "-" else t)
        return result

    def term(self) -> BiPoly:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        result = self.factor()
        while self.peek() == "*":
            self.take()
            result = result * self.factor()
        return result.scale(sign)

    def factor(self) -> BiPoly:
        b = self.base()
        if self.peek() == "^":
            self.take()
            n = self.natural()
            b = b**n
        return b

    def natural(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() == "(":
            # catches y^(1/2) with a useful message
            self.error("exponent must be a nonnegative integer")
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a nonnegative integer exponent")
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            self.error("fractional exponent")
        return int(self.text[start : self.pos])

    def base(self) -> BiPoly:
        ch = self.peek()
        if ch == "(":
            self.take()
            inner = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.take()
            return inner
        if ch == "x":
            self.take()
            self._reject_identifier_tail()
            return BiPoly.monomial(1, 0)
        if ch == "y":
            self.take()
            self._reject_identifier_tail()
            return BiPoly.monomial(0, 1)
        if ch.isdigit():
            return BiPoly.const(self.rational())
        if ch.isalpha():
            self.error(f"unknown identifier {ch!r}")
        if ch == "":
            self.error("unexpected end of input")
        self.error(f"unexpected {ch!r}")

    def _reject_identifier_tail(self):
        if self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos -= 1
            self.error("implicit multiplication is not allowed")

    def rational(self) -> Fraction:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        num = int(self.text[start : self.pos])
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            save = self.pos
            self.pos += 1
            dstart = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == dstart:
                # "3/x" is division-free grammar: reject
                self.pos = save
                self.error("expected an integer denominator")
            den = int(self.text[dstart : self.pos])
            if den == 0:
                self.pos = save
                self.error("zero denominator")
            self._reject_identifier_tail()
            return Fraction(num, den)
        self._reject_identifier_tail()
        return Fraction(num)


def parse_poly(text: str) -> BiPoly:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# local data at the origin


def multiplicity_at_origin(f: BiPoly) -> int:
    if f.is_zero():
        raise CurveError("zero polynomial")
    m = min(i + j for i, j in f.terms)
    if m == 0:
        raise CurveError("origin is not on the curve (nonzero constant term)")
    return m


def tangent_cone(f: BiPoly) -> BiPoly:
    m = multiplicity_at_origin(f)
    return BiPoly({mono: c for mono, c in f.terms.items() if mono[0] + mono[1] == m})


def translate(f: BiPoly, p: Tuple[Rat, Rat]) -> BiPoly:
    """f(x + p1, y + p2), exact."""
    a, b = Fraction(p[0]), Fraction(p[1])
    xs = BiPoly({(1, 0): Fraction(1), (0, 0): a})
    ys = BiPoly({(0, 1): Fraction(1), (0, 0): b})
    return _substitute(f, xs, ys)


def linear_change(f: BiPoly, m: Sequence[Sequence[Rat]]) -> BiPoly:
    """Substitute (x, y) <- (m11 x + m12 y, m21 x + m22 y); m must be invertible."""
    m11, m12 = Fraction(m[0][0]), Fraction(m[0][1])
    m21, m22 = Fraction(m[1][0]), Fraction(m[1][1])
    if m11 * m22 - m12 * m21 == 0:
        raise CurveError("singular matrix")
    xs = BiPoly({(1, 0): m11, (0, 1): m12})
    ys = BiPoly({(1, 0): m21, (0, 1): m22})
    return _substitute(f, xs, ys)


def _substitute(f: BiPoly, xs: BiPoly, ys: BiPoly) -> BiPoly:
    # Horner in y over Horner in x keeps the power count low.
    xpow: Dict[int, BiPoly] = {0: BiPoly.const(1)}
    ypow: Dict[int, BiPoly] = {0: BiPoly.const(1)}

    def power(table: Dict[int, BiPoly], base: BiPoly, n: int) -> BiPoly:
        if n not in table:
            table[n] = power(table, base, n - 1) * base
        return table[n]

    out = BiPoly.zero()
    for (i, j), c in f.terms.items():
        out = out + (power(xpow, xs, i) * power(ypow, ys, j)).scale(c)
    return out


# ---------------------------------------------------------------------------
# the sympy bridge, factorization


def _frac(v) -> Fraction:
    """A sympy Rational, a ground-domain rational or an int as a Fraction."""
    return Fraction(int(v.numerator), int(v.denominator))


def _qq(c: Fraction):
    return sympy.QQ(c.numerator, c.denominator)


def to_sympy(f: BiPoly) -> sympy.Poly:
    """f as a sympy Poly in x, y over QQ."""
    return sympy.Poly.from_dict(
        {m: _qq(c) for m, c in f.terms.items()}, _SX, _SY, domain=sympy.QQ
    )


def from_sympy(p: sympy.Poly) -> BiPoly:
    """A sympy Poly in x, y as a BiPoly; the inverse of to_sympy."""
    return BiPoly({(int(i), int(j)): _frac(c) for (i, j), c in p.terms()})


def q_poly(coeffs: Sequence[Fraction]) -> sympy.Poly:
    """sum(coeffs[k] * T^k) as a sympy Poly in T over QQ."""
    return sympy.Poly.from_list([_qq(c) for c in reversed(coeffs)], _T, domain=sympy.QQ)


@dataclass(frozen=True)
class FactorList:
    unit: Rat
    factors: Tuple[Tuple[BiPoly, int], ...]

    def expand(self) -> BiPoly:
        out = BiPoly.const(self.unit)
        for poly, mult in self.factors:
            out = out * poly**mult
        return out


def _normalize_factor(p: BiPoly) -> Tuple[BiPoly, Fraction]:
    """Scale to content 1 with positive leading (graded-lex) coefficient.

    Returns (normalized factor, removed scalar) with p = scalar * normalized.
    """
    lead = min(p.terms, key=_term_key)
    coeffs = list(p.terms.values())
    num_gcd = 0
    den_lcm = 1
    for c in coeffs:
        num_gcd = gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    content = Fraction(num_gcd, den_lcm)
    if p.terms[lead] < 0:
        content = -content
    return p.scale(1 / content), content


def factor_rational(f: BiPoly) -> FactorList:
    """Complete factorization into Q-irreducible primitive factors."""
    if f.is_zero():
        raise CurveError("cannot factor the zero polynomial")
    if f.total_degree() > 8:
        raise CurveError("degree cap (8) exceeded for factorization")
    unit_q, raw = to_sympy(f).factor_list()
    unit = _frac(unit_q)
    factors: List[Tuple[BiPoly, int]] = []
    for base, mult in raw:
        norm, scalar = _normalize_factor(from_sympy(base))
        unit *= scalar**mult
        factors.append((norm, int(mult)))
    factors.sort(key=lambda fm: (sorted(((_term_key(m), c) for m, c in fm[0].terms.items())), fm[1]))
    return FactorList(unit=unit, factors=tuple(factors))


def square_free_part(f: BiPoly) -> Tuple[BiPoly, bool]:
    """Product of the distinct irreducible factors; flag = a repeated factor existed."""
    fl = factor_rational(f)
    had_multiple = any(m > 1 for _, m in fl.factors)
    if not had_multiple:
        return f, False
    out = BiPoly.const(1)
    for poly, _ in fl.factors:
        out = out * poly
    return out, True


# ---------------------------------------------------------------------------
# resultants
#
# Convention: determinant of the Sylvester matrix with rows ordered by the
# descending shifts of f, then of g.  Validated on Res_y(y-x^2, y+x^2) = 2x^2.
# Computed by sympy's subresultant PRS (Collins, J. ACM 14, 1967), which is
# handed the argument of higher degree first: sympy 1.14 swaps the arguments
# itself when the first has the lower degree and drops the sign that swap costs.


def resultant(f: BiPoly, g: BiPoly, var: str) -> BiPoly:
    if f.is_zero() or g.is_zero():
        raise CurveError("resultant of zero polynomial")
    if var not in ("x", "y"):
        raise CurveError("var must be 'x' or 'y'")
    m, n = f.degree_in(var), g.degree_in(var)
    if m == 0 and n == 0:
        return BiPoly.const(1)
    if m == 0:
        return f**n
    if n == 0:
        return g**m
    gens = (_SX, _SY) if var == "x" else (_SY, _SX)
    sign = 1
    if m < n:
        f, g, sign = g, f, (-1) ** (m * n)  # Res(g, f) = (-1)^(mn) Res(f, g)
    res = to_sympy(f).reorder(*gens).resultant(to_sympy(g).reorder(*gens))
    return BiPoly({(0, k) if var == "x" else (k, 0): sign * _frac(c) for (k,), c in res.terms()})
