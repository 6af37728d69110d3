"""Exact arithmetic in towers of simple algebraic extensions of Q.

A Tower is a chain of levels; level k adjoins one root of a square-free
monic polynomial whose coefficients live in the tower below.  Elements are
nested dense coefficient vectors (Fraction at depth 0), always reduced.

Every generator carries a Q-witness: a square-free polynomial in Q[T]
having the generator among its roots, together with the index of that
root.  A witness of degree at most 2 is exact in closed form: its boxes
come from integer square roots of the discriminant, and realness and
conjugation are read off the discriminant's sign.  A witness of higher
degree selects a sympy CRootOf and refines its isolating box by sympy's
bisection.  Witness boxes refine exactly in Q and steer the decision
procedures; the decisions themselves (zero test, realness, ordering) are
exact.  Defining polynomials are square-free but not necessarily
irreducible; zero tests fall back to a gcd split decided by locating the
selected root (dynamic evaluation).  Towers are never mutated;
refinement state lives in caches.

Every box decision (a sign, a root comparison, a root location, a gcd
split, a conjugate partner) runs through one refinement loop, `_narrow`.
It alone holds the round budget `_REFINE_CAP`, refines between rounds and
raises `DecisionFailure`, a CurveError naming the decision, the rounds
used and the last box widths.  Exact shortcuts come before any round.

Elimination to Q is linear algebra in the tower's own arithmetic: the first
Q-linear relation among 1, a, a^2, ... in the flattened power basis
(`_q_relation`) holds in the tower's ring, so it vanishes at a under every
embedding.  sympy is reached only through Poly objects in T over QQ built
from coefficients (`curve.q_poly`), read back through `curve._frac`, for
factoring over Q, square-free parts and CRootOf witnesses.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import sympy

from .curve import CurveError, _frac, q_poly

_REFINE_CAP = 240


class AlgebraicError(CurveError):
    pass


class DecisionFailure(CurveError):
    """A certified box decision ran out of refinement rounds.  Valid input
    reaches it when two quantities agree to more bits than the rounds
    resolve, such as the tangent slopes sqrt(2) and sqrt(2 + 10^-150)."""


# ---------------------------------------------------------------------------
# exact interval arithmetic (closed boxes, Fraction endpoints)

Interval = Tuple[Fraction, Fraction]
Box = Tuple[Interval, Interval]  # (re, im)

_ZERO_IV: Interval = (Fraction(0), Fraction(0))


def _iv_add(a: Interval, b: Interval) -> Interval:
    return (a[0] + b[0], a[1] + b[1])


def _iv_sub(a: Interval, b: Interval) -> Interval:
    return (a[0] - b[1], a[1] - b[0])


def _iv_mul(a: Interval, b: Interval) -> Interval:
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(products), max(products))


def _box_add(a: Box, b: Box) -> Box:
    return (_iv_add(a[0], b[0]), _iv_add(a[1], b[1]))


def _box_mul(a: Box, b: Box) -> Box:
    re = _iv_sub(_iv_mul(a[0], b[0]), _iv_mul(a[1], b[1]))
    im = _iv_add(_iv_mul(a[0], b[1]), _iv_mul(a[1], b[0]))
    return (re, im)


def _box_from_frac(q: Fraction) -> Box:
    return ((q, q), _ZERO_IV)


def _box_excludes_zero(b: Box) -> bool:
    (rlo, rhi), (ilo, ihi) = b
    return rlo > 0 or rhi < 0 or ilo > 0 or ihi < 0


def _box_conj(b: Box) -> Box:
    (re, (ilo, ihi)) = b
    return (re, (-ihi, -ilo))


def _box_intersects(a: Box, b: Box) -> bool:
    return not (
        a[0][1] < b[0][0]
        or b[0][1] < a[0][0]
        or a[1][1] < b[1][0]
        or b[1][1] < a[1][0]
    )


def _box_width(b: Box) -> Fraction:
    return max(b[0][1] - b[0][0], b[1][1] - b[1][0])


def _iv_round_out(iv: Interval) -> Interval:
    """Round endpoints outward to dyadics so fraction sizes stay bounded."""
    lo, hi = iv
    if lo.denominator.bit_length() <= 64 and hi.denominator.bit_length() <= 64:
        return iv
    width = hi - lo
    if width == 0:
        return iv
    k = max(8, width.denominator.bit_length() - width.numerator.bit_length() + 8)
    scale = 1 << k
    return (Fraction(math.floor(lo * scale), scale), Fraction(math.ceil(hi * scale), scale))


# ---------------------------------------------------------------------------
# certified box decisions: one refinement loop


def _iv_allows(iv: Interval, s: int) -> bool:
    """False only when iv certifies that its value does not have sign s (+-1)."""
    return iv[1] >= 0 if s > 0 else iv[0] <= 0


def _width_text(b: Box) -> str:
    """The box's width as a power of two within a factor 2 of it, from bit lengths."""
    w = _box_width(b)
    return f"2^{w.numerator.bit_length() - w.denominator.bit_length()}" if w else "0"


def _narrow(what: str, candidates, fits, target: int, *also, start: int = 0, stop=None) -> list:
    """The candidates that the box test `fits` cannot exclude, once at most
    `target` are left.

    fits(c) is False only when the boxes certify that c is not the answer,
    so a dropped candidate stays dropped.  The live candidates and `also`
    are refined between rounds.  A decision taken in phases passes the
    rounds it has spent as `start`; a probe passes `stop` and gets the live
    candidates back when its rounds run out.
    """
    live = list(candidates)

    def boxed() -> list:  # the outcomes of a sign or an order (ints, bools) have no box
        return [x for x in (*live, *also) if not isinstance(x, int)]

    for _ in range(start, _REFINE_CAP if stop is None else stop):
        live = [c for c in live if fits(c)]
        if len(live) <= target:
            return live
        for x in boxed():
            x.refine()
    if stop is not None:
        return live
    widths = ", ".join(_width_text(x.box()) for x in boxed())
    raise DecisionFailure(
        f"{what} did not converge in {_REFINE_CAP} rounds; last box widths {widths}"
    )


def _signs(x, part: int = 0, **rounds) -> List[int]:
    """The signs (-1, +1) of the real (part 0) or imaginary (part 1) part of
    x that its boxes leave open; x has box() and refine(), and `rounds` are
    as for _narrow.  The one sign of a nonzero part is [0] of the result."""
    return _narrow("sign", (-1, 1), lambda s: _iv_allows(x.box()[part], s), 1, x, **rounds)


# ---------------------------------------------------------------------------
# witnesses: certified Q-algebraic root handles


_REGION_GRID = 64


def _split_scaled_rootof(expr):
    """Decompose a CRootOf-valued expression as (CRootOf, rational scale).

    sympy's root preprocessing may hand back `Rational * CRootOf(...)` instead
    of a bare CRootOf; the enumeration index still refers to the original
    polynomial's root set.
    """
    if isinstance(expr, sympy.CRootOf):
        return expr, Fraction(1)
    if expr.is_Mul:
        coeff, rest = expr.as_coeff_Mul()
        if coeff.is_Rational and isinstance(rest, sympy.CRootOf):
            return rest, _frac(coeff)
    raise AlgebraicError("unsupported root expression " + str(expr))


def _integer_coeffs(qpoly: sympy.Poly) -> List[int]:
    """Primitive integer multiple of qpoly's coefficients (descending), leading > 0."""
    fracs = [_frac(c) for c in qpoly.all_coeffs()]
    den = math.lcm(*(q.denominator for q in fracs))
    ints = [int(q * den) for q in fracs]
    content = math.gcd(*ints)
    if ints[0] < 0:
        content = -content
    return [v // content for v in ints]


def _sqrt_region(u: int, sign: int, d: int, den: int) -> Interval:
    """(u + sign*sqrt(d))/den as a point if d is a square, else its closed
    cell of the 1/64 grid; d > 0, den > 0."""
    r = math.isqrt(d)
    if r * r == d:
        value = Fraction(u + sign * r, den)
        return (value, value)
    s = math.isqrt(d * _REGION_GRID**2)  # sqrt(64^2 d) lies strictly inside (s, s+1)
    j = (_REGION_GRID * u + s) // den if sign > 0 else (_REGION_GRID * u - s - 1) // den
    return (Fraction(j, _REGION_GRID), Fraction(j + 1, _REGION_GRID))


class Witness:
    """One root of a square-free Q[T] polynomial, with a refinable exact box.

    Roots of polynomials of degree 1 and 2 come from the closed form: with
    integer coefficients a > 0, b, c and D = b^2 - 4ac, the root with index k
    is (-b + (2k-1)*sqrt(D))/2a, and its box at precision p encloses sqrt|D|
    in [s, s+1]/2^p with s = isqrt(|D|*4^p).  Higher degrees use sympy's
    CRootOf isolation and bisection.  Both follow sympy's root order: real
    roots ascending, then conjugate pairs with the lower half-plane first.
    """

    __slots__ = (
        "qpoly", "index", "rational", "_is_real", "_region",
        "_quad", "_prec", "_box", "_inner", "_scale", "_iv",
    )

    def __init__(self, qpoly: sympy.Poly, index: int):
        self.qpoly = qpoly
        self.index = index
        self.rational: Optional[Fraction] = None
        self._region: Optional[Box] = None
        self._quad: Optional[Tuple[int, int, int, int]] = None  # (a, b, D, sign of sqrt)
        self._inner = None
        self._box: Optional[Box] = None
        if qpoly.degree() <= 2:
            self._init_closed_form()
            return
        root = sympy.CRootOf(qpoly, index, radicals=False)
        if root.is_Number:
            if not root.is_Rational:
                raise AlgebraicError("unexpected non-rational evaluated root")
            self.rational = _frac(root)
            self._is_real = True
            return
        self._inner, self._scale = _split_scaled_rootof(root)
        self._is_real = bool(root.is_real)
        self._iv = self._inner._get_interval()

    def _init_closed_form(self):
        coeffs = _integer_coeffs(self.qpoly)
        if not 0 <= self.index < len(coeffs) - 1:
            raise AlgebraicError(f"root index {self.index} out of range")
        if len(coeffs) == 2:
            self.rational = Fraction(-coeffs[1], coeffs[0])
            self._is_real = True
            return
        a, b, c = coeffs
        d = b * b - 4 * a * c
        sign = 2 * self.index - 1
        self._is_real = d > 0
        if d > 0 and math.isqrt(d) ** 2 == d:
            self.rational = Fraction(-b + sign * math.isqrt(d), 2 * a)
            return
        self._quad = (a, b, d, sign)
        self._prec = 0

    def is_real(self) -> bool:
        return self._is_real

    def box(self) -> Box:
        if self.rational is not None:
            return _box_from_frac(self.rational)
        if self._box is None:
            self._box = self._quad_box() if self._quad is not None else self._interval_box(self._iv)
        return self._box

    def _quad_box(self) -> Box:
        a, b, d, sign = self._quad
        p = self._prec
        scaled = abs(d) << (2 * p)
        s = math.isqrt(scaled)
        lo, hi = (s, s) if s * s == scaled else (s, s + 1)
        if sign < 0:
            lo, hi = -hi, -lo
        den = a << (p + 1)  # the box is (-b*2^p + [lo, hi]) / (2a*2^p)
        if d > 0:
            shift = -b << p
            return (_iv_round_out((Fraction(shift + lo, den), Fraction(shift + hi, den))), _ZERO_IV)
        centre = Fraction(-b, 2 * a)
        return ((centre, centre), _iv_round_out((Fraction(lo, den), Fraction(hi, den))))

    def _interval_box(self, iv) -> Box:
        def scaled(lo, hi) -> Interval:
            s = self._scale
            return _iv_round_out(tuple(sorted((_frac(lo) * s, _frac(hi) * s))))

        if self._is_real:
            return (scaled(iv.a, iv.b), _ZERO_IV)
        return (scaled(iv.ax, iv.bx), scaled(iv.ay, iv.by))

    def refine(self):
        """Shrink the box: one more bit of sqrt|D|, or one sympy bisection step."""
        if self._quad is not None:
            self._prec += 1
        elif self._inner is not None:
            self._iv = self._iv.refine()
        self._box = None

    @property
    def region(self) -> Box:
        """A box determined by the root alone, for the debug format (memoised).

        Closed form: each coordinate is its closed cell of the 1/64 grid, or
        a point where it is rational.  Otherwise a fresh sympy isolating box
        bisected to width 1/64.
        """
        if self._region is None:
            self._region = self._compute_region()
        return self._region

    def _compute_region(self) -> Box:
        if self.rational is not None:
            return _box_from_frac(self.rational)
        if self._quad is not None:
            a, b, d, sign = self._quad
            if d > 0:
                return (_sqrt_region(-b, sign, d, 2 * a), _ZERO_IV)
            centre = Fraction(-b, 2 * a)
            return ((centre, centre), _sqrt_region(0, sign, -d, 2 * a))
        iv = self._inner._get_interval()
        while _box_width(self._interval_box(iv)) > Fraction(1, _REGION_GRID):
            iv = iv.refine()
        return self._interval_box(iv)

    def conjugate_index(self) -> int:
        """Index (same qpoly) of the complex conjugate root."""
        if self.is_real():
            return self.index
        if self._quad is not None:
            return 1 - self.index
        # conjugate roots of a real polynomial are adjacent in sympy order,
        # lower half-plane first
        return self.index - _signs(self, 1)[0]


# ---------------------------------------------------------------------------
# elements: nested dense vectors

Elem = Union[Fraction, Tuple]


def _zero_elem(depth: int, tower: "Tower") -> Elem:
    if depth == 0:
        return Fraction(0)
    inner = _zero_elem(depth - 1, tower)
    return tuple([inner] * tower.levels[depth - 1].degree)


def _embed(e: Elem, from_depth: int, to_depth: int, tower: "Tower") -> Elem:
    if from_depth == to_depth:
        return e
    out = [_embed(e, from_depth, to_depth - 1, tower)]
    out += [_zero_elem(to_depth - 1, tower)] * (tower.levels[to_depth - 1].degree - 1)
    return tuple(out)


def _e_add(a: Elem, b: Elem) -> Elem:
    if isinstance(a, Fraction):
        return a + b
    return tuple(_e_add(x, y) for x, y in zip(a, b))


def _e_neg(a: Elem) -> Elem:
    if isinstance(a, Fraction):
        return -a
    return tuple(_e_neg(x) for x in a)


def _e_sub(a: Elem, b: Elem) -> Elem:
    return _e_add(a, _e_neg(b))


def _e_scale(a: Elem, q: Fraction) -> Elem:
    if isinstance(a, Fraction):
        return a * q
    return tuple(_e_scale(x, q) for x in a)


def _e_mul(a: Elem, b: Elem, depth: int, tower: "Tower") -> Elem:
    if depth == 0:
        return a * b
    return _reduce_mod_defining(_poly_mul(a, b, depth - 1, tower), depth, tower)


def _reduce_mod_defining(work: List[Elem], depth: int, tower: "Tower") -> Elem:
    level = tower.levels[depth - 1]
    d = level.degree
    while len(work) > d:
        top = work.pop()
        # defining is monic: subtract top * defining shifted to the head position
        shift = len(work) - d
        for i in range(d):
            work[shift + i] = _e_sub(
                work[shift + i], _e_mul(top, level.defining[i], depth - 1, tower)
            )
    return tuple(work)


def _e_structural_zero(a: Elem) -> bool:
    if isinstance(a, Fraction):
        return a == 0
    return all(_e_structural_zero(x) for x in a)


def _e_box(a: Elem, depth: int, gen_boxes: Sequence[Box]) -> Box:
    if depth == 0:
        return _box_from_frac(a)
    return _poly_box_eval(a, depth - 1, gen_boxes, gen_boxes[depth - 1])


def _e_flat(a: Elem) -> List[Fraction]:
    """The rationals of an element, in order: its coordinates over Q."""
    if isinstance(a, Fraction):
        return [a]
    return [q for coeff in a for q in _e_flat(coeff)]


# ---------------------------------------------------------------------------
# towers


class Level:
    __slots__ = ("defining", "witness", "degree", "index")

    def __init__(self, defining: Tuple[Elem, ...], witness: Optional[Witness], index: int):
        self.defining = defining  # monic, ascending, length degree+1
        self.witness = witness
        self.degree = len(defining) - 1
        self.index = index  # position among the sorted sibling roots at creation


class Tower:
    __slots__ = ("levels",)

    def __init__(self, levels: Tuple[Level, ...] = ()):  # Q itself is Tower(())
        self.levels = levels

    @property
    def depth(self) -> int:
        return len(self.levels)

    def totally_real(self) -> bool:
        return all(lv.witness.is_real() for lv in self.levels)

    def extends(self, other: "Tower") -> bool:
        return self.levels[: other.depth] == other.levels

    def gen_boxes(self) -> List[Box]:
        return [lv.witness.box() for lv in self.levels]

    def refine(self):
        for lv in self.levels:
            lv.witness.refine()

    def zero(self) -> "AlgebraicNumber":
        return AlgebraicNumber(self, _zero_elem(self.depth, self))

    def one(self) -> "AlgebraicNumber":
        return self.from_rat(1)

    def from_rat(self, q) -> "AlgebraicNumber":
        return AlgebraicNumber(self, _embed(Fraction(q), 0, self.depth, self))

    def generator(self, level: Optional[int] = None) -> "AlgebraicNumber":
        k = self.depth - 1 if level is None else level
        d = self.levels[k].degree
        if d == 1:
            # linear defining: generator equals the negated constant term
            val = _e_neg(self.levels[k].defining[0])
            return AlgebraicNumber(self, _embed(val, k, self.depth, self))
        zero = _zero_elem(k, self)
        coords = [zero, _embed(Fraction(1), 0, k, self)] + [zero] * (d - 2)
        return AlgebraicNumber(self, _embed(tuple(coords), k + 1, self.depth, self))

    def level_str(self, k: int) -> str:
        lv = self.levels[k]
        terms = []
        for p, coeff in reversed(list(enumerate(lv.defining))):
            if _e_structural_zero(coeff):
                continue
            cs = _coeff_str(coeff, k, self)
            if p == 0:
                terms.append(cs)
            elif p == 1:
                terms.append(f"{cs}*Z" if cs != "1" else "Z")
            else:
                terms.append(f"{cs}*Z^{p}" if cs != "1" else f"Z^{p}")
        poly = terms[0]
        for t in terms[1:]:
            poly += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        (rlo, rhi), (ilo, ihi) = lv.witness.region
        return f"RootOf({poly}, region=[{rlo},{rhi}]x[{ilo},{ihi}], index={lv.index})"


def _coeff_str(e: Elem, depth: int, tower: Tower) -> str:
    if isinstance(e, Fraction):
        return str(e)
    nonzero = [(k, c) for k, c in enumerate(e) if not _e_structural_zero(c)]
    if not nonzero:
        return "0"
    gen = tower.level_str(depth - 1)
    parts = []
    for k, c in nonzero:
        cs = _coeff_str(c, depth - 1, tower)
        if k == 0:
            parts.append(cs)
        else:
            power = gen if k == 1 else f"{gen}^{k}"
            parts.append(power if cs == "1" else f"({cs})*{power}")
    if len(parts) == 1:
        return parts[0]
    return "(" + " + ".join(parts) + ")"


RATIONAL_TOWER = Tower(())


class AlgebraicNumber:
    __slots__ = ("tower", "value", "_cache")

    def __init__(self, tower: Tower, value: Elem):
        self.tower = tower
        self.value = value
        self._cache: Dict[str, object] = {}

    # -- coercion helpers

    def _coerce(self, other) -> "AlgebraicNumber":
        if isinstance(other, AlgebraicNumber):
            if other.tower is self.tower or other.tower.levels == self.tower.levels:
                return other
            if self.tower.extends(other.tower):
                return AlgebraicNumber(
                    self.tower,
                    _embed(other.value, other.tower.depth, self.tower.depth, self.tower),
                )
            raise AlgebraicError("operands live in unrelated towers")
        return self.tower.from_rat(Fraction(other))

    def _lift(self, other) -> Tuple["AlgebraicNumber", "AlgebraicNumber"]:
        if isinstance(other, AlgebraicNumber) and other.tower.depth > self.tower.depth:
            return other._coerce(self), other
        return self, self._coerce(other)

    # -- ring operations

    def __add__(self, other):
        a, b = self._lift(other)
        return AlgebraicNumber(a.tower, _e_add(a.value, b.value))

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicNumber(self.tower, _e_neg(self.value))

    def __sub__(self, other):
        a, b = self._lift(other)
        return AlgebraicNumber(a.tower, _e_sub(a.value, b.value))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        a, b = self._lift(other)
        return AlgebraicNumber(
            a.tower, _e_mul(a.value, b.value, a.tower.depth, a.tower)
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._lift(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.tower.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "AlgebraicNumber":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero algebraic number")
        inv = _inv_elem(self.value, self.tower.depth, self.tower)
        return AlgebraicNumber(self.tower, inv)

    def __eq__(self, other):
        try:
            a, b = self._lift(other)
        except (AlgebraicError, TypeError, ValueError):
            return NotImplemented
        return (a - b).is_zero()

    def __hash__(self):
        raise TypeError("AlgebraicNumber is unhashable (exact equality is semantic)")

    # -- decisions

    def is_zero(self) -> bool:
        if "zero" not in self._cache:
            self._cache["zero"] = _is_zero_elem(self.value, self.tower.depth, self.tower)
        return self._cache["zero"]  # type: ignore[return-value]

    def is_rational(self) -> Optional[Fraction]:
        """The Fraction value if the reduced representation is visibly rational."""
        e = self.value
        depth = self.tower.depth
        while depth > 0:
            if not all(_e_structural_zero(c) for c in e[1:]):
                return None
            e = e[0]
            depth -= 1
        return e

    def box(self) -> Box:
        return _e_box(self.value, self.tower.depth, self.tower.gen_boxes())

    def refine(self):
        self.tower.refine()

    def is_real(self) -> bool:
        if "real" not in self._cache:
            self._cache["real"] = _is_real_impl(self)
        return self._cache["real"]  # type: ignore[return-value]

    def sign(self) -> int:
        """Sign of a real element; exact."""
        if not self.is_real():
            raise AlgebraicError("sign of a non-real element")
        if self.is_zero():
            return 0
        return _signs(self)[0]

    def __str__(self):
        return _coeff_str(self.value, self.tower.depth, self.tower)

    def __repr__(self):
        return f"<AlgebraicNumber {self}>"


def _is_zero_elem(e: Elem, depth: int, tower: Tower) -> bool:
    if isinstance(e, Fraction):
        return e == 0
    if all(_is_zero_elem(c, depth - 1, tower) for c in e):
        return True
    # P(gen) with P nonzero over the subtower; decide P(alpha) = 0 by gcd split
    sub = Tower(tower.levels[: depth - 1])
    p = _poly_normalize(list(e), sub)
    if len(p) == 1:
        return False
    defining = list(tower.levels[depth - 1].defining)
    g = _poly_gcd(p, defining, sub)
    if len(g) == 1:
        return False
    h = _poly_divexact(defining, g, sub)
    return _witness_root_of(tower, depth - 1, g, h)


def _witness_root_of(tower: Tower, level_idx: int, g: List[Elem], h: List[Elem]) -> bool:
    """True iff the selected root of level level_idx is a root of g (else of h).

    Pre: defining = g*h up to a unit, both nonconstant, so exactly one holds.
    """
    witnesses = [lv.witness for lv in tower.levels[: level_idx + 1]]

    def fits(on_g: bool) -> bool:
        boxes = [w.box() for w in witnesses]
        value = _poly_box_eval(g if on_g else h, level_idx, boxes, boxes[level_idx])
        return not _box_excludes_zero(value)

    return _narrow("gcd split", (True, False), fits, 1, *witnesses)[0]


def _poly_box_eval(
    coeffs: Sequence[Elem], coeff_depth: int, gen_boxes: Sequence[Box], at: Box
) -> Box:
    acc = _e_box(coeffs[-1], coeff_depth, gen_boxes)
    for c in reversed(list(coeffs[:-1])):
        acc = _box_add(_box_mul(acc, at), _e_box(c, coeff_depth, gen_boxes))
    return acc


def _inv_elem(e: Elem, depth: int, tower: Tower) -> Elem:
    if depth == 0:
        return Fraction(1) / e
    sub = Tower(tower.levels[: depth - 1])
    p = _poly_normalize(list(e), sub)
    if len(p) == 1:
        return _embed(_inv_elem(p[0], depth - 1, tower), depth - 1, depth, tower)
    modulus = list(tower.levels[depth - 1].defining)
    g, u = _poly_ext_gcd_first(p, modulus, sub)
    while len(g) > 1:
        # nonzero element: the selected root lies on the other factor
        modulus = _poly_divexact(modulus, g, sub)
        g, u = _poly_ext_gcd_first(p, modulus, sub)
    ginv = _inv_elem(g[0], depth - 1, tower)
    u = [_e_mul(c, ginv, depth - 1, tower) for c in u]
    d = tower.levels[depth - 1].degree
    return tuple((u + [_zero_elem(depth - 1, tower)] * d)[:d])


# ---------------------------------------------------------------------------
# polynomials over a tower (dense ascending lists of Elems)


def _poly_normalize(p: List[Elem], tower: Tower) -> List[Elem]:
    q = list(p)
    while len(q) > 1 and _is_zero_elem(q[-1], tower.depth, tower):
        q.pop()
    if len(q) == 0:
        q = [_zero_elem(tower.depth, tower)]
    return q


def _poly_is_zero(p: List[Elem], tower: Tower) -> bool:
    return all(_is_zero_elem(c, tower.depth, tower) for c in p)


def _poly_monic(p: List[Elem], tower: Tower) -> List[Elem]:
    p = _poly_normalize(p, tower)
    lead = p[-1]
    inv = _inv_elem(lead, tower.depth, tower)
    return [_e_mul(c, inv, tower.depth, tower) for c in p]


def _poly_divmod(
    a: List[Elem], b: List[Elem], tower: Tower
) -> Tuple[List[Elem], List[Elem]]:
    depth = tower.depth
    b = _poly_normalize(b, tower)
    if len(b) == 1 and _is_zero_elem(b[0], depth, tower):
        raise ZeroDivisionError("polynomial division by zero")
    binv = _inv_elem(b[-1], depth, tower)
    r = _poly_normalize(list(a), tower)
    q = [_zero_elem(depth, tower)] * max(1, len(r) - len(b) + 1)
    while len(r) >= len(b) and not (len(r) == 1 and _is_zero_elem(r[0], depth, tower)):
        factor = _e_mul(r[-1], binv, depth, tower)
        shift = len(r) - len(b)
        q[shift] = _e_add(q[shift], factor)
        for i, bc in enumerate(b):
            r[shift + i] = _e_sub(r[shift + i], _e_mul(factor, bc, depth, tower))
        r.pop()
        r = _poly_normalize(r, tower)
    return _poly_normalize(q, tower), r


def _poly_divexact(a: List[Elem], b: List[Elem], tower: Tower) -> List[Elem]:
    q, r = _poly_divmod(a, b, tower)
    if not _poly_is_zero(r, tower):
        raise AlgebraicError("inexact polynomial division")
    return q


def _poly_gcd(a: List[Elem], b: List[Elem], tower: Tower) -> List[Elem]:
    """Monic gcd over the tower (field at the selected roots)."""
    a = _poly_normalize(a, tower)
    b = _poly_normalize(b, tower)
    while not _poly_is_zero(b, tower):
        _, r = _poly_divmod(a, b, tower)
        a, b = b, r
    if _poly_is_zero(a, tower):
        return a
    return _poly_monic(a, tower)


def _poly_ext_gcd_first(
    a: List[Elem], b: List[Elem], tower: Tower
) -> Tuple[List[Elem], List[Elem]]:
    """(monic gcd g, u) with u*a = g modulo b."""
    depth = tower.depth
    r0, r1 = _poly_normalize(a, tower), _poly_normalize(b, tower)
    s0, s1 = [_embed(Fraction(1), 0, depth, tower)], [_zero_elem(depth, tower)]
    while not _poly_is_zero(r1, tower):
        q, r = _poly_divmod(r0, r1, tower)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1, depth, tower), tower)
    if _poly_is_zero(r0, tower):
        return r0, s0
    lead_inv = _inv_elem(r0[-1], depth, tower)  # the remainders are normalized
    g = [_e_mul(c, lead_inv, depth, tower) for c in r0]
    u = [_e_mul(c, lead_inv, depth, tower) for c in s0]
    return g, u


def _poly_mul(a: Sequence[Elem], b: Sequence[Elem], depth: int, tower: Tower) -> List[Elem]:
    """Product of two polynomials whose coefficients live at `depth` of the tower."""
    out = [_zero_elem(depth, tower) for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = _e_add(out[i + j], _e_mul(x, y, depth, tower))
    return out


def _poly_sub(a: List[Elem], b: List[Elem], tower: Tower) -> List[Elem]:
    n = max(len(a), len(b))
    depth = tower.depth
    out = []
    for k in range(n):
        x = a[k] if k < len(a) else _zero_elem(depth, tower)
        y = b[k] if k < len(b) else _zero_elem(depth, tower)
        out.append(_e_sub(x, y))
    return out


def _poly_derivative(p: List[Elem], tower: Tower) -> List[Elem]:
    if len(p) <= 1:
        return [_zero_elem(tower.depth, tower)]
    return [_e_scale(c, Fraction(k)) for k, c in enumerate(p) if k > 0]


# ---------------------------------------------------------------------------
# realness / ordering


def _is_real_impl(a: AlgebraicNumber) -> bool:
    if a.is_rational() is not None or a.tower.totally_real():
        return True
    # a 12-round probe: an imaginary part of certain sign proves a non-real
    if len(_signs(a, 1, stop=12)) == 1:
        return False
    return _locate_among_roots(a, _q_relation(a)).is_real()


def _q_relation(a: AlgebraicNumber) -> sympy.Poly:
    """Square-free part of the first Q-linear relation among 1, a, a^2, ...

    The powers are compared in the tower's flattened power basis by a
    Fraction echelon form.  The relation holds in the tower's ring itself,
    so it vanishes at a under every embedding of the tower, whichever root
    each level selects (memoised).
    """
    if "relation" not in a._cache:
        depth, tower = a.tower.depth, a.tower
        power = _embed(Fraction(1), 0, depth, tower)
        n = math.prod(lv.degree for lv in tower.levels)  # the ring's dimension over Q
        # each row: the coordinates of a combination of powers, then its coefficients
        rows: List[Tuple[int, List[Fraction]]] = []
        for k in range(n + 1):
            vec = _e_flat(power) + [Fraction(j == k) for j in range(n + 1)]
            for pivot, row in rows:
                c = vec[pivot]
                if c:
                    vec = [x - c * y for x, y in zip(vec, row)]
            pivot = next((j for j in range(n) if vec[j]), None)
            if pivot is None:
                break
            rows.append((pivot, [x / vec[pivot] for x in vec]))
            power = _e_mul(power, a.value, depth, tower)
        a._cache["relation"] = q_poly(vec[n:]).sqf_part()
    return a._cache["relation"]  # type: ignore[return-value]


def _all_roots(m: sympy.Poly) -> List[Witness]:
    return [Witness(m, k) for k in range(m.degree())]


def _locate_among_roots(x: AlgebraicNumber, m: sympy.Poly) -> Witness:
    """The root of m whose box alone meets the box of x.

    m is a square-free Q[T] polynomial having x's value among its roots,
    such as a `_q_relation`.
    """
    return _narrow(
        "root location", _all_roots(m), lambda w: _box_intersects(x.box(), w.box()), 1, x
    )[0]


# ---------------------------------------------------------------------------
# roots of polynomials over a tower


class RootHandle:
    """A root returned by roots_over: an AlgebraicNumber plus sort machinery."""

    __slots__ = ("number", "multiplicity", "_witness")

    def __init__(self, number: AlgebraicNumber, multiplicity: int, witness: Optional[Witness]):
        self.number = number
        self.multiplicity = multiplicity
        self._witness = witness

    def box(self) -> Box:
        return (self._witness or self.number).box()

    def refine(self):
        (self._witness or self.number).refine()

    def qpoly(self) -> sympy.Poly:
        """Some square-free Q[T] polynomial having this root among its roots."""
        if self._witness is not None:
            return self._witness.qpoly
        return _q_relation(self.number)


def _ascending(qpoly: sympy.Poly) -> Tuple[Fraction, ...]:
    """Monic rational coefficients of qpoly, lowest degree first."""
    return tuple(_frac(c) for c in reversed(qpoly.monic().all_coeffs()))


def _survivors(tower: Tower, coeffs: List[Elem], qpoly: sympy.Poly) -> List[Witness]:
    """Identify which roots of qpoly are roots of the tower polynomial.

    Certified by counting: exclusion never removes a true root, and the
    polynomial has exactly deg-many distinct roots (it is square-free).
    """
    def fits(w: Witness) -> bool:
        value = _poly_box_eval(coeffs, tower.depth, tower.gen_boxes(), w.box())
        return not _box_excludes_zero(value)

    gens = [lv.witness for lv in tower.levels]
    return _narrow("root identification", _all_roots(qpoly), fits, len(coeffs) - 1, *gens)


def _re_equal_exact(a: RootHandle, b: RootHandle) -> bool:
    """Exact equality of real parts, used only when boxes refuse to separate.

    Re(a) = Re(b) with a != b exactly when (a-b)^2 is real and negative.
    With A = a.qpoly() and B = b.qpoly(), the Q-relation of (U-V)^2 in the
    ring Q[U]/(A)[V]/(B) has (a-b)^2 among its roots; the root is located
    through the handles' boxes.
    """
    inner = Tower((Level(_ascending(a.qpoly()), None, 0),))
    outer = tuple(_embed(c, 0, 1, inner) for c in _ascending(b.qpoly()))
    ring = Tower(inner.levels + (Level(outer, None, 0),))
    diff = ring.generator(0) - ring.generator(1)

    def fits(w: Witness) -> bool:
        (are, aim), (bre, bim) = a.box(), b.box()
        d = (_iv_sub(are, bre), _iv_sub(aim, bim))
        return _box_intersects(_box_mul(d, d), w.box())

    (w,) = _narrow("root location", _all_roots(_q_relation(diff * diff)), fits, 1, a, b)
    return w.is_real() and _signs(w)[0] < 0


def _conjugate_witnesses(a: RootHandle, b: RootHandle) -> bool:
    """Exactly: a and b are the two roots of one conjugate pair of a Q[T] polynomial."""
    wa, wb = a._witness, b._witness
    return (
        wa is not None
        and wb is not None
        and not wa.is_real()
        and (wa.qpoly is wb.qpoly or wa.qpoly == wb.qpoly)
        and wb.index == wa.conjugate_index()
    )


_EXACT_RE_AFTER = 24  # rounds of real-part boxes before the exact equality test


def _orders(a: RootHandle, b: RootHandle, part: int, **rounds) -> List[int]:
    """The orders (-1, +1) of the real (part 0) or imaginary (part 1) parts
    of a and b that the boxes leave open; `rounds` as for _narrow."""
    return _narrow(
        "root comparison", (-1, 1),
        lambda s: _iv_allows(_iv_sub(a.box()[part], b.box()[part]), s), 1, a, b, **rounds,
    )


def _compare_roots(a: RootHandle, b: RootHandle) -> int:
    """-1/0/+1 in the (Re, Im) order; roots assumed distinct unless identical handles.

    Equal real parts, decided exactly after the first rounds, hand the
    remaining rounds to the imaginary parts.
    """
    if a is b:
        return 0
    if _conjugate_witnesses(a, b):
        return _orders(a, b, 1)[0]
    live = _orders(a, b, 0, stop=_EXACT_RE_AFTER)
    if len(live) > 1:
        part = 1 if _re_equal_exact(a, b) else 0
        live = _orders(a, b, part, start=_EXACT_RE_AFTER)
    return live[0]


def _sort_roots(roots: List[RootHandle]) -> List[RootHandle]:
    return sorted(roots, key=functools.cmp_to_key(_compare_roots))


def _yun_squarefree(p: List[Elem], tower: Tower) -> List[Tuple[List[Elem], int]]:
    """Square-free decomposition over the tower: [(factor, multiplicity)]."""
    p = _poly_monic(p, tower)
    dp = _poly_derivative(p, tower)
    g = _poly_gcd(p, dp, tower)
    if len(g) == 1:
        return [(p, 1)]
    out: List[Tuple[List[Elem], int]] = []
    w = _poly_divexact(p, g, tower)
    y = _poly_divexact(dp, g, tower)
    i = 1
    while len(w) > 1:
        z = _poly_sub(y, _poly_derivative(w, tower), tower)
        h = _poly_gcd(w, z, tower)
        if len(h) > 1:
            out.append((h, i))
        w_next = _poly_divexact(w, h, tower)
        y = _poly_divexact(z, h, tower)
        w = w_next
        i += 1
    return out


def roots_over(
    tower: Tower, coeffs: Sequence[Union[AlgebraicNumber, Fraction, int]]
) -> List[Tuple[AlgebraicNumber, int]]:
    """All complex roots with multiplicities, sorted by (Re, Im).

    Roots outside the tower are returned in freshly extended towers sharing
    the input tower as a prefix.
    """
    zero = tower.zero()
    p = _poly_normalize([zero._coerce(c).value for c in coeffs], tower)
    if len(p) == 1:
        if _is_zero_elem(p[0], tower.depth, tower):
            raise AlgebraicError("roots of the zero polynomial")
        return []
    handles: List[RootHandle] = []
    for factor, mult in _yun_squarefree(p, tower):
        handles.extend(_roots_of_squarefree(tower, factor, mult))
    handles = _sort_roots(handles)
    # stamp per-defining indices in sorted order for the debug format
    counters: Dict[Tuple, int] = {}
    for h in handles:
        t = h.number.tower
        if t.depth == tower.depth + 1:
            key = t.levels[-1].defining
            t.levels[-1].index = counters.get(key, 0)
            counters[key] = t.levels[-1].index + 1
    return [(h.number, h.multiplicity) for h in handles]


def _roots_of_squarefree(tower: Tower, factor: List[Elem], mult: int) -> List[RootHandle]:
    out: List[RootHandle] = []
    if len(factor) == 2:
        root = AlgebraicNumber(tower, _e_neg(factor[0]))
        return [RootHandle(root, mult, None)]
    if tower.depth == 0:
        # factor over Q so rational roots stay rational and definings are irreducible
        for fp, _m in q_poly(factor).factor_list()[1]:
            qpoly = fp.monic()
            defining = _ascending(qpoly)
            if len(defining) == 2:
                out.append(RootHandle(tower.from_rat(-defining[0]), mult, None))
                continue
            for w in _all_roots(qpoly):
                new_tower = Tower(tower.levels + (Level(defining, w, w.index),))
                out.append(RootHandle(new_tower.generator(), mult, w))
        return out
    monic = _poly_monic(factor, tower)
    defining = tuple(monic)
    # the new generator's relation in R[Z]/(monic) has every root of monic
    # among its roots, under every embedding of the tower R
    ring = Tower(tower.levels + (Level(defining, None, 0),))
    for w in _survivors(tower, monic, _q_relation(ring.generator())):
        level = Level(defining, w, 0)
        new_tower = Tower(tower.levels + (level,))
        out.append(RootHandle(new_tower.generator(), mult, w))
    return out


def conjugate_pairs(
    xs: Sequence[AlgebraicNumber],
) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Perfect matching of the non-real entries into conjugate pairs.

    Returns (pairs, fixed) as index lists.  Pre: the multiset of values is
    closed under conjugation and has no repeated values.
    """
    fixed = [k for k, x in enumerate(xs) if x.is_real()]
    open_idx = [k for k in range(len(xs)) if k not in fixed]
    pairs: List[Tuple[int, int]] = []
    while open_idx:
        k, rest = open_idx[0], open_idx[1:]
        hits = _narrow(
            "conjugate matching", [xs[j] for j in rest],
            lambda y: _box_intersects(_box_conj(xs[k].box()), y.box()), 1, xs[k],
        )
        if not hits:
            raise AlgebraicError("input not closed under conjugation (internal expansion bug)")
        partner = next(j for j in rest if xs[j] is hits[0])
        pairs.append((k, partner))
        open_idx = [j for j in rest if j != partner]
    return pairs, fixed
