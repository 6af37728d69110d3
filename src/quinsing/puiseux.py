"""Newton-Puiseux expansion of a plane curve at the origin.

Branches are expanded just far enough that every pair differs at some
stored exponent; each recursion step substitutes x -> x^q, y -> x^p(c + y')
for a segment inclination p/q and a segment-polynomial root c, dividing by
the minimal weight.  Cumulative bookkeeping keeps all exponents absolute:
a node carries (offset, den) with local inclination mu contributing the
absolute exponent offset + mu/den and multiplying den by q.

Coefficients live in algebraic towers; each root continues in its own
sibling extension, so no arithmetic ever crosses unrelated towers.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .curve import BiPoly, CurveError, multiplicity_at_origin, tangent_cone
from .newton import Segment, polygon_of_support, segment_poly_coeffs
from .algebraic import RATIONAL_TOWER, AlgebraicNumber, Tower, roots_over

INFINITE_ORDER = math.inf


class PuiseuxError(CurveError):
    pass


class PuiseuxTerm(NamedTuple):
    exponent: Fraction
    coeff: AlgebraicNumber


_run_counter = itertools.count(1)


class ProBranch:
    """One pro-branch, truncated at its separation exponent.

    terms hold the nonzero jet coefficients up to and including
    separated_at, the exponent of the last split on the branch's path; a
    branch that separated purely by lacking a term may have no stored terms
    at all.  _continuation makes a fresh iterator over the terms past them.
    """

    __slots__ = (
        "terms",
        "ramification",
        "separated_at",
        "real_representable",
        "_run",
        "_path",
        "_continuation",
    )

    def __init__(self, terms: Tuple[PuiseuxTerm, ...], run: int, path: Tuple,
                 continuation: Callable[[], Iterator[PuiseuxTerm]]):
        self.terms = terms
        self.ramification = _lcm_denominators(t.exponent for t in terms)
        self.separated_at = path[-1][0] if path else Fraction(0)
        self.real_representable = _zeta_representable(terms)
        self._run = run
        self._path = path
        self._continuation = continuation

    def __repr__(self):
        jet = " + ".join(f"({t.coeff})*x^{t.exponent}" for t in self.terms) or "0"
        return f"<ProBranch {jet} | sep {self.separated_at}>"


def _lcm_denominators(exponents) -> int:
    q = 1
    for e in exponents:
        q = q * e.denominator // math.gcd(q, e.denominator)
    return q


# ---------------------------------------------------------------------------
# the zeta rule: a real parametrization x = +-t^q, from coefficient powers


def _zeta_representable(terms: Sequence[Tuple[Fraction, AlgebraicNumber]]) -> bool:
    """Whether some unit u makes every u^k_j * c_j real, k_j = e_j * q.

    q is the lcm of the exponent denominators.  Substituting t -> u*t with
    u^(2q) = 1 keeps x = +-t^q, so the jet is real representable iff there is
    an m with n_j + m*k_j = 0 (mod q) for all j, where arg c_j = n_j*pi/q.

    - Every c_j real: m = 0 works.
    - n_j exists iff c_j^(2q) is a positive real.
    - For a pair a < b, c_a^k_b * c_b^(-k_a) has argument
      (n_a*k_b - n_b*k_a)*pi/q, so it is real iff n_a*k_b = n_b*k_a (mod q).
      The exponent -k_a is taken mod 2q, which only multiplies by a positive
      power of c_b^(2q) and keeps every power non-negative.
    - The pairwise congruences follow from m.  Conversely, gcd(k_1, ..., k_n,
      q) = 1 because q is the lcm of the reduced denominators, so Bezout
      gives sum x_j*k_j = 1 (mod q), and m = -sum x_j*n_j solves every
      congruence: n_i + m*k_i = n_i - sum x_j*n_j*k_i, which the pairwise
      congruences turn into n_i*(1 - sum x_j*k_j) = 0 (mod q).

    The terms of one jet live in nested prefix towers, so products coerce.
    """
    if all(c.is_real() for _e, c in terms):
        return True
    q = _lcm_denominators(e for e, _ in terms)
    for _e, c in terms:
        power = c ** (2 * q)
        if not power.is_real() or power.sign() <= 0:
            return False
    scaled = [(int(e * q), c) for e, c in terms]
    return all(
        (ca ** kb * cb ** (-ka % (2 * q))).is_real()
        for (ka, ca), (kb, cb) in itertools.combinations(scaled, 2)
    )


# ---------------------------------------------------------------------------
# the walk

TPoly = Dict[Tuple[int, int], AlgebraicNumber]


def _substitute(g: TPoly, seg: Segment, c: AlgebraicNumber) -> TPoly:
    """g(x^q, x^p(c + v)) / x^m over c's tower, m the minimal segment weight."""
    p, q = seg.p, seg.q
    m = min(q * i + p * j for i, j in g)
    vdeg = max(j for _i, j in g)
    cpow = [c.tower.one()]
    for _ in range(vdeg):
        cpow.append(cpow[-1] * c)
    out: TPoly = {}
    for (i, j), a in g.items():
        w = q * i + p * j - m
        for l in range(j + 1):
            key = (w, l)
            contrib = a * cpow[j - l] * math.comb(j, l)
            if key in out:
                out[key] = out[key] + contrib
            else:
                out[key] = contrib
    return {k: a for k, a in out.items() if not a.is_zero()}


def _node_shape(g: TPoly, seg_index: int):
    """(segments, count): the node's polygon segments from seg_index on and
    the number of branches they carry, plus one for an exact factor y."""
    support = list(g)
    min_j = min(j for _i, j in support)
    if min_j >= 2:
        raise PuiseuxError("multiple component detected mid-recursion")
    j_start = min(j for i, j in support if i == 0)
    if j_start > min_j:
        segments = list(polygon_of_support(support).segments)
    else:
        segments = []
    segments = segments[seg_index:]
    count = sum(s.start[1] - s.end[1] for s in segments) + min_j
    return segments, count


def _leaf_terms(
    g: TPoly,
    tower: Tower,
    offset: Fraction,
    den: int,
    seg_index: int,
    step: Optional[Tuple[Segment, AlgebraicNumber]] = None,
) -> Iterator[PuiseuxTerm]:
    """The jet terms of a separated branch past its stored ones.

    (g, tower, offset, den, seg_index) is the node the branch was left at;
    step, when given, is the (segment, root) still to be substituted into g
    first.  Each linear segment step yields one term; the generator returns
    when the polygon runs out, i.e. the branch is exactly y = jet.
    """
    while True:
        if step is not None:
            seg, c = step
            g = _substitute(g, seg, c)
            tower = c.tower
            offset = offset + seg.exponent / den
            den = den * seg.q
            seg_index = 0
        segments, count = _node_shape(g, seg_index)
        if count != 1:
            raise PuiseuxError("leaf continuation is not unique (internal bug)")
        if not segments:
            return
        seg = segments[0]
        psi = segment_poly_coeffs(g, seg, tower.zero())
        if len(psi) != 2:
            raise PuiseuxError("separated branch produced nonlinear step (internal bug)")
        c = -psi[0] / psi[1]
        yield PuiseuxTerm(offset + seg.exponent / den, c)
        step = (seg, c)


def _walk(
    g: TPoly,
    tower: Tower,
    offset: Fraction,
    den: int,
    seg_index: int,
    prefix: Tuple[PuiseuxTerm, ...],
    path: Tuple,
    cap: Fraction,
    run: int,
    out: List[ProBranch],
):
    segments, count = _node_shape(g, seg_index)
    if count == 1:
        rest = functools.partial(_leaf_terms, g, tower, offset, den, seg_index)
        out.append(ProBranch(prefix, run, path, rest))
        return
    seg = segments[0]
    exponent = offset + seg.exponent / den
    if exponent > cap:
        raise PuiseuxError(
            f"separation exponent exceeds cap {cap} "
            "(non-square-free input or cap too low)"
        )
    psi = segment_poly_coeffs(g, seg, tower.zero())
    roots = roots_over(tower, psi)
    beyond = count - (seg.start[1] - seg.end[1])
    n_children = len(roots) + (1 if beyond >= 1 else 0)
    split = n_children >= 2

    def child_path(key):
        return path + ((exponent, key),) if split else path

    for ordinal, (c, mult) in enumerate(roots):
        new_prefix = prefix + (PuiseuxTerm(exponent, c),)
        if mult == 1:
            # a simple root only occurs at a split, so this term sits at
            # separated_at; the substitution waits until the rest is asked for
            rest = functools.partial(_leaf_terms, g, tower, offset, den, 0, (seg, c))
            out.append(ProBranch(new_prefix, run, child_path((0, ordinal)), rest))
        else:
            g2 = _substitute(g, seg, c)
            _walk(
                g2, c.tower, exponent, den * seg.q, 0,
                new_prefix, child_path((0, ordinal)), cap, run, out,
            )
    if beyond >= 1:
        _walk(
            g, tower, offset, den, seg_index + 1,
            prefix, child_path(("z",)), cap, run, out,
        )


def expand_to_separation(f: BiPoly, cap: Fraction = Fraction(8)) -> List[ProBranch]:
    m = multiplicity_at_origin(f)
    cone = tangent_cone(f)
    if all(i > 0 for i, _j in cone.terms):
        raise PuiseuxError("vertical tangent at the origin (pre-shear required)")
    g: TPoly = {k: RATIONAL_TOWER.from_rat(c) for k, c in f.terms.items()}
    run = next(_run_counter)
    out: List[ProBranch] = []
    _walk(g, RATIONAL_TOWER, Fraction(0), 1, 0, (), (), Fraction(cap), run, out)
    if len(out) != m:
        raise PuiseuxError(
            f"branch count {len(out)} != multiplicity {m} (internal bug)"
        )
    return out


# ---------------------------------------------------------------------------
# per-branch operations


def real_representable(b: ProBranch) -> bool:
    return b.real_representable


def contact_exponent(b1: ProBranch, b2: ProBranch) -> Fraction:
    if b1._run != b2._run:
        raise PuiseuxError("contact exponent requires branches from one expansion run")
    for (e1, k1), (e2, k2) in zip(b1._path, b2._path):
        if e1 != e2:
            raise PuiseuxError("inconsistent branch paths (internal bug)")
        if k1 != k2:
            return e1
    raise PuiseuxError("identical branches have no contact exponent (internal bug)")


def _extended(b: ProBranch, steps: int) -> Tuple[List[PuiseuxTerm], bool]:
    """(jet terms of b plus up to `steps` more, whether the expansion ran out)."""
    more = list(itertools.islice(b._continuation(), steps))
    return list(b.terms) + more, len(more) < steps


def extend_jet(b: ProBranch, steps: int) -> List[PuiseuxTerm]:
    """Jet terms of b extended by `steps` more expansion steps (nonzero terms)."""
    return _extended(b, steps)[0]


def display_jet(b: ProBranch) -> List[PuiseuxTerm]:
    """Stored jet, extended to the first nonzero term when none is stored."""
    return list(b.terms) or extend_jet(b, 1)


def residual_valuation(f: BiPoly, b: ProBranch, extra: int) -> Union[Fraction, float]:
    """ord_x f(x, jet(x)) after extending b by `extra` steps; inf when exact."""
    items, exhausted = _extended(b, extra)
    if exhausted:
        return INFINITE_ORDER
    return _jet_order(f, items)


def _jet_order(f: BiPoly, items: Sequence[Tuple[Fraction, AlgebraicNumber]]):
    q = _lcm_denominators(e for e, _ in items) if items else 1
    tower = items[-1][1].tower if items else RATIONAL_TOWER
    # y(t) with x = t^q; exponents t^(e*q)
    jet: Dict[int, AlgebraicNumber] = {}
    for e, c in items:
        k = int(e * q)
        jet[k] = jet.get(k, tower.zero()) + c
    # Horner over y-coefficients of f: result is a dict t-exponent -> coeff
    ycoeffs: List[Dict[int, Fraction]] = []
    maxj = max(j for _i, j in f.terms)
    for j in range(maxj + 1):
        row = {q * i: c for (i, jj), c in f.terms.items() if jj == j}
        ycoeffs.append(row)
    acc: Dict[int, AlgebraicNumber] = {
        k: tower.from_rat(c) for k, c in ycoeffs[maxj].items()
    }
    for j in range(maxj - 1, -1, -1):
        nxt: Dict[int, AlgebraicNumber] = {}
        for ka, ca in acc.items():
            for kb, cb in jet.items():
                key = ka + kb
                term = ca * cb
                nxt[key] = nxt.get(key, tower.zero()) + term
        for kb, cb in ycoeffs[j].items():
            nxt[kb] = nxt.get(kb, tower.zero()) + cb
        acc = {k: c for k, c in nxt.items()}
    orders = sorted(k for k, c in acc.items() if not c.is_zero())
    if not orders:
        return INFINITE_ORDER
    return Fraction(orders[0], q)


def branch_json(b: ProBranch) -> dict:
    return {
        "ramification": b.ramification,
        "terms": [
            {"exponent": str(t.exponent), "coeff": str(t.coeff)} for t in b.terms
        ],
        "real": b.real_representable,
    }
