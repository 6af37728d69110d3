"""Root witnesses against sympy: the closed form for degree 2, certified
Krawczyk boxes for higher degrees."""

from fractions import Fraction as F

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from quinsing import classify_all, parse_poly
from quinsing.algebraic import DecisionFailure, Witness, _box_width, _isolate

T = sympy.Symbol("T")

rat_st = st.fractions(min_value=-6, max_value=6, max_denominator=5)
nonzero_st = rat_st.filter(lambda q: q != 0)


def _expr(coeffs):
    """sympy expression of a polynomial given by ascending Fraction coefficients."""
    return sum(sympy.Rational(c.numerator, c.denominator) * T**k for k, c in enumerate(coeffs))


@st.composite
def square_free_quadratics(draw):
    """(lead, c1, c0): both signs of D, square D, square -D, either sign of lead."""
    lead = draw(nonzero_st)
    kind = draw(st.sampled_from(["free", "rational roots", "rational imaginary part"]))
    if kind == "free":
        c1, c0 = draw(rat_st), draw(rat_st)
    elif kind == "rational roots":  # lead*(T - r)(T - s): D is a nonzero square
        r = draw(rat_st)
        s = draw(rat_st.filter(lambda q: q != r))
        c1, c0 = -lead * (r + s), lead * r * s
    else:  # lead*((T - u)^2 + v^2): -D is a nonzero square
        u, v = draw(rat_st), draw(nonzero_st)
        c1, c0 = -2 * lead * u, lead * (u * u + v * v)
    if c1 * c1 - 4 * lead * c0 == 0:
        c0 += 1
    return lead, c1, c0


def _exact_or_close(coord) -> F:
    """A rational coordinate exactly; an irrational one to within 1e-89, which
    no box endpoint at 40 bits can come near for these small polynomials."""
    if coord.is_Rational:
        return F(int(coord.p), int(coord.q))
    return F(str(coord.evalf(90)))


def _contains(iv, value: F) -> bool:
    return iv[0] <= value <= iv[1]


def _raise_on_rootof(*_args, **_kwargs):
    raise AssertionError("a witness built a CRootOf")


@given(square_free_quadratics())
@example((F(1), F(0), F(-2)))  # sqrt(2): D > 0, not a square
@example((F(-3), F(1), F(2)))  # roots -2/3 and 1, negative leading coefficient
@example((F(1), F(0), F(1)))  # +-i: -D a square, real part 0
@example((F(2), F(2), F(1)))  # -1/2 +- i/2
@example((F(-1), F(1), F(-1)))  # (1 +- i*sqrt(3))/2, negative leading coefficient
@settings(max_examples=60, deadline=None)
def test_quadratic_witness_follows_sympy(quadratic):
    lead, c1, c0 = quadratic
    qpoly = sympy.Poly(_expr([c0, c1, lead]), T)
    exact = [sympy.CRootOf(qpoly, k, radicals=True) for k in range(2)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sympy, "CRootOf", _raise_on_rootof)
        ws = [Witness(qpoly, k) for k in range(2)]
        boxes = []
        for _ in range(41):  # precisions 0..40 bits
            boxes.append([w.box() for w in ws])
            for w in ws:
                w.refine()
        regions = [w.region for w in ws]
        conjugates = [w.conjugate_index() for w in ws]
    for k, (w, root) in enumerate(zip(ws, exact)):
        coords = root.as_real_imag()
        re, im = (_exact_or_close(c) for c in coords)
        assert w.index == k
        assert w.is_real() == (im == 0)
        if w.rational is not None:
            assert w.rational == re
        for box in [row[k] for row in boxes] + [regions[k]]:
            for coord, value, iv in zip(coords, (re, im), box):
                assert _contains(iv, value)
                if coord.is_Rational:  # exact coordinates are points at every precision
                    assert iv == (value, value)
        for lo, hi in regions[k]:  # otherwise a closed cell of the 1/64 grid
            assert lo == hi or (hi - lo == F(1, 64) and (64 * lo).denominator == 1)
        if not w.is_real():
            assert conjugates[k] == 1 - k
            assert all(row[0][0] == row[1][0] for row in boxes)


def _holds(box, root) -> bool:
    return all(_contains(iv, value) for iv, value in zip(box, root))


@pytest.mark.parametrize(
    "expr, real, conjugates",
    [
        (T**3 - 8 * T - 16, [True, False, False], [0, 2, 1]),
        ((T - 1) ** 4 - 2, [True, True, False, False], [0, 1, 3, 2]),
        (T**4 + sympy.Rational(1, 16), [False] * 4, [1, 0, 3, 2]),
        (T**5 - 3 * T + 1, [True, True, True, False, False], [0, 1, 2, 4, 3]),
    ],
    ids=["T^3-8T-16", "(T-1)^4-2", "T^4+1/16", "T^5-3T+1"],
)
def test_certified_witness_of_degree_three_and_more(monkeypatch, expr, real, conjugates):
    """Roots of degree >= 3 get boxes that the package certifies itself.

    sympy's roots to 200 digits are the reference; every box keeps its root
    at least a quarter of its width inside, far more than 10^-200.  Real
    roots come first in ascending order, then conjugate pairs, lower root
    first.  A region coordinate is its one cell of the 1/64 grid, or, on a
    grid line such as the real part 1 of the roots 1 +- i*2^(1/4) of
    (T - 1)^4 - 2, the two cells around it.
    """
    qpoly = sympy.Poly(expr, T)
    roots = [tuple(F(str(c)) for c in r.as_real_imag()) for r in qpoly.nroots(n=200)]
    monkeypatch.setattr(sympy, "CRootOf", _raise_on_rootof)
    ws = [Witness(qpoly, k) for k in range(qpoly.degree())]
    mine = []
    for w in ws:
        (root,) = [r for r in roots if _holds(w.box(), r)]
        mine.append(root)
        for _ in range(10):
            w.refine()
            assert _holds(w.box(), root)
        for (lo, hi), value in zip(w.region, root):
            assert lo <= value <= hi and (64 * lo).denominator == (64 * hi).denominator == 1
            on_line = abs(64 * value - round(64 * value)) < F(1, 10**100)
            assert hi - lo == (F(2, 64) if on_line else F(1, 64)) or lo == hi == value
    assert sorted(mine) == sorted(roots)
    assert [w.is_real() for w in ws] == real
    assert [w.conjugate_index() for w in ws] == conjugates
    assert [r for r, is_real in zip(mine, real) if is_real] == sorted(r for r in roots if r[1] == 0)
    for k, j in enumerate(conjugates):  # mirrored roots, the lower one first
        assert mine[j] == (mine[k][0], -mine[k][1]) and (j <= k or mine[k][1] < 0)
    if expr == (T - 1) ** 4 - 2:
        assert [w.region[0] for w in ws[2:]] == [(F(63, 64), F(65, 64))] * 2


def test_certified_witness_gains_one_bit_per_refine():
    """A Krawczyk step doubles the bits of a box, but one refine() must add
    about one: decisions refine every live candidate once per round, for up
    to 240 rounds."""
    for k in range(3):
        w = Witness(sympy.Poly(T**3 - 8 * T - 16, T), k)
        for calls in range(1, 301):
            before = _box_width(w.box())
            w.refine()
            after = _box_width(w.box())
            assert before / 2 <= after < before
            ends = [q for iv in w.box() for q in iv]
            bits = max(max(q.numerator.bit_length(), q.denominator.bit_length()) for q in ends)
            assert bits <= 2 * (calls + 64)


def test_isolation_out_of_bits_is_a_domain_error(monkeypatch):
    """mpmath failing to converge at every precision ends in a DecisionFailure
    that names the polynomial and the bits reached."""

    def no_convergence(*args, **kwargs):
        raise mpmath.libmp.NoConvergence("refused")

    monkeypatch.setattr(mpmath, "polyroots", no_convergence)
    message = r"root isolation of T\*\*3 - 2 did not converge in 16384 bits"
    with pytest.raises(DecisionFailure, match=message):
        _isolate.__wrapped__(sympy.Poly(T**3 - 2, T))


def test_classify_without_sympy_root_isolation(monkeypatch):
    """The real branch of y^3 - 2x^3 + x^4 has the coefficient 2^(1/3), a
    root of a cubic; its witness and region come without sympy's CRootOf."""
    monkeypatch.setattr(sympy, "CRootOf", _raise_on_rootof)
    (report,) = classify_all(parse_poly("y^3 - 2*x^3 + x^4"))
    assert report.code == "(1:•,•,•|braces:•)"
    assert report.catalog_result.arnold_label == "D*_4"
    coeffs = [t["coeff"] for b in report.to_json()["branches"] for t in b["terms"]]
    assert coeffs[2] == "RootOf(Z^3 - 2, region=[5/4,81/64]x[0,0], index=2)"
