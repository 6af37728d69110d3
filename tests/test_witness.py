"""The closed-form witness for roots of degree-2 Q-polynomials, against sympy."""

from fractions import Fraction as F

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from quinsing.algebraic import Witness

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
    raise AssertionError("a degree-2 witness built a CRootOf")


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


def test_scaled_crootof_witness():
    """sympy returns the roots of T^3 - 8T - 16 as 2*CRootOf(T^3 - 2T - 2, k)."""
    qpoly = sympy.Poly(T**3 - 8 * T - 16, T)
    assert sympy.CRootOf(qpoly, 0, radicals=False).is_Mul
    ws = [Witness(qpoly, k) for k in range(3)]
    # sympy's roots to 40 digits, in CRootOf order; no box endpoint comes that close
    for w, root in zip(ws, qpoly.nroots(n=40)):
        re, im = (F(str(c)) for c in root.as_real_imag())
        for _ in range(10):
            w.refine()
            assert all(_contains(iv, value) for iv, value in zip(w.box(), (re, im)))
        assert all(hi - lo <= F(1, 64) for lo, hi in w.region)
    assert [w.is_real() for w in ws] == [True, False, False]
    assert [w.conjugate_index() for w in ws] == [0, 2, 1]
