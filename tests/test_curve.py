from fractions import Fraction as F

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix
from hypothesis import example, given, settings, strategies as st

from quinsing.curve import (
    BiPoly,
    CurveError,
    FactorList,
    ParseError,
    factor_rational,
    format_poly,
    from_sympy,
    linear_change,
    multiplicity_at_origin,
    parse_poly,
    q_poly,
    resultant,
    square_free_part,
    tangent_cone,
    to_sympy,
    translate,
)


def P(s):
    return parse_poly(s)


# -- parsing


def test_parse_basic_examples():
    assert P("y^2 + x^3").terms == {(0, 2): F(1), (3, 0): F(1)}
    assert P("x^2*y + x^4 + 2*x*y^2 + y^3").terms == {
        (2, 1): F(1),
        (4, 0): F(1),
        (1, 2): F(2),
        (0, 3): F(1),
    }


def test_parse_rational_coefficients_and_signs():
    assert P("-1/2*x + y").terms == {(1, 0): F(-1, 2), (0, 1): F(1)}
    assert P("x - - y").terms == {(1, 0): F(1), (0, 1): F(1)}
    assert P("(x + y)^2 - x^2 - y^2").terms == {(1, 1): F(2)}
    assert P("3").terms == {(0, 0): F(3)}
    assert P("0").terms == {}


def test_parse_cancellation_gives_zero():
    assert P("x - x").is_zero()


@pytest.mark.parametrize(
    "text",
    [
        "x +",
        "x ^ y",
        "x^(2)",
        "x^-1",
        "x^1/2",
        "2x",
        "x*",
        "(x + y",
        "z + 1",
        "1/0",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        P(text)


def test_parse_error_carries_position():
    try:
        P("x + z")
    except ParseError as e:
        assert e.position == 4
    else:
        raise AssertionError


# -- printing

def test_format_is_graded_then_x_major():
    f = P("y^3 + x^4 + 2*x*y^2 + x^2*y")
    assert format_poly(f) == "x^4 + x^2*y + 2*x*y^2 + y^3"
    assert format_poly(P("0")) == "0"
    assert format_poly(P("-x + 1")) == "-x + 1"
    assert format_poly(P("1/2*y - x^2")) == "-x^2 + 1/2*y"


coeffs_st = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
).filter(lambda q: q != 0)
monom_st = st.tuples(st.integers(0, 4), st.integers(0, 4))
poly_st = st.dictionaries(monom_st, coeffs_st, max_size=6).map(BiPoly)


@given(poly_st)
def test_print_parse_round_trip(f):
    assert parse_poly(format_poly(f)) == f


@given(poly_st, poly_st)
def test_addition_cancels(f, g):
    assert (f + g) - g == f
    assert f + g == g + f


@given(poly_st)
def test_pow_matches_repeated_product(f):
    assert f**3 == f * f * f
    assert f**0 == BiPoly.const(F(1))


# -- local data at the origin


def test_multiplicity_and_tangent_cone():
    f = P("y^2 + x^3")
    assert multiplicity_at_origin(f) == 2
    assert tangent_cone(f) == P("y^2")
    g = P("x^2*y + x^4 + 2*x*y^2 + y^3")
    assert multiplicity_at_origin(g) == 3
    assert tangent_cone(g) == P("x^2*y + 2*x*y^2 + y^3")


def test_multiplicity_rejects_units_and_zero():
    with pytest.raises(CurveError):
        multiplicity_at_origin(P("1 + x"))
    with pytest.raises(CurveError):
        multiplicity_at_origin(BiPoly.zero())


def test_translate_moves_point_to_origin():
    f = P("y^2 - x^3 - x^2")  # nodal cubic, singular at origin
    g = translate(f, (F(1), F(0)))
    # f(x+1, y) vanishes at origin iff f(1,0) = 0
    assert g.coeff(0, 0) == f.eval_at(F(1), F(0))


def test_linear_change_examples():
    f = P("y^2")
    m = ((F(1), F(0)), (F(1), F(1)))
    # x -> x, y -> x + y
    assert linear_change(f, m) == P("x^2 + 2*x*y + y^2")
    swap = ((F(0), F(1)), (F(1), F(0)))
    assert linear_change(P("y^2 - x^2"), swap) == P("x^2 - y^2")
    with pytest.raises(CurveError):
        linear_change(f, ((F(1), F(2)), (F(2), F(4))))


mat_st = st.sampled_from(
    [
        ((F(1), F(0)), (F(0), F(1))),
        ((F(1), F(1)), (F(0), F(1))),
        ((F(1), F(0)), (F(2), F(1))),
        ((F(0), F(1)), (F(1), F(0))),
        ((F(2), F(1)), (F(1), F(1))),
    ]
)


def _mat_inv(m):
    (a, b), (c, d) = m
    det = a * d - b * c
    return ((d / det, -b / det), (-c / det, a / det))


@given(poly_st, mat_st)
@settings(max_examples=60)
def test_linear_change_is_invertible(f, m):
    assert linear_change(linear_change(f, m), _mat_inv(m)) == f


# -- resultants


def test_resultant_oracles():
    assert resultant(P("y^2 - x"), P("y^2 + x"), "y") == P("4*x^2")
    assert resultant(P("y^2 - x^3"), P("y"), "y") == P("-x^3")
    assert resultant(P("x*y - 1"), P("x^2 + y^2 - 4"), "y") == P("x^4 - 4*x^2 + 1")


def _sylvester_resultant(f, g, var):
    """det of the Sylvester matrix of f and g in var (rows of f first), by sympy."""
    v = sympy.Symbol(var)
    fd = sympy.Poly(to_sympy(f), v).all_coeffs()  # descending, coefficients in the other variable
    gd = sympy.Poly(to_sympy(g), v).all_coeffs()
    m, n = len(fd) - 1, len(gd) - 1
    rows = [[0] * s + fd + [0] * (n - 1 - s) for s in range(n)]
    rows += [[0] * s + gd + [0] * (m - 1 - s) for s in range(m)]
    matrix = DomainMatrix.from_Matrix(sympy.Matrix(rows))
    return matrix.domain.to_sympy(matrix.det())


@given(poly_st, poly_st, st.sampled_from(["x", "y"]))
@example(P("y"), P("y^3 + 1"), "y")  # sympy 1.14's resultant gives -1 here in both orders
@example(P("y^3 + 1"), P("y"), "y")
@example(P("x"), P("x^3 + y"), "x")  # y; sympy 1.14 gives -y unless the cubic comes first
@example(P("x*y - 1"), P("y^3 + x"), "y")  # x^4 + 1; likewise -x^4 - 1
@settings(max_examples=40, deadline=None)
def test_resultant_matches_sympy(f, g, var):
    """Against the Sylvester determinant, built from sympy matrices; sympy's own
    `resultant` is not the reference, as its sign is wrong for some pairs."""
    if f.is_zero() or g.is_zero():
        return
    if f.degree_in(var) == 0 and g.degree_in(var) == 0:
        return
    ours = resultant(f, g, var)
    assert sympy.expand(to_sympy(ours).as_expr() - _sylvester_resultant(f, g, var)) == 0


@given(poly_st)
def test_sympy_bridge_round_trip(f):
    p = to_sympy(f)
    assert p.domain == sympy.QQ and p.gens == sympy.symbols("x y")
    assert from_sympy(p) == f


def test_q_poly_reads_ascending_coefficients():
    p = q_poly([F(-2), F(0), F(1, 2), F(0)])
    assert p.domain == sympy.QQ
    assert p.all_coeffs() == [sympy.Rational(1, 2), 0, -2]


# -- factorization


def test_factor_rational_re_expands():
    f = P("y^2 - x^4")
    fl = factor_rational(f)
    assert fl.expand() == f
    assert len(fl.factors) == 2
    assert all(m == 1 for _, m in fl.factors)


def test_factor_unit_normalization():
    f = P("(2*y - 2*x) * (3*x + 3*y)")
    fl = factor_rational(f)
    assert fl.expand() == f
    assert fl.unit == F(-6)


def test_factor_irreducible_stays_whole():
    f = P("y^2 + x^3")
    fl = factor_rational(f)
    assert len(fl.factors) == 1
    assert fl.factors[0][1] == 1


def test_factor_repeated():
    f = P("(y - x^2)^2")
    fl = factor_rational(f)
    assert len(fl.factors) == 1
    assert fl.factors[0][1] == 2
    assert fl.expand() == f


@given(poly_st, poly_st)
@settings(max_examples=30, deadline=None)
def test_factor_product_re_expands(f, g):
    h = f * g
    if h.is_zero() or h.total_degree() > 8:
        return
    assert factor_rational(h).expand() == h


def test_square_free_part():
    part, had = square_free_part(P("(y - x^2)^2"))
    assert had is True
    assert part in (P("y - x^2"), P("x^2 - y"))
    f = P("y^2 + x^3")
    part, had = square_free_part(f)
    assert had is False
    assert part == f


def test_factor_degree_cap():
    with pytest.raises(CurveError):
        factor_rational(P("x^9"))
