"""sympy's polynomial algebra is reached only through Poly objects built from
coefficients; its expression-level factoring is never called, nor, anywhere in
this module, its expression-level resultant: elimination to Q is linear
algebra in the tower's own arithmetic."""

from fractions import Fraction

import pytest
import sympy

from quinsing import algebraic
from quinsing.classify import _ensure_square_free, classify_all, classify_point
from quinsing.curve import factor_rational, parse_poly, q_poly


@pytest.fixture(autouse=True)
def no_expression_resultant(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("expression-level sympy.resultant called")

    monkeypatch.setattr(sympy, "resultant", refuse)


@pytest.fixture
def no_expression_factoring(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("expression-level sympy.factor_list called")

    monkeypatch.setattr(sympy, "factor_list", refuse)
    _ensure_square_free.cache_clear()
    yield
    _ensure_square_free.cache_clear()


def test_factor_rational_on_a_reducible_curve(no_expression_factoring):
    fl = factor_rational(parse_poly("1/3*(y^2 - 2*x^2 + x^3)*(y - 1)*(2*y - x)^2"))
    assert fl.unit == Fraction(1, 3)
    assert [(str(p), m) for p, m in fl.factors] == [
        ("x^3 - 2*x^2 + y^2", 1), ("x - 2*y", 2), ("y - 1", 1),
    ]


def test_classify_all_with_irrational_slopes(no_expression_factoring):
    # location takes its resultants through the Poly bridge too
    # slopes +-sqrt(2) at the origin, and the second factor through (1, 1)
    reports = classify_all(parse_poly("(y^2 - 2*x^2 + x^3)*(y - 1)"))
    assert [(r.point, r.code, r.catalog_result.arnold_label) for r in reports] == [
        ((0, 0), "(1:•,•|braces:)", "A_1"),
        ((1, 1), "(1:•,•|braces:)", "A_1"),
    ]


def test_classify_point_through_the_minimal_polynomial(no_expression_factoring, monkeypatch):
    calls = []
    real = algebraic._q_relation

    def counting(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(algebraic, "_q_relation", counting)
    r = classify_point(parse_poly("(x^2+y^2)^2 + x^5"), (0, 0))
    assert r.code == "(1:(3/2:•,•|braces:),(3/2:•,•|braces:)|braces:(3/2:•,•|braces:))"
    assert r.catalog_result.id == 45
    assert calls


def test_roots_over_a_reducible_defining_polynomial():
    # Z^2 - 2 over Q(sqrt(2)) splits: its new level is eliminated to Q in the
    # ring Q(sqrt(2))[Z]/(Z^2 - 2), which is not a field
    s2 = algebraic.roots_over(algebraic.RATIONAL_TOWER, [-2, 0, 1])[1][0]
    t = s2.tower
    rts = algebraic.roots_over(t, [t.from_rat(-2), t.zero(), t.one()])
    assert [(r.tower.depth, m) for r, m in rts] == [(2, 1), (2, 1)]
    assert rts[0][0] == -s2 and rts[1][0] == s2


def _root_handle(coeffs, index):
    """The root with the given index of the monic sum(coeffs[k] * T^k), in its own tower."""
    defining = tuple(Fraction(c) for c in coeffs)
    w = algebraic.Witness(q_poly(defining), index)
    tower = algebraic.Tower((algebraic.Level(defining, w, index),))
    return algebraic.RootHandle(tower.generator(), 1, w)


def test_real_parts_compared_across_towers():
    i, two_i, one_plus_i = (
        _root_handle(cs, 1) for cs in ([1, 0, 1], [4, 0, 1], [2, -2, 1])
    )
    assert i.box()[1][0] > 0 and one_plus_i.box()[0][0] > 0  # the roots meant
    assert algebraic._re_equal_exact(i, two_i)
    assert not algebraic._re_equal_exact(i, one_plus_i)
