"""sympy's polynomial algebra is reached only through Poly objects built from
coefficients; its expression-level factoring is never called, nor its
expression-level resultant while points are located."""

from fractions import Fraction

import pytest
import sympy

from quinsing import algebraic
from quinsing.classify import _ensure_square_free, classify_all, classify_point
from quinsing.curve import factor_rational, parse_poly


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


def test_classify_all_with_irrational_slopes(no_expression_factoring, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("expression-level sympy.resultant called")

    # location takes its resultants through the Poly bridge too
    monkeypatch.setattr(sympy, "resultant", refuse)
    # slopes +-sqrt(2) at the origin, and the second factor through (1, 1)
    reports = classify_all(parse_poly("(y^2 - 2*x^2 + x^3)*(y - 1)"))
    assert [(r.point, r.code, r.catalog_result.arnold_label) for r in reports] == [
        ((0, 0), "(1:•,•|braces:)", "A_1"),
        ((1, 1), "(1:•,•|braces:)", "A_1"),
    ]


def test_classify_point_through_the_minimal_polynomial(no_expression_factoring, monkeypatch):
    calls = []
    real = algebraic._minpoly_q

    def counting(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(algebraic, "_minpoly_q", counting)
    r = classify_point(parse_poly("(x^2+y^2)^2 + x^5"), (0, 0))
    assert r.code == "(1:(3/2:•,•|braces:),(3/2:•,•|braces:)|braces:(3/2:•,•|braces:))"
    assert r.catalog_result.id == 45
    assert calls
