import json
import random
from fractions import Fraction as F

import pytest

from quinsing.catalog import NotInCatalog, SingularityClass
from quinsing.classify import (
    IRRATIONAL_WARNING,
    ClassifyError,
    classify_all,
    classify_point,
    rational_singular_points,
)
from quinsing.curve import CurveError, linear_change, parse_poly, translate


def test_singular_points_of_cusp():
    assert rational_singular_points(parse_poly("y^2 - x^3")) == [(0, 0)]


def test_no_singular_points_on_smooth_conic():
    assert rational_singular_points(parse_poly("x^2 + y^2 - 1")) == []


def test_translated_cusp_found():
    pts = rational_singular_points(parse_poly("(y-1)^2 - (x-2)^3"))
    assert pts == [(2, 1)]


def test_intersection_points_of_two_smooth_factors():
    pts = rational_singular_points(parse_poly("(y^2 - x)*(x^2 - y)"))
    assert pts == [(0, 0), (1, 1)]


def test_singular_points_with_a_y_free_factor():
    # Res_y of the y-free factor x - 1 with the cusp is taken by its degree-0 branch
    pts = rational_singular_points(parse_poly("(x - 1)*(y^2 - x^3)"))
    assert pts == [(0, 0), (1, -1), (1, 1)]


def test_multiple_component_rejected():
    with pytest.raises(CurveError, match="multiple component"):
        classify_point(parse_poly("(y - x^2)^2 * (y + x)"), (0, 0))
    with pytest.raises(CurveError, match="multiple component"):
        rational_singular_points(parse_poly("(y - x^2)^2"))


def test_point_membership_checked():
    with pytest.raises(ClassifyError, match="not on the curve"):
        classify_point(parse_poly("y^2 - x^3"), (1, 3))


def test_smooth_point_rejected():
    with pytest.raises(ClassifyError, match="smooth point"):
        classify_point(parse_poly("y^2 - x^3"), (1, 1))


def test_cusp_report():
    r = classify_point(parse_poly("y^2 - x^3"), (0, 0))
    assert r.multiplicity == 2
    assert r.shear_lambda == 0
    assert r.code == "(3/2:•,•|braces:)"
    assert isinstance(r.catalog_result, SingularityClass)
    assert r.catalog_result.arnold_label == "A_2"
    assert r.q_irreducible is True
    assert len(r.branches) == 2


def test_vertical_cone_triggers_shear():
    # tangent cone x*y is divisible by x, so the smallest usable shear is 1
    r = classify_point(parse_poly("x*y + x^3 + y^3"), (0, 0))
    assert r.shear_lambda == 1
    assert r.shear_matrix == ((1, 1), (0, 1))
    assert r.catalog_result.arnold_label == "A_1"


def test_reducible_context_affects_lookup():
    # conic through a nodal cubic's node, tangent to one nodal branch
    r = classify_point(parse_poly("(y^2 - x*y + x^3)*(y + 2*x^2)"), (0, 0))
    assert r.q_irreducible is False
    assert isinstance(r.catalog_result, SingularityClass)
    assert r.catalog_result.arnold_label == "D_6"
    assert r.catalog_result.reducible is True


def test_classify_all_two_nodes():
    rs = classify_all(parse_poly("(y^2 - x)*(x^2 - y)"))
    assert [r.point for r in rs] == [(F(0), F(0)), (F(1), F(1))]
    assert all(r.catalog_result.arnold_label == "A_1" for r in rs)
    assert all(IRRATIONAL_WARNING in r.warnings for r in rs)


def test_reports_are_bit_for_bit_reproducible():
    a = classify_point(parse_poly("(y^2 - x*y)^2 - x^5"), (0, 0))
    b = classify_point(parse_poly("(y^2 - x*y)^2 - x^5"), (0, 0))
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
        b.to_json(), sort_keys=True
    )


def test_code_survives_a_linear_change():
    f = parse_poly("(y^2 - x*y)^2 - x^5")
    g = linear_change(f, [[F(1), F(2)], [F(1), F(3)]])
    ra = classify_point(f, (0, 0))
    rb = classify_point(g, (0, 0))
    assert ra.code == rb.code


def test_leaf_count_matches_multiplicity():
    for text in ("y^2 - x^3", "(y^2 - x*y)^2 - x^5", "(x^2 + y^2)^2 + x^5"):
        r = classify_point(parse_poly(text), (0, 0))
        assert len(r.branches) == r.multiplicity
        assert not r.warnings


def test_cap_exceeded_is_a_domain_error():
    # the two branches agree past any depth the default cap allows
    with pytest.raises(CurveError):
        classify_point(parse_poly("y*(y - x^9)"), (0, 0))


# sqrt(2) and sqrt(2 + 10^-150) differ by about 2^-501
NEAR_TWO = f"{2 * 10**150 + 1}/{10**150}"


@pytest.mark.parametrize("text", [
    f"(y^2 + 2*x^2)*(y^2 + {NEAR_TWO}*x^2) + x^5",
    f"(y - x)*(y^2 - 2*x^2)*(y^2 - {NEAR_TWO}*x^2)",
], ids=["conjugate tangent pairs", "five real tangents"])
def test_tangents_closer_than_the_round_budget_are_a_domain_error(text):
    """Root comparison refines one bit per round, for at most 240 rounds, so
    these tangent slopes cannot be told apart.  A refinement that doubles
    its precision under a bit budget would classify both curves (X**_9 and
    N_16), and this test would then change to expect those reports."""
    with pytest.raises(CurveError, match="root comparison did not converge"):
        classify_point(parse_poly(text), (0, 0))


@pytest.mark.parametrize("k", [40, 150])
@pytest.mark.parametrize("sign, code, label", [
    (1, "(1:•,•,•|braces:•)", "D*_4"),
    (-1, "(1:•,•,•|braces:)", "D_4"),
])
def test_near_coincident_roots_of_an_irreducible_cubic_tangent_cone(k, sign, code, label):
    """The tangent cone T^3 - 3T + 2 + e, e = sign * 10^-k, has two roots
    within about 10^(-k/2) of 1: a conjugate pair for e > 0, two real roots
    for e < 0.  They are isolated only once mpmath's precision, doubling from
    64 bits, reaches about k*log2(10) bits, past a fixed schedule."""
    text = f"y^3 - 3*x^2*y + {2 * 10**k + sign}/{10**k}*x^3 + x^4"
    (report,) = classify_all(parse_poly(text))
    assert report.code == code
    assert report.catalog_result.arnold_label == label


def _random_affine_image(f, rng):
    """f under a random linear map of determinant 1, then moved so that the
    origin goes to a random rational point p; returns (image, p)."""
    a, b = rng.randint(-3, 3), rng.randint(-3, 3)
    p = (F(rng.randint(-9, 9), rng.randint(1, 5)), F(rng.randint(-9, 9), rng.randint(1, 5)))
    return translate(linear_change(f, [[1, a], [b, 1 + a * b]]), (-p[0], -p[1])), p


@pytest.mark.parametrize("text, row", [
    ("y^5 - 2*x^5", 54),  # five lines, one real: N**_16
    ("y^5 - 5*x^2*y^3 + 5*x^4*y - 1/2*x^5", 52),  # five real lines (T_5): N_16
])
def test_a_q_irreducible_cone_is_looked_up_as_reducible(text, row):
    """A Q-irreducible quintic with a 5-fold point is five conjugate lines,
    which is reducible over R, the context of the catalog's flags."""
    f = parse_poly(text)
    moved, p = _random_affine_image(f, random.Random(row))
    reports = classify_all(moved)
    assert [r.point for r in reports] == [p]
    for r in [classify_point(f, (0, 0)), *reports]:
        assert r.q_irreducible is True
        assert isinstance(r.catalog_result, SingularityClass)
        assert r.catalog_result.id == row


def test_json_report_shape():
    r = classify_point(parse_poly("y^2 - x^3"), (0, 0))
    d = r.to_json()
    assert d["catalog"]["matched"] is True
    assert d["point"] == ["0", "0"]
    assert d["multiplicity"] == 2
    assert d["code"] == "(3/2:•,•|braces:)"
    assert isinstance(d["branches"], list) and len(d["branches"]) == 2
    json.dumps(d)  # must be serializable as-is


def test_not_in_catalog_for_high_degree_input():
    r = classify_point(parse_poly("y^2 - x^7"), (0, 0))
    assert isinstance(r.catalog_result, NotInCatalog)
    assert "degree" in r.catalog_result.reason


def test_classify_all_factors_the_curve_once(monkeypatch):
    import quinsing.classify as classify_mod

    calls = []
    real = classify_mod.factor_rational

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(classify_mod, "factor_rational", counting)
    classify_mod._ensure_square_free.cache_clear()
    reports = classify_all(parse_poly("(y^2 - x)*(x^2 - y)"))
    assert [r.point for r in reports] == [(0, 0), (1, 1)]
    assert len(calls) == 1
