from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from quinsing import algebraic
from quinsing.algebraic import (
    RATIONAL_TOWER,
    AlgebraicError,
    AlgebraicNumber,
    Tower,
    _locate_among_roots,
    _q_relation,
    conjugate_pairs,
    roots_over,
)
from quinsing.curve import CurveError, _frac, q_poly


def test_sqrt2_basics():
    rts = roots_over(RATIONAL_TOWER, [F(-2), F(0), F(1)])
    assert [m for _, m in rts] == [1, 1]
    a, b = rts[0][0], rts[1][0]
    assert a.sign() == -1 and b.sign() == 1  # sorted by real part
    assert a.is_real() and (a * a - 2).is_zero()
    assert (a.inverse() * a - 1).is_zero()


def test_rational_roots_stay_rational():
    rts = roots_over(RATIONAL_TOWER, [F(3), F(-5), F(1), F(1)])  # (z-1)^2 (z+3)
    assert [(r.is_rational(), m) for r, m in rts] == [(F(-3), 1), (F(1), 2)]


def test_gaussian_unit():
    rts = roots_over(RATIONAL_TOWER, [F(1), F(0), F(1)])
    lo, hi = rts[0][0], rts[1][0]
    assert not lo.is_real() and not hi.is_real()
    assert (hi * hi + 1).is_zero()
    pairs, fixed = conjugate_pairs([lo, hi])
    assert pairs == [(0, 1)] and fixed == []


def test_all_imaginary_quartic_sorts_by_imaginary_part():
    # roots are -i, -i/2, i/2, i: equal real parts force the exact tie-break
    rts = roots_over(RATIONAL_TOWER, [F(1), F(0), F(5), F(0), F(4)])
    assert len(rts) == 4
    im_signs = []
    for r, _ in rts:
        assert not r.is_real()
        (_, _), (ilo, ihi) = r.box()
        im_signs.append(1 if ilo > 0 else -1)
    assert im_signs == [-1, -1, 1, 1]
    pairs, fixed = conjugate_pairs([r for r, _ in rts])
    assert sorted(tuple(sorted(p)) for p in pairs) == [(0, 3), (1, 2)]
    assert fixed == []


def test_mixed_quintic():
    rts = roots_over(RATIONAL_TOWER, [F(2), F(-3), F(1), F(0), F(0), F(1)])
    flags = [r.is_real() for r, _ in rts]
    assert len(rts) == 5 and flags.count(True) == 1
    pairs, fixed = conjugate_pairs([r for r, _ in rts])
    assert len(pairs) == 2 and len(fixed) == 1


def sqrt2_tower():
    """The tower Q(sqrt(2)), sqrt(2) being the larger root of Z^2 - 2."""
    return roots_over(RATIONAL_TOWER, [-2, 0, 1])[1][0].tower


def test_adjoin_and_sibling_identification():
    t1 = sqrt2_tower()
    s2 = t1.generator()
    assert s2.sign() == 1 and (s2 * s2 - 2).is_zero()
    # same polynomial again over the extension: reducible defining
    rts = roots_over(t1, [t1.from_rat(-2), t1.zero(), t1.one()])
    assert len(rts) == 2
    r_neg, r_pos = rts[0][0], rts[1][0]
    assert (r_pos - s2).is_zero()
    assert (r_neg + s2).is_zero()
    inv = (r_pos + s2).inverse()
    assert (inv - s2 / 4).is_zero()
    with pytest.raises(ZeroDivisionError):
        (r_neg + s2).inverse()


def test_real_element_of_complex_tower():
    i_val = roots_over(RATIONAL_TOWER, [F(1), F(0), F(1)])[1][0]
    ti = i_val.tower
    rts = roots_over(ti, [ti.from_rat(-2), ti.zero(), ti.one()])
    u, w = rts[0][0], rts[1][0]
    assert not w.tower.totally_real()
    assert w.is_real() and w.sign() == 1
    assert u.is_real() and u.sign() == -1  # so u < w


def test_complex_over_complex():
    i_val = roots_over(RATIONAL_TOWER, [F(1), F(0), F(1)])[1][0]
    ti = i_val.tower
    rts = roots_over(ti, [-i_val, ti.zero(), ti.one()])  # z^2 = i
    assert len(rts) == 2
    r = rts[0][0]
    assert (r * r - i_val).is_zero()
    assert (r**4 + 1).is_zero()
    # the two square roots of i are not mutual conjugates
    with pytest.raises(AlgebraicError):
        conjugate_pairs([rts[0][0], rts[1][0]])


def test_debug_format_shape_and_stability():
    t = sqrt2_tower()
    s = t.level_str(0)
    # the region is the cell of the 1/64 grid holding sqrt(2), whatever ran before
    assert s == "RootOf(Z^2 - 2, region=[45/32,91/64]x[0,0], index=1)"
    t.refine()
    assert t.level_str(0) == s  # region snapshot is not affected by refinement
    assert sqrt2_tower().level_str(0) == s


def _sqrt2_with_a_rational_neighbour():
    """sqrt(2), whose first box [1, 3/2] still holds the rational root 3/2 of
    (4T^2 - 9)(T^2 - 2), so locating it there takes refinement rounds."""
    s2 = roots_over(RATIONAL_TOWER, [-2, 0, 1])[1][0]
    assert s2.box()[0] == (F(1), F(3, 2))
    return s2, q_poly([F(18), F(0), F(-17), F(0), F(4)])


def test_root_location_refines_until_one_root_is_left():
    s2, m = _sqrt2_with_a_rational_neighbour()
    w = _locate_among_roots(s2, m)
    (lo, hi), im = w.box()
    assert F(7, 5) <= lo and hi <= F(10, 7) and im == (0, 0)
    assert w.rational is None and w.is_real()
    assert s2.box()[0][1] < F(3, 2)  # the rounds refined sqrt(2) past 3/2


def test_a_decision_out_of_rounds_is_a_domain_error(monkeypatch):
    s2, m = _sqrt2_with_a_rational_neighbour()
    monkeypatch.setattr(algebraic, "_REFINE_CAP", 1)
    with pytest.raises(CurveError, match="root location did not converge in 1 rounds") as err:
        _locate_among_roots(s2, m)
    assert "last box widths 2^" in str(err.value)


def test_towers_are_not_mutated_by_arithmetic():
    t = sqrt2_tower()
    levels_before = t.levels
    g = t.generator()
    _ = (g + 1) * (g - 1) / (g + 3)
    _ = g.is_real(), g.sign()
    assert t.levels is levels_before


cubic_st = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=4), min_size=3, max_size=3
)


@given(cubic_st)
@settings(max_examples=40, deadline=None)
def test_monic_cubic_root_count_and_membership(cs):
    coeffs = [*map(F, cs), F(1)]
    rts = roots_over(RATIONAL_TOWER, coeffs)
    assert sum(m for _, m in rts) == 3
    for r, _ in rts:
        acc = r.tower.zero()
        for c in reversed(coeffs):
            acc = acc * r + c
        assert acc.is_zero()
    xs = [r for r, m in rts for _ in range(1) if m == 1]
    if len(xs) == len(rts):  # distinct roots: conjugation closure must pair up
        pairs, fixed = conjugate_pairs(xs)
        assert 2 * len(pairs) + len(fixed) == len(xs)


def _relation_generators():
    """Generators of Q(sqrt(2)), Q(i), the reducible level Z^2 - 2 over
    Q(sqrt(2)), sqrt(i) over Q(i), and the real cube root of 2."""
    s2 = sqrt2_tower().generator()
    i_val = roots_over(RATIONAL_TOWER, [F(1), F(0), F(1)])[1][0]
    ti, t2 = i_val.tower, s2.tower
    return (
        s2,
        i_val,
        roots_over(t2, [t2.from_rat(-2), t2.zero(), t2.one()])[0][0],
        roots_over(ti, [-i_val, ti.zero(), ti.one()])[0][0],
        roots_over(RATIONAL_TOWER, [F(-2), F(0), F(0), F(1)])[-1][0],
    )


@given(
    st.integers(min_value=0, max_value=4),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3), min_size=4, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_q_relation_vanishes_and_is_square_free(which, cs):
    g = _relation_generators()[which]
    x = cs[0] + cs[1] * g + cs[2] * g * g + cs[3] * g * g * g
    m = _q_relation(x)
    acc = x.tower.zero()
    for c in m.all_coeffs():
        acc = acc * x + _frac(c)
    assert acc.is_zero()
    assert m.gcd(m.diff()).degree() == 0
    assert _q_relation(x.tower.from_rat(cs[0])) == q_poly([-cs[0], F(1)])
