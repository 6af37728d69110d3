from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from quinsing.algebraic import RATIONAL_TOWER
from quinsing.curve import parse_poly
from quinsing.newton import (
    NewtonError,
    has_multiple_root,
    newton_polygon,
    polygon_json,
    polygon_of_support,
    segment_poly_coeffs,
)


def _segment_poly(f, seg):
    return tuple(segment_poly_coeffs(f.terms, seg, F(0)))


def test_single_segment_cusp():
    poly = newton_polygon(parse_poly("y^2 + x^3"))
    assert poly.vertices == ((0, 2), (3, 0))
    assert len(poly.segments) == 1
    seg = poly.segments[0]
    assert seg.exponent == F(3, 2)
    assert (seg.p, seg.q) == (3, 2)
    psi = _segment_poly(parse_poly("y^2 + x^3"), seg)
    # psi(Z) = Z^2 + 1, ascending storage
    assert psi == (F(1), F(0), F(1))
    assert has_multiple_root(psi, RATIONAL_TOWER) is False


def test_quartic_over_quintic():
    poly = newton_polygon(parse_poly("y^4 + x^5"))
    assert poly.vertices == ((0, 4), (5, 0))
    assert poly.segments[0].exponent == F(5, 4)


def test_segment_poly_sign():
    f = parse_poly("y^2 - x^5")
    assert _segment_poly(f, newton_polygon(f).segments[0]) == (F(-1), F(0), F(1))


def test_two_segments_with_ascending_exponents():
    # y^2(y - x) + x^5: vertices (0,3), (1,2), (5,0)
    f = parse_poly("y^3 - x*y^2 + x^5")
    poly = newton_polygon(f)
    assert poly.vertices == ((0, 3), (1, 2), (5, 0))
    exps = [s.exponent for s in poly.segments]
    assert exps == [F(1), F(2)]
    assert exps == sorted(exps)
    psi1 = _segment_poly(f, poly.segments[0])
    psi2 = _segment_poly(f, poly.segments[1])
    assert psi1 == (F(-1), F(1))
    assert psi2 == (F(1), F(0), F(-1))
    assert not has_multiple_root(psi1, RATIONAL_TOWER)
    assert not has_multiple_root(psi2, RATIONAL_TOWER)


def test_collinear_interior_point_is_not_a_vertex():
    # (y + x^2)^2 + x^5 has support point (2,1) on the segment interior
    f = parse_poly("y^2 + 2*x^2*y + x^4 + x^5")
    poly = newton_polygon(f)
    assert poly.vertices == ((0, 2), (4, 0))
    psi = _segment_poly(f, poly.segments[0])
    assert psi == (F(1), F(2), F(1))  # (Z + 1)^2
    assert has_multiple_root(psi, RATIONAL_TOWER) is True
    assert polygon_json(f)["segments"][0]["multiple_root"] is True


def test_polygon_may_end_off_axis():
    # y*(y^2 - x^3): divisible by y but not a pure power
    f = parse_poly("y^3 - x^3*y")
    poly = newton_polygon(f)
    assert poly.vertices[-1] == (3, 1)


def test_error_cases():
    with pytest.raises(NewtonError):
        newton_polygon(parse_poly("x^2*y + x^3"))  # divisible by x
    with pytest.raises(NewtonError):
        newton_polygon(parse_poly("y^4"))  # pure power of y
    with pytest.raises(NewtonError):
        newton_polygon(parse_poly("1 + x + y"))  # origin not on curve
    with pytest.raises(NewtonError):
        newton_polygon(parse_poly("x - x"))  # zero polynomial


def test_json_shape():
    out = polygon_json(parse_poly("y^3 - x*y^2 + x^5"))
    assert out == {
        "vertices": [[0, 3], [1, 2], [5, 0]],
        "segments": [
            {"from": [0, 3], "to": [1, 2], "exponent": "1", "multiple_root": False},
            {"from": [1, 2], "to": [5, 0], "exponent": "2", "multiple_root": False},
        ],
    }


points_st = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)),
    min_size=1,
    max_size=12,
    unique=True,
)


@given(points_st)
def test_polygon_invariants_on_random_support(pts):
    if min(i for i, _ in pts) > 0:
        return
    if len(pts) == 1 and pts[0][0] == 0 and pts[0][1] > 0:
        return
    poly = polygon_of_support(pts)
    # vertices strictly increase in i and strictly decrease in j
    for a, b in zip(poly.vertices, poly.vertices[1:]):
        assert b[0] > a[0] and b[1] < a[1]
    # inclinations strictly increase
    exps = [s.exponent for s in poly.segments]
    assert all(b > a for a, b in zip(exps, exps[1:]))
    assert all(e > 0 for e in exps)
    # j-extents add up across the polygon
    if poly.segments:
        total = sum(s.start[1] - s.end[1] for s in poly.segments)
        assert total == poly.vertices[0][1] - poly.vertices[-1][1]
    # every support point lies on or above every segment's supporting line
    for s in poly.segments:
        w0 = s.q * s.start[0] + s.p * s.start[1]
        assert all(s.q * i + s.p * j >= w0 for i, j in pts)


@given(points_st, st.integers(1, 4))
def test_polygon_scaling_in_x(pts, k):
    """Scaling i -> k*i multiplies every inclination by k."""
    if min(i for i, _ in pts) > 0:
        return
    if len(pts) == 1 and pts[0][0] == 0 and pts[0][1] > 0:
        return
    base = polygon_of_support(pts)
    scaled = polygon_of_support([(k * i, j) for i, j in pts])
    assert [s.exponent * k for s in base.segments] == [
        s.exponent for s in scaled.segments
    ]
