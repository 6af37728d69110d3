import json
import random
from fractions import Fraction as F

import pytest

from quinsing.curve import parse_poly
from quinsing.puiseux import expand_to_separation
from quinsing.diagram import (
    DiagramError,
    build_diagram,
    canonical_code,
    render_ascii,
    to_json,
)


def diag(src):
    return build_diagram(expand_to_separation(parse_poly(src)))


def test_cusp_diagram_without_braces():
    d = diag("y^2 + x^3")
    assert canonical_code(d) == "(3/2:•,•|braces:)"
    assert d.leaf_count == 2
    assert d.root.exponent == 0
    assert [c.exponent for c in d.root.children] == [F(3, 2), F(3, 2)]
    assert d.root.brace_pairs == ()


def test_three_branch_diagram():
    d = diag("x^2*y + x^4 + 2*x*y^2 + y^3")
    assert canonical_code(d) == "(1:(3/2:•,•|braces:),•|braces:)"
    assert d.leaf_count == 3
    # three distinct vertices once the 3/2 column is reached
    leaves = []

    def walk(n):
        if not n.children:
            leaves.append(n)
        for c in n.children:
            walk(c)

    walk(d.root)
    assert len(leaves) == 3


def test_braced_pair_at_two():
    d = diag("y^2 + x^4 + x^5")
    assert canonical_code(d) == "(2:•,•|braces:•)"
    assert d.root.brace_pairs == ((0, 1),)


def test_braced_vs_unbraced_split_at_two():
    d_real = diag("y^2 - x^4 + x^5")  # y = +-x^2 + ...
    d_imag = diag("y^2 + x^4 + x^5")  # y = +-i x^2 + ...
    assert canonical_code(d_real) == "(2:•,•|braces:)"
    assert canonical_code(d_real) != canonical_code(d_imag)


def test_real_pair_vs_braced_pair_at_three_halves():
    # same shape, split at 3/2: real pair vs conjugate imaginary pair
    d_real = diag("y^2 - x^3")
    d_imag = diag("y^2 + x^3")
    # at 3/2 the zeta rule makes +-i representable, so no brace either way
    assert canonical_code(d_real) == canonical_code(d_imag)
    # at 2 the rule distinguishes them
    assert canonical_code(diag("y^2 - x^4 + x^5")) != canonical_code(diag("y^2 + x^4 + x^5"))


def test_smooth_diagram():
    d = diag("y - x^2")
    assert canonical_code(d) == "•"
    assert render_ascii(d) == "•"
    assert d.leaf_count == 1


def test_split_columns_differ():
    assert canonical_code(diag("y^2 - x^2 + x^3")) != canonical_code(diag("y^2 - x^3"))


def test_code_invariant_under_branch_order(monkeypatch):
    f = parse_poly("x^2*y + x^4 + 2*x*y^2 + y^3")
    bs = expand_to_separation(f)
    base = canonical_code(build_diagram(bs))
    rng = random.Random(7)
    for _ in range(6):
        shuffled = bs[:]
        rng.shuffle(shuffled)
        assert canonical_code(build_diagram(shuffled)) == base


def test_two_braced_pairs():
    d = diag("y^4 + x^4")
    assert canonical_code(d) == "(1:•,•,•,•|braces:•,•)"
    assert len(d.root.brace_pairs) == 2


def test_render_has_exponent_header():
    d = diag("x^2*y + x^4 + 2*x*y^2 + y^3")
    text = render_ascii(d)
    lines = text.splitlines()
    assert "1" in lines[0] and "3/2" in lines[0]
    body = "\n".join(lines[1:])
    assert body.count("o") == 1 + 1 + 2 + 1  # root, split vertex, pair, third leaf
    d28 = diag("y^2 + x^4 + x^5")
    assert "}" in render_ascii(d28)
    assert "}" not in render_ascii(diag("y^2 + x^3"))


@pytest.mark.parametrize(
    "src, text",
    [
        ("x^2*y + x^4 + 2*x*y^2 + y^3", "    1     3/2\no---o-----o\n    +-----o\n+---o"),
        (
            "y*(x^2+y^2)*(x^2+4*y^2)",
            "    1\no---o  }1\n+---o  }2\n+---o  }2\n+---o  }1\n+---o",
        ),
        (
            "(y^2+x^4)*(y^2+x^4+x^5)",
            "    2     3\no---o-----o  }1\n    +-----o\n+---o-----o  }1\n    +-----o",
        ),
    ],
)
def test_render_ascii_exact_text(src, text):
    assert render_ascii(diag(src)) == text


def test_json_roundtrip():
    d = diag("y^3 - x*y^2 + x^5")
    payload = json.loads(to_json(d))
    assert payload["exponents"] == ["1", "2"]
    assert payload["code"] == canonical_code(d)
    assert payload["tree"]["e"] == "0"
    assert len(payload["tree"]["children"]) == 2
    for child in payload["tree"]["children"]:
        assert set(child) == {"e", "children", "braces"}


def test_rejects_mixed_runs():
    f = parse_poly("y^2 + x^3")
    a = expand_to_separation(f)
    b = expand_to_separation(f)
    with pytest.raises(DiagramError):
        build_diagram([a[0], b[1]])


def test_rejects_duplicate_branch():
    f = parse_poly("y^2 + x^3")
    a = expand_to_separation(f)
    with pytest.raises(DiagramError):
        build_diagram([a[0], a[0]])


def test_leaf_count_matches_multiplicity():
    for src, m in [("y^2 + x^3", 2), ("y^4 + x^4", 4), ("y^3 - x*y^2 + x^5", 3)]:
        assert diag(src).leaf_count == m
