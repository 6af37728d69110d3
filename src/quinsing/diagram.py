"""Splitting-tree diagrams over the separation columns of a branch set.

A vertex in column e stands for one class of pro-branches agreeing in all
coefficients up to and including e; the tree records only columns where a
split actually happens.  Conjugate sibling vertices whose truncations do
not admit a real parametrization are joined by a brace, and the brace is
suppressed when both partners are real-representable on their own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .curve import CurveError
from .algebraic import AlgebraicError, AlgebraicNumber, conjugate_pairs
from .puiseux import ProBranch, _zeta_representable


class DiagramError(CurveError):
    pass


@dataclass
class Node:
    exponent: Fraction  # column where this vertex split off; 0 for the root
    children: Tuple["Node", ...]
    brace_pairs: Tuple[Tuple[int, int], ...]
    leaf_count: int


@dataclass
class Diagram:
    root: Node

    @property
    def leaf_count(self) -> int:
        return self.root.leaf_count


def _vertex_jet(b: ProBranch, through: Fraction):
    return [t for t in b.terms if t.exponent <= through]


def _coeff_at(b: ProBranch, e: Fraction) -> Optional[AlgebraicNumber]:
    for t in b.terms:
        if t.exponent == e:
            return t.coeff
    return None


def build_diagram(branches: Sequence[ProBranch]) -> Diagram:
    bs = list(branches)
    if not bs:
        raise DiagramError("no branches to build a diagram from")
    runs = {b._run for b in bs}
    if len(runs) != 1:
        raise DiagramError("branches come from different expansion runs")
    paths = [b._path for b in bs]
    if len(set(paths)) != len(paths):
        raise DiagramError("branches are not pairwise separated")
    root = _build_node(bs, 0, Fraction(0))
    return Diagram(root)


def _build_node(group: List[ProBranch], depth: int, own: Fraction) -> Node:
    if len(group) == 1:
        if len(group[0]._path) != depth:
            raise DiagramError("stray split below a singleton vertex (internal bug)")
        return Node(own, (), (), 1)
    columns = {b._path[depth][0] for b in group}
    if len(columns) != 1:
        raise DiagramError("siblings disagree on their split column (internal bug)")
    e = columns.pop()
    order: List[object] = []
    members: Dict[object, List[ProBranch]] = {}
    for b in group:
        key = b._path[depth][1]
        if key not in members:
            members[key] = []
            order.append(key)
        members[key].append(b)
    children = tuple(_build_node(members[k], depth + 1, e) for k in order)
    braces = _brace_pairs([members[k][0] for k in order], e, children)
    return Node(own, children, braces, sum(c.leaf_count for c in children))


def _brace_pairs(
    reps: List[ProBranch], e: Fraction, children: Tuple[Node, ...]
) -> Tuple[Tuple[int, int], ...]:
    flags = [_zeta_representable(_vertex_jet(b, e)) for b in reps]
    bad = [k for k, ok in enumerate(flags) if not ok]
    if not bad:
        return ()
    # the prefix below the split column is shared by the whole group; if it is
    # already non-real this node sits inside a braced pair attached further up
    # and prints no braces of its own
    for exp, c in _vertex_jet(reps[0], e):
        if exp < e and not c.is_real():
            return ()
    coeffs = []
    for k in bad:
        c = _coeff_at(reps[k], e)
        if c is None or c.is_real():
            raise DiagramError(
                "non-representable vertex with a real column coefficient"
            )
        coeffs.append(c)
    try:
        pairs, fixed = conjugate_pairs(coeffs)
    except AlgebraicError as exc:
        raise DiagramError(
            "conjugate partner of a braced vertex is not a sibling"
        ) from exc
    if fixed:
        raise DiagramError("non-real coefficient reported as self-conjugate")
    out = []
    for a, b in pairs:
        i, j = bad[a], bad[b]
        if canonical_code_of(children[i]) != canonical_code_of(children[j]):
            raise DiagramError("braced subtrees are not structurally identical")
        out.append((min(i, j), max(i, j)))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# canonical form


def canonical_code_of(node: Node) -> str:
    if not node.children:
        return "•"
    e = node.children[0].exponent
    child_codes = sorted(canonical_code_of(c) for c in node.children)
    brace_codes = sorted(
        canonical_code_of(node.children[i]) for i, _j in node.brace_pairs
    )
    return (
        "(" + str(e) + ":" + ",".join(child_codes)
        + "|braces:" + ",".join(brace_codes) + ")"
    )


def canonical_code(d: Diagram) -> str:
    return canonical_code_of(d.root)


# ---------------------------------------------------------------------------
# rendering


def _collect_exponents(node: Node, out: set):
    for c in node.children:
        out.add(c.exponent)
        _collect_exponents(c, out)


def render_ascii(d: Diagram) -> str:
    if not d.root.children:
        return "•"
    exps: set = set()
    _collect_exponents(d.root, exps)
    cols = sorted(exps)
    xpos: Dict[Fraction, int] = {}
    x = 4
    for e in cols:
        xpos[e] = x
        x += max(len(str(e)), 1) + 5
    width = x + 8
    header = [" "] * width
    for e in cols:
        for k, ch in enumerate(str(e)):
            header[xpos[e] + k] = ch
    rows: List[List[str]] = []

    def new_row() -> int:
        rows.append([" "] * width)
        return len(rows) - 1

    brace_marks: List[Tuple[int, int, int]] = []  # (rowA, rowB, label)
    label_counter = [0]

    def place(node: Node, row: int, from_x: int) -> int:
        my_x = xpos[node.exponent] if node.exponent in xpos else 0
        for k in range(from_x + 1, my_x):
            if rows[row][k] == " ":
                rows[row][k] = "-"
        rows[row][my_x] = "o"
        if not node.children:
            return row
        child_rows = []
        last = row
        for idx, child in enumerate(node.children):
            r = row if idx == 0 else new_row()
            if idx > 0:
                for rr in range(last + 1, r):
                    rows[rr][my_x] = "|"
                rows[r][my_x] = "+"
            child_rows.append(r)
            last = place(child, r, my_x)
        for i, j in node.brace_pairs:
            label_counter[0] += 1
            brace_marks.append((child_rows[i], child_rows[j], label_counter[0]))
        return last

    place(d.root, new_row(), 0)
    for ra, rb, lab in brace_marks:
        for r in (ra, rb):
            line = rows[r]
            end = max(k for k, ch in enumerate(line) if ch != " ")
            tag = f"  }}{lab}"
            for k, ch in enumerate(tag):
                line[end + 1 + k] = ch
    out_lines = ["".join(header).rstrip()]
    out_lines.extend("".join(r).rstrip() for r in rows)
    return "\n".join(out_lines)


# ---------------------------------------------------------------------------
# JSON


def _node_json(node: Node) -> dict:
    return {
        "e": str(node.exponent),
        "children": [_node_json(c) for c in node.children],
        "braces": [[i, j] for i, j in node.brace_pairs],
    }


def to_json(d: Diagram) -> str:
    exps: set = set()
    _collect_exponents(d.root, exps)
    payload = {
        "exponents": [str(e) for e in sorted(exps)],
        "tree": _node_json(d.root),
        "code": canonical_code(d),
    }
    return json.dumps(payload, ensure_ascii=False)
