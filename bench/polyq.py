"""Exact bivariate polynomials over Q as plain dicts, owned by the benchmark.

A polynomial is a dict {(i, j): Fraction} for the monomials x^i y^j with a
nonzero coefficient.  The benchmark builds its inputs and checks the
program's outputs with these helpers, so neither side reuses the program's
own polynomial code.
"""

from fractions import Fraction
from typing import Dict, Sequence, Tuple

Poly = Dict[Tuple[int, int], Fraction]

X: Poly = {(1, 0): Fraction(1)}
Y: Poly = {(0, 1): Fraction(1)}


def const(c) -> Poly:
    c = Fraction(c)
    return {(0, 0): c} if c else {}


def add(*ps: Poly) -> Poly:
    out: Poly = {}
    for p in ps:
        for m, c in p.items():
            out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def scale(p: Poly, c) -> Poly:
    c = Fraction(c)
    return {m: v * c for m, v in p.items()} if c else {}


def mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            m = (i1 + i2, j1 + j2)
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def power(p: Poly, n: int) -> Poly:
    out = const(1)
    for _ in range(n):
        out = mul(out, p)
    return out


def monomial(i: int, j: int, c=1) -> Poly:
    c = Fraction(c)
    return {(i, j): c} if c else {}


def total_degree(p: Poly) -> int:
    return max((i + j for i, j in p), default=-1)


def evaluate(p: Poly, x, y) -> Fraction:
    return sum((c * Fraction(x) ** i * Fraction(y) ** j for (i, j), c in p.items()), Fraction(0))


def partial(p: Poly, var: str) -> Poly:
    out: Poly = {}
    for (i, j), c in p.items():
        if var == "x" and i:
            out[(i - 1, j)] = c * i
        elif var == "y" and j:
            out[(i, j - 1)] = c * j
    return out


def substitute(p: Poly, xs: Poly, ys: Poly) -> Poly:
    """p(xs, ys), with powers of xs and ys built once."""
    d = total_degree(p)
    xp, yp = [const(1)], [const(1)]
    for _ in range(d):
        xp.append(mul(xp[-1], xs))
        yp.append(mul(yp[-1], ys))
    return add(*(scale(mul(xp[i], yp[j]), c) for (i, j), c in p.items()))


def affine(p: Poly, a: Sequence[Sequence[Fraction]], shift: Tuple[Fraction, Fraction]) -> Poly:
    """p(a00*x + a01*y + s0, a10*x + a11*y + s1)."""
    xs = add(scale(X, a[0][0]), scale(Y, a[0][1]), const(shift[0]))
    ys = add(scale(X, a[1][0]), scale(Y, a[1][1]), const(shift[1]))
    return substitute(p, xs, ys)


def translate(p: Poly, pt: Tuple[Fraction, Fraction]) -> Poly:
    """p(x + pt[0], y + pt[1]): moves pt to the origin."""
    return affine(p, ((1, 0), (0, 1)), pt)


def order_at_origin(p: Poly) -> int:
    """Lowest total degree present, i.e. the multiplicity at the origin."""
    return min(i + j for i, j in p)


def to_text(p: Poly) -> str:
    """Text in the program's input grammar: explicit '*', '^', rational literals."""
    if not p:
        return "0"
    parts = []
    for (i, j) in sorted(p, key=lambda m: (-(m[0] + m[1]), -m[0])):
        c = p[(i, j)]
        body = "*".join(
            [f"x^{i}" if i > 1 else "x"] * (i > 0) + [f"y^{j}" if j > 1 else "y"] * (j > 0)
        )
        mag = abs(c)
        coef = f"{mag.numerator}" if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        text = coef if not body else (body if mag == 1 else f"{coef}*{body}")
        parts.append(("- " if c < 0 else "+ ") + text)
    head = parts[0]
    return (head[2:] if head.startswith("+") else "-" + head[2:]) + "".join(" " + t for t in parts[1:])


def parse(text: str) -> Poly:
    """Read the program's polynomial grammar ('^' for powers, '/' only between
    integer literals) into a Poly, through Python's own expression parser."""
    import ast

    def ev(node) -> Poly:
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return const(node.value)
        if isinstance(node, ast.Name) and node.id in ("x", "y"):
            return dict(X if node.id == "x" else Y)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            inner = ev(node.operand)
            return scale(inner, -1) if isinstance(node.op, ast.USub) else inner
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Pow) and isinstance(node.right, ast.Constant):
                return power(ev(node.left), int(node.right.value))
            if isinstance(node.op, ast.Div):
                num, den = ev(node.left), ev(node.right)
                if set(num) <= {(0, 0)} and set(den) == {(0, 0)}:
                    return const(num.get((0, 0), 0) / den[(0, 0)])
            elif isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
                left, right = ev(node.left), ev(node.right)
                if isinstance(node.op, ast.Add):
                    return add(left, right)
                if isinstance(node.op, ast.Sub):
                    return add(left, scale(right, -1))
                return mul(left, right)
        raise ValueError(f"unsupported polynomial text: {text!r}")

    return ev(ast.parse(text.replace("^", "**"), mode="eval"))
