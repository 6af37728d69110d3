"""Build and freeze the singularity catalog data file.

Every row is re-verified before writing: the representative is parsed,
expanded through the Puiseux pipeline, and its canonical diagram code must
match the stored code; its degree must be at most 5, and the rational factor
count must agree with the applicability flags.  Output goes to src/quinsing/data/catalog.json.

Run from the repo root:  python3 scripts/build_catalog.py
"""

import json
import pathlib
import sys
from fractions import Fraction as F

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from quinsing.curve import parse_poly, format_poly, factor_rational
from quinsing.puiseux import expand_to_separation
from quinsing.diagram import build_diagram, canonical_code
from quinsing import families as fm


def deep_pair_rep(a, c, d, f, h, j=None):
    """Member of the (y+x^2)^2 family with every case value imposed.

    The deep case formulas are exact on the a=0 slice only, so callers pass
    a=0; j=None means solve the depth-11/2 condition for j.
    """
    if j is None:
        j = fm.dp_solve_j(a, c, d, f, h)
    b = fm.dp_case_b(a, c)
    e = fm.dp_case_e(a, c, d, f)
    g = fm.dp_case_g(a, c, d, f, h)
    k = fm.dp_solve_k(a, c, d, f, h, j)
    l = fm.dp_solve_l(a, c, d, f, h, j)
    m = fm.dp_solve_m(a, c, d, f, h, j)
    return format_poly(fm.double_parabola(a, b, c, d, e, f, g, h, j, k, l, m))


Z = F(0)

# (id, label, irreducible?, reducible?, representative text, expected code, note)
ROWS = [
    (1, "A_1", True, True, "y^2 - x^2 - x^3",
     "(1:•,•|braces:)",
     "node with real tangents; reducibly from two transverse smooth factors"),
    (2, "A_2", True, True, "y^2 - x^3",
     "(3/2:•,•|braces:)",
     "ordinary cusp; reducibly from a cuspidal factor times a unit-distance factor"),
    (3, "A_3", True, True, "y^2 - x^4 + x^5",
     "(2:•,•|braces:)",
     "tacnode, real pair; reducibly from two smooth factors with contact 2"),
    (4, "A_4", True, True, "y^2 - x^5",
     "(5/2:•,•|braces:)",
     "ramphoid cusp"),
    (5, "A_5", True, True, "(y+x^2)^2 + x^4*y",
     "(3:•,•|braces:)",
     "(y+x^2)^2 family, level 3, positive side"),
    (6, "A_6", True, True, "(y+x^2)^2 - x^3*y^2",
     "(7/2:•,•|braces:)",
     "(y+x^2)^2 family, level 7/2"),
    (7, "A_7", True, True, "(y+x^2)^2 + x^2*y^3",
     "(4:•,•|braces:)",
     "(y+x^2)^2 family, level 4, positive side"),
    (8, "A_8", True, False, "(y+x^2)^2 + x*y^4",
     "(9/2:•,•|braces:)",
     "(y+x^2)^2 family, level 9/2; no quintic product reaches this contact"),
    (9, "A_9", True, True, "(y+x^2)^2 + y^5",
     "(5:•,•|braces:)",
     "(y+x^2)^2 family, level 5, positive side; reducibly from conic times smooth cubic"),
    (10, "A_10", True, False, deep_pair_rep(Z, F(1), Z, F(1), Z, j=Z),
     "(11/2:•,•|braces:)",
     "(y+x^2)^2 family with levels through 5 collapsed, level 11/2 nonzero"),
    (11, "A_11", True, True, deep_pair_rep(Z, F(1), Z, Z, F(1)),
     "(6:•,•|braces:)",
     "(y+x^2)^2 family with levels through 11/2 collapsed, level 6 positive"),
    (12, "A_12", True, False, deep_pair_rep(Z, F(1), Z, fm.dp_case_f(Z, F(1), Z), Z),
     "(13/2:•,•|braces:)",
     "(y+x^2)^2 family, deepest irreducible member: two branches with contact 13/2"),
    (13, "D_4", True, True, "(y-x)*(y-2*x)*(y-3*x) + x^4",
     "(1:•,•,•|braces:)",
     "three pairwise transverse branches, all real"),
    (14, "D*_4", True, True, "(y-x)*(x^2+y^2) + x^4",
     "(1:•,•,•|braces:•)",
     "three pairwise transverse branches, one conjugate pair"),
    (15, "D_5", True, True, "y^3 - x*y^2 + x^4",
     "(1:(3/2:•,•|braces:),•|braces:)",
     "cusp pair at 3/2 plus a transverse branch"),
    (16, "D_6", True, True, "y^3 - x*y^2 + x^5",
     "(1:(2:•,•|braces:),•|braces:)",
     "y^2(y-x) cascade, level 2, real pair"),
    (17, "D_7", True, True, "y^3 - x*y^2 - x^5 + 2*x^3*y",
     "(1:(5/2:•,•|braces:),•|braces:)",
     "y^2(y-x) cascade, level 5/2"),
    (18, "D_8", True, True, "y^3 - x*y^2 - x^5 + 2*x^3*y - x^2*y^2 + x^3*y^2",
     "(1:(3:•,•|braces:),•|braces:)",
     "y^2(y-x) cascade, level 3, positive side"),
    (19, "D_9", True, True, "y^3 - x*y^2 - x^5 + 2*x^3*y - x^2*y^2 - 1/4*x*y^3",
     "(1:(7/2:•,•|braces:),•|braces:)",
     "y^2(y-x) cascade, level 7/2"),
    (20, "D_10", True, True,
     "y^3 - x*y^2 - x^5 + 2*x^3*y - x^2*y^2 - 1/4*x*y^3 - 1/8*y^4",
     "(1:(4:•,•|braces:),•|braces:)",
     "y^2(y-x) cascade, level 4, positive side"),
    (21, "D_11", True, False,
     "y^3 - x*y^2 - x^5 + 2*x^3*y - x^2*y^2 - 1/4*x*y^3 - 1/8*y^4 - 5/64*x*y^4",
     "(1:(9/2:•,•|braces:),•|braces:)",
     "y^2(y-x) cascade, level 9/2; beyond products of degree 5"),
    (22, "D_12", False, True, "(y^2 - x*y - x^3 + x^2*y + y^3)*(y + x^2)",
     "(1:(5:•,•|braces:),•|braces:)",
     "nodal cubic times conic, deepest pair contact 5"),
    (23, "D*_6", True, True, "y^3 - x*y^2 - x^5",
     "(1:(2:•,•|braces:•),•|braces:)",
     "y^2(y-x) cascade, level 2, conjugate pair"),
    (24, "D*_8", True, True, "y^3 - x*y^2 - x^5 + 2*x^3*y - x^2*y^2 - 1/2*x*y^3",
     "(1:(3:•,•|braces:•),•|braces:)",
     "y^2(y-x) cascade, level 3, negative side"),
    (25, "D*_10", True, True,
     "y^3 - x*y^2 - x^5 + 2*x^3*y - x^2*y^2 - 1/4*x*y^3 - 1/8*y^4 - 1/8*x*y^4",
     "(1:(4:•,•|braces:•),•|braces:)",
     "y^2(y-x) cascade, level 4, negative side"),
    (26, "E_6", True, True, "y^3 - x^4",
     "(4/3:•,•,•|braces:)",
     "three branches with mutual contact 4/3"),
    (27, "E_7", True, True, "x^5 - x^3*y + y^3",
     "(3/2:•,•,•|braces:)",
     "three branches with mutual contact 3/2"),
    (28, "E_8", True, False, "y^3 - x^5",
     "(5/3:•,•,•|braces:)",
     "three branches with mutual contact 5/3"),
    (29, "J_10", False, True, "y^3 - x^4*y",
     "(2:•,•,•|braces:)",
     "line times two real parabolic factors, mutual contact 2"),
    (30, "J*_10", False, True, "y^3 + x^4*y",
     "(2:•,•,•|braces:•)",
     "line times a conjugate parabolic pair, mutual contact 2"),
    (31, "J_11", False, True, "y*((y+x^2)^2 + x^3*y)",
     "(2:(5/2:•,•|braces:),•|braces:)",
     "line times level-5/2 member of the (y+x^2)^2 family"),
    (32, "J_12", False, True, "y*((y+x^2)^2 - x^2*y^2)",
     "(2:(3:•,•|braces:),•|braces:)",
     "line times level-3 (real side) pair"),
    (33, "J*_12", False, True, "y*((y+x^2)^2 + x^2*y^2)",
     "(2:(3:•,•|braces:•),•|braces:)",
     "line times level-3 (conjugate side) pair"),
    (34, "J_13", False, True, "y*((y+x^2)^2 + x*y^3)",
     "(2:(7/2:•,•|braces:),•|braces:)",
     "line times level-7/2 member of the (y+x^2)^2 family"),
    (35, "J_14", False, True, "y*((y+x^2)^2 - y^4)",
     "(2:(4:•,•|braces:),•|braces:)",
     "line times level-4 (real side) member"),
    (36, "J*_14", False, True, "y*((y+x^2)^2 + y^4)",
     "(2:(4:•,•|braces:•),•|braces:)",
     "line times level-4 (conjugate side) member"),
    (37, "X_9", True, True, "y*(y^2-x^2)*(y-2*x) + x^5",
     "(1:•,•,•,•|braces:)",
     "four pairwise transverse branches, all real"),
    (38, "X*_9", True, True, "y*(y-x)*(x^2+y^2) + x^5",
     "(1:•,•,•,•|braces:•)",
     "four pairwise transverse branches, one conjugate pair"),
    (39, "X**_9", True, True, "(x^2+y^2)*(x^2+4*y^2) + x^5",
     "(1:•,•,•,•|braces:•,•)",
     "four pairwise transverse branches, two conjugate pairs"),
    (40, "W_12", True, False, "y^4 - x^5",
     "(5/4:•,•,•,•|braces:)",
     "four branches with mutual contact 5/4"),
    (41, "W_13", False, True, "y^4 - x^4*y",
     "(4/3:•,•,•,•|braces:)",
     "line times three branches, mutual contact 4/3 throughout"),
    (42, "Z_11", True, True, "y^3*(y-x) + x^5",
     "(1:(4/3:•,•,•|braces:),•|braces:)",
     "triple cluster at 4/3 plus a transverse branch"),
    (43, "Z_12", False, True, "y*(y-x)*(y^2-x^3)",
     "(1:(3/2:•,•,•|braces:),•|braces:)",
     "line times cuspidal factor times transverse line"),
    (44, "Y1_1,1", True, False, "(y^2-x*y)^2 - x^5",
     "(1:(3/2:•,•|braces:),(3/2:•,•|braces:)|braces:)",
     "two real pairs, each with internal contact 3/2, transverse to each other"),
    (45, "Y1*_1,1", True, False, "(x^2+y^2)^2 + x^5",
     "(1:(3/2:•,•|braces:),(3/2:•,•|braces:)|braces:(3/2:•,•|braces:))",
     "two conjugate pairs, each with internal contact 3/2"),
    (46, "Y1_1,2", False, True, "(y-x)*(y^3 - x*y^2 + x^4)",
     "(1:(2:•,•|braces:),(3/2:•,•|braces:)|braces:)",
     "line paired at contact 2 with one branch of a cusp-pair factor"),
    (47, "Y1_2,2", False, True, "y*(y-x)*(y^2 - x*y + x^3)",
     "(1:(2:•,•|braces:),(2:•,•|braces:)|braces:)",
     "two lines, each paired at contact 2 with a branch of a nodal conic factor"),
    (48, "X_1,1", True, True, "y^2*(y-x)*(y-2*x) - 2*x^5",
     "(1:(3/2:•,•|braces:),•,•|braces:)",
     "real 3/2-pair plus two transverse real branches"),
    (49, "X*_1,1", True, False, "y^2*(x^2+y^2) - x^5",
     "(1:(3/2:•,•|braces:),•,•|braces:•)",
     "real 3/2-pair plus a transverse conjugate pair"),
    (50, "X_1,2", False, True, "y*(y^2-x^2)*(y+2*x^2)",
     "(1:(2:•,•|braces:),•,•|braces:)",
     "line-parabola pair at contact 2 plus two transverse lines"),
    (51, "X*1_1,2", False, True, "y*(x^2+y^2)*(y+2*x^2)",
     "(1:(2:•,•|braces:),•,•|braces:•)",
     "line-parabola pair at contact 2 plus a transverse conjugate pair"),
    (52, "N_16", False, True, "y*(y^2-x^2)*(y^2-4*x^2)",
     "(1:•,•,•,•,•|braces:)",
     "five pairwise transverse real lines"),
    (53, "N*_16", False, True, "y*(y^2-x^2)*(x^2+y^2)",
     "(1:•,•,•,•,•|braces:•)",
     "five pairwise transverse lines, one conjugate pair"),
    (54, "N**_16", False, True, "y*(x^2+y^2)*(x^2+4*y^2)",
     "(1:•,•,•,•,•|braces:•,•)",
     "five pairwise transverse lines, two conjugate pairs"),
    (55, "A*_1", True, True, "y^2 + x^2 - x^3",
     "(1:•,•|braces:•)",
     "node with conjugate tangents (isolated real point)"),
    (56, "A*_3", True, True, "y^2 + x^4 + x^5",
     "(2:•,•|braces:•)",
     "tacnode, conjugate pair"),
    (57, "A*_5", True, True, "(y+x^2)^2 - x^4*y",
     "(3:•,•|braces:•)",
     "(y+x^2)^2 family, level 3, negative side"),
    (58, "A*_7", True, True, "(y+x^2)^2 + y^4",
     "(4:•,•|braces:•)",
     "(y+x^2)^2 family, level 4, negative side"),
    (59, "A*_9", True, False, "(y+x^2)^2 - y^5",
     "(5:•,•|braces:•)",
     "(y+x^2)^2 family, level 5, negative side"),
    (60, "A*_11", True, False, deep_pair_rep(Z, F(1), Z, F(1), Z),
     "(6:•,•|braces:•)",
     "(y+x^2)^2 family with levels through 11/2 collapsed, level 6 negative"),
]


def main():
    rows_out = []
    bad = 0
    for rid, label, irr, red, rep, want, note in ROWS:
        f = parse_poly(rep)
        factors = factor_rational(f).factors
        sf = all(m == 1 for _, m in factors)
        got = canonical_code(build_diagram(expand_to_separation(f)))
        nfac = len(factors)
        ok = got == want and sf and f.total_degree() <= 5
        if irr and not red:
            ok = ok and nfac == 1
        if red and not irr:
            ok = ok and nfac >= 2
        if irr and red:
            # dual-flag rows store the irreducible instance
            ok = ok and nfac == 1
        status = "ok " if ok else "BAD"
        if not ok:
            bad += 1
            print(f"{status} {rid:2d} {label:10s} code={got} factors={nfac} squarefree={sf}")
        else:
            print(f"{status} {rid:2d} {label:10s} {want}")
        rows_out.append({
            "id": rid,
            "arnold_label": label,
            "irreducible": irr,
            "reducible": red,
            "code": want,
            "representative": rep,
            "notes": note,
        })

    n_irr = sum(1 for r in rows_out if r["irreducible"])
    n_red = sum(1 for r in rows_out if r["reducible"])
    codes = [r["code"] for r in rows_out]
    print(f"rows={len(rows_out)} irreducible={n_irr} reducible={n_red} "
          f"distinct_codes={len(set(codes))}")
    assert n_irr == 42 and n_red == 49 and len(set(codes)) == len(codes)
    if bad:
        print(f"{bad} rows FAILED; catalog not written")
        return 1

    out = pathlib.Path(__file__).resolve().parent.parent / "src" / "quinsing" / "data"
    out.mkdir(parents=True, exist_ok=True)
    payload = {"schema_version": 1, "classes": rows_out}
    (out / "catalog.json").write_text(json.dumps(payload, ensure_ascii=False, indent=1) + "\n")
    print("wrote", out / "catalog.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
