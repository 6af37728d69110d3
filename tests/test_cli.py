import json
import os
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

import quinsing
from quinsing.cli import main

runner = CliRunner()


def run(*args):
    return runner.invoke(main, list(args))


def test_classify_cusp_ascii():
    res = run("classify", "y^2 + x^3")
    assert res.exit_code == 0
    assert "A_2" in res.output
    assert "(3/2:•,•|braces:)" in res.output


def test_classify_no_singular_points():
    res = run("classify", "x + y")
    assert res.exit_code == 0
    assert "no singular points" in res.output


def test_classify_json_schema_version():
    res = run("classify", "y^2 + x^3", "--format", "json")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["schema_version"] == 1
    assert payload["reports"][0]["catalog"]["arnold_label"] == "A_2"


def test_classify_empty_json_list():
    res = run("classify", "x + y", "--format", "json")
    assert res.exit_code == 0
    assert json.loads(res.output)["reports"] == []


def test_classify_with_point():
    res = run("classify", "(y-1)^2 - (x-2)^3", "--point", "2,1")
    assert res.exit_code == 0
    assert "A_2" in res.output


def test_classify_file_input(tmp_path):
    p = tmp_path / "curve.txt"
    p.write_text("y^2 - x^3\n")
    res = run("classify", str(p))
    assert res.exit_code == 0
    assert "A_2" in res.output


def test_parse_error_is_domain_error():
    res = run("classify", "y^2 +")
    assert res.exit_code == 1
    assert "error:" in res.stderr


def test_smooth_point_is_domain_error():
    res = run("classify", "y^2 - x^3", "--point", "1,1")
    assert res.exit_code == 1


def test_bad_point_is_usage_error():
    res = run("classify", "y^2 - x^3", "--point", "nope")
    assert res.exit_code == 2


def test_bad_cap_is_usage_error():
    assert run("classify", "y^2 - x^3", "--cap", "zero").exit_code == 2
    assert run("classify", "y^2 - x^3", "--cap", "-1").exit_code == 2


def test_unknown_command_is_usage_error():
    assert run("frobnicate", "y").exit_code == 2


def test_decision_failure_is_one_error_line():
    # tangent slopes sqrt(2) and sqrt(2 + 10^-150): more bits than the round budget
    near_two = f"{2 * 10**150 + 1}/{10**150}"
    res = run("classify", f"(y^2 - 2*x^2)*(y^2 - {near_two}*x^2) + x^5")
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # not an escaped exception
    (line,) = res.stderr.splitlines()
    assert line.startswith("error: root comparison did not converge")
    assert "Traceback" not in res.output


def test_catalog_miss_is_reported_with_its_reason():
    miss = {
        "matched": False,
        "code": "(3:•,•|braces:)",
        "reason": "degree 6 curve; the tables stop at degree 5",
    }
    res = run("classify", "y^2 - x^6", "--format", "json")
    assert res.exit_code == 0
    assert json.loads(res.output)["reports"][0]["catalog"] == miss
    res = run("classify", "y^2 - x^6")
    assert res.exit_code == 0
    assert f"class: not in catalog ({miss['reason']})" in res.output.splitlines()


def test_context_flag_forces_lookup():
    res = run("classify", "(y^2 - x*y)^2 - x^5", "--context", "irreducible")
    assert res.exit_code == 0
    assert "context forced to irreducible" in res.output


def test_expand_ascii_tree():
    res = run("expand", "x^2*y + x^4 + 2*x*y^2 + y^3")
    assert res.exit_code == 0
    assert "branch#1" in res.output
    assert "3/2" in res.output
    assert "o---" in res.output
    assert "code:" in res.output


def test_expand_json():
    res = run("expand", "y^2 + x^3", "--format", "json")
    payload = json.loads(res.output)
    assert payload["schema_version"] == 1
    assert len(payload["branches"]) == 2
    assert payload["diagram"]["code"] == "(3/2:•,•|braces:)"


def test_expand_cap_exceeded():
    res = run("expand", "y*(y - x^9)")
    assert res.exit_code == 1


def test_polygon_json():
    res = run("polygon", "y^2 - x^3")
    payload = json.loads(res.output)
    assert payload["schema_version"] == 1
    assert payload["vertices"] == [[0, 2], [3, 0]]


def test_polygon_ascii():
    res = run("polygon", "y^2 - x^3", "--format", "ascii")
    assert res.exit_code == 0
    assert "(0,2)" in res.output and "(3,0)" in res.output


def test_factor_ascii():
    res = run("factor", "x^2 - y^2")
    assert res.exit_code == 0
    assert "(x - y)" in res.output and "(x + y)" in res.output


def test_factor_json():
    res = run("factor", "(y - x^2)^2", "--format", "json")
    payload = json.loads(res.output)
    assert payload["schema_version"] == 1
    assert payload["factors"] == [["x^2 - y", 2]]


def test_catalog_list():
    res = run("catalog", "list")
    assert res.exit_code == 0
    lines = [ln for ln in res.output.splitlines() if ln.strip()]
    assert len(lines) == 60
    assert any("A_2" in ln for ln in lines)


def test_catalog_list_json():
    res = run("catalog", "list", "--format", "json")
    payload = json.loads(res.output)
    assert payload["schema_version"] == 1
    assert len(payload["classes"]) == 60


def test_catalog_selfcheck():
    res = run("catalog", "selfcheck")
    assert res.exit_code == 0
    assert "selfcheck: ok" in res.output


# A level-3 curve of the double-parabola sign sweep, and ten more curves of the
# sweep.  While root regions were sympy's isolating boxes, the regions printed
# for this curve's quadratic levels depended on the curves classified before
# it in the same process and on the interpreter's hash seed.
DEEP_SWEEP_CURVE = (
    "4*x^5 - 7/2*x^4*y + 4*x^3*y^2 - 5*x^2*y^3 + 4*x*y^4 + 1/2*y^5 + x^4 + 15/2*x^3*y"
    " - 4*x^2*y^2 + 7/2*x*y^3 - 4*y^4 + 2*x^2*y + 7/2*x*y^2 - y^3 + y^2"
)
OTHER_SWEEP_CURVES = [
    "-x^5 + 5*x^4*y - 4*x^3*y^2 - 7*x^2*y^3 + x*y^4 + 5/2*y^5 + 2*x^3*y - 6*x^2*y^2"
    " + 3*y^4 - x*y^2 + y^3",
    "-x^5 + 5*x^4*y - 7*x^3*y^2 + 3*x^2*y^3 - 2*x*y^4 + 1/2*y^5 + 2*x^3*y - 6*x^2*y^2"
    " + 3*x*y^3 - y^4 - x*y^2 + y^3",
    "-x^5 + x^4*y + 3*x^3*y^2 - 2*x^2*y^3 + 5*x*y^4 + 3*y^5 + 2*x^3*y - 2*x^2*y^2"
    " - 7/2*x*y^3 - 7/2*y^4 - x*y^2 + y^3",
    "-x^5 + 6*x^4*y + x^3*y^2 + 5*x^2*y^3 - 1/2*x*y^4 - 5/2*y^5 + 2*x^3*y - 7*x^2*y^2"
    " - 3*x*y^3 - 8*y^4 - x*y^2 + y^3",
    "-5/2*x^4*y + 11/2*x^3*y^2 - 89/8*x^2*y^3 + 35/4*x*y^4 - 8*y^5 + x^4 - 3*x^3*y"
    " + 5/4*x^2*y^2 - 1/2*x*y^3 - 9/2*y^4 + 2*x^2*y - 3*x*y^2 + 3/2*y^3 + y^2",
    "-1/2*x^4*y + 69/4*x^3*y^2 + 1179/16*x^2*y^3 + 457/32*x*y^4 - 2707/16*y^5 + x^4"
    " + 5*x^3*y - 1/4*x^2*y^2 + 7/2*x*y^3 + 35*y^4 + 2*x^2*y + 5*x*y^2 - 6*y^3 + y^2",
    "x^4*y - 3*x^3*y^2 - 2*x^2*y^3 + 9/4*x*y^4 - 5/2*y^5 + x^4 + 1/2*x^2*y^2 - 3*x*y^3"
    " - 23/16*y^4 + 2*x^2*y - 1/2*y^3 + y^2",
    "5*x^4*y - 3/2*x^3*y^2 - 8*x^2*y^3 + 10*x*y^4 - 3*y^5 + x^4 + x^3*y + 25/4*x^2*y^2"
    " - 7/2*x*y^3 - 2*y^4 + 2*x^2*y + x*y^2 + y^3 + y^2",
    "3/2*x^4*y - 11/2*x^3*y^2 - 4*x^2*y^3 - 2*x*y^4 + 6*y^5 + x^4 - 2*x^3*y + 9/2*x^2*y^2"
    " - 6*x*y^3 + 3*y^4 + 2*x^2*y - 2*x*y^2 + 2*y^3 + y^2",
    "2*x^5 - 3*x^4*y + 9/4*x^3*y^2 + 4*x^2*y^3 + 5/2*x*y^4 - 2*y^5 + x^4 + 5*x^3*y"
    " - 21/4*x^2*y^2 + 3*x*y^3 + y^4 + 2*x^2*y + 3*x*y^2 - 5/2*y^3 + y^2",
]

# classify the curves given before the last argument, then print the last one's
# JSON report through the command line
_CLASSIFY_AFTER_OTHERS = """
import sys
from fractions import Fraction
from quinsing import classify_point, parse_poly
from quinsing.cli import main
for text in sys.argv[1:-1]:
    classify_point(parse_poly(text), (Fraction(0), Fraction(0)), cap=Fraction(9))
main(["classify", sys.argv[-1], "--point", "0,0", "--cap", "9", "--format", "json"])
"""


# print a curve's JSON report through the command line, after sympy has
# isolated the roots of T^3 - 2 in the same process if the first argument asks
_REPORT_AFTER_CROOTOF = """
import sys
import sympy
from quinsing.cli import main
if sys.argv[1] == "evalf":
    T = sympy.Symbol("T")
    sympy.CRootOf(sympy.Poly(T**3 - 2, T), 0).evalf(60)
main(["classify", sys.argv[2], "--format", "json"])
"""


def _stdout_of_fresh_process(script, args, hash_seed=0):
    src = str(Path(quinsing.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, env=env, timeout=300, check=True,
    )
    return done.stdout


def _json_report_in_fresh_process(others, hash_seed):
    return _stdout_of_fresh_process(_CLASSIFY_AFTER_OTHERS, [*others, DEEP_SWEEP_CURVE], hash_seed)


def test_json_report_does_not_depend_on_process_history():
    alone = _json_report_in_fresh_process([], hash_seed=0)
    assert json.loads(alone)["reports"][0]["code"] == "(3:•,•|braces:•)"
    for hash_seed in range(4):
        assert _json_report_in_fresh_process(OTHER_SWEEP_CURVES, hash_seed) == alone


def test_cubic_root_region_does_not_depend_on_sympy_root_cache():
    """The real branch of y^3 - 2x^3 + x^4 has the coefficient 2^(1/3).  Its
    region was once bisected from sympy's CRootOf interval, which sympy
    caches per process: after the evalf it printed 67-digit endpoints."""
    curve = "y^3 - 2*x^3 + x^4"
    fresh = _stdout_of_fresh_process(_REPORT_AFTER_CROOTOF, ["fresh", curve])
    assert _stdout_of_fresh_process(_REPORT_AFTER_CROOTOF, ["evalf", curve]) == fresh
    assert "RootOf(Z^3 - 2, region=[5/4,81/64]x[0,0], index=2)" in fresh.decode()
