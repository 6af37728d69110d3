"""The benchmark's own checks: the Milnor-number oracle on textbook germs,
and mutation tests showing that each oracle rejects a wrong answer.

    python3 -m pytest bench/tests -q
"""

import random
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

import inputs
import oracles
import polyq
from quinsing import classify_all, classify_point, parse_poly
from quinsing.puiseux import contact_exponent

ROOT = Path(__file__).resolve().parents[2]

GERMS = [
    # (name, text, mu)
    *[(f"A_{k}", f"y^2 - x^{k + 1}", k) for k in range(1, 8)],
    *[(f"D_{k}", f"x^2*y + y^{k - 1}", k) for k in range(4, 8)],
    ("E_6", "x^3 + y^4", 6),
    ("E_7", "x^3 + x*y^3", 7),
    ("E_8", "x^3 + y^5", 8),
    *[
        (f"ordinary {m}-fold", "*".join(f"(y - {i}*x)" for i in range(m)), (m - 1) ** 2)
        for m in range(2, 6)
    ],
]


@pytest.mark.parametrize("name,text,mu", GERMS, ids=[g[0] for g in GERMS])
def test_resultant_mu_on_textbook_germs(name, text, mu):
    p = polyq.parse(text)
    assert oracles.milnor_by_resultant(p, (F(0), F(0)), random.Random(name)) == mu


@pytest.mark.parametrize("name,text,mu", GERMS[::3], ids=[g[0] for g in GERMS[::3]])
def test_resultant_mu_survives_affine_moves(name, text, mu):
    rng = random.Random(name)
    for _ in range(3):
        moved, q = inputs._affine_image(rng, polyq.parse(text))
        assert oracles.milnor_by_resultant(moved, q, rng) == mu


@pytest.mark.parametrize("name,text,mu", GERMS[::2], ids=[g[0] for g in GERMS[::2]])
def test_report_mu_on_textbook_germs(name, text, mu):
    report = classify_point(parse_poly(text), (F(0), F(0)))
    assert oracles.milnor_from_report(oracles.summarize(report, contact_exponent)) == mu


def test_random_strata_follow_free_draws():
    """The fixed counts per round are the shares of unconstrained square-free
    draws, rounded to a round of 20 by largest remainder."""
    rng, counts = random.Random(7), {name: 0 for name, _ in inputs.RANDOM_STRATA}
    for _ in range(3000):
        p = inputs._free_quintic(rng)
        if inputs.square_free(p):
            counts[inputs._stratum(p)] += 1
    size, total = sum(n for _, n in inputs.RANDOM_STRATA), sum(counts.values())
    quotas = {name: size * c / total for name, c in counts.items()}
    alloc = {name: int(q) for name, q in quotas.items()}
    for name in sorted(quotas, key=lambda n: alloc[n] - quotas[n])[: size - sum(alloc.values())]:
        alloc[name] += 1
    assert alloc == dict(inputs.RANDOM_STRATA)


def test_text_round_trip_through_the_program_parser():
    rng = random.Random(0)
    for make in (inputs._random_round, inputs._sweep_round):
        for case in make(rng, set()):
            assert dict(parse_poly(case.text).terms) == case.poly
            assert polyq.parse(case.text) == case.poly


def test_streams_are_seeded_and_independent():
    def texts(seed, stream="timed"):
        make = inputs.round_maker("sign_sweep", seed, ROOT, set(), stream=stream)
        return [c.text for c in make()]

    assert texts(5) == texts(5)
    assert texts(5) != texts(6)
    assert texts(5) != texts(5, stream="warmup")


def test_no_curve_is_handed_out_twice():
    # the affine maps are few (under 6000 per representative, fewer distinct
    # images for a symmetric one), so moved curves would come back
    seen = set()
    warm = inputs.round_maker("catalog_affine", 1, ROOT, seen, stream="warmup")
    timed = inputs.round_maker("catalog_affine", 1, ROOT, seen)
    texts = [c.text for make in (warm, timed, timed, timed) for c in make()]
    assert len(set(texts)) == len(texts) == len(seen)


def test_sweep_sides_are_balanced_and_codes_differ():
    cases = inputs._sweep_round(random.Random(1), set())
    assert len(cases) == 12
    assert len({c.expect_code for c in cases}) == 12
    assert sum(c.label.endswith("+") for c in cases) == 6


# ---------------------------------------------------------------------------
# mutation tests: hand each check a wrong answer and watch it fail


@pytest.fixture(scope="module")
def catalog_case():
    rows = inputs.load_catalog(ROOT)
    row = next(r for r in rows if r["label"] == "E_7")
    case = inputs._catalog_round(random.Random(3), set(), [row])[0]
    results = [oracles.summarize(r, contact_exponent) for r in classify_all(parse_poly(case.text))]
    return case, results


def _planted(case, results):
    return next(r for r in results if r.point == case.planted)


def test_correct_results_pass(catalog_case):
    case, results = catalog_case
    assert oracles.check_points(case, results, random.Random(0)) == []
    assert oracles.check_planted(case, results) == ([], False)


def test_wrong_code_is_caught(catalog_case):
    case, results = catalog_case
    wrong = [replace(r, code="(1:•,•|braces:)") if r.point == case.planted else r for r in results]
    problems, _ = oracles.check_planted(case, wrong)
    assert any("code" in p for p in problems)


def test_wrong_sweep_side_is_caught():
    case = inputs._sweep_round(random.Random(2), set())[0]
    result = oracles.summarize(
        classify_point(parse_poly(case.text), case.planted, cap=F(9)), contact_exponent
    )
    assert oracles.check_planted(case, [result]) == ([], False)
    other_side = inputs._sweep_round(random.Random(2), set())[1].expect_code
    problems, _ = oracles.check_planted(case, [replace(result, code=other_side)])
    assert problems


def test_wrong_catalog_row_is_caught_and_missing_row_is_a_failure(catalog_case):
    case, results = catalog_case
    r = _planted(case, results)
    problems, failed = oracles.check_planted(case, [replace(r, catalog_id=r.catalog_id + 1)])
    assert problems and not failed
    problems, failed = oracles.check_planted(case, [replace(r, catalog_id=None)])
    assert not problems and failed


def test_missing_planted_point_is_caught(catalog_case):
    case, results = catalog_case
    others = [r for r in results if r.point != case.planted]
    problems, _ = oracles.check_planted(case, others)
    assert any("not reported" in p for p in problems)


@pytest.mark.parametrize("delta", [-1, 1])
def test_mu_off_by_one_is_caught(catalog_case, delta):
    case, results = catalog_case
    r = _planted(case, results)
    problems = oracles.check_points(case, [replace(r, contact_sum=r.contact_sum + delta)], random.Random(0))
    assert any("from the report" in p for p in problems)


def test_wrong_branch_count_is_caught(catalog_case):
    case, results = catalog_case
    r = _planted(case, results)
    # keep mu consistent so only the branch count is wrong
    bad = replace(r, branches=r.branches + 1, contact_sum=r.contact_sum + 1)
    problems = oracles.check_points(case, [bad], random.Random(0))
    assert any("branches" in p for p in problems) and not any("from the report" in p for p in problems)


def test_non_singular_point_is_caught(catalog_case):
    case, results = catalog_case
    r = _planted(case, results)
    moved = replace(r, point=(r.point[0] + 1, r.point[1]))
    problems = oracles.check_points(case, [moved], random.Random(0))
    assert any("not a singular point" in p for p in problems)


# ---------------------------------------------------------------------------
# the instruments: speed calibration and span recording


def test_speed_factors_follow_the_kernel_and_skip_one_outlier():
    import speed

    ref = speed.REFERENCE_KERNEL_S
    assert speed.local_factors([2 * ref] * 5) == [0.5] * 4
    factors = speed.local_factors([ref, ref, 50 * ref, ref, ref, ref])
    assert factors == [1.0] * 5
    assert speed.setup_factor(ref, ref) == 1.0
    assert speed.setup_factor(3 * ref, 5 * ref) == pytest.approx(0.5)


def test_setup_only_prints_one_cold_set_up():
    import subprocess
    import sys

    done = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--setup-only"],
                          capture_output=True, text=True, timeout=120, check=True)
    assert 0 < float(done.stdout.split()[-1]) < 60


def test_tracer_records_every_layer_and_restores_the_program():
    import quinsing
    import spans

    originals = (quinsing.classify_all, quinsing.classify.classify_point, quinsing.algebraic.Witness.refine)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.curve = 0
        reports = quinsing.classify_all(quinsing.parse_poly("(y^2 - 2*x^2 + x^3)*(y - 1)"))
    finally:
        tracer.uninstall()
    assert (quinsing.classify_all, quinsing.classify.classify_point,
            quinsing.algebraic.Witness.refine) == originals
    metrics = tracer.metrics([1.0], 1)
    assert set(metrics) == set(spans.METRICS)
    assert metrics["classify.points"] == len(reports)
    assert metrics["curve.factor_calls"] == 1 + len(reports)
    assert metrics["curve.parse_ms"] > 0 and metrics["algebraic.witnesses"] > 0  # slopes +-sqrt(2)
    assert all(s is not None and s[5] >= 0 for s in tracer.spans)
