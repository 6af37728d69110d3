import dataclasses
import importlib.util
import json
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

from quinsing import catalog
from quinsing.catalog import (
    NotInCatalog,
    SingularityClass,
    all_classes,
    classify_diagram,
    self_check,
)
from quinsing.classify import classify_all
from quinsing.curve import parse_poly
from quinsing.diagram import build_diagram
from quinsing.puiseux import expand_to_separation

IRR = {"curve_degree": 5, "q_irreducible": True}
RED = {"curve_degree": 5, "q_irreducible": False}

BUILD_CATALOG = Path(__file__).resolve().parent.parent / "scripts" / "build_catalog.py"


def diagram_of(text):
    return build_diagram(expand_to_separation(parse_poly(text)))


def test_counts_and_ids():
    classes = all_classes()
    assert len(classes) == 60
    assert [c.id for c in classes] == list(range(1, 61))
    assert sum(1 for c in classes if c.irreducible) == 42
    assert sum(1 for c in classes if c.reducible) == 49
    assert all(c.irreducible or c.reducible for c in classes)


def test_codes_distinct_within_each_flag():
    classes = all_classes()
    irr = [c.code for c in classes if c.irreducible]
    red = [c.code for c in classes if c.reducible]
    assert len(set(irr)) == len(irr)
    assert len(set(red)) == len(red)
    assert len({c.code for c in classes}) == 60


def test_labels_unique():
    labels = [c.arnold_label for c in all_classes()]
    assert len(set(labels)) == 60


def test_lookup_cusp():
    d = diagram_of("y^2 + x^3")
    for ctx in (IRR, RED):
        res = classify_diagram(d, ctx)
        assert isinstance(res, SingularityClass)
        assert res.arnold_label == "A_2"


def test_degree_cap_refusal():
    d = diagram_of("y^2 + x^3")
    res = classify_diagram(d, {"curve_degree": 6, "q_irreducible": True})
    assert isinstance(res, NotInCatalog)
    assert "degree" in res.reason


def test_code_not_realized_by_quintics():
    # a three-branch 7/3 split needs degree above five, so its code is
    # absent even when presented with a degree-5 context
    d = diagram_of("y^3 - x^7")
    res = classify_diagram(d, IRR)
    assert isinstance(res, NotInCatalog)
    assert res.code == "(7/3:•,•,•|braces:)"
    assert "not realized" in res.reason


def test_flag_mismatch_reported():
    only_irr = next(c for c in all_classes() if c.irreducible and not c.reducible)
    d = build_diagram(expand_to_separation(only_irr.representative))
    res = classify_diagram(d, RED)
    assert isinstance(res, NotInCatalog)
    assert only_irr.arnold_label in res.reason
    only_red = next(c for c in all_classes() if c.reducible and not c.irreducible)
    d2 = build_diagram(expand_to_separation(only_red.representative))
    res2 = classify_diagram(d2, IRR)
    assert isinstance(res2, NotInCatalog)
    assert only_red.arnold_label in res2.reason


def test_split_pair_rows_have_distinct_codes():
    # two historically conflated diagrams; they must stay distinguishable
    by_label = {c.arnold_label: c for c in all_classes()}
    a = by_label["Y1_1,1"]
    b = by_label["Y1*_1,1"]
    assert a.code != b.code


def test_data_file_schema():
    raw = json.loads(
        resources.files("quinsing").joinpath("data/catalog.json").read_text()
    )
    assert raw["schema_version"] == 1
    assert len(raw["classes"]) == 60
    row = raw["classes"][0]
    assert set(row) >= {"id", "arnold_label", "irreducible", "reducible",
                        "code", "representative"}


def test_self_check_passes():
    report = self_check(cap=F(8))
    assert report["ok"] is True
    assert report["failures"] == []
    assert report["rows"] == 60
    assert report["irreducible_flagged"] == 42
    assert report["reducible_flagged"] == 49


def test_data_file_matches_its_generator():
    spec = importlib.util.spec_from_file_location("build_catalog", BUILD_CATALOG)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    expected = [
        {"id": rid, "arnold_label": label, "irreducible": irr, "reducible": red,
         "code": code, "representative": rep, "notes": note}
        for rid, label, irr, red, rep, code, note in module.ROWS
    ]
    raw = json.loads(resources.files("quinsing").joinpath("data/catalog.json").read_text())
    assert raw["classes"] == expected


def test_row_32_is_matched_on_its_representative():
    row = next(c for c in all_classes() if c.id == 32)
    assert row.representative.total_degree() <= 5
    reports = classify_all(row.representative)
    at_origin = [r for r in reports if r.point == (0, 0)]
    assert [r.catalog_result for r in at_origin] == [row]


def test_self_check_reports_a_representative_above_degree_5(monkeypatch):
    # a degree-7 curve with row 32's code at the origin: the code is right,
    # but the lookup refuses every curve above degree 5
    rows = all_classes()
    old = next(c for c in rows if c.id == 32)
    bad = dataclasses.replace(old, representative=parse_poly("y*(y-x^2-x^3)*(y-x^2+x^3)"))
    monkeypatch.setattr(catalog, "_CLASSES", tuple(bad if c.id == 32 else c for c in rows))
    monkeypatch.setitem(catalog._BY_CODE, old.code, bad)
    report = self_check(cap=F(8))
    assert report["ok"] is False
    assert {f["id"] for f in report["failures"]} == {32}
