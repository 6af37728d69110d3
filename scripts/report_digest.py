"""One digest of everything the program prints for a fixed corpus.

Two source trees that give the same count and digest print byte-identical
reports, diagrams, jets and errors on the corpus, so a change meant to keep
behaviour can be checked against its parent with one command per tree.

Corpus, built from the benchmark's seeded inputs (`bench/inputs.round_maker`,
seed 77; only `bench/` of this checkout is read to make it):

- 3 rounds of `sign_sweep`, each curve classified at the origin with
  `classify_point(cap=9)`;
- 4 rounds of `random_located` and 2 of `catalog_affine`, each curve through
  `classify_all`;
- the 60 catalog representatives of the program under test.

Per report: its JSON, `render_ascii` of its diagram and the CLI's jet text of
each branch; a curve that raises contributes its error text instead.  Per
representative: `render_ascii`, the jet texts, `extend_jet(b, 3)` and
`residual_valuation(rep, b, 2)` of each branch.

Usage:

    python3 scripts/report_digest.py                       # this checkout's src/
    python3 scripts/report_digest.py --src ../parent/src   # another tree's src/
"""

import argparse
import hashlib
import json
import sys
from fractions import Fraction as F
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 77
ROUNDS = (("sign_sweep", 3), ("random_located", 4), ("catalog_affine", 2))
SWEEP_CAP = F(9)


def _load_program(src: Path):
    sys.path.insert(0, str(src))
    import quinsing

    if Path(quinsing.__file__).resolve().parent != (src / "quinsing").resolve():
        raise SystemExit(f"error: quinsing imported from {quinsing.__file__}, not {src}")
    return quinsing


def _corpus():
    sys.path.insert(0, str(ROOT / "bench"))
    import inputs

    for workload, rounds in ROUNDS:
        next_round = inputs.round_maker(workload, SEED, ROOT, set())
        for _ in range(rounds):
            for case in next_round():
                yield workload, case.text


def _outputs(q):
    from quinsing.cli import _jet_text
    from quinsing.puiseux import extend_jet

    origin = (F(0), F(0))
    for workload, text in _corpus():
        f = q.parse_poly(text)
        try:
            if workload == "sign_sweep":
                reports = [q.classify_point(f, origin, cap=SWEEP_CAP)]
            else:
                reports = q.classify_all(f)
        except q.CurveError as exc:
            yield f"{text}\nerror: {type(exc).__name__}: {exc}"
            continue
        for r in reports:
            yield json.dumps(r.to_json(), ensure_ascii=False, sort_keys=True)
            yield q.render_ascii(r.diagram)
            yield "\n".join(_jet_text(b) for b in r.branches)
    for c in q.all_classes():
        rep = c.representative
        branches = q.expand_to_separation(rep)
        yield q.render_ascii(q.build_diagram(branches))
        yield "\n".join(_jet_text(b) for b in branches)
        for b in branches:
            yield " ".join(f"({e}, {cf})" for e, cf in extend_jet(b, 3))
            yield str(q.residual_valuation(rep, b, 2))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the src/ directory of the program to run (default: this checkout's)")
    args = ap.parse_args(argv)
    q = _load_program(args.src)
    digest = hashlib.sha256()
    count = 0
    for text in _outputs(q):
        digest.update(text.encode("utf-8") + b"\0")
        count += 1
    print(f"{count} outputs  sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
