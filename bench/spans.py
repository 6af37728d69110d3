"""Span recording around calls into the program's modules, for traced runs.

`Tracer.install` wraps the public functions named in `TARGETS` wherever a
`quinsing` module (or the `sympy` module, for the two sympy entry points the
program calls) binds them, plus the two `Witness` methods.  Each call records
one span (name, start, end, parent, curve) in memory; `Tracer.uninstall`
puts the original functions back.  Self time is a span's duration minus the
durations of its direct children.
"""

import functools
import sys
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

# span name -> (module, attribute[, method]) of the wrapped callable
TARGETS: Dict[str, Tuple[str, ...]] = {
    "curve.parse_poly": ("quinsing.curve", "parse_poly"),
    "curve.factor_rational": ("quinsing.curve", "factor_rational"),
    "curve.resultant": ("quinsing.curve", "resultant"),
    "classify.classify_all": ("quinsing.classify", "classify_all"),
    "classify.rational_singular_points": ("quinsing.classify", "rational_singular_points"),
    "classify.classify_point": ("quinsing.classify", "classify_point"),
    "newton.newton_polygon": ("quinsing.newton", "newton_polygon"),
    "newton.polygon_of_support": ("quinsing.newton", "polygon_of_support"),
    "newton.segment_poly_coeffs": ("quinsing.newton", "segment_poly_coeffs"),
    "newton.polygon_json": ("quinsing.newton", "polygon_json"),
    "puiseux.expand_to_separation": ("quinsing.puiseux", "expand_to_separation"),
    "algebraic.roots_over": ("quinsing.algebraic", "roots_over"),
    "algebraic.conjugate_pairs": ("quinsing.algebraic", "conjugate_pairs"),
    "algebraic.Witness.__init__": ("quinsing.algebraic", "Witness", "__init__"),
    "algebraic.Witness.refine": ("quinsing.algebraic", "Witness", "refine"),
    "diagram.build_diagram": ("quinsing.diagram", "build_diagram"),
    "diagram.canonical_code": ("quinsing.diagram", "canonical_code"),
    "catalog.classify_diagram": ("quinsing.catalog", "classify_diagram"),
    "sympy.factor_list": ("sympy", "factor_list"),
    "sympy.resultant": ("sympy", "resultant"),
}

# per-layer metric -> (what is summed, span names); values are per curve
METRICS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "curve.parse_ms": ("self_ms", ("curve.parse_poly",)),
    "curve.factor_ms": ("self_ms", ("curve.factor_rational",)),
    "curve.factor_calls": ("calls", ("curve.factor_rational",)),
    "curve.resultant_ms": ("self_ms", ("curve.resultant",)),
    "curve.resultant_calls": ("calls", ("curve.resultant",)),
    "classify.locate_self_ms": ("self_ms", ("classify.rational_singular_points",)),
    "classify.point_self_ms": ("self_ms", ("classify.classify_point",)),
    "classify.points": ("calls", ("classify.classify_point",)),
    "newton.polygon_ms": ("self_ms", (
        "newton.newton_polygon", "newton.polygon_of_support",
        "newton.segment_poly_coeffs", "newton.polygon_json",
    )),
    "puiseux.expand_self_ms": ("self_ms", ("puiseux.expand_to_separation",)),
    "algebraic.roots_over_ms": ("self_ms", ("algebraic.roots_over",)),
    "algebraic.roots_over_calls": ("calls", ("algebraic.roots_over",)),
    "algebraic.witnesses": ("calls", ("algebraic.Witness.__init__",)),
    "algebraic.witness_ms": ("self_ms", ("algebraic.Witness.__init__",)),
    "algebraic.refines": ("calls", ("algebraic.Witness.refine",)),
    "algebraic.refine_ms": ("self_ms", ("algebraic.Witness.refine",)),
    "algebraic.conjugate_pairs_ms": ("self_ms", ("algebraic.conjugate_pairs",)),
    "diagram.build_ms": ("self_ms", ("diagram.build_diagram",)),
    "diagram.code_ms": ("self_ms", ("diagram.canonical_code",)),
    "catalog.lookup_ms": ("self_ms", ("catalog.classify_diagram",)),
    "sympy.factor_list_ms": ("self_ms", ("sympy.factor_list",)),
    "sympy.factor_list_calls": ("calls", ("sympy.factor_list",)),
    "sympy.resultant_ms": ("self_ms", ("sympy.resultant",)),
    "sympy.resultant_calls": ("calls", ("sympy.resultant",)),
}

# the modules a span's self time is booked to: the prefix of its name
LAYERS = ("curve", "classify", "newton", "puiseux", "algebraic", "diagram", "catalog", "sympy")

# pipeline stages by the inclusive time of their entry span
STAGES = {
    "parse": "curve.parse_poly",
    "locate": "classify.rational_singular_points",
    "expand": "puiseux.expand_to_separation",
    "diagram": "diagram.build_diagram",
    "lookup": "catalog.classify_diagram",
}


class Tracer:
    def __init__(self):
        # finished spans: (name, start, end, parent index or -1, curve, self seconds)
        self.spans: List[tuple] = []
        self.curve = -1
        self._stack: List[list] = []  # open spans: [index, start, child seconds]
        self._saved: List[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                parent = stack[-1][0] if stack else -1
                if stack:
                    stack[-1][2] += duration
                spans[index] = (name, frame[1], end, parent, self.curve, duration - frame[2])

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "quinsing" or n.startswith("quinsing.")]
        for name, target in TARGETS.items():
            owner = sys.modules[target[0]]
            if len(target) == 3:
                cls = getattr(owner, target[1])
                original = cls.__dict__[target[2]]
                self._saved.append((cls, target[2], original))
                setattr(cls, target[2], self._wrap(name, original))
                continue
            original = getattr(owner, target[1])
            wrapped = self._wrap(name, original)
            holders = [owner] + [m for m in modules if m is not owner]
            for mod in holders:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self):
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    def totals(self, factors: Sequence[float], curves: Optional[int] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, self seconds and inclusive seconds, over all
        curves or over the first `curves` of them.

        Times are scaled by the speed factor of the curve they belong to
        (see speed.py).  Inclusive time counts only outermost spans of a
        name, so recursion is not counted twice."""
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        spans = self.spans
        for name, start, end, parent, curve, self_s in spans:
            if curves is not None and curve >= curves:
                continue
            t = out[name]
            t["calls"] += 1
            t["self_s"] += self_s * factors[curve]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                t["incl_s"] += (end - start) * factors[curve]
        return dict(out)

    def metrics(self, factors: Sequence[float], count_curves: int) -> Dict[str, float]:
        """Per-curve metrics: times over all curves of the run, counts over
        the first `count_curves`, which every run reaches, so that counts
        compare exactly between runs of different length."""
        curves = len(factors)
        totals, counted = self.totals(factors), self.totals(factors, count_curves)
        out = {}
        for metric, (kind, names) in METRICS.items():
            if kind == "calls":
                out[metric] = sum(counted.get(n, {}).get("calls", 0) for n in names) / count_curves
            else:
                out[metric] = 1000.0 * sum(totals.get(n, {}).get("self_s", 0.0) for n in names) / curves
        return out

    def layer_shares(self, factors: Sequence[float], timed_s: float) -> Dict[str, float]:
        """Share of the (calibrated) classification time spent in each
        module's own code, plus what no span covers."""
        totals = self.totals(factors)
        shares = {layer: 0.0 for layer in LAYERS}
        for name, t in totals.items():
            shares[name.split(".", 1)[0]] += t["self_s"]
        covered = sum(shares.values())
        shares["outside spans"] = max(timed_s - covered, 0.0)
        return {k: v / timed_s for k, v in shares.items()}

    def stage_shares(self, factors: Sequence[float], timed_s: float) -> Dict[str, float]:
        """Share of the (calibrated) classification time inside each stage's
        entry span, children included."""
        totals = self.totals(factors)
        return {stage: totals.get(name, {}).get("incl_s", 0.0) / timed_s for stage, name in STAGES.items()}
