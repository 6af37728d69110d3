"""The benchmark's traced run wraps program functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = _load_spans().TARGETS
    assert targets
    missing = []
    for name, target in targets.items():
        owner = importlib.import_module(target[0])
        value = getattr(owner, target[1], None)
        if len(target) == 3:
            # Tracer.install reads methods from the class dict, not inherited ones
            value = vars(value).get(target[2]) if isinstance(value, type) else None
        if not callable(value):
            missing.append(name)
    assert missing == []
