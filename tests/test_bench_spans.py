"""The benchmark's span tracer names package functions by their dotted
path; every name it wraps or counts must still resolve."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _load_spans()
    for name, module, path in spans.TARGETS:
        owner, attr = spans._resolve(module, path)
        assert callable(getattr(owner, attr, None)), name
    targets = {name for name, _, _ in spans.TARGETS}
    for counter, module, path, ancestor in spans.COUNTED:
        owner, attr = spans._resolve(module, path)
        assert callable(getattr(owner, attr, None)), counter
        assert ancestor in targets, counter
