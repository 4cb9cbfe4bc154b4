import importlib
from pathlib import Path


def test_benchmark_boundaries_resolve(monkeypatch):
    # The benchmark's tracer wraps these names at start-up and exits when
    # one is gone; renaming or deleting one must fail here first.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "ssmbench"))
    tracer = importlib.import_module("tracer")
    sites = tracer.resolve_boundaries()
    assert {name for name, *_ in sites} == set(tracer.SPAN_NAMES)
