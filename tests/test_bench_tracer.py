"""The benchmark's traced run wraps dctc functions by name; a renamed or
deleted one would only show as exit code 3 from ``bench/run.py --trace 1``."""

import importlib
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def test_layer_functions_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")
    assert tracer.LAYER_FUNCTIONS
    for mod, fname in tracer.LAYER_FUNCTIONS:
        module = importlib.import_module(f"dctc.{mod}")
        assert callable(getattr(module, fname, None)), f"dctc.{mod}.{fname}"
