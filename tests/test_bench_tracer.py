"""The benchmark's traced run wraps dctc functions by name, and its hooks
read their parameters and results by name; a renamed or deleted one would
only show as exit code 3 from ``bench/run.py --trace 1``."""

import dataclasses
import importlib
import inspect
import pathlib
import sys

from dctc import channels, engines, maxent

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def test_layer_functions_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")
    assert tracer.LAYER_FUNCTIONS
    for mod, fname in tracer.LAYER_FUNCTIONS:
        module = importlib.import_module(f"dctc.{mod}")
        assert callable(getattr(module, fname, None)), f"dctc.{mod}.{fname}"


def test_hooked_names_exist():
    """The names ``bench/tracer.py`` ``HOOKS`` read off a wrapped call's
    arguments and result."""
    assert list(inspect.signature(channels.superoperator).parameters)[:2] == [
        "sys", "include_noise"]
    assert list(inspect.signature(engines.ralph_iterate).parameters)[0] == "sys"
    assert {"u", "rho_cr", "p"} <= {f.name for f in dataclasses.fields(channels.CtcSystem)}
    assert isinstance(channels.CtcSystem.d_cv, property)
    assert {"steps", "status"} <= {f.name for f in dataclasses.fields(engines.IterationOutcome)}
    assert "iterations" in {f.name for f in dataclasses.fields(maxent.MaxEntResult)}
