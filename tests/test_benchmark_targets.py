"""The benchmark's tracer wraps borelsum functions by name; every name must
resolve, or a traced benchmark run fails on its first lookup."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_function_resolves():
    sys.path.insert(0, str(PERFBENCH))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))
    assert tracing.TARGETS
    for modname, attr, *_ in tracing.TARGETS:
        module = importlib.import_module(f"borelsum.{modname}")
        assert callable(getattr(module, attr, None)), f"borelsum.{modname}.{attr}"
