"""The benchmark's tracer wraps borelsum functions by name, and its workloads
call the library by name; every name must resolve, or a benchmark run fails on
its first lookup."""

import ast
import importlib
import sys
from pathlib import Path

import borelsum
import borelsum.reproduce

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


def test_every_library_name_the_workloads_read_resolves():
    # bs.<name> and reproduce.<name> in perfbench/workloads.py, read off its source
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {"bs": borelsum, "reproduce": borelsum.reproduce}
    names = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    assert {alias for alias, _ in names} == set(modules)
    for alias, attr in sorted(names):
        assert hasattr(modules[alias], attr), f"{alias}.{attr}"
