"""The benchmark's hooks: every program name that xbench replaces by name exists.

xbench/tracing.py wraps the functions in its TARGETS, and xbench/workloads.py
cuts calls into timed segments by replacing a module attribute by name
(_with_marks).  A renamed or removed target fails every benchmark pass, so
these checks load both files as they are and look each name up.
"""
import ast
import importlib
import importlib.util
import sys
from pathlib import Path

XBENCH = Path(__file__).resolve().parents[1] / "xbench"


def load(name, monkeypatch):
    """Import xbench/<name>.py by path, as a top-level module of that name."""
    spec = importlib.util.spec_from_file_location(name, XBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_tracing_targets_exist(monkeypatch):
    tracing = load("tracing", monkeypatch)
    assert tracing.TARGETS
    for module, func, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(f"xbound.{module}"), func))


def test_marked_names_exist(monkeypatch):
    load("checks", monkeypatch)  # workloads imports it as a top-level module
    workloads = load("workloads", monkeypatch)
    marked = set()
    for node in ast.walk(ast.parse((XBENCH / "workloads.py").read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_with_marks":
            module, name = node.args[1], node.args[2]
            marked.add((getattr(workloads, module.id).__name__, name.value))
    assert marked == {("xbound.oracle", "sample_random_density"),
                      ("xbound.oracle", "minimize"),
                      ("xbound.highdim", "combinations")}
    for module, name in marked:
        assert callable(getattr(sys.modules[module], name))
