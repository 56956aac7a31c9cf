"""The benchmark's hooks: every program name that xbench replaces by name exists.

xbench/tracing.py wraps the functions in its TARGETS, and xbench/workloads.py
cuts calls into timed segments by replacing a module attribute by name
(_with_marks).  A renamed or removed target fails every benchmark pass, so
these checks load both files as they are and look each name up, count the
calls that the bound-nxn marks wrap, and run each of the three workloads briefly.
The --trace 1 hooks are checked without a traced run: the import probe of
xbench/run.py and a Tracer install/uninstall round trip.
"""
import ast
import importlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_bound_marks_fire_twice_per_state(monkeypatch):
    # bound-nxn cuts each file's bound at the calls of highdim.combinations:
    # _pair_grid must call it for the A-pairs and for the B-pairs on every
    # call, uncached.  ROADMAP item 1 moves these marks to a call made once
    # per state; its change updates this test.
    from xbound import highdim, maximally_mixed

    calls = []
    real = highdim.combinations
    monkeypatch.setattr(highdim, "combinations", lambda *args: calls.append(args) or real(*args))
    q = maximally_mixed(3, 4)
    for n in (1, 2):
        highdim.generalized_lower_bound(q)
        assert calls == [(range(3), 2), (range(4), 2)] * n


@pytest.mark.parametrize("workload", ["fuzz-2q", "bound-nxn", "oracle"])
def test_benchmark_smoke_run(workload):
    # The two-qubit fuzz, the one-state path and the oracle, end to end: a
    # short run must be correct, with no failed pass and every end-to-end
    # metric.  That is xbench/checks.py's check_fuzz on every fuzz report,
    # check_bound on every bound and, on oracle, check_roof and check_basis
    # on every result.
    # --trace 1 is left out: it writes under xbench/results/.
    root = XBENCH.parent
    proc = subprocess.run([sys.executable, "xbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0.2", "--trace", "0"],
                          cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and math.isfinite(value["value"]) and value["value"] > 0


def test_import_probe_reports_both_modules(monkeypatch):
    # --trace 1 reads the cumulative import times of xbound.cli and
    # scipy.optimize; a package that stops importing either fails here.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py sets these on import; undone after the test
    times = load("run", monkeypatch).import_times_ms()
    assert set(times) == {"import.xbound_cli_ms", "import.scipy_optimize_ms"}
    assert all(math.isfinite(t) and t > 0 for t in times.values())


def test_tracer_round_trip_restores_every_attribute(monkeypatch):
    # --trace 1 replaces traced functions in every xbound module for a pass
    # and must put the originals back, by identity.
    import xbound.cli  # noqa: F401  (every traced module loaded)

    tracing = load("tracing", monkeypatch)
    tracer = tracing.Tracer()
    modules = {n: m for n, m in sys.modules.items()
               if m is not None and (n == "xbound" or n.startswith("xbound."))}
    before = {n: dict(vars(m)) for n, m in modules.items()}
    tracer.install()
    try:
        replaced = {(n, a) for n, m in modules.items()
                    for a, v in vars(m).items() if v is not before[n].get(a)}
    finally:
        tracer.uninstall()
    assert {(f"xbound.{mod}", func) for mod, func, _ in tracing.TARGETS} <= replaced
    for n, m in modules.items():
        after = vars(m)
        assert after.keys() == before[n].keys()
        assert all(after[a] is v for a, v in before[n].items()), n
