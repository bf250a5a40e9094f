"""The package names the benchmark harness calls must exist.

The harness under ``bench/`` calls package functions by name, so renaming
or deleting one would otherwise show up only as a failed benchmark run.
These tests read the harness files and never edit them;
``bench/workloads.py`` is scanned, not imported, because it imports sympy.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_layers_resolve_to_callables():
    # spans.py imports only the stdlib and qscontrol.cli
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for module, names in spans.LAYERS.values()
        for name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert spans.LAYERS and not missing, missing


def test_workload_attributes_exist():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    # local name -> package module, from the file's own `from qscontrol... import` lines
    modules = {
        alias.asname or alias.name: f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qscontrol"
        for alias in node.names
    }
    assert set(modules) >= {"rf", "fock", "classical", "cli", "rf_symbolic", "sl2"}
    used = {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert used
    missing = sorted(
        f"{module}.{attr}"
        for module, attr in used
        if not hasattr(importlib.import_module(module), attr)
    )
    assert not missing, missing
