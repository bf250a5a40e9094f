"""Span tracing for the benchmark's traced run.

``Tracer.install`` wraps public functions of the package layers, both as
module attributes and wherever another package module bound them by name
(``fock`` binds ``ito.sl2`` functions at import, ``ito`` re-exports
them).  Every call then records a span -- name, start, end, parent span
and pass id -- and, for the kernels named in ``_COUNTERS``, exact work
counts derived from the call's arguments and result.  Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter

from qscontrol.cli import EXPERIMENTS

# layer -> (module, traced public functions)
LAYERS = {
    "rf": ("qscontrol.rf", ["build_levy_surrogate", "iterate_riccati", "residual_integral",
                            "solve_r", "closed_loop_state", "cost_tilde", "feedback_control"]),
    # fock.matrix_element_evolution is left out: no CLI kind or workload calls it
    "fock": ("qscontrol.fock", ["step_tensor_evolution", "unitarity_defect", "flow_expectation",
                                "characteristic_functional", "swn_simulate"]),
    "ito": ("qscontrol.ito.sl2", ["swn_structure_constants", "rho_plus_int_entries"]),
    "classical": ("qscontrol.classical", ["lqg_simulate", "lqr_simulate", "solve_riccati_ode",
                                          "solve_are"]),
    "qcontrol": ("qscontrol.qcontrol", ["cost_Q", "reduced_riccati_obstruction",
                                        "derive_flow_swn"]),
    "rf_symbolic": ("qscontrol.rf_symbolic", ["prop2_specialization_check"]),
    "cli": ("qscontrol.cli", ["run"]),  # one span name per experiment kind
}
COMPLEX_BYTES = 16
EXACT_UNITS = ("count", "ratio", "B")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _path_steps(path):
    return path.n_paths * path.n_steps


def _count_iterate(counts, args, kwargs, result):
    counts["rf.iterate_riccati.iterations"] += result.n_iterations
    # iterate 1 is the constant boundary path; every later one is a sweep
    counts["rf.path_steps"] += _path_steps(_arg(args, kwargs, 1, "path")) * (
        result.n_iterations - 1)


def _count_sweep(index):
    def count(counts, args, kwargs, result):
        counts["rf.path_steps"] += _path_steps(_arg(args, kwargs, index, "path"))
    return count


def _count_closed_loop(counts, args, kwargs, result):
    path = _arg(args, kwargs, 3, "path")
    counts["rf.path_steps"] += _path_steps(path)
    counts["rf.closed_loop_state.state_points"] += path.n_paths * (path.n_steps + 1)


def _count_cost(counts, args, kwargs, result):
    x_path = _arg(args, kwargs, 3, "x_path")
    counts["rf.path_steps"] += x_path.shape[0] * (x_path.shape[1] - 1)


def _count_feedback(counts, args, kwargs, result):
    x_values = _arg(args, kwargs, 2, "x_values")
    dim = x_values.shape[-1]
    counts["rf.feedback_control.state_points"] += x_values.size // (dim * dim)


def _count_tensor(counts, args, kwargs, result):
    spec, config = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "config")
    steps_max = kwargs.get("n_steps_max", args[2] if len(args) > 2 else None)
    steps = config.n_steps if steps_max is None else min(config.n_steps, steps_max)
    entries = spec.dim * config.levels_per_mode ** steps
    counts["fock.tensor_state_entries"] = max(counts["fock.tensor_state_entries"], entries)
    # each step's two-site product reads and writes the whole state once
    counts["fock.tensor_bytes_computed"] += 2 * COMPLEX_BYTES * entries * steps


_COUNTERS = {
    "rf.iterate_riccati": _count_iterate,
    "rf.residual_integral": _count_sweep(2),
    "rf.solve_r": _count_sweep(2),
    "rf.closed_loop_state": _count_closed_loop,
    "rf.cost_tilde": _count_cost,
    "rf.feedback_control": _count_feedback,
    "fock.step_tensor_evolution": _count_tensor,
}


def per_layer_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer, (_, names) in LAYERS.items():
        for name in names:
            if layer == "cli":
                continue
            units[f"{layer}.{name}.self_s"] = "s"
            units[f"{layer}.{name}.calls"] = "count"
    units.update({
        "rf.iterate_riccati.iterations": "count",
        "rf.iterate_riccati.s_per_iteration": "s",
        "rf.path_steps": "count",
        "rf.us_per_path_step": "us",
        "rf.feedback_control.calls_per_state_step": "ratio",
        "fock.tensor_state_entries": "count",
        "fock.tensor_bytes_computed": "B",
    })
    for kind in EXPERIMENTS:
        units[f"cli.run.{kind}.s"] = "s"
        units[f"cli.run.{kind}.self_s"] = "s"
    units.update({
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
        "trace.rf_span_share": "share",
        "trace.spans": "count",
    })
    return units


class Tracer:
    """Records spans and work counts for the wrapped layer functions."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, pass id]
        self.counts = {}  # pass id -> Counter
        self._stack = []
        self._pass = None
        self._patches = []

    def begin_pass(self, pass_id):
        self._pass = pass_id
        self.counts[pass_id] = Counter()

    def _wrap(self, name, fn):
        count = _COUNTERS.get(name)
        kind_named = name == "cli.run"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = f"cli.run.{_arg(args, kwargs, 0, 'config').kind}" if kind_named else name
            span = [label, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._pass]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts[self._pass], args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [importlib.import_module(module) for module, _ in LAYERS.values()]
        package = [m for key, m in sys.modules.items()
                   if m is not None and (key == "qscontrol" or key.startswith("qscontrol."))]
        for (layer, (_, names)), module in zip(LAYERS.items(), modules):
            for name in names:
                original = getattr(module, name)
                traced = self._wrap(f"{layer}.{name}", original)
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, traced)
                            self._patches.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def pass_metrics(self, pass_id, wall):
        """Per-layer metrics of one traced pass lasting ``wall`` seconds
        (the runner adds the ``trace.*_wall_s`` and overhead metrics)."""
        indices = [i for i, span in enumerate(self.spans) if span[4] == pass_id]
        child = Counter()
        for i in indices:
            name, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                child[parent] += end - start
        self_s, total_s, calls = Counter(), Counter(), Counter()
        rf_top = 0.0
        for i in indices:
            name, start, end, parent, _ = self.spans[i]
            self_s[name] += end - start - child[i]
            total_s[name] += end - start
            calls[name] += 1
            in_rf = parent >= 0 and self.spans[parent][0].startswith("rf.")
            if name.startswith("rf.") and not in_rf:
                rf_top += end - start
        counts = self.counts[pass_id]
        metrics = {}
        for key in per_layer_units():
            layer_fn, _, field = key.rpartition(".")
            if key.startswith("cli.run."):
                metrics[key] = (self_s if field == "self_s" else total_s)[layer_fn]
            elif field == "self_s":
                metrics[key] = self_s[layer_fn]
            elif field == "calls":
                metrics[key] = calls[layer_fn]
        rf_self = sum(v for k, v in self_s.items() if k.startswith("rf."))
        iterations = counts["rf.iterate_riccati.iterations"]
        path_steps = counts["rf.path_steps"]
        points = counts["rf.closed_loop_state.state_points"]
        metrics.update({
            "rf.iterate_riccati.iterations": iterations,
            "rf.iterate_riccati.s_per_iteration":
                self_s["rf.iterate_riccati"] / iterations if iterations else 0.0,
            "rf.path_steps": path_steps,
            "rf.us_per_path_step": 1e6 * rf_self / path_steps if path_steps else 0.0,
            # feedback evaluations per closed-loop state point, rounded: the
            # seed evaluates 2T+1 times for T+1 points, a ratio of 2.0
            "rf.feedback_control.calls_per_state_step":
                round(counts["rf.feedback_control.state_points"] / points, 2) if points else 0.0,
            "fock.tensor_state_entries": counts["fock.tensor_state_entries"],
            "fock.tensor_bytes_computed": counts["fock.tensor_bytes_computed"],
            "trace.rf_span_share": rf_top / wall,
            "trace.spans": len(indices),
        })
        return metrics

    def exact_counts(self, pass_id):
        """Counts that must repeat bit for bit between traced passes."""
        units = per_layer_units()
        return {k: v for k, v in self.pass_metrics(pass_id, 1.0).items()
                if units[k] in EXACT_UNITS}

    def write(self, path):
        t0 = min((span[1] for span in self.spans), default=0.0)
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[n], round(s - t0, 9), round(e - t0, 9), p, k]
                for n, s, e, p, k in self.spans]
        path.write_text(json.dumps({"names": names,
                                    "fields": ["name", "start_s", "end_s", "parent", "pass"],
                                    "spans": rows}, separators=(",", ":")))


def median_metrics(per_pass):
    """Median over passes of each timing; counts repeat, so the first pass's."""
    units = per_layer_units()
    return {key: per_pass[0][key] if units[key] in EXACT_UNITS
            else statistics.median(p[key] for p in per_pass)
            for key in per_pass[0]}
