"""Spans recorded from outside gainflow, by replacing module attributes with
timing wrappers.

Every call through a wrapped attribute records one span: name, start, end,
parent span and whether it raised. Spans stay in memory (flat arrays, about
25 bytes each) and are written out with `save` when the run ends. A layer's
self time is its spans' time minus the time their child spans cover.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

from gainflow import bellman, bench, cli, flow, lqr_core, matlin


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.cpu: dict[int, float] = {}  # span -> process CPU seconds, all threads
        self._stack = [-1]
        self._patches: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, module, attr: str, suffix=None, cpu: bool = False) -> None:
        """Record a span for each call of module.attr while installed.
        suffix(*args, **kwargs) extends the span name, e.g. by flow kind."""
        original = getattr(module, attr)
        base = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer = self

        def wrapper(*args, **kwargs):
            name = base if suffix is None else f"{base}.{suffix(*args, **kwargs)}"
            idx = len(tracer.start)
            tracer.name.append(tracer._name_id(name))
            tracer.parent.append(tracer._stack[-1])
            tracer.raised.append(0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            cpu0 = time.process_time() if cpu else 0.0
            tracer.start.append(time.perf_counter())
            try:
                return original(*args, **kwargs)
            except BaseException:
                tracer.raised[idx] = 1
                raise
            finally:
                tracer.end[idx] = time.perf_counter()
                if cpu:
                    tracer.cpu[idx] = time.process_time() - cpu0
                tracer._stack.pop()

        self._patches.append((module, attr, original, wrapper))

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def arrays(self):
        return (np.array(self.name, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=float), np.array(self.end, dtype=float))

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, calls that raised,
        and (for CPU-timed layers) process CPU seconds."""
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - covered
        raised = np.array(self.raised, dtype=np.int8)
        rows = {}
        for i, label in enumerate(self.names):
            sel = name == i
            rows[label] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                           "self_s": float(own[sel].sum()), "raised": int(raised[sel].sum())}
        for idx, cpu_s in self.cpu.items():
            row = rows[self.names[name[idx]]]
            row["cpu_s"] = row.get("cpu_s", 0.0) + cpu_s
        return rows

    def children(self, parent_name: str, child_name: str) -> int:
        """Number of child_name spans whose parent is a parent_name span."""
        if parent_name not in self._ids or child_name not in self._ids:
            return 0
        name, parent, _, _ = self.arrays()
        sel = (name == self._ids[child_name]) & (parent >= 0)
        return int((name[parent[sel]] == self._ids[parent_name]).sum())

    def save(self, path: Path) -> None:
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            start=start, end=end,
                            raised=np.array(self.raised, dtype=np.int8))


def instrumented() -> Tracer:
    """A tracer with wrappers on every layer the benchmark reports."""
    tracer = Tracer()
    tracer.wrap(cli, "main")
    tracer.wrap(bench, "grid_eval")
    tracer.wrap(bench, "random_instance")
    tracer.wrap(bench, "sample_stabilizing_gain")
    tracer.wrap(flow, "integrate", suffix=lambda sys_, k0, config: config.kind)
    tracer.wrap(lqr_core, "kleinman")
    tracer.wrap(lqr_core, "solve_value_lyapunov")
    tracer.wrap(bellman, "bellman_error")
    tracer.wrap(matlin, "spectrum")
    tracer.wrap(matlin, "solve_linear", cpu=True)
    return tracer


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-round per-layer figures from the spans of `rounds` traced rounds,
    for the layers the workload called."""
    rows = tracer.table()

    def per_round(name: str, key: str) -> float:
        return rows[name].get(key, 0.0) / rounds

    out = {}
    for kind in flow.FLOW_KINDS:
        if f"flow.integrate.{kind}" in rows:
            out[f"flow.integrate.{kind}.s"] = per_round(f"flow.integrate.{kind}", "s")
    if "lqr_core.kleinman" in rows:
        seconds = per_round("lqr_core.kleinman", "s")
        iterations = tracer.children("lqr_core.kleinman", "lqr_core.solve_value_lyapunov") / rounds
        out["lqr_core.kleinman.s"] = seconds
        out["lqr_core.kleinman.iterations"] = iterations
        out["lqr_core.kleinman.ms_per_iter"] = 1e3 * seconds / iterations
        out["lqr_core.kleinman.failed"] = per_round("lqr_core.kleinman", "raised")
    for layer in ("lqr_core.solve_value_lyapunov", "bellman.bellman_error", "matlin.spectrum",
                  "matlin.solve_linear"):
        if layer in rows:
            out[f"{layer}.calls"] = per_round(layer, "calls")
            out[f"{layer}.s"] = per_round(layer, "s")
    if "matlin.solve_linear" in rows:
        out["matlin.solve_linear.cpu_per_wall"] = (rows["matlin.solve_linear"]["cpu_s"]
                                                   / rows["matlin.solve_linear"]["s"])
    for layer in ("bench.random_instance", "bench.sample_stabilizing_gain", "bench.grid_eval"):
        if layer in rows:
            out[f"{layer}.s"] = per_round(layer, "s")
    if "cli.main" in rows:
        out["cli.self_s"] = per_round("cli.main", "self_s")
    return out
