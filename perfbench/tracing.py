"""Span tracing around the public functions of each dsmcf module.

The tracer replaces module attributes (and the ``__init__`` of the two
geometry classes) with wrappers that record one span per call: name,
start, end, parent span and run id.  Spans live in flat arrays in memory
and are written out with ``write``.  Nothing inside ``src/`` is touched;
calls resolve through module globals, so wrapping ``flow.step`` also
catches the calls ``flow.run`` makes to it.

Name binding matters: ``cli`` imports ``load_config`` by name, so the
wrapped attribute is ``cli.load_config``, not ``config.load_config``.
"""

from __future__ import annotations

import os
import time
from array import array
from functools import wraps

import numpy as np

# Wrapped callables, as "<module>.<attribute>".  A class is timed through
# its __init__; lazily cached tensor properties it computes later are
# charged to whichever caller first touches them.
LAYERS = (
    "flow.run",
    "flow.step",
    "flow.stable_dt",
    "flow.evolve_window",
    "geometry.graph_speed_fields",
    "geometry.GeometryFields",
    "geometry.JetFields",
    "grids.radial_jet",
    "grids.cartesian_jet",
    "grids.laplace_beltrami_cartesian",
    "grids.laplace_beltrami_radial",
    "grids.interpolate",
    "oracles.check_restriction_gradients",
    "oracles.check_coordinate_laplacians",
    "oracles.check_tilt_gradient",
    "oracles.check_tilt_evolution",
    "oracles.check_tilt_bounds",
    "oracles.restriction_gradient_residuals",
    "oracles.tilt_gradient_residuals",
    "experiments.barrier_run",
    "experiments.convergence_table",
    "experiments.rescale_trajectory",
    "snapshots.save_trajectory",
    "snapshots.load_trajectory",
    "reporting.emit_report",
    "cli.load_config",
    "cli.main",
)

KERNEL = "geometry.graph_speed_fields"
# Arrays the kernel reads or returns per call: u in; speed, v^2, H, margin out.
KERNEL_ARRAYS = 5

DERIVED = (
    ("flow.step.us.p50", "us", "lower"),
    ("flow.step.us.p99", "us", "lower"),
    ("flow.kernel_calls_per_step", "calls/step", "lower"),
    ("geometry.graph_speed_fields.node_evals_per_s", "1/s", "higher"),
    ("geometry.graph_speed_fields.bytes_computed", "B", "lower"),
    ("snapshots.bytes_written", "B", "lower"),
    ("snapshots.bytes_read", "B", "lower"),
    ("oracles.checks_failed", "count", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


def layer_metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for label in LAYERS:
        specs.append((f"{label}.calls", "count", "lower"))
        specs.append((f"{label}.s", "s", "lower"))
        specs.append((f"{label}.self_s", "s", "lower"))
    return specs + list(DERIVED)


def _resolve(modules, label):
    """(owner, attribute) that the wrapper for ``label`` replaces."""
    module_name, attr = label.split(".", 1)
    owner = getattr(modules, module_name)
    target = getattr(owner, attr)
    if isinstance(target, type):
        return target, "__init__"
    return owner, attr


class Tracer:
    """Records spans while installed (use as a context manager)."""

    # Spans of one traced iteration share this run id.
    run_id = 1

    def __init__(self, modules):
        self.modules = modules
        self.name = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.kernel_nodes = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self._stack = []
        self._saved = []

    def _wrap(self, index, fn):
        name, parent, run, start, end = self.name, self.parent, self.run, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            i = len(name)
            name.append(index)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def _count_kernel(self, fn):
        @wraps(fn)
        def counted(u_values, *args, **kwargs):
            self.kernel_nodes += np.size(u_values)
            return fn(u_values, *args, **kwargs)

        return counted

    def _count_save(self, fn):
        @wraps(fn)
        def counted(traj, path, *args, **kwargs):
            result = fn(traj, path, *args, **kwargs)
            self.bytes_written += os.path.getsize(path)
            return result

        return counted

    def _count_load(self, fn):
        @wraps(fn)
        def counted(path, *args, **kwargs):
            self.bytes_read += os.path.getsize(path)
            return fn(path, *args, **kwargs)

        return counted

    def __enter__(self):
        counters = {
            KERNEL: self._count_kernel,
            "snapshots.save_trajectory": self._count_save,
            "snapshots.load_trajectory": self._count_load,
        }
        for index, label in enumerate(LAYERS):
            owner, attr = _resolve(self.modules, label)
            original = owner.__dict__[attr]
            fn = counters[label](original) if label in counters else original
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(index, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "run": np.frombuffer(self.run, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path) -> None:
        """Save every span, plus the label table, as an .npz file."""
        np.savez(path, labels=np.array(LAYERS), **self.arrays())

    def totals(self):
        """Per label: (calls, total seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; calls nest on one thread, so children never overlap.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        own = dur - child
        k = len(LAYERS)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        self_s = np.bincount(a["name"], weights=own, minlength=k)
        return {
            label: (int(calls[i]), float(total[i]), float(self_s[i]))
            for i, label in enumerate(LAYERS)
        }

    def durations(self, label):
        a = self.arrays()
        sel = a["name"] == LAYERS.index(label)
        return a["end"][sel] - a["start"][sel]


def layer_metrics(tracer: Tracer, checks_failed: int, overhead_frac: float) -> dict:
    """Every per-layer metric as {name: (value, unit)}."""
    totals = tracer.totals()
    units = {name: unit for name, unit, _ in layer_metric_specs()}
    out = {}
    for label, (calls, total, own) in totals.items():
        out[f"{label}.calls"] = calls
        out[f"{label}.s"] = total
        out[f"{label}.self_s"] = own
    step_us = tracer.durations("flow.step") * 1e6
    p50, p99 = (
        (float(np.percentile(step_us, 50)), float(np.percentile(step_us, 99)))
        if step_us.size
        else (0.0, 0.0)
    )
    kernel_calls, kernel_s, _ = totals[KERNEL]
    step_calls = totals["flow.step"][0]
    out["flow.step.us.p50"] = p50
    out["flow.step.us.p99"] = p99
    out["flow.kernel_calls_per_step"] = kernel_calls / step_calls if step_calls else 0.0
    out["geometry.graph_speed_fields.node_evals_per_s"] = (
        tracer.kernel_nodes / kernel_s if kernel_s > 0 else 0.0
    )
    out["geometry.graph_speed_fields.bytes_computed"] = (
        tracer.kernel_nodes * KERNEL_ARRAYS * 8
    )
    out["snapshots.bytes_written"] = tracer.bytes_written
    out["snapshots.bytes_read"] = tracer.bytes_read
    out["oracles.checks_failed"] = checks_failed
    out["trace.overhead_frac"] = overhead_frac
    return {name: (value, units[name]) for name, value in out.items()}
