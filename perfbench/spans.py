"""Span recorder for the traced benchmark run.

The layers are the package modules ``cli``, ``optimizer``, ``model``,
``analytic`` and ``reduced``. Each is measured from outside: the recorder
replaces the public functions listed in ``WRAPPED`` (and
``Trajectory.write_csv``) with wrappers that record a span around the call.
A function is patched in every module that binds it, since ``cli`` and
``optimizer`` import ``integrate_full`` by name and the package re-exports
most functions.

A span is (name, start, end, parent, job). Spans are kept in memory and
written out when the run ends; a layer's self time is its spans' durations
minus the time covered by their direct child spans. Private helpers are not
wrapped, so the optimizer's line-search trial evaluations (which go through
``_interval_propagators``) count as ``optimizer.optimize`` self time.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

import lambda_control
from lambda_control import analytic, cli, model, optimizer, reduced

MODULES = (lambda_control, cli, model, optimizer, analytic, reduced)

# (module that defines the function, attribute); the span is "module.attribute".
WRAPPED = (
    (optimizer, "objective_and_gradient"),
    (optimizer, "objective"),
    (optimizer, "pumping_baseline"),
    (optimizer, "optimize"),
    (model, "integrate_full"),
    (analytic, "random_sequence"),
    (analytic, "verify_bound"),
    (analytic, "propagate_sequence"),
    (analytic, "pmp_residual"),
    (reduced, "integrate_adiabatic"),
    (cli, "main"),
)

INTEGRATE_KINDS = ("rk4", "callable", "adaptive")


def span_name(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


# Every span name a layer can record; integrate_full is split by path.
SPAN_NAMES = (
    [span_name(module, attr) for module, attr in WRAPPED if attr != "integrate_full"]
    + [f"model.integrate_full.{kind}" for kind in INTEGRATE_KINDS]
    + ["model.Trajectory.write_csv"]
)
JOB_SPAN = "bench.job"


def integrate_full_kind(args, kwargs) -> str:
    """Which integrate_full path a call takes: rk4, callable or adaptive."""
    control = args[0] if args else kwargs["control"]
    if kwargs.get("method", "rk4") == "adaptive":
        return "adaptive"
    if callable(control) and not isinstance(control, model.ControlSignal):
        return "callable"
    return "rk4"


def rk4_steps(args, kwargs) -> int:
    """RK4 steps of an integrate_full call, computed from the model's step rule.

    Piecewise controls take max(1, ceil(d / h_max)) steps per interval of
    length d inside [0, T]; a callable takes ceil(T / h_max) steps. h_max
    is ``max_step`` or ``model.default_max_step(params)``.
    """
    control, params = args[0], args[1]
    T = args[2] if len(args) > 2 else kwargs.get("T")
    max_step = kwargs.get("max_step")
    h_max = model.default_max_step(params) if max_step is None else float(max_step)
    if not isinstance(control, model.ControlSignal):
        return max(1, math.ceil(float(T) / h_max - 1e-12))
    T = control.duration if T is None else float(T)
    starts = control.grid[control.grid < T - 1e-12 * max(1.0, T)]
    ends = list(starts[1:]) + [T]
    return sum(max(1, math.ceil((end - start) / h_max - 1e-12))
               for start, end in zip(starts, ends))


class Recorder:
    """Records spans around the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.counters: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        self._stack.append(index)
        return index

    def close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return wrapper

    def _wrap_integrate_full(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            kind = integrate_full_kind(args, kwargs)
            if kind != "adaptive":
                self.counters["model.rk4_steps"] += rk4_steps(args, kwargs)
            index = self.open(f"model.integrate_full.{kind}")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return wrapper

    def _wrap_optimize(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            self.counters["optimizer.starts"] += len(result.starts)
            self.counters["optimizer.iterations"] += sum(s.iterations for s in result.starts)
            self.counters["optimizer.converged_starts"] += sum(s.converged for s in result.starts)
            return result
        return wrapper

    def _patch(self, original, wrapper):
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        for module, attr in WRAPPED:
            original = getattr(module, attr)
            name = span_name(module, attr)
            if attr == "integrate_full":
                wrapper = self._wrap_integrate_full(original)
            elif attr == "optimize":
                wrapper = self._wrap_optimize(name, original)
            else:
                wrapper = self._wrap(name, original)
            self._patch(original, wrapper)
        write_csv = model.Trajectory.write_csv
        self._restore.append((model.Trajectory, "write_csv", write_csv))
        model.Trajectory.write_csv = self._wrap("model.Trajectory.write_csv", write_csv)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def run_job(self, job_id: int, fn, *args):
        """Call fn(*args) as job ``job_id`` under a root span."""
        self.job = job_id
        index = self.open(JOB_SPAN)
        try:
            return fn(*args)
        finally:
            self.close(index)
            self.job = -1

    def self_times(self) -> tuple[dict[str, float], dict[str, list[float]]]:
        """Self time per span name, and the durations of each name's spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            self_s[name] += end - start - child
            durations[name].append(end - start)
        return self_s, durations

    def layer_metrics(self, bytes_written: int, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics of the recorded pass; BENCHMARK.json picks the reported ones."""
        self_s, durations = self.self_times()
        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = len(durations[name])
            metrics[f"{name}.self_s"] = self_s[name]
        grad = durations["optimizer.objective_and_gradient"]
        kinds = [f"model.integrate_full.{kind}" for kind in INTEGRATE_KINDS]
        rk4_time = self_s["model.integrate_full.rk4"] + self_s["model.integrate_full.callable"]
        starts = self.counters["optimizer.starts"]
        steps = self.counters["model.rk4_steps"]
        metrics.update({
            "optimizer.objective_and_gradient.p50_us":
                statistics.median(grad) * 1e6 if grad else 0.0,
            "optimizer.iterations": self.counters["optimizer.iterations"],
            "optimizer.converged_frac":
                self.counters["optimizer.converged_starts"] / starts if starts else 0.0,
            "optimizer.evals_per_start": len(grad) / starts if starts else 0.0,
            "model.integrate_full.calls": sum(len(durations[kind]) for kind in kinds),
            "model.rk4_steps": steps,
            "model.rk4_steps_per_s": steps / rk4_time if rk4_time > 0.0 else 0.0,
            "cli.bytes_written": bytes_written,
            "trace.overhead_s": overhead_s,
        })
        return metrics

    def write(self, path: Path):
        """Write the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "job": job}) + "\n")
