"""Span tracing of the barrier_la layers, installed from outside the package.

The tracer rebinds the public functions of ``cli``, ``harness``,
``dynamics`` and ``game`` in every ``barrier_la`` module that holds them,
so calls between modules (``harness.basin_split`` calling the
``fixed_points`` it imported from ``dynamics``) are traced too.  Nothing in
the package changes; ``uninstall`` puts the original functions back.

A span is ``[name, start, end, parent index, op id]``.  Spans stay in
memory and are reduced to per-layer metrics by ``layer_metrics``.
"""

from __future__ import annotations

import inspect
import os
import re
import sys
import time
import warnings
from collections import defaultdict

PACKAGE = "barrier_la"
LAYERS = ("cli", "harness", "dynamics", "game")

_NEWTON_COUNTS = re.compile(r"(\d+) of (\d+)")


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    return (end - start) - union_length(children, start, end)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_run_ensemble(counts, args, kwargs, result):
    c, runs = _arg(args, kwargs, 0, "c"), _arg(args, kwargs, 1, "runs")
    counts["harness.run_ensemble.steps"] += c.steps * runs


def _count_terminal_states(counts, args, kwargs, result):
    counts["harness.terminal_states.lanes"] += _arg(args, kwargs, 1, "runs")


def _count_run_game(counts, args, kwargs, result):
    counts["harness.run_game.steps"] += _arg(args, kwargs, 0, "c").steps


def _count_write_trajectory_csv(counts, args, kwargs, result):
    counts["harness.write_trajectory_csv.rows"] += len(_arg(args, kwargs, 0, "traj"))
    counts["harness.write_trajectory_csv.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_integrate(counts, args, kwargs, result):
    counts["dynamics.integrate.steps"] += len(result) - 1


# Work counted at a span's end, outside its timed interval.
_COUNTERS = {
    "harness.run_ensemble": _count_run_ensemble,
    "harness.terminal_states": _count_terminal_states,
    "harness.run_game": _count_run_game,
    "harness.write_trajectory_csv": _count_write_trajectory_csv,
    "dynamics.integrate": _count_integrate,
}


class Tracer:
    """Records one span per call of a public layer function."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._wrap(name, fn, _COUNTERS.get(name))
                if name == "dynamics.fixed_points":
                    wrapped = self._count_newton_failures(wrapped)
                wrappers[id(fn)] = wrapped
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, counter):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_newton_failures(self, traced):
        """Count the Newton seeds that ``fixed_points`` reports as failed.

        The package signals them with a ``NoConvergenceWarning`` naming
        ``failed of seeds``; a call without the warning failed no seed and
        started ``grid_n**2`` seeds plus one when the mixed equilibrium exists.
        """
        warning_cls = getattr(sys.modules.get(f"{PACKAGE}.errors"), "NoConvergenceWarning", None)
        mixed_equilibrium = sys.modules[f"{PACKAGE}.game"].mixed_equilibrium
        counts = self.counts

        def counted(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = traced(*args, **kwargs)
            failed = seeds = None
            for w in caught:
                match = _NEWTON_COUNTS.search(str(w.message))
                if warning_cls is not None and issubclass(w.category, warning_cls) and match:
                    failed, seeds = int(match.group(1)), int(match.group(2))
                else:
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            if seeds is None:
                grid_n = kwargs.get("grid_n", 11)
                try:
                    mixed_equilibrium(_arg(args, kwargs, 0, "spec"))
                    extra = 1
                except ValueError:
                    extra = 0
                failed, seeds = 0, grid_n * grid_n + extra
            counts["dynamics.fixed_points.failed_seeds"] += failed
            counts["dynamics.fixed_points.seeds"] += seeds
            return result

        counted.__wrapped__ = traced
        return counted


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counts, ops) -> dict[str, float]:
    """Per-layer metrics of one pass over a workload's op list.

    ``ops`` holds ``(op id, start, end)`` as timed by the benchmark around
    each ``cli.main`` call.  ``busy_s`` sums a function's outermost spans,
    ``self_s`` subtracts what its child spans cover, and a layer's
    ``self_frac`` is its spans' self time as a share of op wall time.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append((s[1], s[2]))

    def has_ancestor(i, pred):
        p = spans[i][3]
        while p is not None:
            if pred(spans[p][0]):
                return True
            p = spans[p][3]
        return False

    busy = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    layer_busy = defaultdict(float)
    layer_self = defaultdict(float)
    roots_by_op = defaultdict(list)
    for i, (name, t0, t1, parent, op) in enumerate(spans):
        layer = name.split(".", 1)[0]
        calls[name] += 1
        s = self_time(t0, t1, children[i])
        own[name] += s
        layer_self[layer] += s
        if not has_ancestor(i, lambda n: n == name):
            busy[name] += t1 - t0
        if not has_ancestor(i, lambda n: n.split(".", 1)[0] == layer):
            layer_busy[layer] += t1 - t0
        if parent is None:
            roots_by_op[op].append((t0, t1))

    wall = sum(t1 - t0 for _, t0, t1 in ops)
    covered = sum(union_length(roots_by_op[op], t0, t1) for op, t0, t1 in ops)

    m = {
        "harness.run_ensemble.busy_s": busy["harness.run_ensemble"],
        "harness.run_ensemble.run_steps_per_s": _ratio(
            counts["harness.run_ensemble.steps"], busy["harness.run_ensemble"]),
        "harness.terminal_states.busy_s": busy["harness.terminal_states"],
        "harness.terminal_states.lanes": counts["harness.terminal_states.lanes"],
        "harness.basin_split.self_s": own["harness.basin_split"],
        "harness.run_game.calls": calls["harness.run_game"],
        "harness.run_game.busy_s": busy["harness.run_game"],
        "harness.run_game.steps_per_s": _ratio(
            counts["harness.run_game.steps"], busy["harness.run_game"]),
        "harness.error_table.self_s": own["harness.error_table"],
        "harness.steady_state_error.busy_s": busy["harness.steady_state_error"],
        "harness.write_trajectory_csv.busy_s": busy["harness.write_trajectory_csv"],
        "harness.write_trajectory_csv.rows": counts["harness.write_trajectory_csv.rows"],
        "harness.write_trajectory_csv.bytes": counts["harness.write_trajectory_csv.bytes"],
        "harness.write_error_table_csv.busy_s": busy["harness.write_error_table_csv"],
        "dynamics.fixed_points.calls": calls["dynamics.fixed_points"],
        "dynamics.fixed_points.busy_s": busy["dynamics.fixed_points"],
        "dynamics.fixed_points.seed_fail_frac": _ratio(
            counts["dynamics.fixed_points.failed_seeds"], counts["dynamics.fixed_points.seeds"]),
        "dynamics.integrate.busy_s": busy["dynamics.integrate"],
        "dynamics.integrate.steps": counts["dynamics.integrate.steps"],
        "dynamics.integrate.us_per_step": 1e6 * _ratio(
            busy["dynamics.integrate"], counts["dynamics.integrate.steps"]),
        "dynamics.vector_field.calls": calls["dynamics.vector_field"],
        "dynamics.vector_field.busy_s": busy["dynamics.vector_field"],
        "game.busy_s": layer_busy["game"],
        "cli.main.self_s": own["cli.main"],
        "trace.span_cover_frac": _ratio(covered, wall),
    }
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = _ratio(layer_self[layer], wall)
    return m
