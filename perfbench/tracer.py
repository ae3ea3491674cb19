"""Spans around the public callables of the biphoton layers, and per-layer figures.

The wrappers are installed from outside the package.  Each replaces a name
as it is bound in the ``biphoton.engine`` or ``biphoton.cli`` namespace, so
calls the package makes internally (``chsh_experiment`` -> ``run_ensemble``
-> ``uniform_array``) pass through them.  Spans stay in memory while the
run lasts; the per-layer figures are derived from them afterwards.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import statistics
import threading
import time
from collections import defaultdict
from typing import NamedTuple

from biphoton import cli, engine

#: (namespace, attribute, span name, parameter giving the span's size)
TRACED = (
    (engine, "uniform_array", "rng.uniform_array", "trial_indices"),
    (engine, "measure_channel", "quantum.measure_channel", None),
    (engine, "apply_element", "quantum.apply_element", None),
    (engine, "marginal", "quantum.marginal", None),
    (engine, "hwp_jones", "quantum.hwp_jones", None),
    (engine, "chsh_S", "local.chsh_S", None),
    (engine, "lhv_sign_correlator", "local.lhv_sign_correlator", None),
    (engine, "run_ensemble", "engine.run_ensemble", "n_trials"),
    (engine, "simulate_outcomes", "engine.simulate_outcomes", "n_trials"),
    (engine, "write_trials_csv", "engine.write_trials_csv", "a_is_x"),
    (engine, "analytic_joint_table", "engine.analytic_joint_table", None),
    (cli, "run_ensemble", "engine.run_ensemble", "n_trials"),
    (cli, "simulate_outcomes", "engine.simulate_outcomes", "n_trials"),
    (cli, "write_trials_csv", "engine.write_trials_csv", "a_is_x"),
    (cli, "analytic_joint_table", "engine.analytic_joint_table", None),
    (cli, "main", "cli.main", None),
)

#: the ensemble layer: the reducing and the materialising callers of the chunk kernels
_ENSEMBLES = ("engine.run_ensemble", "engine.simulate_outcomes")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: "int | None"
    thread: int
    experiment: "int | None"
    size: "int | None"  # words, trials or rows, where the callable has a size


class Tracer:
    """Records a span per call of every callable in :data:`TRACED`.

    Use as a context manager: entering installs the wrappers, leaving puts
    the original callables back.  A span opened on a pool thread with no
    open span of its own takes as parent the innermost open span of the
    thread that created the tracer, which is the ensemble that started the
    pool.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.experiment: "int | None" = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._saved: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, size_param):
        signature = inspect.signature(fn) if size_param else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                size = None
                if signature is not None:
                    value = signature.bind(*args, **kwargs).arguments[size_param]
                    size = value if isinstance(value, int) else len(value)
                self.spans.append(
                    Span(span_id, name, start, end, parent, threading.get_ident(), self.experiment, size)
                )

        return traced

    def __enter__(self) -> "Tracer":
        for module, attr, name, size_param in TRACED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, size_param))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        """All spans as JSON, times in seconds from the first span's start."""
        t0 = min((s.start for s in self.spans), default=0.0)
        rows = [
            [s.id, s.name, s.start - t0, s.end - t0, s.parent, s.thread, s.experiment, s.size]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": list(Span._fields), "spans": rows}, f, separators=(",", ":"))


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(spans, traced_walls, untraced_walls, chunk: int) -> tuple[dict, dict, dict]:
    """Per-layer figures per traced pass, the base of every ratio, and a per-callable table.

    Times are busy time summed over spans (spans on parallel threads add
    up); a self time is a span minus the part of it its children cover.
    Every figure is measured on every workload and is above 0 there.  The
    callables that only one workload reaches (the CSV writer, ``cli.main``,
    the analytic tables) are reported in the per-callable table instead.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def total_s(group):
        return sum(s.end - s.start for s in group)

    def self_s(group):
        return sum(
            (s.end - s.start) - _covered(s.start, s.end, [(c.start, c.end) for c in children[s.id]])
            for s in group
        )

    rng = by_name["rng.uniform_array"]
    words = sum(s.size for s in rng)
    quantum = [s for s in spans if s.name.startswith("quantum.")]
    ensembles = [s for name in _ENSEMBLES for s in by_name[name]]
    ensemble_ids = {s.id for s in ensembles}
    quantum_in_ensembles = sum(1 for s in quantum if s.parent in ensemble_ids)
    threads_used = max(
        len({c.thread for c in children[s.id] if c.name == "rng.uniform_array"}) for s in ensembles
    )
    passes = len(traced_walls)
    per = 1.0 / passes
    metrics = {
        "rng.uniform_array.calls": len(rng) * per,
        "rng.uniform_array.words": words * per,
        "rng.uniform_array.s": total_s(rng) * per,
        "rng.ns_per_word": total_s(rng) / words * 1e9,
        "engine.ensemble.calls": len(ensembles) * per,
        "engine.ensemble.s": total_s(ensembles) * per,
        "engine.ensemble.self_s": self_s(ensembles) * per,
        "engine.chunks": sum(math.ceil(s.size / chunk) for s in ensembles) * per,
        "engine.threads_used": threads_used,
        "quantum.calls": len(quantum) * per,
        "quantum.s": total_s(quantum) * per,
        "quantum.calls_per_ensemble": quantum_in_ensembles / len(ensembles),
        "experiment.outside_ensemble_s": (sum(traced_walls) - total_s(ensembles)) * per,
        "trace.overhead_ratio": statistics.median(traced_walls) / statistics.median(untraced_walls),
    }
    bases = {
        "per_pass": f"totals over {passes} traced passes, divided by {passes}",
        "rng.ns_per_word": f"uniform_array busy time over {words} words",
        "quantum.calls_per_ensemble": f"{quantum_in_ensembles} quantum calls made directly by "
        f"{len(ensembles)} ensembles",
        "engine.threads_used": "most distinct threads that ran uniform_array within one ensemble",
        "trace.overhead_ratio": f"median wall of {passes} traced passes over that of "
        f"{len(untraced_walls)} untraced passes",
    }
    callables = {
        name: {
            "calls": len(group) * per,
            "s": total_s(group) * per,
            "self_s": self_s(group) * per,
            "size": sum(s.size for s in group) * per if group[0].size is not None else None,
        }
        for name, group in sorted(by_name.items())
        if group
    }
    return metrics, bases, callables
