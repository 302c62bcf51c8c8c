"""Traced-run recorder.

`Recorder` wraps the public functions of every `vigt` module, in every
`vigt` module namespace that holds them (modules import each other's
functions by name, so patching only the defining module would miss those
calls). Each call becomes a span with a name, start, end and parent; a
layer's self time is its spans' durations minus the time their wrapped
children cover. Spans are kept in memory up to `SPAN_CAP` per function;
calls beyond the cap (hot leaves such as `try_project`) are only
aggregated into count, total and self time per parent. All patched names
are restored when the recorder is closed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

from vigt.triangulation import TriangulationConfig

LAYERS = (
    "geometry",
    "triangulation",
    "alignment",
    "solver",
    "inertial",
    "fusion",
    "metrics",
    "synth",
)

SPAN_CAP = 1000

_ROOT = "<root>"


def _points(args, kwargs) -> dict[str, float]:
    pts = np.shape(args[1] if len(args) > 1 else kwargs["p_cam"])
    return {"points": pts[0] if len(pts) == 2 else 1}


def _ransac(args, kwargs, result) -> dict[str, float]:
    n = len(args[0] if args else kwargs["observations"])
    config = args[3] if len(args) > 3 else kwargs.get("config", TriangulationConfig())
    counts = {
        "observations": n,
        "hypotheses": min(n * (n - 1) // 2, config.max_iters),
    }
    if result is not None:
        counts["solved_observations"] = n
        counts["inliers"] = len(result[1])
    return counts


def _solve(args, kwargs, result) -> dict[str, float]:
    problem = args[0] if args else kwargs["problem"]
    if result is None:
        return {}
    blocks = len(problem.residuals)
    return {
        "iterations": result.iterations,
        "block_iterations": blocks * result.iterations,
    }


def _marginals(args, kwargs, result) -> dict[str, float]:
    problem = args[0] if args else kwargs["problem"]
    return {
        "unknowns": sum(b.dim for b in problem.params.values() if not b.constant)
    }


# Per-function counters recorded next to the timings: name -> f(args, kwargs,
# result or None if the call raised) -> {counter: amount}.
COUNTERS: dict[str, Callable] = {
    "geometry.try_project": lambda a, k, r: _points(a, k),
    "triangulation.triangulate_ransac": _ransac,
    "alignment.joint_sparse_align": lambda a, k, r: (
        {"iterations": r.report.iterations} if r is not None else {}
    ),
    "solver.solve": _solve,
    "solver.marginal_covariances": _marginals,
    "inertial.preintegrate": lambda a, k, r: {
        "samples": len(a[0] if a else k["stream"])
    },
    "inertial.bias_correct": lambda a, k, r: (
        {"warnings": int(r[3])} if r is not None else {}
    ),
}


class _Stat:
    __slots__ = ("calls", "total", "self_time", "raised", "counters")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.raised = 0
        self.counters: dict[str, float] = {}

    def add(self, duration, self_time, raised, counters):
        self.calls += 1
        self.total += duration
        self.self_time += self_time
        self.raised += raised
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_time,
            "raised": self.raised,
            **self.counters,
        }


class Recorder:
    """Spans and per-function aggregates of one traced run."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.stats: dict[str, _Stat] = {}
        self.by_parent: dict[tuple[str, str], _Stat] = {}
        # open frames: [name, span id, child time]
        self._stack: list[list] = []
        self._next_id = 1
        self._span_counts: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every public `vigt` function in every namespace holding it."""
        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"vigt.{layer}")
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{attr}")
        for name, module in list(sys.modules.items()):
            if name != "vigt" and not name.startswith("vigt."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Recorder":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- recording --------------------------------------------------------

    def _wrap(self, fn: Callable, name: str) -> Callable:
        counter = COUNTERS.get(name)
        record = self._record
        open_frame = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = open_frame(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = time.perf_counter()
                counts = counter(args, kwargs, None) if counter else {}
                record(frame, t0, t1, True, counts)
                raise
            t1 = time.perf_counter()
            counts = counter(args, kwargs, result) if counter else {}
            record(frame, t0, t1, False, counts)
            return result

        return wrapper

    def _open(self, name: str) -> list:
        frame = [name, self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _record(self, frame, t0, t1, raised, counts) -> None:
        self._stack.pop()
        name, span_id, child = frame
        duration = t1 - t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        parent_name = parent[0] if parent else _ROOT
        self_time = duration - child
        for table, key in ((self.stats, name), (self.by_parent, (name, parent_name))):
            stat = table.get(key)
            if stat is None:
                stat = table[key] = _Stat()
            stat.add(duration, self_time, raised, counts)
        kept = self._span_counts.get(name, 0)
        if kept < SPAN_CAP:
            self._span_counts[name] = kept + 1
            self.spans.append((span_id, name, t0, t1, parent[1] if parent else 0))

    # -- queries ----------------------------------------------------------

    def stat(self, name: str) -> _Stat:
        return self.stats.get(name, _Stat())

    def under(self, name: str, parent: str) -> _Stat:
        return self.by_parent.get((name, parent), _Stat())

    def layer_self_s(self, layer: str) -> float:
        return sum(
            s.self_time for n, s in self.stats.items() if n.startswith(layer + ".")
        )

    def write(self, path: Path) -> None:
        """Write spans and aggregates as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [
                {"id": i, "name": n, "start": a, "end": b, "parent": p}
                for i, n, a, b, p in self.spans
            ],
            "functions": {n: s.as_dict() for n, s in sorted(self.stats.items())},
            "by_parent": [
                {"name": n, "parent": p, **s.as_dict()}
                for (n, p), s in sorted(self.by_parent.items())
            ],
        }
        path.write_text(json.dumps(doc))
