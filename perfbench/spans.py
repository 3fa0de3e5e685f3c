"""Per-layer spans, installed from the benchmark's own files.

:class:`Tracer` wraps every public function of the ``rigidori`` layer
modules by rebinding each ``rigidori.*`` module attribute that refers to
it, so calls between modules and within a module both pass through the
wrapper.  ``numpy.linalg.svd`` and ``numpy.linalg.lstsq`` are wrapped as
``analysis.svd`` and ``tracking.lstsq``.  A span records its name, start,
end, parent span and request id; spans stay in memory until :meth:`dump`.
Counts that a function's result reveals (accepted samples, pairs flagged,
multigraph edges) are added when the wrapped call returns.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("model", "constraints", "analysis", "kinematics", "tracking",
          "collision", "genericity", "singlevertex", "cli")
NUMPY_SPANS = {"svd": "analysis.svd", "lstsq": "tracking.lstsq"}
TRACK = "tracking.track_flex"


def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _count_track(tr, fn, args, kwargs, path):
    step = _arg(fn, args, kwargs, "step_size")
    tr.counts["tracking.samples"] += len(path.samples) - 1
    tr.counts["tracking.corrector_iters"] += sum(path.corrector_iterations)
    tr.counts["tracking.step_halvings"] += sum(round(math.log2(step / h))
                                               for h in path.predictor_lengths)


def _count_contact(tr, fn, args, kwargs, report):
    pattern = _arg(fn, args, kwargs, "pattern")
    n = len(pattern.panels)
    adjacent = sum(len(a) for a in pattern.panel_adjacency) // 2
    tr.counts["collision.pairs_considered"] += n * (n - 1) // 2 - adjacent
    tr.counts["collision.pairs_flagged"] += (len(report.crossing_pairs)
                                             + len(report.overlap_pairs))


def _count_multigraph(tr, fn, args, kwargs, edges):
    tr.counts["genericity.multigraph.edges"] += len(edges)


COUNTERS = {TRACK: _count_track,
            "collision.check_state": _count_contact,
            "genericity.multigraph": _count_multigraph}


class Tracer:
    """Span recorder; wrappers pass straight through while inactive."""

    def __init__(self):
        self.names: list[str] = []
        self._slot: dict[str, int] = {}
        self.rows: list = []            # (name slot, start, end, parent row, request)
        self.stack: list[int] = []
        self.request = None
        self.active = False
        self.counts: dict[str, float] = defaultdict(float)
        self.wrapped: list[str] = []
        self._bindings: list = []     # (module, attribute, function, wrapper)

    def slot(self, name: str) -> int:
        if name not in self._slot:
            self._slot[name] = len(self.names)
            self.names.append(name)
        return self._slot[name]

    def _wrap(self, name, fn):
        slot = self.slot(name)
        count = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rows, stack = tracer.rows, tracer.stack
            row = len(rows)
            rows.append(None)
            parent = stack[-1] if stack else -1
            stack.append(row)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rows[row] = (slot, start, end, parent, tracer.request)
            if count is not None:
                count(tracer, fn, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every public layer function; layers that fail to import are skipped."""
        targets = {}
        for layer in LAYERS:
            modname = f"rigidori.{layer}"
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                continue
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == modname):
                    targets[id(fn)] = (fn, f"{layer}.{attr}")
        wrappers = {key: self._wrap(name, fn) for key, (fn, name) in targets.items()}
        self.wrapped = sorted(name for _, name in targets.values())
        for modname, mod in list(sys.modules.items()):
            if modname != "rigidori" and not modname.startswith("rigidori."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in targets and val is targets[id(val)][0]:
                    self._bindings.append((mod, attr, val, wrappers[id(val)]))
        for attr, name in NUMPY_SPANS.items():
            fn = getattr(np.linalg, attr)
            self._bindings.append((np.linalg, attr, fn, self._wrap(name, fn)))
            self.wrapped.append(name)
        self.attach()

    def attach(self) -> None:
        """Bind the wrappers in place of the functions."""
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def detach(self) -> None:
        """Bind the original functions again."""
        for mod, attr, fn, _ in self._bindings:
            setattr(mod, attr, fn)

    # -- requests ------------------------------------------------------------

    def begin(self, request, name: str) -> int:
        """Open the root span of one request."""
        self.request = request
        row = len(self.rows)
        self.rows.append((self.slot(name), perf_counter(), None, -1, request))
        self.stack.append(row)
        return row

    def end(self, row: int) -> None:
        slot, start, _, parent, request = self.rows[row]
        self.rows[row] = (slot, start, perf_counter(), parent, request)
        self.stack.pop()
        self.request = None

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-name calls, total and self milliseconds, and calls under ``track_flex``."""
        rows = self.rows
        child = [0.0] * len(rows)
        under_track = [False] * len(rows)
        track = self._slot.get(TRACK)
        for i, (slot, start, end, parent, _) in enumerate(rows):
            if parent >= 0:
                child[parent] += end - start
                under_track[i] = under_track[parent] or rows[parent][0] == track
        out = {name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "in_track": 0}
               for name in self.names}
        for i, (slot, start, end, _, _) in enumerate(rows):
            agg = out[self.names[slot]]
            agg["calls"] += 1
            agg["total_ms"] += (end - start) * 1e3
            agg["self_ms"] += (end - start - child[i]) * 1e3
            agg["in_track"] += under_track[i]
        return out

    def dump(self, path) -> None:
        """Write every span, columnar, as gzipped JSON."""
        data = {"names": self.names,
                "columns": ["name", "start_s", "end_s", "parent", "request"],
                "rows": self.rows}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(data, fh)
