"""Span tracing around herzlab's public functions, installed from outside.

The library carries no instrumentation.  ``install`` replaces selected
functions with wrappers in every loaded ``herzlab`` module that binds
them (and on the ``Dilation`` class for its methods), so calls made
between library modules are seen too.  A wrapper records a span (layer,
name, start, end, parent) and bumps the layer's counters, but only while
an operation is open: set-up and checks run untraced.

Self time of a span is its duration minus the durations of its direct
children; spans nest strictly because the benchmark is single threaded.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

import numpy as np

# (module, attribute, layer, counters to bump: name -> fn(args, kwargs))
_TARGETS = [
    ("herzlab.dilation", "annulus_index_map", "dilation",
     {"dilation.index_map_calls": lambda a, k: 1}),
    ("herzlab.dilation", "Dilation.annulus_index", "dilation",
     {"dilation.points_classified":
         lambda a, k: int(np.atleast_2d(np.asarray(a[1])).shape[0])}),
    ("herzlab.dilation", "Dilation.ball_contains", "dilation",
     {"dilation.ball_tests": lambda a, k: 1,
      "dilation.ball_test_points":
         lambda a, k: int(np.atleast_2d(np.asarray(a[1])).shape[0])}),
    ("herzlab.dilation", "Dilation.rho", "dilation", {}),
    ("herzlab.dilation", "ball_diameter", "dilation", {}),
    ("herzlab.varlebesgue", "lux_core", "varlebesgue",
     {"varlebesgue.solves": lambda a, k: 1,
      "varlebesgue.cells_solved": lambda a, k: int(np.size(a[0]))}),
    ("herzlab.varlebesgue", "luxemburg_norm", "varlebesgue", {}),
    ("herzlab.varlebesgue", "modular", "varlebesgue", {}),
    ("herzlab.grandseq", "grand_seq_norm", "grandseq", {}),
    ("herzlab.grandseq", "sup_over_eps", "grandseq",
     {"grandseq.sup_calls": lambda a, k: 1}),
    ("herzlab.herz", "slice_norms", "herz",
     {"herz.slice_calls": lambda a, k: 1}),
    ("herzlab.herz", "default_krange", "herz",
     {"herz.krange_calls": lambda a, k: 1}),
    ("herzlab.herz", "herz_norm_report", "herz", {}),
    ("herzlab.herz", "grand_herz_norm", "herz", {}),
    ("herzlab.herz", "herz_morrey_norm", "herz", {}),
    ("herzlab.herz", "split_norm", "herz", {}),
    ("herzlab.herz", "block_decompose", "herz", {}),
    ("herzlab.herz", "block_reconstruct", "herz", {}),
    ("herzlab.herz", "seq_functional", "herz", {}),
    ("herzlab.herz", "sum_check", "herz", {}),
    ("herzlab.operators", "apply_operator", "operators",
     {"operators.applies": lambda a, k: 1}),
    ("herzlab.operators", "hardy_apply", "operators", {}),
    ("herzlab.operators", "truncated_riesz_apply", "operators", {}),
    ("herzlab.operators", "maximal_apply", "operators", {}),
    ("herzlab.operators", "op_ratio", "operators", {}),
    ("herzlab.operators", "fftconvolve", "conv",
     {"operators.conv_calls": lambda a, k: 1}),
    ("herzlab.grid", "load_csv", "csv_load", {}),
    ("herzlab.grid", "save_csv", "csv_save", {}),
]

# every counter, so a workload that never reaches a layer reports 0
COUNTERS = sorted({name for *_, counters in _TARGETS for name in counters}
                  | {"grandseq.eps_evals", "grandseq.eps_points"})


class Tracer:
    """In-memory span recorder; one root span ("op") per operation."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, layer, name, start, end)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.active = False

    def _open(self, layer: str, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, layer, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter()
        self._stack.pop()

    def op(self, name: str, fn, *args):
        """Run fn(*args) as one traced operation (the root span)."""
        self.active = True
        sid = self._open("op", name)
        try:
            return fn(*args)
        finally:
            self._close(sid)
            self.active = False

    def wrap(self, fn, layer: str, name: str, counters: dict):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            for key, count in counters.items():
                self.counts[key] += count(args, kwargs)
            sid = self._open(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
        return wrapper

    def count_eps(self, sup_over_eps):
        """Wrap sup_over_eps so its log_value callback is counted."""
        @functools.wraps(sup_over_eps)
        def wrapper(log_value, grid):
            def counted(log_eps):
                if self.active:
                    self.counts["grandseq.eps_evals"] += 1
                    self.counts["grandseq.eps_points"] += int(np.size(log_eps))
                return log_value(log_eps)
            return sup_over_eps(counted, grid)
        return wrapper

    # -- aggregation --

    def self_times(self, skip_root: str | None = None) -> dict:
        """Per-layer self time in seconds over all closed spans, leaving
        out the trees whose root span is named ``skip_root``."""
        child = Counter()
        root = []
        for sid, parent, _, _, start, end in self.spans:
            root.append(sid if parent < 0 else root[parent])
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for sid, _, layer, _, start, end in self.spans:
            if self.spans[root[sid]][3] != skip_root:
                out[layer] += (end - start) - child[sid]
        return dict(out)

    def merge(self, spans: list, counts: dict) -> None:
        """Append spans recorded by a child process (ids renumbered)."""
        base = len(self.spans)
        for sid, parent, layer, name, start, end in spans:
            self.spans.append([sid + base, parent + base if parent >= 0 else -1,
                               layer, name, start, end])
        self.counts.update(counts)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "layer", "name", "start", "end"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def install(tracer: Tracer):
    """Wrap every target in all loaded herzlab modules that bind it.

    Returns a function that puts the originals back."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "herzlab" or name.startswith("herzlab.")]
    undo = []
    for mod_name, attr, layer, counters in _TARGETS:
        home = sys.modules[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            original = getattr(cls, meth)
            setattr(cls, meth, tracer.wrap(original, layer, attr, counters))
            undo.append((cls, meth, original))
            continue
        original = getattr(home, attr, None)
        if original is None:
            # gone from the library (fftconvolve once scipy is dropped):
            # its counters read 0
            continue
        wrapped = tracer.wrap(original, layer, attr, counters)
        if attr == "sup_over_eps":
            wrapped = tracer.count_eps(wrapped)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)
                    undo.append((mod, name, original))

    def restore():
        for obj, name, value in reversed(undo):
            setattr(obj, name, value)
    return restore
