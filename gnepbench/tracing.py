"""Per-layer spans, recorded by wrapping gnepkit's layer functions from outside.

Each wrapped call records one span: name, start, end, parent span and the
benchmark's operation id.  Spans live in flat arrays while the run goes and
are written out once at the end.  A function imported by name into another
module (``solvers`` imports ``evaluate_T`` and ``select``; ``cli`` imports
``load_instance`` and ``canonical_dumps``) is replaced at every module binding
that holds it, so no call goes around its wrapper.  Methods of the convex
bodies are wrapped on every class of ``convexsets`` that defines them.

Self time is a span's duration minus the durations of its direct children.
The program is single-threaded and has no queues, so no layer has a wait time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from array import array

import numpy as np

# (metric prefix, module, attribute); "lp" is gnepkit._lp (a name may not start with "_")
FUNCTIONS = (
    ("operators.evaluate_T", "gnepkit.operators", "evaluate_T"),
    ("operators.select", "gnepkit.operators", "select"),
    ("preferences.max_improvement", "gnepkit.preferences", "max_improvement"),
    ("lp.solve_lp", "gnepkit._lp", "solve_lp"),
    ("lp.project_polyhedron", "gnepkit._lp", "project_polyhedron"),
    ("lp.max_concave_quad", "gnepkit._lp", "max_concave_quad"),
    ("solvers.hull_residual", "gnepkit.solvers", "hull_residual"),
    ("solvers.grid_oracle", "gnepkit.solvers", "grid_oracle"),
    ("game.verify_equilibrium", "gnepkit.game", "verify_equilibrium"),
    ("game.constraint_body", "gnepkit.game", "constraint_body"),
    ("economy.outcome_from_point", "gnepkit.economy", "outcome_from_point"),
    ("jsonio.load_instance", "gnepkit.jsonio", "load_instance"),
    ("jsonio.canonical_dumps", "gnepkit.jsonio", "canonical_dumps"),
    ("cli.main", "gnepkit.cli", "main"),
)
METHODS = ("vertices", "bounding_box", "project", "min_norm_point")

class Tracer:
    def __init__(self):
        self.labels = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = []
        self.op_id = -1
        self.filter_calls = 0
        self.filter_hits = 0
        self._undo = []

    def _wrap(self, label, fn):
        if label not in self.labels:
            self.labels.append(label)
        idx = self.labels.index(label)
        name, start, end, parent, op, stack = (
            self.name, self.start, self.end, self.parent, self.op, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name.append(idx)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def _rebind(self, orig, wrapper):
        for mname, mod in list(sys.modules.items()):
            if mname != "gnepkit" and not mname.startswith("gnepkit."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def install(self):
        for label, modname, attr in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            self._rebind(orig, self._wrap(label, orig))
        convexsets = sys.modules["gnepkit.convexsets"]
        for _, cls in inspect.getmembers(convexsets, inspect.isclass):
            if cls.__module__ != convexsets.__name__:
                continue
            for meth in METHODS:
                orig = cls.__dict__.get(meth)
                if isinstance(orig, types.FunctionType):
                    self._undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(f"convexsets.{meth}", orig))
        solvers = sys.modules["gnepkit.solvers"]
        orig = solvers.residual_with_filter

        def counted(*args, **kwargs):
            r, t = orig(*args, **kwargs)
            self.filter_calls += 1
            self.filter_hits += t is None  # settled by the lower bound alone
            return r, t

        self._rebind(orig, counted)
        return self

    def uninstall(self):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def self_times(self):
        """(name index, self seconds) arrays over all spans."""
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return np.frombuffer(self.name, dtype=np.int32), dur - child

    def metrics(self, per_layer, attempted, iterations, restarts):
        """Values per attempted operation for each (name, unit) in per_layer.

        Names are "<label>.calls" or "<label>.self_s" for a traced label, or
        one of the solver totals and the prefilter ratio computed here.
        """
        names, own = self.self_times()
        calls = dict(zip(self.labels, np.bincount(names, minlength=len(self.labels))))
        self_s = dict(zip(self.labels, np.bincount(names, own, minlength=len(self.labels))))
        values = {
            "solvers.iterations": iterations / attempted,
            "solvers.restarts": restarts / attempted,
            "solvers.prefilter_hit_ratio":
                self.filter_hits / self.filter_calls if self.filter_calls else 0.0,
        }
        out = {}
        for metric, unit in per_layer:
            if metric in values:
                v = values[metric]
            else:
                label, kind = metric.rsplit(".", 1)
                v = (calls if kind == "calls" else self_s)[label] / attempted
            out[metric] = {"value": v, "unit": unit}
        return out

    def save(self, path):
        np.savez_compressed(
            path,
            labels=np.array(self.labels),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )
