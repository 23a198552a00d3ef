"""Span recorder for the traced benchmark run.

The recorder times the public functions of each planar_holant layer from
outside.  A function is usually bound under several names (cli imports
find_p3em, eval_grid, dispatch_solve and count_pm by name, p3em_cases
imports verify, interpolate_recover takes eval_grid as a default
argument), so install() replaces every binding of each timed function
object, found by identity, in every loaded planar_holant module: module
attributes and default arguments of module-level functions.  Methods are
wrapped on their class.  uninstall() restores every binding.

Spans are kept in memory as [name, start, end, parent, info] lists;
parent is the index of the enclosing span or -1.  Self time is a span's
duration minus the durations of its direct children.

Two wrappers do more than time a call:

* PlaneGraph.faces caches its face list, and face_of calls it on every
  lookup, so only calls that compute the faces open a span; a cached call
  costs its caller a dictionary lookup and is not recorded.
* step_reduce records the reduction label and wraps the returned step's
  lift closure, so lifts get spans of their own.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
import types
from typing import Dict, List

# (module, attribute, span name); several functions may share a name
TIMED = (
    ("planar_holant.plane_graph", "PlaneGraph.__init__", "plane_graph.construct"),
    ("planar_holant.plane_graph", "PlaneGraph.faces", "plane_graph.faces"),
    ("planar_holant.plane_graph", "PlaneGraph.connected_components",
     "plane_graph.components"),
    ("planar_holant.plane_graph", "PlaneGraph.bridges", "plane_graph.bridges"),
    ("planar_holant.plane_graph", "PlaneGraph.canonical_form",
     "plane_graph.canonical"),
    ("planar_holant.plane_graph", "GraphBuilder.freeze", "plane_graph.freeze"),
    ("planar_holant.generators", "generate_cubic_plane", "generators.generate"),
    ("planar_holant.generators", "generate_cubic_bipartite_plane",
     "generators.generate"),
    ("planar_holant.p3em", "find_p3em", "p3em.find"),
    ("planar_holant.p3em", "verify", "p3em.verify"),
    ("planar_holant.p3em", "base_case", "p3em.base_case"),
    ("planar_holant.p3em_cases", "solve_component", "p3em_cases.solve_component"),
    ("planar_holant.p3em_cases", "step_reduce", "p3em_cases.step_reduce"),
    ("planar_holant.solvers", "count_pm", "solvers.count_pm"),
    ("planar_holant.solvers", "kasteleyn_orient", "solvers.kasteleyn"),
    ("planar_holant.solvers", "solve_matchgate", "solvers.decorate"),
    ("planar_holant.solvers", "solve_case5", "solvers.decorate"),
    ("planar_holant.classifier", "classify", "classifier.classify"),
    ("planar_holant.classifier", "dispatch_solve", "classifier.dispatch"),
    ("planar_holant.holant_core", "eval_grid", "holant_core.eval"),
    ("planar_holant.holant_core", "eval_collapsed", "holant_core.eval"),
    ("planar_holant.holant_core", "eval_gadget", "holant_core.eval"),
    ("planar_holant.reductions", "interpolate_recover", "reductions.interpolate"),
    ("planar_holant.reductions", "planarize", "reductions.planarize"),
    ("planar_holant.cli", "main", "cli.main"),
)

STEP_LABELS = ("self_loop", "double_edge", "triangle", "triangle_shared",
               "bridge", "square", "chord", "pentagon", "pentagon_coincident")


class Recorder:
    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str, info=None) -> list:
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, info]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def take(self) -> List[list]:
        """Hand over the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = rec.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(span)
            if name == "p3em_cases.step_reduce":
                span[4] = out.label
                out.lift = rec.wrap("p3em_cases.lift", out.lift)
            elif name == "solvers.kasteleyn":
                span[4] = len(args[0].rotation)
            return out

        if name != "plane_graph.faces":
            return timed

        @functools.wraps(fn)
        def faces(self_graph):
            if self_graph._faces is not None:
                return self_graph._faces
            return timed(self_graph)

        return faces

    # -- installing the wrappers -------------------------------------------

    def install(self) -> None:
        wrappers: Dict[int, tuple] = {}   # id(function) -> (function, wrapper)
        for modname, attr, name in TIMED:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self.wrap(name, getattr(cls, meth)))
            else:
                fn = getattr(mod, attr)
                wrappers[id(fn)] = (fn, self.wrap(name, fn))

        def wrapper_of(val):
            hit = wrappers.get(id(val))
            return hit[1] if hit is not None and hit[0] is val else None

        for mname, mod in list(sys.modules.items()):
            if mname != "planar_holant" and not mname.startswith("planar_holant."):
                continue
            for key, val in list(vars(mod).items()):
                if wrapper_of(val) is not None:
                    self._patch(mod, key, wrapper_of(val))
                if isinstance(val, types.FunctionType) and val.__defaults__:
                    new = tuple(wrapper_of(d) or d for d in val.__defaults__)
                    if any(a is not b for a, b in zip(new, val.__defaults__)):
                        self._patch(val, "__defaults__", new)

    def uninstall(self) -> None:
        while self._patches:
            obj, key, old = self._patches.pop()
            setattr(obj, key, old)
        self._stack.clear()

    def _patch(self, obj, key, new) -> None:
        self._patches.append((obj, key, getattr(obj, key)))
        setattr(obj, key, new)


# -- aggregation ------------------------------------------------------------

def self_times(spans: List[list]) -> List[float]:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - child[i] for i, s in enumerate(spans)]


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Per-layer counts and self times of one traced pass."""
    own = self_times(spans)
    calls: Dict[str, int] = {}
    secs: Dict[str, float] = {}
    labels = dict.fromkeys(STEP_LABELS, 0)
    depth = [0] * len(spans)
    max_depth = order_max = 0
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + own[i]
        up = depth[s[3]] if s[3] >= 0 else 0
        depth[i] = up + (name == "p3em_cases.solve_component")
        max_depth = max(max_depth, depth[i])
        if name == "p3em_cases.step_reduce":
            labels[s[4]] = labels.get(s[4], 0) + 1
        elif name == "solvers.kasteleyn":
            order_max = max(order_max, s[4])
    count_pm_s = sum(s[2] - s[1] for s in spans if s[0] == "solvers.count_pm")
    n = calls.get
    t = secs.get
    out = {
        "plane_graph.construct_calls": n("plane_graph.construct", 0),
        "plane_graph.construct_s": t("plane_graph.construct", 0.0),
        "plane_graph.faces_calls": n("plane_graph.faces", 0),
        "plane_graph.faces_s": t("plane_graph.faces", 0.0),
        "plane_graph.components_s": t("plane_graph.components", 0.0),
        "plane_graph.bridges_s": t("plane_graph.bridges", 0.0),
        "plane_graph.canonical_s": t("plane_graph.canonical", 0.0),
        "plane_graph.freeze_calls": n("plane_graph.freeze", 0),
        "p3em_cases.steps": n("p3em_cases.step_reduce", 0),
        "p3em_cases.step_reduce_s": t("p3em_cases.step_reduce", 0.0),
        "p3em_cases.lift_s": t("p3em_cases.lift", 0.0),
        "p3em_cases.max_depth": max_depth,
        "p3em.verify_calls": n("p3em.verify", 0),
        "p3em.verify_s": t("p3em.verify", 0.0),
        "p3em.base_case_s": t("p3em.base_case", 0.0),
        "solvers.count_pm_calls": n("solvers.count_pm", 0),
        "solvers.count_pm_s": count_pm_s,
        "solvers.kasteleyn_s": t("solvers.kasteleyn", 0.0),
        "solvers.pfaffian_s": t("solvers.count_pm", 0.0),
        "solvers.kasteleyn_order_max": order_max,
        "solvers.decorate_s": t("solvers.decorate", 0.0),
        "classifier.classify_s": t("classifier.classify", 0.0),
        "classifier.dispatch_calls": n("classifier.dispatch", 0),
        "holant_core.eval_calls": n("holant_core.eval", 0),
        "holant_core.eval_s": t("holant_core.eval", 0.0),
        "reductions.interpolate_s": t("reductions.interpolate", 0.0),
        "reductions.planarize_s": t("reductions.planarize", 0.0),
        "cli.io_s": t("cli.main", 0.0),
        "generators.generate_s": t("generators.generate", 0.0),
    }
    for label, k in labels.items():
        out[f"p3em_cases.steps.{label}"] = k
    return out


def median_metrics(per_pass: List[Dict[str, float]]) -> Dict[str, float]:
    """Median of every metric over several traced passes."""
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
