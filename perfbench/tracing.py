"""Spans around the public functions of each andbox module.

The tracer lives in the benchmark: it replaces module attributes with
timing wrappers and puts the originals back afterwards, so src/ is never
edited.  A wrapper is installed under every module name through which a
caller looks the function up (cli.verify as well as realization.verify;
kernels.search_order, which orders reads as a module attribute).  Spans
stay in memory; metrics are computed from them after each traced pass.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

LAYERS = (
    "cli",
    "fileio",
    "graphs",
    "kernels",
    "orders",
    "feasibility",
    "realization",
    "constructors",
    "boxes",
    "svg",
)

# Called once per number, box, pair or constraint: wrapping them would
# time the tracer, not the layer.
PER_ELEMENT = {
    "fileio": {"parse_rational", "format_rational"},
    "boxes": {"check_corner_box"},
    "orders": {"implicit_adjacent"},
    "feasibility": {"constraint"},
}

# Static methods that are layer boundaries: (module, class, method).
METHODS = (("graphs", "Graph", "from_edges"),)


def _size(path):
    return os.path.getsize(path)


def _utf8(text):
    return len(text.encode("utf-8"))


def _observer(layer, fn):
    """Counts a wrapped call contributes, from its arguments and result."""
    name = f"{layer}.{fn}"
    if name == "kernels.search_order":
        return lambda a, r: {"nodes": r[2]}
    if name == "orders.four_point_check":
        return lambda a, r: {"passed": int(r is None)}
    if name == "feasibility.eliminate_feasible":
        return lambda a, r: {"feasible": int(r.feasible)}
    if name == "feasibility.cand1_recognize":
        return lambda a, r: {
            "orderings_tried": r.orderings_tried,
            "cases_solved": r.cases_solved,
        }
    if name == "realization.verify":
        return lambda a, r: {"pairs": a[0].n * (a[0].n - 1) // 2}
    if name == "svg.render_realization_svg":
        return lambda a, r: {"bytes": _utf8(r)}
    if layer == "fileio":
        if fn.startswith(("load_", "save_")):
            return lambda a, r: {"bytes": _size(a[0])}
        if fn.startswith("loads_"):
            return lambda a, r: {"bytes": _utf8(a[0])}
        if fn == "atomic_write_text":
            return lambda a, r: {"bytes": _utf8(a[1])}
    return None


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "counts")

    def __init__(self, name, layer, start, parent, op):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.counts = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records one span per call of a wrapped function.

    Spans of one benchmark operation share `op`; `parent` is the index of
    the innermost open span when the call began (-1 at top level).
    """

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def wrap(self, name, layer, fn, observe=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, clock(), stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                span.counts = observe(args, result)
            return result

        return traced

    def install(self, package="andbox"):
        """Wrap every public function of each layer module and rebind the
        wrapper wherever a loaded andbox module holds the original."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for fn, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not fn.startswith("_")
                    and fn not in PER_ELEMENT.get(layer, ())
                ):
                    wrappers[obj] = self.wrap(
                        f"{layer}.{fn}", layer, obj, _observer(layer, fn)
                    )
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == package or mod_name.startswith(package + ".")
            ):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, obj, wrappers[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{package}.{layer}"], cls_name)
            original = cls.__dict__[meth]
            wrapped = self.wrap(
                f"{layer}.{cls_name}.{meth}", layer, original.__func__
            )
            self._patch(cls, meth, original, staticmethod(wrapped))

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self):
        self.spans.clear()
        self._stack.clear()
        self.op = -1


def _nearest(spans, i, same):
    """Index of the nearest ancestor of span i for which same() holds."""
    p = spans[i].parent
    while p >= 0:
        if same(spans[p]):
            return p
        p = spans[p].parent
    return -1


def summarize(spans) -> dict:
    """Per function and per layer: calls, busy_s, self_s and counts.

    busy_s sums the spans not nested in a span of the same function (or
    layer), so recursion and nested calls are not counted twice.  self_s
    is a span's duration minus the durations of its direct children;
    children of one span never overlap, because a run is one thread.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    fns = {}
    layers = {layer: {"busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    for i, s in enumerate(spans):
        f = fns.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        f["calls"] += 1
        f["self_s"] += s.duration - child[i]
        if _nearest(spans, i, lambda a, n=s.name: a.name == n) < 0:
            f["busy_s"] += s.duration
        for key, value in (s.counts or {}).items():
            f[key] = f.get(key, 0) + value
        lay = layers[s.layer]
        lay["self_s"] += s.duration - child[i]
        if _nearest(spans, i, lambda a, l=s.layer: a.layer == l) < 0:
            lay["busy_s"] += s.duration
    return {"functions": fns, "layers": layers}


def fileio_io(spans, kind) -> dict:
    """Outermost fileio spans that read ("load") or write ("save") a file
    or its text; nested ones (save_graph -> atomic_write_text) count once."""
    def is_kind(s):
        fn = s.name.split(".", 1)[1]
        if kind == "load":
            return fn.startswith("load")
        return fn.startswith("save_") or fn == "atomic_write_text"

    out = {"calls": 0, "busy_s": 0.0, "bytes": 0}
    for i, s in enumerate(spans):
        if s.layer != "fileio" or not is_kind(s):
            continue
        if _nearest(spans, i, lambda a: a.layer == "fileio") >= 0:
            continue
        out["calls"] += 1
        out["busy_s"] += s.duration
        out["bytes"] += (s.counts or {}).get("bytes", 0)
    return out


FUNCTION_BUSY = (
    "orders.four_point_check",
    "orders.realization_from_ordering",
    "orders.implicit_encode",
    "feasibility.eliminate_feasible",
    "realization.verify",
    "realization.is_central",
    "constructors.interval_to_cand1",
    "constructors.outerplanar_cand1",
    "constructors.block_graph_cand1",
    "constructors.cycle_cand1",
    "constructors.rdp_ordering",
    "boxes.corner_box_intersection_graph",
    "boxes.semisquare_intersection_graph",
    "boxes.to_corner_boxes",
    "boxes.to_semisquares",
    "svg.render_realization_svg",
    "graphs.Graph.from_edges",
)
FUNCTION_CALLS = (
    "kernels.search_order",
    "orders.four_point_check",
    "feasibility.eliminate_feasible",
    "realization.verify",
    "graphs.Graph.from_edges",
)
FUNCTION_SELF = (
    "orders.and1_recognize",
    "feasibility.cand1_for_ordering",
    "feasibility.cand1_recognize",
    "cli.main",
)


def layer_metrics(spans) -> dict:
    """Flat {metric: value} for one traced pass; see PER_LAYER_UNITS."""
    summary = summarize(spans)
    fns, layers = summary["functions"], summary["layers"]

    def f(name, key):
        return fns.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in FUNCTION_CALLS:
        out[f"{name}.calls"] = f(name, "calls")
    for name in FUNCTION_BUSY:
        out[f"{name}.busy_s"] = f(name, "busy_s")
    for name in FUNCTION_SELF:
        out[f"{name}.self_s"] = f(name, "self_s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layers[layer]["self_s"]
    nodes = f("kernels.search_order", "nodes")
    out["kernels.nodes"] = nodes
    out["kernels.busy_s"] = layers["kernels"]["busy_s"]
    out["kernels.nodes_per_s"] = ratio(nodes, layers["kernels"]["busy_s"])
    out["orders.four_point_check.pass_ratio"] = ratio(
        f("orders.four_point_check", "passed"), f("orders.four_point_check", "calls")
    )
    out["feasibility.orderings_tried"] = f("feasibility.cand1_recognize", "orderings_tried")
    out["feasibility.cases_solved"] = f("feasibility.cand1_recognize", "cases_solved")
    out["feasibility.eliminate_feasible.feasible_ratio"] = ratio(
        f("feasibility.eliminate_feasible", "feasible"),
        f("feasibility.eliminate_feasible", "calls"),
    )
    out["realization.verify.pairs"] = f("realization.verify", "pairs")
    out["svg.render_realization_svg.bytes"] = f("svg.render_realization_svg", "bytes")
    for kind in ("load", "save"):
        for key, value in fileio_io(spans, kind).items():
            out[f"fileio.{kind}.{key}"] = value
    return out


def unit_of(metric: str) -> str:
    if metric.endswith("nodes_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("ratio"):
        return "1"
    if metric.endswith("bytes"):
        return "B"
    if metric.endswith(".pairs"):
        return "pairs_computed"
    return "count"
