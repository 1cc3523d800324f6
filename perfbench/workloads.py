"""The benchmark's workloads: instances, the input files written for
them during set-up, and the fixed list of operations one pass runs.

Every operation is one in-process call of andbox.cli.main(argv), except
the two intersection-graph operations, which load the model the CLI wrote
and make one library call.  Functions are looked up through their module
at call time, so the tracer's wrappers see them.

Why each workload exists (see README.md for the full table):

- and1-search: the exponential ordering search; nearly all time is in
  the kernel, with almost no geometry or I/O.
- cand1-central: Fourier-Motzkin case splits and many four-point checks
  on orderings of at most 9 vertices; the kernel is never called.
- geometry: no search; realize, verify, convert and render models with
  100 to 700 vertices, and read and write them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

from andbox import boxes, families, fileio

import oracles

# Node budget of the seeded and1 instances.  Random interval graphs with
# n = 30 are members the search does not decide within it, so the kernel
# does the same work on them whatever the seed; a small budget keeps the
# block graphs that are decided early from moving pass_s much.
AND1_BUDGET = 20_000

GEOMETRY_SIZES = {
    "interval": 100,
    "dissection": 110,
    "block": 220,
    "rootedpath": 220,
    "cycle": 700,
}
WARMUP_SIZES = {k: 8 for k in GEOMETRY_SIZES}


@dataclass(frozen=True)
class Instance:
    name: str
    family: str
    n: int
    m: int
    seed: object  # None for deterministic instances
    expected: str  # "yes" (member) or "no"
    budget: object  # node budget, None for the CLI default


@dataclass
class Op:
    label: str
    expect: str
    check: Callable
    argv: list = None  # a CLI call ...
    call: Callable = None  # ... or a library call returning a graph
    outputs: tuple = ()  # files removed before the call
    budgeted: bool = False


@dataclass
class Plan:
    instances: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    # Run once, traced, after the timed passes of a traced run: instances
    # too slow for a pass whose work counts are recorded for the seed commit.
    reference: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# input files, written by the benchmark in the documented text formats

def _write(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_graph(path, n, edges):
    _write(path, [f"p and {n} {len(edges)}"] + [f"e {u} {v}" for u, v in sorted(edges)])


def write_ordering(path, order):
    _write(path, ["o " + " ".join(map(str, order))])


def write_interval_model(path, spans):
    _write(path, [f"i {v} {lo} {hi}" for v, (lo, hi) in sorted(spans.items())])


def write_outerplanar_model(path, outer, chords):
    _write(path, ["outer " + " ".join(map(str, outer))] + [f"chord {u} {v}" for u, v in chords])


def write_rooted_path_model(path, parent, paths):
    _write(
        path,
        [f"t {p} {c}" for c, p in sorted(parent.items())]
        + ["k " + " ".join(map(str, (v,) + tuple(paths[v]))) for v in sorted(paths)],
    )


def _edges(bundle):
    return oracles.edge_set(bundle.graph.edge_list())


def _same_graph(name, got, want):
    if got != want:
        raise RuntimeError(f"{name}: generated graph does not match its model")


# ---------------------------------------------------------------------------
# workloads

def _recognition(plan, ops, work, cmd, specs):
    """One recognize-* operation per (name, family, bundle, seed, expected,
    budget) spec, on a graph file written here, appended to ops."""
    needle = {"recognize-and1": "exhaustive nodes", "recognize-cand1": "exhaustive orderings"}[cmd]
    for name, family, bundle, seed, expected, budget in specs:
        edges = _edges(bundle)
        n = bundle.graph.n
        graph = os.path.join(work, f"{name}.and")
        write_graph(graph, n, edges)
        plan.instances.append(Instance(name, family, n, len(edges), seed, expected, budget))
        stem = os.path.join(work, name)
        if cmd == "recognize-and1":
            out = stem + ".order"
            found = (lambda o=out, n=n, e=edges: oracles.check_ordering(o, n, e))
        else:
            out = stem + ".real"
            found = (lambda o=out, n=n, e=edges: oracles.check_realization(o, n, e, central=True))
        wit = stem + ".witness"
        missing = (lambda w=wit: oracles.check_witness(w, needle))
        argv = [cmd, graph, "-o", out, "--witness-out", wit]
        if budget is not None:
            argv += ["--node-budget", str(budget)]
        ops.append(
            Op(
                f"{cmd} {name}",
                expected,
                found if expected == "yes" else missing,
                argv=argv,
                outputs=(out, wit),
                budgeted=True,
            )
        )


def and1_search(seed, work, warmup=False) -> Plan:
    plan = Plan()
    if warmup:
        specs, reference = [("warm-c6", "cycle", families.cycle(6), None, "yes", None)], []
    else:
        b = AND1_BUDGET
        specs = [
            ("h344", "h(3,4,4)", families.h_graph(3, 4, 4), None, "yes", None),
            ("K22222", "complete-multipartite", families.complete_multipartite([2] * 5), None, "no", None),
            ("block20", "random-block", families.random_block_graph(20, seed), seed, "yes", b),
            ("interval30", "random-interval", families.random_interval(30, seed), seed, "yes", b),
            ("rootedpath30", "random-rooted-path", families.random_rooted_path(30, seed), seed, "yes", b),
        ]
        reference = [
            ("h444", "h(4,4,4)", families.h_graph(4, 4, 4), None, "no", None),
            ("block16-s5", "random-block", families.random_block_graph(16, 5), 5, "yes", None),
        ]
    _recognition(plan, plan.ops, work, "recognize-and1", specs)
    _recognition(plan, plan.reference, work, "recognize-and1", reference)
    return plan


def cand1_central(seed, work, warmup=False) -> Plan:
    plan = Plan()
    if warmup:
        specs, reference = [("warm-p4", "path", families.path(4), None, "yes", None)], []
    else:
        specs = [
            ("K23", "complete-multipartite", families.complete_multipartite([2, 3]), None, "no", None),
            ("K222", "complete-multipartite", families.complete_multipartite([2, 2, 2]), None, "no", None),
            ("C8", "cycle", families.cycle(8), None, "yes", None),
            ("P7", "path", families.path(7), None, "yes", None),
            # A fixed seed: on about one seed in ten a single elimination
            # for a random interval graph with n = 9 runs for minutes.
            ("interval9-s0", "random-interval", families.random_interval(9, 0), 0, "yes", None),
            ("block7", "random-block", families.random_block_graph(7, seed), seed, "yes", None),
        ]
        reference = [
            ("K33", "complete-multipartite", families.complete_multipartite([3, 3]), None, "no", None),
            ("h233", "h(2,3,3)", families.h_graph(2, 3, 3), None, "no", None),
            ("C10", "cycle", families.cycle(10), None, "yes", None),
            ("P10", "path", families.path(10), None, "yes", None),
        ]
    _recognition(plan, plan.ops, work, "recognize-cand1", specs)
    _recognition(plan, plan.reference, work, "recognize-cand1", reference)
    return plan


def _geometry_chain(plan, work, name, n, edges, realize_argv, central,
                    corner_graph=True, triangles=False):
    """realize, verify, to-boxes, the corner-box graph, to-triangles and
    the semi-square graph (when asked for), and render, for one member."""
    stem = os.path.join(work, name)
    graph, real = stem + ".and", stem + ".real"
    write_graph(graph, n, edges)

    def real_ok():
        oracles.check_realization(real, n, edges, central)

    def graph_ok(g):
        oracles.check_graph(oracles.edge_set(g.edge_list()), edges, name)

    plan.ops.append(Op(f"realize {name}", "yes", real_ok, argv=realize_argv + ["-o", real], outputs=(real,)))
    plan.ops.append(
        Op(f"verify {name}", "yes", real_ok,
           argv=["verify", real, graph, "--witness-out", stem + ".vwit"], outputs=(stem + ".vwit",))
    )
    box = stem + ".boxes"
    plan.ops.append(
        Op(f"to-boxes {name}", "yes", lambda: oracles.check_corner_boxes(box, n, edges),
           argv=["to-boxes", real, "-o", box], outputs=(box,))
    )
    if corner_graph:
        plan.ops.append(
            Op(f"corner-box graph {name}", "yes", graph_ok,
               call=lambda: boxes.corner_box_intersection_graph(fileio.load_corner_boxes(box)))
        )
    if triangles:
        tri = stem + ".tri"
        plan.ops.append(
            Op(f"to-triangles {name}", "yes", lambda: oracles.check_semisquares(tri, n, edges),
               argv=["to-triangles", real, "-o", tri], outputs=(tri,))
        )
        plan.ops.append(
            Op(f"semi-square graph {name}", "yes", graph_ok,
               call=lambda: boxes.semisquare_intersection_graph(fileio.load_semisquares(tri)))
        )
    svg = stem + ".svg"
    plan.ops.append(
        Op(f"render {name}", "yes", lambda: oracles.check_svg(svg, n),
           argv=["render", real, "-o", svg], outputs=(svg,))
    )


def _check_order(plan, work, n, edges, spans):
    """check-order on an interval graph, writing its realization and codes.

    Left endpoints in ascending order pass the four-point condition on
    any interval graph: for ranks i < j < k < l, j ~ l puts R_j past L_k.
    """
    order = sorted(spans, key=lambda v: (spans[v][0], v))
    ordering = os.path.join(work, "interval.ord")
    write_ordering(ordering, order)
    oreal, codes = os.path.join(work, "interval.oreal"), os.path.join(work, "interval.codes")

    def order_ok():
        oracles.check_realization(oreal, n, edges, central=False)
        oracles.check_codes(codes, n, edges)

    plan.ops.append(
        Op("check-order interval", "yes", order_ok,
           argv=["check-order", os.path.join(work, "interval.and"), ordering,
                 "--realize-out", oreal, "--codes-out", codes,
                 "--witness-out", os.path.join(work, "interval.owit")],
           outputs=(oreal, codes))
    )


def geometry(seed, work, warmup=False) -> Plan:
    plan = Plan()
    size = WARMUP_SIZES if warmup else GEOMETRY_SIZES

    iv = families.random_interval(size["interval"], seed)
    spans = {v: iv.aux.span(v) for v in iv.graph.vertices()}
    edges = _edges(iv)
    _same_graph("interval", oracles.interval_edges(spans), edges)
    model = os.path.join(work, "interval.iv")
    write_interval_model(model, spans)
    plan.instances.append(Instance("interval", "random-interval", iv.graph.n, len(edges), seed, "yes", None))
    _geometry_chain(plan, work, "interval", iv.graph.n, edges, ["realize", model], True)
    _check_order(plan, work, iv.graph.n, edges, spans)

    ds = families.random_dissection(size["dissection"], seed)
    outer, chords = ds.aux.outer, ds.aux.chords
    edges = _edges(ds)
    k = len(outer)
    _same_graph(
        "dissection",
        oracles.edge_set([(outer[i], outer[(i + 1) % k]) for i in range(k)] + list(chords)),
        edges,
    )
    model = os.path.join(work, "dissection.op")
    write_outerplanar_model(model, outer, chords)
    plan.instances.append(Instance("dissection", "random-dissection", ds.graph.n, len(edges), seed, "yes", None))
    _geometry_chain(plan, work, "dissection", ds.graph.n, edges, ["realize", model], True,
                    triangles=True)

    bl = families.random_block_graph(size["block"], seed)
    edges = _edges(bl)
    plan.instances.append(Instance("block", "random-block", bl.graph.n, len(edges), seed, "yes", None))
    _geometry_chain(plan, work, "block", bl.graph.n, edges,
                    ["realize", os.path.join(work, "block.and")], True)

    rp = families.random_rooted_path(size["rootedpath"], seed)
    edges = _edges(rp)
    _same_graph("rootedpath", oracles.rooted_path_edges(rp.aux.paths), edges)
    model = os.path.join(work, "rootedpath.rp")
    write_rooted_path_model(model, rp.aux.parent, rp.aux.paths)
    plan.instances.append(Instance("rootedpath", "random-rooted-path", rp.graph.n, len(edges), seed, "yes", None))
    _geometry_chain(plan, work, "rootedpath", rp.graph.n, edges, ["realize", model], False)

    n = size["cycle"]
    edges = oracles.edge_set([(v, v % n + 1) for v in range(1, n + 1)])
    plan.instances.append(Instance("cycle", "cycle", n, n, None, "yes", None))
    _geometry_chain(plan, work, "cycle", n, edges, ["realize", "--cycle", str(n)], True,
                    corner_graph=False)
    return plan


WORKLOADS = {
    "and1-search": and1_search,
    "cand1-central": cand1_central,
    "geometry": geometry,
}
