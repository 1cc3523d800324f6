"""Graph families and their auxiliary models.

Every generator returns a GraphBundle: the graph plus, when one exists,
the auxiliary model that later constructions consume (interval spans,
outer cyclic order with chords, rooted-tree paths, or the three-path
layout).  Randomized generators are deterministic for a fixed seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .graphs import (
    Graph,
    GraphError,
    complete_multipartite_graph,
    cycle_graph,
    path_graph,
)
from .realization import line_pairs


@dataclass(frozen=True)
class IntervalModel:
    """Closed rational interval per vertex 1..n; spans[i] covers i+1."""

    spans: tuple  # ((lo, hi), ...) as Fractions

    @property
    def n(self) -> int:
        return len(self.spans)

    def span(self, v: int):
        return self.spans[v - 1]

    def intersection_graph(self) -> Graph:
        """Intervals meet iff the later-starting one starts by the other's
        right end; an empty span (lo > hi) meets none and stays out."""
        kept = [(v, lo, hi) for v, (lo, hi) in enumerate(self.spans, 1) if lo <= hi]
        # the sweep compares the ends as ints over their least common denominator
        den = lcm(*(x.denominator for _, lo, hi in kept for x in (lo, hi)))
        pairs = line_pairs(
            [lo.numerator * (den // lo.denominator) for _, lo, _ in kept],
            [hi.numerator * (den // hi.denominator) for _, _, hi in kept],
        )
        return Graph.from_edges(self.n, [(kept[i][0], kept[j][0]) for i, j in pairs])


@dataclass(frozen=True)
class OuterplanarModel:
    """Closed outer walk (wrap from last back to first is implied) plus
    chord edges.  A cut vertex appears once per block it joins, so the
    walk may repeat vertices; a polygon dissection uses a simple cycle."""

    outer: tuple
    chords: tuple  # ((u, v), ...) with u < v

    @property
    def n(self) -> int:
        return max(self.outer)

    def graph(self) -> Graph:
        edges = set()
        k = len(self.outer)
        for i in range(k):
            u, v = self.outer[i], self.outer[(i + 1) % k]
            if u == v:
                raise GraphError("outer walk repeats a vertex consecutively")
            edges.add((min(u, v), max(u, v)))
        for u, v in self.chords:
            if u == v:
                raise GraphError("chord is a loop")
            edges.add((min(u, v), max(u, v)))
        return Graph.from_edges(self.n, sorted(edges))


@dataclass(frozen=True)
class RootedPathModel:
    """Rooted tree (parent links; the root maps to 0) and, per graph
    vertex, a path directed away from the root, stored top to bottom."""

    parent: dict  # tree node -> parent node, root -> 0
    paths: dict  # graph vertex -> tuple of tree nodes

    def root(self) -> int:
        roots = [u for u, p in self.parent.items() if p == 0]
        if len(roots) != 1:
            raise GraphError("tree must have exactly one root")
        return roots[0]

    def __post_init__(self):
        """Validate once, in O(nodes + path lengths): one root, known
        parents, every node reached by one walk down the child lists from
        the root (a node it misses hangs under a cycle of parent links),
        and every path a chain of tree edges."""
        root = self.root()
        for u, p in self.parent.items():
            if p != 0 and p not in self.parent:
                raise GraphError(f"parent {p} of node {u} is not a node")
        children = self.children()
        reached = 0
        stack = [root]
        while stack:
            reached += 1
            stack.extend(children[stack.pop()])
        if reached != len(self.parent):
            raise GraphError("parent links contain a cycle")
        for v, path in self.paths.items():
            if not path:
                raise GraphError(f"vertex {v} has an empty path")
            for node in path:
                if node not in self.parent:
                    raise GraphError(f"vertex {v} uses unknown node {node}")
            for a, b in zip(path, path[1:]):
                if self.parent[b] != a:
                    raise GraphError(
                        f"vertex {v}: path step {a}->{b} is not a tree edge"
                    )

    def children(self) -> dict:
        """Tree node -> its children, ascending."""
        out = {u: [] for u in self.parent}
        for u, p in sorted(self.parent.items()):
            if p != 0:
                out[p].append(u)
        return out

    def intersection_graph(self) -> Graph:
        verts = sorted(self.paths)
        if verts != list(range(1, len(verts) + 1)):
            raise GraphError("path model vertices must be 1..n")
        # Two downward paths meet iff the top of one lies on the other.
        by_top = {}
        for v in verts:
            by_top.setdefault(self.paths[v][0], []).append(v)
        edges = []
        for u in verts:
            top, *below = self.paths[u]
            edges.extend((u, v) for v in by_top[top] if v > u)
            for node in below:
                edges.extend((u, v) for v in by_top.get(node, ()))
        return Graph.from_edges(len(verts), edges)


@dataclass(frozen=True)
class HGraphSpec:
    """Two non-adjacent hubs a, b joined by three vertex-disjoint paths
    with lx, ly, lz edges; internal path vertices listed hub-to-hub."""

    lx: int
    ly: int
    lz: int
    a: int
    b: int
    x: tuple
    y: tuple
    z: tuple

    def __post_init__(self):
        if min(self.lx, self.ly, self.lz) < 2:
            raise GraphError("path lengths must all be at least 2")

    @property
    def n(self) -> int:
        return 2 + len(self.x) + len(self.y) + len(self.z)

    def graph(self) -> Graph:
        edges = []
        for chain in (self.x, self.y, self.z):
            stops = (self.a,) + chain + (self.b,)
            edges.extend(
                (min(u, v), max(u, v)) for u, v in zip(stops, stops[1:])
            )
        return Graph.from_edges(self.n, sorted(edges))


@dataclass(frozen=True)
class GraphBundle:
    graph: Graph
    aux: object  # IntervalModel | OuterplanarModel | RootedPathModel | HGraphSpec | None


def cycle(n: int) -> GraphBundle:
    return GraphBundle(cycle_graph(n), None)


def path(n: int) -> GraphBundle:
    return GraphBundle(path_graph(n), None)


def complete_multipartite(parts) -> GraphBundle:
    return GraphBundle(complete_multipartite_graph(parts), None)


def h_graph(lx: int, ly: int, lz: int) -> GraphBundle:
    """Hubs a=1, b=2; then the internal vertices of the three paths in
    ascending ids: x_1.., y_1.., z_1.. (path p has l_p - 1 internals)."""
    if min(lx, ly, lz) < 2:
        raise GraphError("h_graph needs all three path lengths >= 2")
    nxt = 3
    chains = []
    for length in (lx, ly, lz):
        chains.append(tuple(range(nxt, nxt + length - 1)))
        nxt += length - 1
    spec = HGraphSpec(lx, ly, lz, 1, 2, chains[0], chains[1], chains[2])
    return GraphBundle(spec.graph(), spec)


def random_interval(n: int, seed: int = 0) -> GraphBundle:
    """Random connected interval model: endpoints are rationals with
    denominators 1, 2 or 4 (shared endpoints happen on purpose, to
    exercise tie handling downstream).  Resamples deterministically until
    the intersection graph is connected."""
    if n < 1:
        raise GraphError("need at least one interval")
    rng = random.Random(seed)
    for _ in range(10_000):
        spans = []
        for _ in range(n):
            den = rng.choice((1, 2, 4))
            lo = Fraction(rng.randint(0, 2 * n * den), den)
            length = Fraction(rng.randint(den, (n + 4) * den), den)
            spans.append((lo, lo + length))
        model = IntervalModel(tuple(spans))
        g = model.intersection_graph()
        if g.is_connected():
            return GraphBundle(g, model)
    raise GraphError("could not sample a connected interval model")


def random_dissection(n: int, seed: int = 0) -> GraphBundle:
    """Convex polygon 1..n dissected by recursive ear splitting: an arc is
    either left as a face or split by a random non-crossing chord."""
    if n < 3:
        raise GraphError("a polygon needs at least 3 vertices")
    rng = random.Random(seed)
    chords = []

    def split(arc):
        k = len(arc)
        if k < 4 or rng.random() < 0.3:
            return
        for _ in range(8):
            i = rng.randrange(k)
            j = rng.randrange(k)
            if i > j:
                i, j = j, i
            if j - i >= 2 and not (i == 0 and j == k - 1):
                chords.append((min(arc[i], arc[j]), max(arc[i], arc[j])))
                split(arc[i : j + 1])
                split(arc[j:] + arc[: i + 1])
                return

    split(list(range(1, n + 1)))
    model = OuterplanarModel(tuple(range(1, n + 1)), tuple(sorted(chords)))
    return GraphBundle(model.graph(), model)


def random_block_graph(n: int, seed: int = 0) -> GraphBundle:
    """Grow a connected graph whose blocks are cliques by repeatedly
    attaching a fresh clique at a uniformly chosen existing vertex."""
    if n < 1:
        raise GraphError("need at least one vertex")
    rng = random.Random(seed)
    edges = []
    count = 1
    while count < n:
        host = rng.randint(1, count)
        grow = rng.randint(1, min(4, n - count))
        members = [host] + list(range(count + 1, count + grow + 1))
        count += grow
        edges.extend(
            (min(u, v), max(u, v))
            for u, v in itertools.combinations(members, 2)
        )
    return GraphBundle(Graph.from_edges(n, sorted(set(edges))), None)


def random_rooted_path(n: int, seed: int = 0) -> GraphBundle:
    """Random rooted tree plus, per graph vertex, a random downward path."""
    if n < 1:
        raise GraphError("need at least one vertex")
    rng = random.Random(seed)
    tree_size = max(2, n + rng.randint(0, n // 2))
    parent = {1: 0}
    children = {1: []}
    for node in range(2, tree_size + 1):
        p = rng.randint(1, node - 1)
        parent[node] = p
        children[p].append(node)
        children[node] = []
    paths = {}
    for v in range(1, n + 1):
        top = rng.randint(1, tree_size)
        chain = [top]
        for _ in range(rng.randint(0, 3)):
            kids = children[chain[-1]]
            if not kids:
                break
            chain.append(rng.choice(kids))
        paths[v] = tuple(chain)
    model = RootedPathModel(parent, paths)
    return GraphBundle(model.intersection_graph(), model)


_FAMILIES = {
    "cycle": (cycle, 1, False),
    "path": (path, 1, False),
    "complete-multipartite": (None, None, False),  # variadic, handled below
    "h": (h_graph, 3, False),
    "random-interval": (random_interval, 1, True),
    "random-dissection": (random_dissection, 1, True),
    "random-block": (random_block_graph, 1, True),
    "random-rooted-path": (random_rooted_path, 1, True),
}


def family_names():
    return sorted(_FAMILIES)


def generate(family: str, params, seed: int = 0) -> GraphBundle:
    """Dispatch by family name; params is a sequence of integers."""
    if family not in _FAMILIES:
        raise GraphError(f"unknown family {family!r}")
    params = [int(p) for p in params]
    if family == "complete-multipartite":
        if not params:
            raise GraphError("complete-multipartite needs part sizes")
        return complete_multipartite(params)
    fn, arity, seeded = _FAMILIES[family]
    if len(params) != arity:
        raise GraphError(f"family {family} needs {arity} parameter(s)")
    if seeded:
        return fn(*params, seed=seed)
    return fn(*params)
