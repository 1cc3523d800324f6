"""Undirected graphs on vertices 1..n, block decompositions, and the
double-nonadjacent-common-neighbors obstruction predicate.

Graphs are immutable once built. No loops, no parallel edges.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset  # frozenset of 2-element frozensets
    _adj: dict = field(init=False, repr=False, compare=False)
    _nbrs: dict = field(init=False, repr=False, compare=False)

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        if n < 1:
            raise GraphError("vertex count must be >= 1")
        seen = set()
        for e in edges:
            u, v = e
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphError(f"edge {u},{v} out of range 1..{n}")
            key = frozenset((u, v))
            if key in seen:
                raise GraphError(f"duplicate edge {min(u, v)},{max(u, v)}")
            seen.add(key)
        return Graph(n, frozenset(seen))

    def __post_init__(self):
        adj = {v: set() for v in range(1, self.n + 1)}
        for e in self.edges:
            u, v = e
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "_adj", {v: tuple(sorted(adj[v])) for v in adj})
        object.__setattr__(self, "_nbrs", adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertices(self):
        return range(1, self.n + 1)

    def neighbors(self, v: int):
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self._nbrs.get(u)
        return nbrs is not None and v in nbrs

    def edge_list(self):
        """Edges as sorted (u, v) pairs with u < v, lexicographic."""
        return sorted(tuple(sorted(e)) for e in self.edges)

    def connected_components(self):
        """List of components, each a sorted tuple of vertices."""
        seen = set()
        comps = []
        for s in self.vertices():
            if s in seen:
                continue
            stack = [s]
            comp = []
            seen.add(s)
            while stack:
                u = stack.pop()
                comp.append(u)
                for w in self._adj[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            comps.append(tuple(sorted(comp)))
        return comps

    def is_connected(self) -> bool:
        return len(self.connected_components()) == 1

    def subgraph(self, vertices):
        """Induced subgraph relabeled to 1..k.

        Returns (graph, old_of_new) where old_of_new[new_id] = old id;
        new ids follow ascending old ids.
        """
        vs = sorted(vertices)
        new_of_old = {v: i + 1 for i, v in enumerate(vs)}
        edges = [
            (new_of_old[u], new_of_old[v])
            for u, v in self.edge_list()
            if u in new_of_old and v in new_of_old
        ]
        return Graph.from_edges(len(vs), edges), {i + 1: v for i, v in enumerate(vs)}


@dataclass(frozen=True)
class BlockDecomposition:
    """Maximal biconnected components plus cut vertices.

    blocks: tuple of frozensets of vertices, ordered by (min vertex, sorted
    tuple); every edge lies in exactly one block; bridges give 2-sets.
    """

    blocks: tuple
    cut_vertices: frozenset

    def blocks_at(self, v: int):
        return tuple(i for i, b in enumerate(self.blocks) if v in b)


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Hopcroft-Tarjan biconnected components, iterative.

    Requires a connected input.
    """
    if not g.is_connected():
        raise GraphError("block_decomposition assumes a connected graph")
    disc = {}
    low = {}
    parent = {}
    cut = set()
    estack = []
    blocks = []
    timer = itertools.count(1)

    for root in g.vertices():
        if root in disc:
            continue
        disc[root] = low[root] = next(timer)
        parent[root] = None
        root_children = 0
        # stack entries: (v, iterator over neighbors)
        stack = [(root, iter(g.neighbors(root)))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w not in disc:
                    estack.append((v, w))
                    disc[w] = low[w] = next(timer)
                    parent[w] = v
                    if v == root:
                        root_children += 1
                    stack.append((w, iter(g.neighbors(w))))
                    advanced = True
                    break
                elif w != parent[v] and disc[w] < disc[v]:
                    estack.append((v, w))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    # u separates: pop the block's edges
                    block = set()
                    while estack:
                        a, b = estack[-1]
                        if disc[a] >= disc[v]:
                            estack.pop()
                            block.update((a, b))
                        else:
                            break
                    if estack and estack[-1] == (u, v):
                        estack.pop()
                    block.update((u, v))
                    blocks.append(frozenset(block))
                    if u != root or root_children > 1:
                        cut.add(u)
        if g.n == 1:
            blocks.append(frozenset({root}))

    blocks.sort(key=lambda b: (min(b), tuple(sorted(b))))
    return BlockDecomposition(tuple(blocks), frozenset(cut))


def has_double_nonadjacent_common_neighbors(g: Graph) -> bool:
    """True iff every vertex pair has two common neighbors that are
    themselves non-adjacent.  Such graphs admit no single-interval
    box-and-point realization."""
    for u, v in itertools.combinations(g.vertices(), 2):
        common = set(g.neighbors(u)) & set(g.neighbors(v))
        ok = False
        for a, b in itertools.combinations(sorted(common), 2):
            if not g.has_edge(a, b):
                ok = True
                break
        if not ok:
            return False
    return True


# small named graphs used in several places

def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Graph.from_edges(n, edges)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, list(itertools.combinations(range(1, n + 1), 2)))


def complete_multipartite_graph(parts) -> Graph:
    parts = tuple(int(p) for p in parts)
    if not parts or any(p < 1 for p in parts):
        raise GraphError("part sizes must be >= 1")
    n = sum(parts)
    side = []
    k = 0
    for i, p in enumerate(parts):
        side.extend([i] * p)
        k += p
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(1, n + 1), 2)
        if side[u - 1] != side[v - 1]
    ]
    return Graph.from_edges(n, edges)
