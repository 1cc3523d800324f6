"""Undirected graphs on vertices 1..n, their rank view under a vertex
ordering, block decompositions, and the double-nonadjacent-common-neighbors
obstruction predicate.

Graphs are immutable once built. No loops, no parallel edges.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


class GraphError(ValueError):
    pass


class OrderingError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    """Vertices 1..n; bit u-1 of masks[v-1] is set iff u ~ v, the
    adjacency format kernels.search_order takes.  The masks are the only
    representation: neighbours, degrees and edges are read off them."""

    n: int
    masks: tuple

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        if n < 1:
            raise GraphError("vertex count must be >= 1")
        masks = [0] * n
        for e in edges:
            u, v = e
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphError(f"edge {u},{v} out of range 1..{n}")
            if masks[u - 1] >> (v - 1) & 1:
                raise GraphError(f"duplicate edge {min(u, v)},{max(u, v)}")
            masks[u - 1] |= 1 << (v - 1)
            masks[v - 1] |= 1 << (u - 1)
        return Graph(n, tuple(masks))

    @property
    def m(self) -> int:
        return sum(x.bit_count() for x in self.masks) // 2

    def vertices(self):
        return range(1, self.n + 1)

    def _mask(self, v: int) -> int:
        if not 0 < v <= self.n:
            raise GraphError(f"vertex {v} out of range 1..{self.n}")
        return self.masks[v - 1]

    def neighbors(self, v: int):
        return tuple(_bits(self._mask(v)))

    def degree(self, v: int) -> int:
        return self._mask(v).bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return 0 < u <= self.n and 0 < v and self.masks[u - 1] >> (v - 1) & 1 == 1

    def edge_list(self):
        """Edges as (u, v) pairs with u < v, lexicographic."""
        return [(u, v) for u, x in enumerate(self.masks, 1) for v in _bits(x >> u, u)]

    def connected_components(self):
        """List of components, each a sorted tuple of vertices."""
        seen = 0
        comps = []
        for s in range(self.n):
            if seen >> s & 1:
                continue
            comp = frontier = 1 << s
            while frontier:
                reach = 0
                for v in _bits(frontier):
                    reach |= self.masks[v - 1]
                frontier = reach & ~comp
                comp |= frontier
            seen |= comp
            comps.append(tuple(_bits(comp)))
        return comps

    def is_connected(self) -> bool:
        return len(self.connected_components()) == 1

    def subgraph(self, vertices):
        """Induced subgraph relabeled to 1..k.

        Returns (graph, old_of_new) where old_of_new[new_id] = old id;
        new ids follow ascending old ids.
        """
        vs = sorted(vertices)
        masks = relabel_masks(self.masks, [v - 1 for v in vs])
        return Graph(len(vs), tuple(masks)), {i + 1: v for i, v in enumerate(vs)}


def relabel_masks(masks, order) -> list:
    """0-indexed adjacency bitmasks relabelled onto positions: bit i of
    row k is set iff order[k] ~ order[i].  order lists distinct 0-indexed
    vertices; neighbours outside it are dropped."""
    bit = {}  # v + 1, the bit length of v's own bit -> v's position bit
    keep = 0
    for i, v in enumerate(order):
        bit[v + 1] = 1 << i
        keep |= 1 << v
    rows = []
    for v in order:
        x, row = masks[v] & keep, 0
        while x:
            low = x & -x
            row |= bit[low.bit_length()]
            x ^= low
        rows.append(row)
    return rows


def rank_bounds(g: Graph, order):
    """The graph in rank space: (rows, lo, hi), each indexed by rank - 1.
    Bit i of rows[k - 1] is set iff ranks k and i + 1 are adjacent; lo and
    hi are the least and greatest rank of each rank's closed
    neighbourhood."""
    if sorted(order) != list(g.vertices()):
        raise OrderingError("ordering does not cover the vertex set")
    rows = relabel_masks(g.masks, [v - 1 for v in order])
    closed = [row | 1 << k for k, row in enumerate(rows)]
    return rows, [(x & -x).bit_length() for x in closed], [x.bit_length() for x in closed]


def _bits(x: int, offset: int = 0) -> list:
    """offset plus the 1-based position of each set bit of x, ascending."""
    out = []
    while x:
        step = (x & -x).bit_length()
        offset += step
        out.append(offset)
        x >>= step
    return out


@dataclass(frozen=True)
class BlockDecomposition:
    """Maximal biconnected components plus cut vertices.

    blocks: tuple of frozensets of vertices, ordered by (min vertex, sorted
    tuple); every edge lies in exactly one block; bridges give 2-sets.
    edges[i]: the edges (u, v), u < v, of blocks[i], lexicographic.
    """

    blocks: tuple
    cut_vertices: frozenset
    edges: tuple
    _at: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        at = {}
        for i, b in enumerate(self.blocks):
            for v in b:
                at.setdefault(v, []).append(i)
        object.__setattr__(self, "_at", {v: tuple(bs) for v, bs in at.items()})

    def blocks_at(self, v: int):
        """Indices of the blocks containing v, ascending."""
        return self._at.get(v, ())


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Hopcroft-Tarjan biconnected components, iterative.

    Requires a connected input: one depth-first search from vertex 1 must
    reach every vertex.
    """
    masks = g.masks
    disc = [0] * (g.n + 1)  # discovery time, 0 until visited
    low = [0] * (g.n + 1)
    parent = [0] * (g.n + 1)
    cut = set()
    estack = []
    found = []  # (block, its edges)

    root = 1
    disc[root] = low[root] = timer = 1
    root_children = 0
    # stack entries: [v, the neighbours of v not yet walked, as a mask],
    # walked lowest bit first, so neighbours in ascending order
    stack = [[root, masks[root - 1]]]
    while stack:
        top = stack[-1]
        v, rest = top
        while rest:
            bit = rest & -rest
            rest ^= bit
            w = bit.bit_length()
            if not disc[w]:
                top[1] = rest
                estack.append((v, w))
                timer += 1
                disc[w] = low[w] = timer
                parent[w] = v
                if v == root:
                    root_children += 1
                stack.append([w, masks[w - 1]])
                break
            elif w != parent[v] and disc[w] < disc[v]:
                estack.append((v, w))
                low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    # u separates: pop the block's edges, down to the tree
                    # edge (u, v), which every edge of v's subtree sits above
                    es = []
                    while disc[estack[-1][0]] >= disc[v]:
                        es.append(estack.pop())
                    es.append(estack.pop())
                    es = sorted((a, b) if a < b else (b, a) for a, b in es)
                    found.append((frozenset(x for e in es for x in e), tuple(es)))
                    if u != root or root_children > 1:
                        cut.add(u)
    if timer < g.n:
        raise GraphError("block_decomposition assumes a connected graph")
    if g.n == 1:
        found.append((frozenset({root}), ()))
    blocks, edges = zip(*sorted(found, key=lambda f: (min(f[0]), tuple(sorted(f[0])))))
    return BlockDecomposition(blocks, frozenset(cut), edges)


def has_double_nonadjacent_common_neighbors(g: Graph) -> bool:
    """True iff g has at least two vertices and every vertex pair has two
    common neighbors that are themselves non-adjacent.  Such graphs admit
    no single-interval box-and-point realization."""
    masks = g.masks
    pairs = itertools.combinations(range(g.n), 2)
    # in each pair's common neighbourhood c, some a misses another member
    return g.n > 1 and all(
        any(c & ~(masks[a - 1] | 1 << (a - 1)) for a in _bits(c))
        for c in (masks[u] & masks[v] for u, v in pairs)
    )


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
