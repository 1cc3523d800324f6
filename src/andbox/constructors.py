"""Constructive central realizations and membership orderings.

Covers the families with known constructions: interval models (one gap
sweep), cycles (closed form), gluing at safe vertices, graphs whose
blocks are cliques or outerplanar (one block-tree construction,
blockwise_cand1: a polygon dissection for each outerplanar block, its
outer ring found by outer_ring), rooted-directed-path models (ordering),
and the three-path H family (orderings for the short-path cases).
umbrella_free_cand1 realizes a graph without a model file too, by the
interval gap sweep on an umbrella-free order of it.  An outerplanar
model file defines its graph only: outerplanar_cand1 is blockwise_cand1
of that graph.

The constructions compute on int numerators over one den and end in
realization._lowest, which reduces them to the least den, as
Realization.build would from Fractions.  Cycles and cliques are written
on the lattice directly.  The glue at a safe vertex, and the fold of a
polygon dissection's face into the gap of its closing chord, refine the
den by an integer factor so that what they write stays whole; no
construction makes a Fraction.

Two cycles sharing an edge are a polygon with one chord, which
outerplanar_cand1 realizes: the 5-cycle 1..5 and a 4-cycle sharing its
edge (1, 2), with fresh vertices 6, 7 running from 1 to 2, are the
outerplanar model file

    outer 2 3 4 5 1 6 7
    chord 1 2
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from fractions import Fraction
from itertools import accumulate
from math import gcd

from .families import HGraphSpec, IntervalModel, OuterplanarModel, RootedPathModel
from .graphs import BlockDecomposition, Graph, GraphError, block_decomposition
from .realization import (
    Realization,
    RealizationError,
    _lowest,
    _numerator_items,
    _require_ids,
    central_realization,
    safe_in,
)

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# interval models -> central realization (one sweep over the gaps)

def interval_to_cand1(m: IntervalModel) -> Realization:
    """Central realization inducing the interval model's graph: the gap
    sweep of umbrella_free_cand1 over the vertices ranked by (span, id), a
    left-endpoint order.  The rank bounds come from the sorted ends alone,
    O(n log n) and no graph: among the non-empty spans, hi_k is the last
    whose left end is at most R_k (a bisection of their left ends) and lo_k
    the first whose right end reaches L_k (a bisection of the running
    maximum of their right ends).  An empty span meets none: lo = hi = k."""
    if m.n == 0:
        raise GraphError("interval model must have at least one vertex")
    los, his = m.numerators()
    ranked = sorted(zip(los, his, range(1, m.n + 1)))
    kept = [(k, l, r) for k, (l, r, _) in enumerate(ranked, 1) if l <= r]
    ranks = [k for k, _, _ in kept]
    lefts = [l for _, l, _ in kept]
    reach = list(accumulate((r for _, _, r in kept), max))
    lo = list(range(1, m.n + 1))
    hi = lo[:]
    for k, l, r in kept:
        lo[k - 1] = ranks[bisect_left(reach, l)]
        hi[k - 1] = ranks[bisect_right(lefts, r) - 1]
    return umbrella_free_cand1([v for _, _, v in ranked], lo, hi)


def umbrella_free_cand1(order, lo, hi) -> Realization:
    """Central realization with point order `order` and rank bounds lo, hi
    (rank_bounds), in which the later neighbours of rank k are exactly
    ranks k+1..hi_k (an umbrella-free order, such as an interval model's
    left-endpoint order).

    With every radius at its farthest-neighbour distance, all non-edges
    therefore hold once p_k - p_{lo_k} < p_{hi_k+1} - p_k for each k with
    hi_k < n.  That row closes at the gap g_{hi_k} and reads only earlier
    points, so one left-to-right sweep gives each gap the least positive
    integer meeting every row that closes at it.
    """
    n = len(order)
    closing = [[] for _ in range(n + 1)]  # closing[t]: (k, lo_k) with hi_k = t
    for k, (l, h) in enumerate(zip(lo, hi), 1):
        closing[h].append((k, l))
    p = [0]  # p[k - 1] is the point of rank k
    for t in range(1, n):
        p.append(max([p[t - 1]] + [2 * p[k - 1] - p[l - 1] for k, l in closing[t]]) + 1)
    gaps = [b - a for a, b in zip(p, p[1:])]
    return central_realization(order, lo, hi, gaps)


# ---------------------------------------------------------------------------
# cycles

def cycle_cand1(n: int, eps=HALF, anchor: int = 1) -> Realization:
    """Central realization of the n-cycle 1-2-...-n-1.

    Along the cycle starting at the anchor, the first and last vertices
    get wide boxes reaching across everything ([2-n-e, n+e] around point 1
    and [1-e, 2n-1+e] around point n); every other vertex i gets
    [i-(1+e), i+(1+e)] around point i.  The anchor's point lies only in
    its own and its two cycle neighbors' boxes, so the anchor is safe.
    eps is an int or a Fraction, so only a Fraction lies in range; a
    float would enter the lattice as a binary fraction.
    """
    if isinstance(eps, bool) or not isinstance(eps, (int, Fraction)):
        raise GraphError(f"eps must be an int or a Fraction, not {eps!r}")
    if n < 3:
        raise GraphError("cycles need at least 3 vertices")
    if not (0 < eps < 1):
        raise GraphError("eps must lie strictly between 0 and 1")
    if not (1 <= anchor <= n):
        raise GraphError("anchor must be a vertex of the cycle")
    ids = list(range(anchor, n + 1)) + list(range(1, anchor))
    return _line(eps.denominator, _cycle_items(ids, eps))


def _cycle_items(ids, eps: Fraction) -> dict:
    """cycle_cand1's boxes as items {id: ((L, R), p)} of int numerators
    over eps.denominator, ids[i - 1] taking label i."""
    n = len(ids)
    e, q = eps.numerator, eps.denominator
    items = {}
    for label, v in enumerate(ids, start=1):
        if label == 1:
            box = ((2 - n) * q - e, n * q + e)
        elif label == n:
            box = (q - e, (2 * n - 1) * q + e)
        else:
            box = ((label - 1) * q - e, (label + 1) * q + e)
        items[v] = (box, label * q)
    return items


def _line(den: int, items: dict) -> Realization:
    """The d = 1 realization of items {id: ((L, R), p)}, every coordinate
    an int numerator over den, reduced to its least den."""
    ids = _require_ids(items)
    boxes = tuple((items[v][0],) for v in ids)
    points = tuple((items[v][1],) for v in ids)
    return _lowest(1, ids, den, boxes, points)


# ---------------------------------------------------------------------------
# one integer lattice: gluing at safe vertices, folding dissection faces

def _point_order(items: dict) -> list:
    """The vertices of a host or guest sorted by point; the points must
    differ."""
    order = sorted(items, key=lambda v: items[v][1])
    if any(items[u][1] == items[v][1] for u, v in zip(order, order[1:])):
        raise GraphError("gluing requires distinct points in each input")
    return order


class _Lattice:
    """A d = 1 realization under assembly, on one integer lattice.

    den is the current denominator.  at[v] = (L, R, p, dv) holds v's
    numerators over dv, the den when v was last written, which divides
    den; left and right link the vertices in point order.  A glue or a
    fold refines den by an integer factor but writes only the vertices it
    places (and the glued vertex), so a glue costs O(|guest| log |guest|)
    and a fold O(|new_ids|), and every vertex is brought to the final den
    once, by items()."""

    def __init__(self, den: int, items: dict):
        order = _point_order(items)
        self.den = den
        self.at = {v: (lo, hi, p, den) for v, ((lo, hi), p) in items.items()}
        self.left = dict(zip(order, [None] + order[:-1]))
        self.right = dict(zip(order, order[1:] + [None]))

    def _now(self, v):
        """(L, R, p) of v over the current den."""
        lo, hi, p, dv = self.at[v]
        k = self.den // dv
        return lo * k, hi * k, p * k

    def glue(self, w1: int, den: int, guest: dict, w2: int) -> None:
        """glue_at_safe_vertex's glue of the guest items, int numerators
        over den, onto this host.  delta is the distance from p_{w1} to the
        nearest other point (1 when there is none) and span the length of
        an interval holding every guest box (1 when it is 0), in ints over
        the host's den D and the guest's den.  With g = gcd(delta, 2*span),
        a = delta/g and f = 2*span/g, the shrink by delta/(2*span) maps a
        guest coordinate x to a*(x - p_{w2}) + f*p_{w1} over D*f."""
        order = _point_order(guest)
        if not safe_in(guest, w2):
            raise GraphError(f"vertex {w2} is not safe in the second realization")
        overlap = sorted(v for v in guest if v != w2 and v in self.at)
        if overlap:
            raise GraphError(f"vertex ids collide outside the glued pair: {overlap}")
        if w1 not in self.at:
            raise RealizationError(f"unknown vertex {w1}")
        below, above = self.left[w1], self.right[w1]
        lo1, hi1, p1 = self._now(w1)
        # the nearest point of any vertex, not only of w1's graph neighbours:
        # a wide host box of a non-neighbour may reach arbitrarily close to p1
        delta = min((abs(self._now(u)[2] - p1) for u in (below, above) if u is not None), default=self.den)
        coords = [c for box, _ in guest.values() for c in box]
        span = (max(coords) - min(coords)) or den
        g = gcd(delta, 2 * span)
        a, f = delta // g, 2 * span // g
        self.den *= f
        p1 *= f
        (lo2, hi2), p2 = guest[w2]

        def shift(x):
            return a * (x - p2) + p1

        at, now = self.at, self.den
        at[w1] = (min(lo1 * f, shift(lo2)), max(hi1 * f, shift(hi2)), p1, now)
        for v, ((lo, hi), q) in guest.items():
            if v != w2:
                at[v] = (shift(lo), shift(hi), shift(q), now)
        # the shift keeps the guest's point order, and every guest point
        # lies nearer p1 than the host's neighbours of w1 do
        i = order.index(w2)
        chain = [below, *order[:i], w1, *order[i + 1:], above]
        for u, v in zip(chain, chain[1:]):
            if u is not None:
                self.right[u] = v
            if v is not None:
                self.left[v] = u

    def fold(self, x: int, y: int, new_ids) -> None:
        """Fold a face into the gap of its closing chord (x, y): the fresh
        vertices new_ids, listed from the x side, become labels 2..t-1 of
        cycle_cand1(t, eps), t = len(new_ids) + 2, mapped onto the gap by
        l -> p_x + (l - 1) gap / (t - 1).  x and y must be consecutive in
        point order with p_x < p_y, and their boxes must cover the gap.

        Over den 2(t - 1), point i sits at 2(t - 1) p_x + 2i gap and its
        box reaches 2 gap + min(gap, (t - 1) d) on each side, d the
        distance from the gap to the nearest point beyond either end: eps
        = min(1/2, (t - 1) d / (2 gap)), read from the two points linked
        next to the gap.  As in glue, den is refined by 2(t - 1) / g, g
        the gcd of 2(t - 1) with the numerators' steps, and only the fresh
        vertices are written."""
        ends = self._now(x), self._now(y)
        px, py = ends[0][2], ends[1][2]
        gap = py - px
        if gap <= 0:
            raise GraphError("gap endpoints must have ascending points")
        if self.right[x] != y:
            raise GraphError("gap must contain no other representative point")
        if any(not (lo <= px and py <= hi) for lo, hi, _ in ends):
            raise GraphError("gap endpoint boxes must cover the whole gap")
        t = len(new_ids) + 2
        below, above = self.left[x], self.right[y]
        reach = gap  # min(gap, (t - 1) d)
        if below is not None:
            reach = min(reach, (t - 1) * (px - self._now(below)[2]))
        if above is not None:
            reach = min(reach, (t - 1) * (self._now(above)[2] - py))
        g = gcd(2 * (t - 1), 2 * gap, reach)
        f, step, r = 2 * (t - 1) // g, 2 * gap // g, (2 * gap + reach) // g
        self.den *= f
        now, q = self.den, px * f
        for v in new_ids:
            q += step
            self.at[v] = (q - r, q + r, q, now)
        chain = [x, *new_ids, y]
        for u, v in zip(chain, chain[1:]):
            self.right[u], self.left[v] = v, u

    def items(self):
        """(den, items {id: ((L, R), p)}) with every vertex brought to the
        current den."""
        den, scale, items = self.den, {}, {}
        for v, (lo, hi, p, dv) in self.at.items():
            k = scale.get(dv) or scale.setdefault(dv, den // dv)
            items[v] = ((lo * k, hi * k), p * k)
        return den, items

    def realization(self) -> Realization:
        return _line(*self.items())


def glue_at_safe_vertex(
    r1: Realization, w1: int, r2: Realization, w2: int
) -> Realization:
    """Identify w1 (in r1) with w2 (in r2, where w2 must be safe).

    The guest r2 is translated so p_{w2} sits at the origin, shrunk by
    delta/(2*span) so all of it fits strictly inside the point-free zone
    around p_{w1}, and translated onto p_{w1}.  The merged vertex keeps
    the hull of its two boxes.  Vertex ids must not collide outside the
    identified pair.
    """
    if r1.d != 1 or r2.d != 1:
        raise GraphError("gluing is defined for one-dimensional realizations")
    lattice = _Lattice(r1.den, _numerator_items(r1))
    lattice.glue(w1, r2.den, _numerator_items(r2), w2)
    return lattice.realization()


# ---------------------------------------------------------------------------
# block trees

def clique_cand1(vertices) -> Realization:
    """Central clique realization over the given ids: the i-th vertex gets
    point i and box [i-k, i+k], so every point lies in every box and every
    vertex is safe."""
    return _line(1, _clique_items(vertices))


def _clique_items(vertices) -> dict:
    """clique_cand1's boxes as int items {id: ((L, R), p)}."""
    vs = sorted(vertices)
    if not vs:
        raise GraphError("clique needs at least one vertex")
    k = len(vs)
    return {v: ((i - k, i + k), i) for i, v in enumerate(vs, start=1)}


def assemble_block_tree(build, bd: BlockDecomposition) -> Realization:
    """Glue per-block realizations into one, walking the block tree
    breadth-first from the first block.

    build(block_index, parent_cut_vertex_or_None) is called once per
    block, when it is about to be glued, and returns (den, items): a
    fresh dict of the block's items {id: ((L, R), p)}, int numerators
    over den, with distinct points p.  Every non-root block's items must
    have the parent cut vertex safe.

    The whole assembly is one _Lattice: each glue touches only its guest,
    and the realization is built once.
    """
    blocks = bd.blocks
    if not blocks:
        raise GraphError("no blocks to assemble")
    lattice = _Lattice(*build(0, None))
    seen_blocks = {0}
    queue = deque([0])
    while queue:
        bi = queue.popleft()
        for c in sorted(blocks[bi] & bd.cut_vertices):
            for bj in bd.blocks_at(c):
                if bj in seen_blocks:
                    continue
                seen_blocks.add(bj)
                lattice.glue(c, *build(bj, c), c)
                queue.append(bj)
    if len(seen_blocks) != len(blocks):
        raise GraphError("block tree is not connected")
    return lattice.realization()


# ---------------------------------------------------------------------------
# polygon dissections

def _dissection_faces(k: int, chords):
    """Faces of a convex polygon (positions 0..k-1) dissected by
    non-crossing chords.  Returns (face, closing) pairs in discovery
    order: the first face closes on the wrap side (k-1, 0) and has
    closing None; every other face closes on one chord, listed as its
    first and last entries.  Faces are ascending position sequences.

    From c the walk steps to the farthest chord end t <= b, or to c + 1;
    each vertex's chord ends are kept sorted, so that is one bisection."""
    reach = {}
    for a, b in chords:
        reach.setdefault(a, []).append(b)
    for ends in reach.values():
        ends.sort()
    out = []
    stack = [(0, k - 1, None)]
    while stack:
        a, b, closing = stack.pop()
        face = [a]
        c = a
        while c != b:
            ends = reach.get(c, ())
            i = bisect_right(ends, b)
            if c == a and i and ends[i - 1] == b:
                i -= 1  # the chord (a, b) closes this face
            c = ends[i - 1] if i else c + 1
            face.append(c)
        out.append((face, closing))
        for s, t in reversed(list(zip(face, face[1:]))):
            if t > s + 1:
                stack.append((s, t, (s, t)))
    return out


def _ring_block_cand1(ring, edges, cut):
    """(den, items {id: ((L, R), p)}) of a central realization of one
    outerplanar block that is not a clique, int numerators over den: ring
    lists its vertices in outer cyclic order, as outer_ring finds them,
    and edges are its edges.  The anchor is the parent cut vertex cut, or
    the least vertex when cut is None.  The ring is rotated so the outer
    edge from the anchor to its lesser ring neighbour becomes the wrap
    side; the face along it is realized as a cycle and every other face
    is folded into the gap of its closing chord (_Lattice.fold).  The
    anchor ends up safe."""
    i = ring.index(min(ring) if cut is None else cut)
    if ring[i - 1] < ring[(i + 1) % len(ring)]:
        ring = ring[i:] + ring[:i]
    else:
        ring = ring[i::-1] + ring[:i:-1]
    k = len(ring)
    pos = {v: p for p, v in enumerate(ring)}
    spans = [sorted((pos[u], pos[v])) for u, v in edges]
    # a ring edge spans 1 or k - 1 positions, a chord anything between
    faces = _dissection_faces(k, [(a, b) for a, b in spans if 1 < b - a < k - 1])
    lattice = _Lattice(HALF.denominator, _cycle_items([ring[p] for p in faces[0][0]], HALF))
    for face, (a, b) in faces[1:]:
        lattice.fold(ring[a], ring[b], [ring[p] for p in face[1:-1]])
    return lattice.items()


def outer_ring(block, edges):
    """The outer cycle of a 2-connected block with at least three
    vertices, as a tuple of its vertices in cyclic order, or None when
    the block is not outerplanar (degree-2 reduction, Mitchell 1979).

    A degree-2 vertex v of a 2-connected outerplanar graph lies on the
    outer cycle between its two neighbours a and b, so deleting v and
    joining a and b leaves a smaller such graph whose outer cycle runs
    through the edge ab.  The reduction ends at a triangle; putting the
    vertices back in reverse, each between its two neighbours, rebuilds
    the cycle, which is the block's only Hamiltonian one.  Any other
    block stalls with no degree-2 vertex, or ends on three vertices that
    are not a triangle, or puts some v back between an a and b that are
    not consecutive on the cycle rebuilt so far.  The ring answered is
    therefore a Hamiltonian cycle whose chords do not cross: each
    reinsertion subdivides a ring edge and adds no chord.
    """
    nbrs = {v: set() for v in block}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    stack = [v for v in sorted(block) if len(nbrs[v]) == 2]
    removed = []
    while len(nbrs) > 3:
        if not stack:
            return None
        v = stack.pop()
        if v not in nbrs or len(nbrs[v]) != 2:
            continue  # gone, or its degree fell since it was stacked
        a, b = nbrs.pop(v)
        for x, y in ((a, b), (b, a)):
            nbrs[x].discard(v)
            nbrs[x].add(y)
            if len(nbrs[x]) == 2:
                stack.append(x)
        removed.append((v, a, b))
    if len(nbrs) < 3 or any(len(s) != 2 for s in nbrs.values()):
        return None
    x, y, z = sorted(nbrs)
    after = {x: y, y: z, z: x}  # the ring, as each vertex's successor
    for v, a, b in reversed(removed):
        if after[b] == a:
            a, b = b, a
        elif after[a] != b:
            return None
        after[a], after[v] = v, b
    ring = [x]
    for _ in range(len(block) - 1):
        ring.append(after[ring[-1]])
    return tuple(ring)


def blockwise_cand1(g: Graph):
    """Central realization of a connected graph each of whose blocks is
    a clique or outerplanar, or None when some block is neither.  Clique
    blocks get clique_cand1's boxes, outerplanar ones are built from the
    outer ring that outer_ring finds, and the blocks are glued along the
    block tree, each anchored so that its parent cut vertex is safe."""
    bd = block_decomposition(g)
    rings = []  # None for a clique block
    for blk, es in zip(bd.blocks, bd.edges):
        ring = None
        if 2 * len(es) != len(blk) * (len(blk) - 1):
            ring = outer_ring(blk, es)
            if ring is None:
                return None
        rings.append(ring)

    def build(bi, cut):
        if rings[bi] is None:
            return 1, _clique_items(bd.blocks[bi])
        return _ring_block_cand1(rings[bi], bd.edges[bi], cut)

    return assemble_block_tree(build, bd)


def outerplanar_cand1(m: OuterplanarModel) -> Realization:
    """Central realization of an outerplanar model's graph: blockwise_cand1
    of m.graph(), which finds every outer ring itself, so the walk serves
    only to define the graph.  Raises GraphError when the graph is not
    outerplanar."""
    r = blockwise_cand1(m.graph())
    if r is None:
        raise GraphError("the outerplanar model's graph is not outerplanar")
    return r


# ---------------------------------------------------------------------------
# orderings for rooted-directed-path models and the H family

def rdp_ordering(m: RootedPathModel) -> tuple:
    """Order graph vertices by the smallest reverse-preorder rank of their
    tree path, breaking ties by vertex id.

    The tree is walked depth-first (children ascending) and node ranks are
    the reverse of the visit order; since each path runs away from the
    root, its minimum rank sits at its bottom node, and orderings built
    this way always satisfy the four point condition.
    """
    children = m.children()
    visit = []
    stack = [m.root()]
    while stack:
        u = stack.pop()
        visit.append(u)
        stack.extend(reversed(children[u]))
    total = len(visit)
    node_rank = {u: total - i for i, u in enumerate(visit)}
    return tuple(sorted(m.paths, key=lambda v: (min(node_rank[u] for u in m.paths[v]), v)))


def h_graph_ordering(spec: HGraphSpec) -> tuple:
    """Membership ordering for the three-path graphs with shortest path
    of length 2 or 3 (the known positive cases)."""
    if spec.lx not in (2, 3):
        raise GraphError("only shortest path lengths 2 and 3 are supported")
    if not (spec.lx <= spec.ly <= spec.lz):
        raise GraphError("path lengths must be sorted ascending")
    a, b = spec.a, spec.b
    x, y, z = spec.x, spec.y, spec.z
    if spec.lx == 2:
        return (a,) + z + (b,) + x + tuple(reversed(y))
    return (y[0], x[0], a) + z + (b, x[1]) + tuple(reversed(y[1:]))
