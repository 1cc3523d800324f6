"""Shared fixtures and independent oracles.

Oracles here re-derive expected answers straight from the definitions
(mutual containment, center-distance adjacency, exhaustive quadruple
scans) so library results are checked against genuinely independent
computations, not against the code under test.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from itertools import combinations, cycle, permutations

import pytest

from andbox.families import OuterplanarModel
from andbox.graphs import Graph
from andbox.realization import Realization, is_safe

F = Fraction


# ---------------------------------------------------------------------------
# primitive oracles


def point_in_box(point, box) -> bool:
    return all(lo <= x <= hi for (lo, hi), x in zip(box, point))


def oracle_induced_edges(r: Realization) -> set:
    """Edge set by direct mutual containment over all vertex pairs: the
    all-pairs reference for the sweep in adjacency_pairs."""
    out = set()
    for (u, bu, pu), (v, bv, pv) in combinations(r.items(), 2):
        if point_in_box(pv, bu) and point_in_box(pu, bv):
            out.add(frozenset((u, v)))
    return out


def oracle_central_edges(r: Realization) -> set:
    """d = 1 center-distance adjacency: edge iff |p_u - p_v| <= min radius."""
    assert r.d == 1
    out = set()
    for (u, bu, pu), (v, bv, pv) in combinations(r.items(), 2):
        ru = (bu[0][1] - bu[0][0]) / 2
        rv = (bv[0][1] - bv[0][0]) / 2
        if abs(pu[0] - pv[0]) <= min(ru, rv):
            out.add(frozenset((u, v)))
    return out


def edge_set(g: Graph) -> set:
    return {frozenset(e) for e in g.edge_list()}


def naive_four_point_scan(g: Graph, order):
    """Exhaustive O(n^4) quadruple scan in rank-lexicographic order.

    Returns the first (x, u, v, y) with x < u < v < y by rank, edges xv
    and uy present, and uv absent; None when the ordering is clean.  This
    is the only implementation of the quadruple scan in the repository;
    the library's quadratic checker is tested against it.
    """
    n = len(order)
    adj = {v: frozenset(g.neighbors(v)) for v in g.vertices()}
    for i in range(n - 3):
        x = order[i]
        ax = adj[x]
        for j in range(i + 1, n - 2):
            u = order[j]
            au = adj[u]
            for k in range(j + 1, n - 1):
                v = order[k]
                if v in au or v not in ax:
                    continue
                for l in range(k + 1, n):
                    if order[l] in au:
                        return (x, u, v, order[l])
    return None


def reference_rank_bounds(nbrs, order):
    """Vertex-keyed rank bounds from neighbour sets nbrs[v]: per vertex of
    order, the min and max rank over its closed neighbourhood (the former
    form of orders.rank_bounds, which now returns lists indexed by rank)."""
    rank = {v: i + 1 for i, v in enumerate(order)}
    lo = {v: min(rank[u] for u in nbrs[v] | {v}) for v in order}
    hi = {v: max(rank[u] for u in nbrs[v] | {v}) for v in order}
    return lo, hi


def neighbour_sets(n: int, edges) -> dict:
    """Vertex -> set of neighbours, straight from an edge list."""
    nbrs = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def twin_pairs(g: Graph) -> list:
    """Pairs (u, v) with u < v and N(u) = N(v) or N[u] = N[v], by pairwise
    comparison of neighbour sets."""
    nb = {v: set(g.neighbors(v)) for v in g.vertices()}
    return [
        (u, v)
        for u, v in combinations(g.vertices(), 2)
        if nb[u] == nb[v] or nb[u] | {u} == nb[v] | {v}
    ]


def twins_in_order(pairs, seq) -> bool:
    """Does seq place the lower id of every twin pair first?"""
    pos = {v: i for i, v in enumerate(seq)}
    return all(pos[u] < pos[v] for u, v in pairs)


def reference_search_order(g: Graph, budget, look_ahead=True, twins=True, pairs=True):
    """Direct-scan twin of the kernel's traversal, for node-for-node checks.

    Same contract as andbox.kernels.search_order on a graph with vertices
    1..n: returns (status, order, nodes) with status "found",
    "not_member" or "exhausted" and order 0-indexed.  Candidates go in
    ascending index, only orderings with order[0] < order[-1] are
    explored (a largest vertex is never tried first, a last vertex below
    order[0] never tried) and, with twins, a vertex is never tried while
    a lower-id twin is unplaced; every other candidate placement costs
    one node.  A placement at rank m is checked by scanning the
    quadruples whose last rank is m.  With look_ahead it is also rejected
    when some unplaced vertex would close a quadruple at rank m + 1 (such
    a vertex closes one at every later rank too), and with pairs when two
    unplaced vertices must each precede the other; without look_ahead,
    twins and pairs, this is the plain depth-first search.
    """
    n = g.n
    adj = [frozenset(u - 1 for u in g.neighbors(v)) for v in g.vertices()]
    lower_twins = {v: [] for v in range(n)}
    if twins:
        for u, v in twin_pairs(g):
            lower_twins[v - 1].append(u - 1)
    order = []
    nodes = 0

    def closes_quadruple(w):
        m = len(order)
        for j in range(1, m):
            if order[j] not in adj[w]:
                continue
            for k in range(j + 1, m):
                if order[k] in adj[order[j]]:
                    continue
                if any(order[i] in adj[order[k]] for i in range(j)):
                    return True
        return False

    def forces(k, l):
        # placed ranks i < j with order[i] ~ k, order[j] !~ k, order[j] ~ l:
        # k placed before l closes the quadruple (i, j, k, l)
        return any(
            order[j] not in adj[k] and l in adj[order[j]] and any(order[i] in adj[k] for i in range(j))
            for j in range(len(order))
        )

    def extend():
        nonlocal nodes
        m = len(order)
        if m == n:
            return "found"
        for w in range(n):
            if w in order:
                continue
            if n > 1 and ((m == 0 and w == n - 1) or (m == n - 1 and w < order[0])):
                continue
            if any(u not in order for u in lower_twins[w]):
                continue
            if nodes >= budget:
                return "exhausted"
            nodes += 1
            if closes_quadruple(w):
                continue
            order.append(w)
            if look_ahead and any(closes_quadruple(u) for u in range(n) if u not in order):
                order.pop()
                continue
            unplaced = [u for u in range(n) if u not in order]
            if pairs and any(forces(k, l) and forces(l, k) for k, l in combinations(unplaced, 2)):
                order.pop()
                continue
            status = extend()
            if status != "not_member":
                return status
            order.pop()
        return "not_member"

    status = extend()
    return (status, order if status == "found" else [], nodes)


class CaseBudgetExceeded(Exception):
    """Raised by the reference central search when its case budget runs out."""


def reference_cand1_for_ordering(g: Graph, order, case_budget=10**6):
    """The 2n-variable central search, for verdict checks of the gap one.

    Same contract as andbox.feasibility.cand1_for_ordering, except that
    its case budget counts solves, and so does the work it reports.
    Variables are the points p_1..p_n and radii r_1..r_n by rank: points
    strictly increase, radii are positive, every edge bounds both radii
    from below, and every non-edge (i, j) is split on which radius the
    distance p_j - p_i exceeds, in order of increasing rank distance, one
    elimination run per explored case.
    """
    from andbox.feasibility import CentralSearchResult

    n = g.n

    def row(terms, strict):
        c = [0] * (2 * n)
        for var, a in terms:
            c[var] += a
        return (tuple(c), strict)

    base = [row([(i, 1), (i + 1, -1)], True) for i in range(n - 1)]
    base += [row([(n + i, -1)], True) for i in range(n)]
    nonedges = []
    for i, j in combinations(range(n), 2):
        if g.has_edge(order[i], order[j]):
            for side in (i, j):  # p_j - p_i <= r_side
                base.append(row([(j, 1), (i, -1), (n + side, -1)], False))
        else:
            nonedges.append((i, j))
    nonedges.sort(key=lambda ij: (ij[1] - ij[0], ij))
    solved = 0

    def descend(k, rows):
        nonlocal solved
        if solved >= case_budget:
            raise CaseBudgetExceeded()
        solved += 1
        witness = cone_witness(rows, 2 * n)
        if witness is None or k == len(nonedges):
            return witness
        i, j = nonedges[k]
        for side in (i, j):  # r_side < p_j - p_i
            hit = descend(k + 1, rows + [row([(j, -1), (i, 1), (n + side, 1)], True)])
            if hit is not None:
                return hit
        return None

    try:
        w = descend(0, base)
    except CaseBudgetExceeded:
        return CentralSearchResult("exhausted", None, solved, solved)
    if w is None:
        return CentralSearchResult("infeasible", None, solved, solved)
    items = {v: ((w[k] - w[n + k], w[k] + w[n + k]), w[k]) for k, v in enumerate(order)}
    return CentralSearchResult("found", Realization.build(1, items), solved, solved)


def reference_cand1_recognize(g: Graph, budget=10**8, twins=True):
    """Central recognition over all n!/2 point orders, for checks of the
    kernel-driven one.

    Same contract as andbox.feasibility.cand1_recognize, except that
    orderings_tried counts every order with order[0] < order[-1] (and,
    with twins, every twin pair in increasing id) in lexicographic order,
    four point violations included (they cost no solve:
    cand1_for_ordering finds a non-edge with both sides blocked), and
    that the budget bounds only the Fourier-Motzkin work: no kernel runs.
    """
    from andbox.feasibility import CAndRecognitionResult, cand1_for_ordering

    verts = g.vertices()
    pairs = twin_pairs(g) if twins else []
    tried = solved = work = 0
    for perm in permutations(verts):
        if len(verts) > 1 and perm[0] > perm[-1]:
            continue
        if not twins_in_order(pairs, perm):
            continue
        if work >= budget:
            return CAndRecognitionResult("exhausted", None, None, tried, solved)
        tried += 1
        result = cand1_for_ordering(g, perm, budget - work)
        solved += result.cases_solved
        work += result.work
        if result.status == "exhausted":
            return CAndRecognitionResult("exhausted", None, None, tried, solved)
        if result.found:
            return CAndRecognitionResult("found", result.realization, perm, tried, solved)
    return CAndRecognitionResult("not_member", None, None, tried, solved)


def naive_accepts_some_ordering(g: Graph) -> bool:
    """Does any vertex ordering pass the exhaustive quadruple scan?

    Enumerates all permutations, skipping reversals (a quadruple violation
    maps to a quadruple violation of the reversed order, so an ordering
    passes iff its reversal does).
    """
    vs = list(g.vertices())
    if len(vs) == 1:
        return True
    for perm in permutations(vs):
        if perm[0] > perm[-1]:
            continue
        if naive_four_point_scan(g, perm) is None:
            return True
    return False


def reference_line_pairs(keys, right, left=None) -> set:
    """All-pairs reference for realization.line_pairs: (i, j) with
    (keys[i], i) < (keys[j], j), keys[j] <= right[i] and, when left is
    given, left[j] <= keys[i]."""
    n = len(keys)
    return {
        (i, j)
        for i in range(n)
        for j in range(n)
        if (keys[i], i) < (keys[j], j)
        and keys[j] <= right[i]
        and (left is None or left[j] <= keys[i])
    }


def oracle_interval_overlap_edges(spans) -> set:
    """Pairwise closed-interval overlap; takes an id -> (lo, hi) mapping
    or a sequence whose i-th entry belongs to vertex i + 1.  The all-pairs
    reference for the sweep in IntervalModel.intersection_graph."""
    if not isinstance(spans, dict):
        spans = {i + 1: s for i, s in enumerate(spans)}
    out = set()
    for u, v in combinations(sorted(spans), 2):
        alo, ahi = spans[u]
        blo, bhi = spans[v]
        if max(alo, blo) <= min(ahi, bhi):
            out.add(frozenset((u, v)))
    return out


def reference_interval_to_cand1(m) -> Realization:
    """interval_to_cand1 by way of the intersection graph: all-pairs overlap
    edges, the vertices ranked by (span, id), and each rank's least and
    greatest neighbour rank read off its closed neighbourhood."""
    from andbox.constructors import umbrella_free_cand1

    order = sorted(range(1, m.n + 1), key=lambda v: (m.span(v), v))
    edges = [tuple(e) for e in oracle_interval_overlap_edges(m.spans)]
    lo, hi = reference_rank_bounds(neighbour_sets(m.n, edges), order)
    return umbrella_free_cand1(order, [lo[v] for v in order], [hi[v] for v in order])


def reference_rooted_path_edges(model) -> set:
    """Vertices are adjacent iff their tree paths share a node: the
    all-pairs scan that indexing by top node in
    RootedPathModel.intersection_graph replaced."""
    out = set()
    for u, v in combinations(sorted(model.paths), 2):
        if set(model.paths[u]) & set(model.paths[v]):
            out.add(frozenset((u, v)))
    return out


def reference_dissection_faces(k: int, chords):
    """The recursive face walk that constructors._dissection_faces runs with
    an explicit stack: same faces, same discovery order, but one Python
    frame per nesting level."""
    reach = {}
    for a, b in chords:
        reach.setdefault(a, []).append(b)
    out = []

    def rec(a, b, closing):
        face = [a]
        c = a
        while c != b:
            q = c + 1
            for t in reach.get(c, ()):
                if t > q and t <= b and not (c == a and t == b):
                    q = t
            face.append(q)
            c = q
        out.append((face, closing))
        for s, t in zip(face, face[1:]):
            if t > s + 1:
                rec(s, t, (s, t))

    rec(0, k - 1, None)
    return out


def reference_noncrossing(chords) -> bool:
    """True when no two chords (position pairs a < b on a ring) cross,
    by the all-pairs test."""
    for (a, b), (c, d) in combinations(chords, 2):
        if a < c < b < d or c < a < d < b:
            return False
    return True


def reference_is_outerplanar(vertices, edges) -> bool:
    """Outerplanarity by networkx: G is outerplanar iff G plus one apex
    vertex joined to every vertex is planar."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph(list(edges))
    h.add_edges_from(("apex", v) for v in vertices)
    return nx.check_planarity(h)[0]


def reference_cycle_cand1(n: int, eps=Fraction(1, 2), anchor: int = 1) -> Realization:
    """constructors.cycle_cand1 in Fraction arithmetic, built by
    Realization.build: the construction before it moved onto the integer
    lattice."""
    eps = Fraction(eps)
    ids = list(range(anchor, n + 1)) + list(range(1, anchor))
    items = {}
    for label, v in enumerate(ids, start=1):
        if label == 1:
            box = (2 - n - eps, n + eps)
        elif label == n:
            box = (1 - eps, 2 * n - 1 + eps)
        else:
            box = (label - (1 + eps), label + (1 + eps))
        items[v] = (box, Fraction(label))
    return Realization.build(1, items)


def reference_relabel(r: Realization, mapping: dict) -> Realization:
    """realization.relabel by a round trip through the Fraction items and
    Realization.build."""
    return Realization.build(r.d, {mapping[v]: (box, point) for v, box, point in r.items()})


def reference_glue_at_safe_vertex(r1: Realization, w1: int, r2: Realization, w2: int) -> Realization:
    """Glue r2 onto r1 by rebuilding the whole host: delta is the minimum
    over every other host point, and the result is a fresh Realization.
    The per-glue step that constructors.assemble_block_tree replaced."""
    assert r1.d == 1 and r2.d == 1 and is_safe(r2, w2)
    for r in (r1, r2):
        pts = [pt[0] for _, _, pt in r.items()]
        assert len(set(pts)) == len(pts)
    assert not (set(r1.ids) - {w1}) & (set(r2.ids) - {w2})
    p1 = r1.coordinate(w1)
    p2 = r2.coordinate(w2)
    deltas = [abs(p1 - pt[0]) for v, _, pt in r1.items() if v != w1]
    delta = min(deltas) if deltas else Fraction(1)
    coords = [c for _, box, _ in r2.items() for c in box[0]]
    span = (max(coords) - min(coords)) or Fraction(1)
    s = delta / (2 * span)

    def shift(x):
        return s * (x - p2) + p1

    items = {v: (box[0], pt[0]) for v, box, pt in r1.items()}
    (l1, h1), (l2, h2) = r1.interval(w1), r2.interval(w2)
    items[w1] = ((min(l1, shift(l2)), max(h1, shift(h2))), p1)
    for v, box, pt in r2.items():
        if v != w2:
            items[v] = ((shift(box[0][0]), shift(box[0][1])), shift(pt[0]))
    return Realization.build(1, items)


def reference_assemble_block_tree(build, bd) -> Realization:
    """The sequential fold acc = glue(acc, c, build(bj, c), c) in BFS
    order, scanning every block for each cut vertex: the O(blocks * n)
    assembly that the one-pass constructors.assemble_block_tree replaced.
    build returns items {id: ((L, R), p)}, each built into a realization."""
    acc = Realization.build(1, build(0, None))
    seen = {0}
    queue = deque([0])
    while queue:
        bi = queue.popleft()
        for c in sorted(set(bd.blocks[bi]) & bd.cut_vertices):
            for bj, blk in enumerate(bd.blocks):
                if bj not in seen and c in blk:
                    seen.add(bj)
                    guest = Realization.build(1, build(bj, c))
                    acc = reference_glue_at_safe_vertex(acc, c, guest, c)
                    queue.append(bj)
    assert len(seen) == len(bd.blocks)
    return acc


def reference_insert_cycle_into_gap(items: dict, x: int, y: int, new_ids) -> None:
    """Fold a cycle's internals into the gap between p_x and p_y of items
    {id: ((L, R), p)} in Fractions, finding the gap's neighbours by
    scanning every placed point: the fold that constructors._Lattice.fold
    computes on int numerators, reading the two points linked next to the
    gap."""
    (px, py) = items[x][1], items[y][1]
    if px > py:
        x, y, px, py = y, x, py, px
        new_ids = list(reversed(new_ids))
    gap = py - px
    pts = [pt for _, pt in items.values()]
    assert gap > 0 and not any(px < q < py for q in pts)
    t = len(new_ids) + 2
    sigma = gap / (t - 1)
    eps = Fraction(1, 2)
    left = [px - q for q in pts if q < px]
    right = [q - py for q in pts if q > py]
    if left:
        eps = min(eps, (t - 1) * min(left) / (2 * gap))
    if right:
        eps = min(eps, (t - 1) * min(right) / (2 * gap))
    guest = reference_cycle_cand1(t, eps)
    for label, v in enumerate(new_ids, start=2):
        (lo, hi), pt = guest.interval(label), guest.coordinate(label)
        items[v] = ((sigma * (lo - 1) + px, sigma * (hi - 1) + px), sigma * (pt - 1) + px)


def reference_blockwise_cand1(g: Graph) -> Realization:
    """constructors.blockwise_cand1 in Fraction arithmetic.  Each ring of
    an outerplanar block is turned to run from its anchor to the anchor's
    lesser ring neighbour; the face along that wrap side is
    reference_cycle_cand1 at eps 1/2, every other face of _dissection_faces
    is folded in by reference_insert_cycle_into_gap, and the blocks are
    glued by reference_assemble_block_tree."""
    from andbox.constructors import _clique_items, _dissection_faces, outer_ring
    from andbox.graphs import block_decomposition

    bd = block_decomposition(g)

    def build(bi, cut):
        blk, es = bd.blocks[bi], bd.edges[bi]
        if 2 * len(es) == len(blk) * (len(blk) - 1):
            return _clique_items(blk)
        ring = outer_ring(blk, es)
        k = len(ring)
        i = ring.index(min(ring) if cut is None else cut)
        step = 1 if ring[i - 1] < ring[(i + 1) % k] else -1
        ring = [ring[(i + step * j) % k] for j in range(k)]
        pos = {v: p for p, v in enumerate(ring)}
        chords = [tuple(sorted((pos[u], pos[v]))) for u, v in es]
        faces = _dissection_faces(k, [(a, b) for a, b in chords if 1 < b - a < k - 1])
        root = [ring[p] for p in faces[0][0]]
        cycle = reference_cycle_cand1(len(root))
        items = {v: (cycle.interval(label), cycle.coordinate(label)) for label, v in enumerate(root, start=1)}
        for face, (a, b) in faces[1:]:
            reference_insert_cycle_into_gap(items, ring[a], ring[b], [ring[p] for p in face[1:-1]])
        return items

    return reference_assemble_block_tree(build, bd)


def read_corner_boxes(text: str) -> list:
    """(vertex, factors) per vertex of a .boxes text, factor k being
    ((x_lo, x_hi), (y_lo, y_hi)): the rows as written, without fileio."""
    rows = {}
    for line in text.splitlines():
        tag, v, dim, *coords = line.split()
        assert tag == "b"
        xl, xh, yl, yh = map(F, coords)
        rows.setdefault(int(v), {})[int(dim)] = ((xl, xh), (yl, yh))
    return [(v, tuple(f[k] for k in sorted(f))) for v, f in sorted(rows.items())]


def read_semisquares(text: str) -> list:
    """(vertex, corner, leg) per line of a .tri text, without fileio."""
    out = []
    for line in text.splitlines():
        tag, v, corner, leg = line.split()
        assert tag == "s"
        out.append((int(v), F(corner), F(leg)))
    return out



# ---------------------------------------------------------------------------
# token-by-token file readers: the loaders as they were before each data
# line was read with one match of its whole record.  Every line goes
# through fileio's token checks, and realizations through
# Realization.build, so the loaders, which read a file in bulk when it is
# laid out as written, must give equal values or the identical error.


def reference_loads_graph(text: str, path: str = "<graph>") -> Graph:
    from andbox.fileio import _content_lines, _fail, _int_at

    n = m = None
    edges = {}
    for no, toks in _content_lines(text):
        if toks[0] == "p":
            if n is not None:
                _fail(path, no, "duplicate header")
            if len(toks) != 4 or toks[1] != "and":
                _fail(path, no, "header must be 'p and <n> <m>'")
            n = _int_at(path, no, toks[2], 1)
            m = _int_at(path, no, toks[3], 0)
        elif toks[0] == "e":
            if n is None:
                _fail(path, no, "edge before header")
            if len(toks) != 3:
                _fail(path, no, "edge line must be 'e <u> <v>'")
            u = _int_at(path, no, toks[1], 1)
            v = _int_at(path, no, toks[2], 1)
            if not (u < v):
                _fail(path, no, f"edges need u < v, got {u} {v}")
            if v > n:
                _fail(path, no, f"vertex {v} above n={n}")
            if (u, v) in edges:
                _fail(path, no, f"duplicate edge {u} {v}")
            edges[u, v] = None
        else:
            _fail(path, no, f"unknown record {toks[0]!r}")
    if n is None:
        _fail(path, 0, "missing 'p and <n> <m>' header")
    if len(edges) != m:
        _fail(path, 0, f"header says {m} edges, file has {len(edges)}")
    return Graph.from_edges(n, edges)


def _reference_assemble(path, d, rows) -> Realization:
    from andbox.fileio import _fail

    items = {}
    for vid in sorted({vid for vid, _ in rows}):
        box = []
        point = []
        for dim in range(1, d + 1):
            if (vid, dim) not in rows:
                _fail(path, 0, f"vertex {vid} missing dimension {dim}")
            side, p = rows[(vid, dim)]
            box.append(side)
            point.append(p)
        items[vid] = (tuple(box), tuple(point))
    return Realization.build(d, items)


def reference_loads_realization(text: str, path: str = "<realization>") -> Realization:
    from andbox.fileio import _content_lines, _fail, _int_at, _rat_at
    from andbox.realization import is_central

    header = None
    central_flag = False
    rows = {}
    for no, toks in _content_lines(text):
        if toks[0] == "r":
            if header is not None:
                _fail(path, no, "duplicate header")
            if len(toks) != 4 or toks[1] != "and":
                _fail(path, no, "header must be 'r and <n> <d>'")
            header = (_int_at(path, no, toks[2], 1), _int_at(path, no, toks[3], 1))
        elif toks[0] == "central":
            if central_flag:
                _fail(path, no, "duplicate 'central' line")
            if len(toks) != 1:
                _fail(path, no, "flag line must be 'central' alone")
            central_flag = True
        elif toks[0] == "v":
            if header is None:
                _fail(path, no, "vertex line before header")
            if len(toks) != 6:
                _fail(path, no, "vertex line must be 'v <id> <dim> <L> <R> <p>'")
            vid = _int_at(path, no, toks[1], 1)
            dim = _int_at(path, no, toks[2], 1)
            if dim > header[1]:
                _fail(path, no, f"dimension {dim} above d={header[1]}")
            lo, hi, p = (_rat_at(path, no, t) for t in toks[3:6])
            if (vid, dim) in rows:
                _fail(path, no, f"duplicate vertex/dimension {vid} {dim}")
            rows[(vid, dim)] = ((lo, hi), p)
        else:
            _fail(path, no, f"unknown record {toks[0]!r}")
    if header is None:
        _fail(path, 0, "missing 'r and <n> <d>' header")
    n, d = header
    r = _reference_assemble(path, d, rows)
    if r.n != n:
        _fail(path, 0, f"header says {n} vertices, file has {r.n}")
    if central_flag and not is_central(r):
        _fail(path, 0, "file claims 'central' but the realization is not")
    return r


def reference_loads_corner_boxes(text: str, path: str = "<boxes>") -> Realization:
    from andbox.fileio import _content_lines, _fail, _int_at, _rat_at

    rows = {}
    for no, toks in _content_lines(text):
        if toks[0] != "b" or len(toks) != 7:
            _fail(path, no, "lines must be 'b <id> <dim> <x_lo> <x_hi> <y_lo> <y_hi>'")
        vid = _int_at(path, no, toks[1], 1)
        dim = _int_at(path, no, toks[2], 1)
        xl, xh, yl, yh = (_rat_at(path, no, t) for t in toks[3:7])
        if (vid, dim) in rows:
            _fail(path, no, f"duplicate box factor {vid} {dim}")
        if xl > xh or yl > yh:
            _fail(path, no, f"vertex {vid}: empty planar factor")
        if xl + yl != 0:
            _fail(path, no, f"vertex {vid}: corner ({xl},{yl}) off the diagonal")
        rows[(vid, dim)] = ((-yh, xh), xl)
    if not rows:
        _fail(path, 0, "no corner boxes")
    return _reference_assemble(path, max(dim for _, dim in rows), rows)


def reference_loads_semisquares(text: str, path: str = "<semisquares>") -> Realization:
    from andbox.fileio import _content_lines, _fail, _int_at, _rat_at

    rows = {}
    for no, toks in _content_lines(text):
        if toks[0] != "s" or len(toks) != 4:
            _fail(path, no, "lines must be 's <id> <corner> <leg>'")
        vid = _int_at(path, no, toks[1], 1)
        corner, leg = _rat_at(path, no, toks[2]), _rat_at(path, no, toks[3])
        if leg < 0:
            _fail(path, no, "leg length must be nonnegative")
        if vid in rows:
            _fail(path, no, f"duplicate semi-square for vertex {vid}")
        rows[vid] = ((corner - leg, corner + leg), corner)
    if not rows:
        _fail(path, 0, "no semi-squares")
    return Realization.build(1, rows)

def reference_dumps_realization(r: Realization) -> str:
    """The realization writer on Fractions, each written by str()."""
    from andbox.realization import is_central

    lines = [f"r and {r.n} {r.d}"]
    if is_central(r):
        lines.append("central")
    for v, box, point in r.items():
        for dim, ((lo, hi), p) in enumerate(zip(box, point), start=1):
            lines.append(f"v {v} {dim} {lo} {hi} {p}")
    return "\n".join(lines) + "\n"


def reference_dumps_corner_boxes(r: Realization) -> str:
    """The corner-box writer on Fractions: factor [p, R] x [-p, -L]."""
    lines = []
    for v, box, point in r.items():
        for dim, ((lo, hi), p) in enumerate(zip(box, point), start=1):
            lines.append(f"b {v} {dim} {p} {hi} {-p} {-lo}")
    return "\n".join(lines) + "\n"


def reference_dumps_semisquares(r: Realization) -> str:
    """The semi-square writer on Fractions: corner p and leg R - p."""
    lines = [f"s {v} {point[0]} {box[0][1] - point[0]}" for v, box, point in r.items()]
    return "\n".join(lines) + "\n"


def glued_four_cycle_chain(k: int) -> Graph:
    """k 4-cycles in a chain, the last vertex of each being the first of
    the next: n = 3k + 1."""
    edges = []
    for i in range(k):
        a, b, c, d = 3 * i + 1, 3 * i + 2, 3 * i + 3, 3 * i + 4
        edges += [(a, b), (b, d), (a, c), (c, d)]
    return Graph.from_edges(3 * k + 1, edges)


def lattice_reference_instances():
    """(name, realization) pairs for the Fraction references: random
    d = 1 and d = 2 realizations, and the constructions with the longest
    denominators: the nested 400-gon, a chain of 200 glued 4-cycles, the
    star with 400 leaves and random block graphs with n = 220."""
    from andbox.constructors import blockwise_cand1, outerplanar_cand1
    from andbox.families import random_block_graph

    rng = random.Random(2828)
    out = [(f"random-d{d}-{i}", random_realization(rng, rng.randint(1, 30), d)) for d in (1, 2) for i in range(5)]
    out += [(f"tied-d{d}", random_tied_realization(rng, 25, d)) for d in (1, 2)]
    out.append(("prime-denominators", random_prime_denominator_realization(rng, 60)))
    out.append(("central", random_central_realization(rng, 30)))
    out.append(("nested-400-gon", outerplanar_cand1(nested_polygon(400))))
    out.append(("four-cycle-chain-200", blockwise_cand1(glued_four_cycle_chain(200))))
    out.append(("star-401", blockwise_cand1(Graph.from_edges(401, [(1, v) for v in range(2, 402)]))))
    out += [(f"block-220-s{s}", blockwise_cand1(random_block_graph(220, s).graph)) for s in range(1, 8)]
    return out


def reference_corner_box_edges(boxes) -> set:
    """All-pairs closed-rectangle test on every planar factor of
    (vertex, factors) pairs: the scan the sweep in
    corner_box_intersection_graph replaced."""
    out = set()
    for (u, fu), (v, fv) in combinations(boxes, 2):
        if all(
            max(alo, blo) <= min(ahi, bhi)
            for fa, fb in zip(fu, fv)
            for (alo, ahi), (blo, bhi) in zip(fa, fb)
        ):
            out.add(frozenset((u, v)))
    return out


def semisquare_triangle(corner, leg):
    """Vertices of the lower-left isosceles half of the square with
    corner (corner, -corner) and side leg."""
    p, r = corner, leg
    return ((p, -p), (p + r, -p), (p, -p + r))


def reference_semisquare_edges(squares) -> set:
    """All-pairs separating-axis test on the triangles of (vertex,
    corner, leg) triples: closed convex polygons intersect iff no edge
    normal separates them, and every semi-square has its edges along the
    axes and the antidiagonal.  Each triangle is projected onto the three
    normals once; a pair is separated iff one of its projections is.
    This is the scan the closed-form sweep in
    semisquare_intersection_graph replaced."""
    shadows = []
    for v, p, r in squares:
        t = semisquare_triangle(p, r)
        proj = [[ax * x + ay * y for x, y in t] for ax, ay in ((1, 0), (0, 1), (1, 1))]
        shadows.append((v, [(min(s), max(s)) for s in proj]))
    out = set()
    for (u, su), (v, sv) in combinations(shadows, 2):
        if all(max(a0, b0) <= min(a1, b1) for (a0, a1), (b0, b1) in zip(su, sv)):
            out.add(frozenset((u, v)))
    return out


def reference_render_svg(r: Realization) -> str:
    """The SVG drawing computed with Fraction operators and float() of each
    exact value, for byte checks of svg.render_realization_svg.  Only the
    layout constants come from the library; every number is written here."""
    from andbox.svg import _GAP, _MARGIN, _PLOT, _ROW, _TOP

    def _fmt(x: float) -> str:
        s = format(x, ".2f")
        return "0.00" if s == "-0.00" else s

    def _esc(s: str) -> str:
        return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

    coords = [c for _, box, _ in r.items() for c in box[0]]
    lo, hi = min(coords), max(coords)
    span = hi - lo
    if span == 0:
        lo, span = lo - 1, 2

    def sx(t) -> float:
        return _MARGIN + float((t - lo) / span) * _PLOT

    corners = [(v, (p, hi), (-p, -lo)) for v, ((lo, hi),), (p,) in r.items()]
    xs = [x for _, xf, _ in corners for x in xf]
    ys = [y for _, _, yf in corners for y in yf]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    wide = max(xmax - xmin, ymax - ymin)
    if wide == 0:
        wide = 2
        xmin -= 1
        ymax += 1
    scale = _PLOT / float(wide)
    bx0 = _MARGIN + _PLOT + _GAP

    def bx(t) -> float:
        return bx0 + float(t - xmin) * scale

    def by(t) -> float:
        return _TOP + float(ymax - t) * scale

    width = _MARGIN * 2 + _PLOT * 2 + _GAP
    height = _TOP + max(r.n * _ROW, _PLOT) + _MARGIN
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}"'
        f' height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        '<style>text{font-family:monospace;font-size:11px;fill:#333}</style>',
        f'<text x="{_fmt(_MARGIN)}" y="18">intervals and points</text>',
        f'<text x="{_fmt(bx0)}" y="18">corner boxes on x+y=0</text>',
    ]
    for i, (v, ((a, b),), (p,)) in enumerate(r.items()):
        y = _TOP + (i + 0.5) * _ROW
        out.append(
            f'<line x1="{_fmt(sx(a))}" y1="{_fmt(y)}" x2="{_fmt(sx(b))}"'
            f' y2="{_fmt(y)}" stroke="#1f77b4" stroke-width="2"/>'
        )
        for end in (a, b):
            out.append(
                f'<line x1="{_fmt(sx(end))}" y1="{_fmt(y - 4)}"'
                f' x2="{_fmt(sx(end))}" y2="{_fmt(y + 4)}"'
                f' stroke="#1f77b4" stroke-width="2"/>'
            )
        out.append(f'<circle cx="{_fmt(sx(p))}" cy="{_fmt(y)}" r="3" fill="#d62728"/>')
        out.append(f'<text x="4" y="{_fmt(y + 4)}">{_esc(str(v))}</text>')
    d0 = min(xmin, -ymax)
    d1 = max(xmax, -ymin)
    pad = float(d1 - d0) * 0.05
    out.append(
        f'<line x1="{_fmt(bx(d0) - pad * scale)}" y1="{_fmt(by(-d0) - pad * scale)}"'
        f' x2="{_fmt(bx(d1) + pad * scale)}" y2="{_fmt(by(-d1) + pad * scale)}"'
        ' stroke="#999999" stroke-width="1" stroke-dasharray="4 3"/>'
    )
    for v, (xl, xh), (yl, yh) in corners:
        out.append(
            f'<rect x="{_fmt(bx(xl))}" y="{_fmt(by(yh))}"'
            f' width="{_fmt(float(xh - xl) * scale)}"'
            f' height="{_fmt(float(yh - yl) * scale)}"'
            ' fill="#1f77b4" fill-opacity="0.12" stroke="#1f77b4"/>'
        )
        out.append(f'<circle cx="{_fmt(bx(xl))}" cy="{_fmt(by(yl))}" r="3" fill="#d62728"/>')
        out.append(f'<text x="{_fmt(bx(xh) - 12)}" y="{_fmt(by(yh) + 13)}">{_esc(str(v))}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# random instance generators (plain `random.Random`, rational outputs)


def random_fraction(rng: random.Random, lo: int, hi: int, den=(1, 2, 3, 4, 8)):
    d = rng.choice(den)
    return F(rng.randint(lo * d, hi * d), d)


def random_realization(rng: random.Random, n: int, d: int = 1) -> Realization:
    items = {}
    for v in range(1, n + 1):
        box = []
        point = []
        for _ in range(d):
            lo = random_fraction(rng, -8, 8)
            hi = lo + random_fraction(rng, 0, 10)
            p = lo + (hi - lo) * F(rng.randint(0, 16), 16)
            box.append((lo, hi))
            point.append(p)
        items[v] = (tuple(box), tuple(point))
    return Realization.build(d, items)


def random_tied_realization(rng: random.Random, n: int, d: int = 1) -> Realization:
    """Coordinates from a small grid of halves in [-3, 3], so points,
    endpoints and whole boxes tie often; about one side in four has zero
    width, and the ids are n distinct values from 1..3n."""
    grid = [F(k, 2) for k in range(-6, 7)]
    items = {}
    for v in rng.sample(range(1, 3 * n + 1), n):
        box = []
        point = []
        for _ in range(d):
            if rng.random() < 0.25:
                lo = hi = rng.choice(grid)
            else:
                lo, hi = sorted(rng.sample(grid, 2))
            box.append((lo, hi))
            point.append(rng.choice([x for x in grid if lo <= x <= hi]))
        items[v] = (tuple(box), tuple(point))
    return Realization.build(d, items)


def random_central_realization(rng: random.Random, n: int) -> Realization:
    items = {}
    for v in range(1, n + 1):
        c = random_fraction(rng, -10, 10)
        r = random_fraction(rng, 0, 6) + F(1, 8)
        items[v] = ((c - r, c + r), c)
    return Realization.build(1, items)


def odd_primes(count: int) -> list:
    """The first `count` odd primes, by trial division."""
    out = []
    k = 3
    while len(out) < count:
        if all(k % q for q in out if q * q <= k):
            out.append(k)
        k += 2
    return out


def random_prime_denominator_realization(rng: random.Random, n: int, scale=1) -> Realization:
    """Points in [-n/4, n/4] * scale and reaches of up to 3 * scale, each
    of the 3n coordinates built on its own odd prime denominator, so no
    two coordinates share a denominator and their lcm has 3n factors."""
    qs = odd_primes(3 * n)
    rng.shuffle(qs)
    items = {}
    for v in range(1, n + 1):
        q0, q1, q2 = qs[3 * v - 3 : 3 * v]
        p = F(rng.randint(-n * q0 // 4, n * q0 // 4) * scale, q0)
        lo = p - F(rng.randint(0, 3 * q1) * scale, q1)
        hi = p + F(rng.randint(0, 3 * q2) * scale, q2)
        items[v] = ((lo, hi), p)
    return Realization.build(1, items)


def random_connected_graph(rng: random.Random, n: int, extra_edge_prob=0.3) -> Graph:
    """Random spanning tree plus independent extra edges."""
    edges = set()
    for v in range(2, n + 1):
        edges.add(frozenset((rng.randint(1, v - 1), v)))
    for u, v in combinations(range(1, n + 1), 2):
        if rng.random() < extra_edge_prob:
            edges.add(frozenset((u, v)))
    return Graph.from_edges(n, [tuple(sorted(e)) for e in edges])


# ---------------------------------------------------------------------------
# integer cone systems: solver entry, generator, grid oracle, witness check


def cone_witness(rows, nvars):
    """Decide integer cone rows (coeffs, strict), coeffs . x <= 0 or < 0
    when strict, over nvars variables with the Fourier-Motzkin core that
    the gap search runs: a witness list of Fractions, or None when the
    rows are infeasible."""
    from andbox.feasibility import _back_substitute, _eliminate

    layers, _ = _eliminate(rows, nvars)
    return None if layers is None else _back_substitute(layers)


def reference_back_substitute(layers):
    """The witness of a feasible elimination's layers, back-substituted in
    Fractions: each variable takes the midpoint of its residual interval,
    bound -/+ 1 when only one side is bounded, 0 when unconstrained.  The
    rule the integer back-substitution must reproduce value for value."""
    witness = [Fraction(0)] * len(layers)
    for var, pos, neg in reversed(layers):
        # a row a*x + rest <= 0 bounds x by -rest / a: above when a > 0
        bound = [
            -sum((c * w for c, w in zip(coeffs[:var], witness)), Fraction(0)) / coeffs[var]
            for coeffs, _ in pos + neg
        ]
        hi = min(bound[: len(pos)], default=None)
        lo = max(bound[len(pos) :], default=None)
        if lo is not None and hi is not None:
            witness[var] = (lo + hi) / 2
        elif lo is not None:
            witness[var] = lo + 1
        elif hi is not None:
            witness[var] = hi - 1
    return witness


def random_cone_system(rng: random.Random, max_vars: int = 3):
    """Random integer cone rows over k <= `max_vars` variables, with
    coefficients in [-2, 2] and about half the rows strict.

    Half the instances are anchored at a nonzero integer point of
    [-4, 4]^k: a row that the point violates is negated, and a strict row
    that vanishes there is made non-strict, so the point is an on-grid
    witness.  Unanchored instances append, half the time, a strict or
    non-strict copy of a row with its signs flipped: against a strict
    row, or as a strict copy, it leaves no solution, and two non-strict
    copies pin the row to 0.  Returns (rows, k, anchored).
    """
    k = rng.randint(1, max_vars)
    anchored = rng.random() < 0.5
    anchor = (0,) * k
    while not any(anchor):
        anchor = tuple(rng.randint(-4, 4) for _ in range(k))
    rows = []
    for _ in range(rng.randint(1, 5)):
        coeffs = tuple(rng.randint(-2, 2) for _ in range(k))
        strict = rng.random() < 0.5
        if anchored:
            value = sum(c * a for c, a in zip(coeffs, anchor))
            if value > 0:
                coeffs = tuple(-c for c in coeffs)
            elif value == 0:
                strict = False
        rows.append((coeffs, strict))
    if not anchored and rng.random() < 0.5:
        coeffs, _ = rng.choice(rows)
        rows.append((tuple(-c for c in coeffs), rng.random() < 0.5))
    return rows, k, anchored


def grid_feasible(rows, k) -> bool:
    """Dense scan of the integer grid [-32, 32]^k, exact in int64."""
    import numpy as np

    axis = np.arange(-32, 33, dtype=np.int64)
    grids = np.meshgrid(*([axis] * k), indexing="ij", sparse=True)
    ok = np.ones((65,) * k, dtype=bool)
    for coeffs, strict in rows:
        lhs = np.zeros((), dtype=np.int64)
        for c, X in zip(coeffs, grids):
            lhs = lhs + c * X
        ok = ok & ((lhs < 0) if strict else (lhs <= 0))
    return bool(ok.any())


def satisfies_all(rows, witness) -> bool:
    """Exact check of a witness against every cone row."""
    for coeffs, strict in rows:
        value = sum(c * w for c, w in zip(coeffs, witness))
        if not (value < 0 if strict else value <= 0):
            return False
    return True


# ---------------------------------------------------------------------------
# worked objects shared across files


def one_chord_polygon(n: int, m: int, shared) -> OuterplanarModel:
    """An n-cycle and the m-cycle 1..m sharing the edge `shared`, as the
    polygon with one chord: fresh vertices m+1 .. m+n-2 run from u to v,
    where (u, v) is `shared` ordered so that v follows u on the m-cycle."""
    u, v = shared
    if (v - u) % m == m - 1:
        u, v = v, u
    assert n >= 3 and (v - u) % m == 1 and 1 <= u <= m and 1 <= v <= m
    # v, v+1, ..., u around the m-cycle, then back to v along the fresh path
    ring = tuple((v - 1 + i) % m + 1 for i in range(m))
    fresh = tuple(range(m + 1, m + n - 1))
    return OuterplanarModel(ring + fresh, ((min(u, v), max(u, v)),))


def nested_polygon(k: int) -> OuterplanarModel:
    """The k-gon 1..k with the nested chords (i, k + 1 - i) for
    2 <= i < k // 2: each face closes on the chord around it."""
    return OuterplanarModel(tuple(range(1, k + 1)), tuple((i, k + 1 - i) for i in range(2, k // 2)))


def fan_polygon(k: int) -> OuterplanarModel:
    """The k-gon 1..k with the chords (1, t) for 3 <= t < k: k - 2
    triangles around vertex 1, each folded into the face before it."""
    return OuterplanarModel(tuple(range(1, k + 1)), tuple((1, t) for t in range(3, k)))


def ear_polygon(k: int, sizes=(3, 4, 5, 6)) -> OuterplanarModel:
    """The k-gon 1..k with ears cut off along its side from 2: chords
    (i, i + s - 1) for i = 2, 2 + s_1 - 1, ..., their sizes s taken in
    turn from sizes.  The ears are sibling faces that all close on the
    face through the edge (1, 2)."""
    chords, i = [], 2
    for s in cycle(sizes):
        if i + s - 1 > k:
            break
        chords.append((i, i + s - 1))
        i += s - 1
    return OuterplanarModel(tuple(range(1, k + 1)), tuple(chords))


def ear_polygon_chain(count: int, k: int) -> Graph:
    """count copies of ear_polygon(k) in a chain: vertex k // 3 of each
    copy after the first is vertex k // 2 of the copy before it, so
    n = count (k - 1) + 1 and the blocks after the first are anchored
    away from their vertex 1."""
    polygon = ear_polygon(k).graph().edge_list()
    fresh = iter(range(1, count * (k - 1) + 2))
    edges, label = [], {}
    for j in range(count):
        label = {i: label[k // 2] if j and i == k // 3 else next(fresh) for i in range(1, k + 1)}
        edges += [(label[u], label[v]) for u, v in polygon]
    return Graph.from_edges(count * (k - 1) + 1, edges)


@pytest.fixture
def paw_graph() -> Graph:
    # triangle 1-2-3 with pendant 4 on vertex 3
    return Graph.from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 4)])


@pytest.fixture
def paw_realization() -> Realization:
    return Realization.build(
        1,
        {
            1: ((F(1), F(9, 2)), F(2)),
            2: ((F(1, 2), F(19, 4)), F(3)),
            3: ((F(3, 2), F(11, 2)), F(4)),
            4: ((F(9, 4), F(13, 2)), F(5)),
        },
    )


@pytest.fixture
def square_graph() -> Graph:
    return Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])


@pytest.fixture(scope="session")
def connected_atlas():
    """All 996 connected graphs on 1..7 vertices, relabeled to 1..n."""
    nx = pytest.importorskip("networkx")
    out = []
    for G in nx.graph_atlas_g():
        if G.number_of_nodes() < 1 or not nx.is_connected(G):
            continue
        mapping = {u: i + 1 for i, u in enumerate(sorted(G.nodes()))}
        out.append(
            Graph.from_edges(
                G.number_of_nodes(),
                [(mapping[u], mapping[v]) for u, v in G.edges()],
            )
        )
    assert len(out) == 996
    return out


# ---------------------------------------------------------------------------
# acceptance reporting: one line per check, printed after the run


ACCEPTANCE_LINES: list = []
ACCEPTANCE_TOTAL = 12


@pytest.fixture(scope="session")
def acceptance_record():
    def record(num: int, name: str, ok: bool, elapsed_s: float, budget_s: float, detail: str = ""):
        verdict = "PASS" if ok and elapsed_s < budget_s else "FAIL"
        line = (
            f"[{num:2}/12] {verdict}  {name}: {elapsed_s:.3f}s"
            f" (budget {budget_s:g}s)" + (f"  {detail}" if detail else "")
        )
        ACCEPTANCE_LINES.append(line)
        assert ok, f"check {num} failed: {name} {detail}"
        assert elapsed_s < budget_s, f"check {num} over budget: {elapsed_s:.3f}s >= {budget_s}s"

    return record


@pytest.fixture(scope="session")
def lattice_instances():
    return lattice_reference_instances()


@pytest.fixture(scope="session")
def central_pool():
    """Central realizations produced by the acceptance suite; the final
    acceptance check replays the triangle-model equivalence on all of them."""
    return []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance checks")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
    if len(ACCEPTANCE_LINES) < ACCEPTANCE_TOTAL:
        terminalreporter.write_line(
            f"warning: only {len(ACCEPTANCE_LINES)}/{ACCEPTANCE_TOTAL} checks reported"
        )
