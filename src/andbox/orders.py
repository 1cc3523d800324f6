"""Vertex orderings, the four point condition, and ordering-based tools.

An ordering is a sequence of vertex ids: order[i] is the vertex at rank
i + 1 (ranks run 1..n).  Functions here take any sequence (a tuple or a
list) and return tuples; rank_bounds is the one check that an ordering
covers the vertex set.  An ordering of G is 4PC-free when no ranks
i < j < k < l carry edges (i,k) and (j,l) while (j,k) is a non-edge.  A
graph has a one-dimensional box-and-point realization iff some ordering
is 4PC-free; the realization can then be read off the ordering with
integer coordinates.  Every central realization is a box-and-point model,
so certificate, the one certificate step of both recognizers, reads
4PC-free orders off the paper's central constructions.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .constructors import blockwise_cand1
from .graphs import Graph, OrderingError, rank_bounds, relabel_masks
from .realization import Realization, induced_graph, r_order

DEFAULT_NODE_BUDGET = 10**8


def _require_nonnegative(budget) -> None:
    if budget < 0:
        raise OrderingError("budget must be nonnegative")


@dataclass(frozen=True)
class Violation:
    """Ranked quadruple x < u < v < y with edges xv, uy and non-edge uv."""

    x: int
    u: int
    v: int
    y: int


def four_point_check(g: Graph, order):
    """None when the ordering is 4PC-free, else the first violation."""
    return _violation(order, *rank_bounds(g, order))


def _violation(order, rows, lo, hi):
    """The first violation of order, from its rank view rank_bounds.

    Pair scan: ranks j < k of a non-adjacent pair violate iff rank k has a
    neighbour before rank j and rank j one after rank k, so k runs only up
    to hi of rank j, over the clear bits of its row.  The reported
    quadruple is the one the exhaustive rank-lexicographic scan would find
    first.
    """
    best = None
    for j in range(2, len(order)):
        row = rows[j - 1]
        # bit k - 1 for each non-neighbour rank k with j < k < hi of rank j
        gaps = ~row & (1 << max(hi[j - 1] - 1, j)) - (1 << j)
        while gaps:
            low = gaps & -gaps
            gaps ^= low
            k = low.bit_length()
            # (j, k) only grows, so a later pair wins only with a smaller i
            i = lo[k - 1]
            if i < j and (best is None or i < best[0]):
                later = row >> k
                best = (i, j, k, k + (later & -later).bit_length())
    if best is None:
        return None
    return Violation(*(order[r - 1] for r in best))


class FourPointViolationError(OrderingError):
    def __init__(self, violation: Violation):
        super().__init__(
            f"ordering violates the four point condition: {violation}"
        )
        self.violation = violation


def _require_pass(violation) -> None:
    if violation is not None:
        raise FourPointViolationError(violation)


@dataclass(frozen=True)
class ImplicitCode:
    """Per-vertex rank triple: own rank pos inside reach interval
    [lo, hi].  Adjacency of a, b is decided by four integer comparisons."""

    lo: int
    hi: int
    pos: int


def implicit_encode(g: Graph, order):
    """Codes listed by vertex id (entry i belongs to vertex i+1)."""
    rows, lo, hi = rank_bounds(g, order)
    _require_pass(_violation(order, rows, lo, hi))
    by_id = sorted(range(g.n), key=order.__getitem__)  # ranks - 1, by vertex id
    return tuple(ImplicitCode(lo[k], hi[k], k + 1) for k in by_id)


def realization_from_codes(codes) -> Realization:
    """The integer realization the codes describe: vertex i+1 gets point
    pos and box [lo, hi] of entry i."""
    return Realization._checked(
        1,
        tuple(range(1, len(codes) + 1)),
        1,
        tuple(((c.lo, c.hi),) for c in codes),
        tuple((c.pos,) for c in codes),
    )


def realization_from_ordering(g: Graph, order) -> Realization:
    """Integer realization read off a 4PC-free ordering: vertex v gets
    point rank(v) and box [min, max] of closed-neighborhood ranks."""
    return realization_from_codes(implicit_encode(g, order))


def implicit_adjacent(a: ImplicitCode, b: ImplicitCode) -> bool:
    return b.lo <= a.pos <= b.hi and a.lo <= b.pos <= a.hi


@dataclass(frozen=True)
class RecognitionResult:
    status: str  # "found" | "not_member" | "exhausted"
    ordering: object  # tuple of vertex ids when found, else None
    nodes: int

    @property
    def found(self) -> bool:
        return self.status == "found"


# LexBFS sweeps certificate tries per component: one LexBFS, then LexBFS+
# sweeps, each with its reversal.
SWEEPS = 4


def lexbfs(masks, prior):
    """One LexBFS sweep over 0-indexed adjacency bitmasks: each step
    takes an unvisited vertex of lexicographically largest label, and
    ties go to the vertex listed first in prior (a permutation of the
    vertices).  With prior the reversal of an earlier sweep this is
    LexBFS+: ties go to the vertex latest in that sweep.

    Iterative partition refinement: the unvisited vertices form a list
    of classes of equal label, largest label first, each a bitmask over
    positions in prior; visiting v splits every class into its
    neighbours of v, then the rest.
    """
    near = relabel_masks(masks, prior)  # near[i]: prior[i]'s neighbours
    order = []
    classes = [(1 << len(prior)) - 1]
    while classes:
        first = classes[0]
        low = first & -first
        i = low.bit_length() - 1
        order.append(prior[i])
        classes[0] = first ^ low
        nb = near[i]
        split = []
        for c in classes:
            for part in (c & nb, c & ~nb):
                if part:
                    split.append(part)
        classes = split
    return order


def _sweep_orders(g: Graph):
    """Candidate orders of the connected graph g (0-indexed) from up to
    SWEEPS LexBFS sweeps, each sweep yielded before its reversal.

    The first sweep breaks ties by ascending id and each later one is a
    LexBFS+ sweep of the one before.  On interval graphs LexBFS+ sweeps
    converge to an interval model's order (Corneil, Olariu & Stewart
    2009); SWEEPS bounds the work.  A sweep equal to its prior ends the
    candidates: it is the reversal of the sweep before it, and every
    later sweep repeats those two (a LexBFS ordering is its own LexBFS+
    sweep of its reversal).
    """
    prior = list(range(g.n))
    for sweep in range(SWEEPS):
        order = lexbfs(g.masks, prior)
        if sweep and order == prior:
            return
        yield order
        yield order[::-1]
        prior = order[::-1]


def certificate(g: Graph):
    """(order, lo, hi, r): the point order of a central construction of
    the connected graph g, as vertex ids, or None when none applies.

    First, the earliest candidate of _sweep_orders that is umbrella-free:
    each rank's later neighbours are the ranks right after it, so its row
    above its own bit is a block of low bits.  The spans [rank k, hi_k]
    are then an interval model of g (Olariu 1991), which
    umbrella_free_cand1 realizes from the rank bounds lo, hi; r is None.
    Else blockwise_cand1's realization r, when every block is a clique or
    outerplanar, with its point order; lo and hi are None."""
    for cand in _sweep_orders(g):
        order = [v + 1 for v in cand]
        rows, lo, hi = rank_bounds(g, order)
        if all((x := row >> k) & (x + 1) == 0 for k, row in enumerate(rows, 1)):
            return order, lo, hi, None
    r = blockwise_cand1(g)
    return None if r is None else (r_order(r), None, None, r)


def and1_recognize(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> RecognitionResult:
    """A 4PC-free ordering per component: the central certificate first,
    then the backtracking search.

    Each component first asks certificate, as cand1_recognize does; its
    order is that component's ordering, found in 0 nodes, and no
    realization is built for it.  This polynomial work is not charged to
    the budget, so budget 0 can still find an ordering.  Only a component
    no certificate covers goes to the kernel, which is deterministic:
    vertices are tried in ascending id, each {ordering, reversal} pair is
    explored once, and twins (equal open or closed neighbourhoods) only
    in increasing id; its ordering is the component's lexicographically
    first passing one.  nodes counts the kernel's placements tried across
    all components; hitting the budget yields "exhausted", and
    "not_member" comes only from a complete kernel search.
    Disconnected graphs are handled per component, in ascending order of
    their smallest vertex (components can be laid out on disjoint
    stretches of the line, so the graph qualifies iff every component
    does), concatenating the component orderings.  A found ordering is
    re-checked with four_point_check before it is returned; a failing one
    raises FourPointViolationError.
    """
    _require_nonnegative(budget)
    merged = []
    nodes = 0
    for comp in g.connected_components():
        sub, back = g.subgraph(comp)
        if (cert := certificate(sub)) is not None:
            order = cert[0]
        else:
            status, order0, used = kernels.search_order(sub.masks, budget - nodes)
            nodes += used
            if status != kernels.FOUND:
                return RecognitionResult(status, None, nodes)
            order = [v + 1 for v in order0]
        merged.extend(back[v] for v in order)
    ordering = tuple(merged)
    _require_pass(four_point_check(g, ordering))
    return RecognitionResult("found", ordering, nodes)


@dataclass(frozen=True)
class CycleLabelReport:
    labeling: dict  # vertex -> 1..n along the cycle
    max_deviation: int
    extremes_adjacent: bool


def cycle_label_analysis(r: Realization) -> CycleLabelReport:
    """For a realization of a cycle with distinct points: walk the cycle
    from every start vertex in both directions (2n labelings), score each
    labeling by max |label - point rank|, and report a minimizer.

    Deterministic tie-break: starts in ascending vertex id, the two walk
    directions in ascending second-vertex id; first minimizer wins.
    """
    g = induced_graph(r)
    n = g.n
    if n < 3 or any(g.degree(v) != 2 for v in g.vertices()) or not g.is_connected():
        raise OrderingError("realization does not induce a cycle")

    point_order = r_order(r)
    rank = {v: i + 1 for i, v in enumerate(point_order)}
    extremes_adjacent = g.has_edge(point_order[0], point_order[-1])

    def walk(start: int, second: int):
        seq = [start, second]
        while len(seq) < n:
            a, b = seq[-2], seq[-1]
            nxt = [w for w in g.neighbors(b) if w != a]
            seq.append(nxt[0])
        return seq

    best = None
    best_labeling = None
    for start in g.vertices():
        for second in g.neighbors(start):
            seq = walk(start, second)
            labeling = {v: i + 1 for i, v in enumerate(seq)}
            dev = max(abs(labeling[v] - rank[v]) for v in g.vertices())
            if best is None or dev < best:
                best = dev
                best_labeling = labeling
    return CycleLabelReport(best_labeling, best, extremes_adjacent)
