"""Box-and-representative-point realizations with exact rational coordinates.

A realization assigns every vertex a d-dimensional closed box (product of
closed intervals) plus a representative point inside it.  Two vertices are
adjacent in the induced graph iff each box contains the other vertex's
point.  "Central" means every point is exactly its box's center.

Coordinates are Fractions and every decision is exact, with no floats
anywhere.  Comparisons avoid the Fraction operators: containment and
centrality are integer cross-products of numerators and denominators,
and sorts and sweeps compare exact_key tuples, whose leading int decides
all but near-ties.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm

from .graphs import Graph


class RealizationError(ValueError):
    pass


class TiedPointsError(RealizationError):
    pass


_SEQ = (tuple, list)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def exact_key(x):
    """Sort key ordered exactly like the rational x: floor(x * 2**64), an
    int compared in C, then x itself, compared only when the ints tie (the
    values differ by less than 2**-64).  Unlike float(x) it never
    overflows or rounds two values together."""
    return ((x.numerator << 64) // x.denominator, x)


@dataclass(frozen=True)
class Realization:
    """dimension d; per vertex: box = tuple of (L, R) per dimension,
    point = tuple of rationals per dimension.  Vertex ids are positive
    integers, not necessarily contiguous (constructors relabel as needed)."""

    d: int
    ids: tuple  # sorted vertex ids
    boxes: tuple  # boxes[i][k] = (L, R) for ids[i], dimension k
    points: tuple  # points[i][k]

    @staticmethod
    def build(d: int, items: dict) -> "Realization":
        """items: id -> (box, point) with box a sequence of (L, R) pairs and
        point a sequence of coordinates; for d = 1 the box may be a bare
        (L, R) pair and the point a bare number."""
        if d < 1:
            raise RealizationError("dimension must be >= 1")
        ids = tuple(sorted(items))
        # bool is an int subclass, but True would be written as "True"
        if any(isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in ids):
            raise RealizationError("vertex ids must be positive integers")
        boxes = []
        points = []
        for v in ids:
            box, point = items[v]
            if d == 1:
                if isinstance(box, _SEQ) and box and not isinstance(box[0], _SEQ):
                    box = (box,)
                if not isinstance(point, _SEQ):
                    point = (point,)
            if not (
                isinstance(box, _SEQ)
                and isinstance(point, _SEQ)
                and len(box) == d == len(point)
                and all(isinstance(side, _SEQ) and len(side) == 2 for side in box)
            ):
                raise RealizationError(f"vertex {v}: wrong arity for d={d}")
            boxes.append(tuple([(_frac(lo), _frac(hi)) for lo, hi in box]))
            points.append(tuple([_frac(p) for p in point]))
        return Realization._checked(d, ids, tuple(boxes), tuple(points))

    @staticmethod
    def _checked(d: int, ids: tuple, boxes: tuple, points: tuple) -> "Realization":
        """The realization of these fields once every point lies in its
        box.  The caller has met the rest of build's contract: ids sorted
        positive ints, each box a tuple of d (L, R) pairs and each point a
        tuple of d coordinates, all Fractions.  build and the file loaders
        both end here, so each coordinate is checked once."""
        for v, box, point in zip(ids, boxes, points):
            for (lo, hi), p in zip(box, point):
                # lo <= p <= hi over positive denominators
                pn, pd = p.numerator, p.denominator
                if not (
                    lo.numerator * pd <= pn * lo.denominator
                    and pn * hi.denominator <= hi.numerator * pd
                ):
                    raise RealizationError(
                        f"vertex {v}: point {p} outside box [{lo},{hi}]"
                    )
        return Realization(d, ids, boxes, points)

    @property
    def n(self) -> int:
        return len(self.ids)

    def index(self, v: int) -> int:
        i = bisect_left(self.ids, v)
        if i == len(self.ids) or self.ids[i] != v:
            raise RealizationError(f"unknown vertex {v}")
        return i

    def box(self, v: int):
        return self.boxes[self.index(v)]

    def point(self, v: int):
        return self.points[self.index(v)]

    def interval(self, v: int):
        """d = 1 convenience: the (L, R) pair."""
        return self.box(v)[0]

    def coordinate(self, v: int) -> Fraction:
        """d = 1 convenience: the representative point."""
        return self.point(v)[0]

    def line_items(self) -> dict:
        """d = 1 convenience: items {id: ((L, R), p)}, which build takes back."""
        return {v: (box[0], pt[0]) for v, box, pt in self.items()}

    def items(self):
        for i, v in enumerate(self.ids):
            yield v, self.boxes[i], self.points[i]


def _contains(box, point) -> bool:
    return all(lo <= p <= hi for (lo, hi), p in zip(box, point))


def line_pairs(keys, right, left=None):
    """Index pairs (i, j) with (keys[i], i) < (keys[j], j), keys[j] <= right[i]
    and, when left is given, left[j] <= keys[i].  One sweep in key order, O(n log n
    + pairs): from bisect(left[j]) on, each live earlier rank pairs with j or, as
    keys[j] has passed its right end, dies; a path-halved next-live array skips it.
    Every value is mapped through exact_key once, so the sweep compares ints."""
    keys = [exact_key(x) for x in keys]
    right = [exact_key(x) for x in right]
    if left is not None:
        left = [exact_key(x) for x in left]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ks = [keys[i] for i in order]
    nxt = list(range(len(ks) + 1))  # nxt[s] == s iff rank s is live
    for t, j in enumerate(order):
        s = 0 if left is None else bisect_left(ks, left[j], 0, t)
        while True:
            while nxt[s] != s:
                nxt[s] = s = nxt[nxt[s]]
            if s >= t:
                break
            if right[order[s]] < ks[t]:
                nxt[s] = s + 1
            else:
                yield order[s], j
            s += 1


def adjacency_pairs(r: Realization):
    """Set of (u, v) pairs (u < v) adjacent by mutual containment.
    Works for any id set; induced_graph adds the 1..n contract.  A line sweep
    gives the pairs of dimension 1 (exact, as every point lies in its own
    box), which are the answer when d = 1; other dimensions are tested per
    pair: O(n log n + pairs)."""
    pairs = line_pairs(
        [p[0] for p in r.points], [b[0][1] for b in r.boxes], [b[0][0] for b in r.boxes]
    )
    ids = r.ids
    if r.d == 1:
        return {(ids[i], ids[j]) if i < j else (ids[j], ids[i]) for i, j in pairs}
    return {
        (ids[min(i, j)], ids[max(i, j)])
        for i, j in pairs
        if _contains(r.boxes[i][1:], r.points[j][1:])
        and _contains(r.boxes[j][1:], r.points[i][1:])
    }


def induced_graph(r: Realization) -> Graph:
    if r.ids != tuple(range(1, r.n + 1)):
        raise RealizationError("induced_graph expects vertex ids 1..n")
    return Graph.from_edges(r.n, sorted(adjacency_pairs(r)))


@dataclass(frozen=True)
class VerifyReport:
    missing_edges: tuple  # in graph, not induced
    extra_edges: tuple  # induced, not in graph

    @property
    def ok(self) -> bool:
        return not self.missing_edges and not self.extra_edges


def verify(r: Realization, g: Graph) -> VerifyReport:
    if set(r.ids) != set(g.vertices()):
        raise RealizationError("realization and graph vertex sets differ")
    induced = adjacency_pairs(r)
    extra = tuple(sorted(e for e in induced if not g.has_edge(*e)))
    missing = ()
    if len(induced) - len(extra) < g.m:  # some edge of g is not induced
        missing = tuple(e for e in g.edge_list() if e not in induced)
    return VerifyReport(missing, extra)


def is_central(r: Realization) -> bool:
    for box, point in zip(r.boxes, r.points):
        for (lo, hi), p in zip(box, point):
            # lo + hi == 2p over the positive denominators a, b and d
            a, b, d = lo.denominator, hi.denominator, p.denominator
            if (lo.numerator * b + hi.numerator * a) * d != 2 * p.numerator * a * b:
                return False
    return True


def central_realization(order, lo, hi, gaps) -> Realization:
    """The central realization with point order `order` (positive ids),
    first point 0 and gaps[t - 1] = p_{t+1} - p_t (ints or Fractions).
    Each radius is its vertex's farthest-neighbour distance, read off the
    rank bounds lo and hi of orders.rank_bounds; an isolated vertex gets
    half the distance to its nearest point, or 1 when it is alone.

    The sums run in integers over den, twice the gaps' least common
    denominator, so every half gap is whole too; each coordinate becomes a
    Fraction once, at the end."""
    den = 2 * lcm(*(x.denominator for x in gaps))
    steps = [x.numerator * (den // x.denominator) for x in gaps]
    p = [0, *accumulate(steps)]
    spans = {}
    for k, (v, l, h) in enumerate(zip(order, lo, hi), 1):
        pk = p[k - 1]
        r = max(pk - p[l - 1], p[h - 1] - pk)
        if not r:
            r = min(steps[max(k - 2, 0):k], default=2 * den) // 2
        spans[v] = (pk, r)
    ids = tuple(sorted(spans))
    boxes, points = [], []
    for v in ids:
        pk, r = spans[v]
        boxes.append(((Fraction(pk - r, den), Fraction(pk + r, den)),))
        points.append((Fraction(pk, den),))
    return Realization._checked(1, ids, tuple(boxes), tuple(points))


def r_order(r: Realization):
    """Vertex ids sorted by representative point (d = 1)."""
    if r.d != 1:
        raise RealizationError("r_order is defined for d = 1")
    pts = {}
    for v, _, point in r.items():
        p = point[0]
        if p in pts:
            raise TiedPointsError(
                f"vertices {pts[p]} and {v} share point {p}; "
                "apply make_points_distinct first"
            )
        pts[p] = v
    return tuple(v for _, v in sorted(pts.items()))


def make_points_distinct(r: Realization) -> Realization:
    """Separate tied representative points without changing the induced
    graph (d = 1).

    If points already differ the input is returned untouched.  Otherwise
    every box is first widened symmetrically by gap/4 (gap = smallest
    positive difference among all endpoint/point coordinates), which gives
    every edge's containments slack without creating containments, and then
    the k-th member of each tie group (ascending id) is shifted rigidly by
    k * gap / (8 * (n + 1)).  Widening is symmetric and shifts are rigid, so
    a central input stays central.
    """
    if r.d != 1:
        raise RealizationError("make_points_distinct is defined for d = 1")
    values = [p[0] for p in r.points]
    if len(set(values)) == len(values):
        return r

    coords = sorted(
        {c for box in r.boxes for c in box[0]} | {p[0] for p in r.points}
    )
    gap = None
    for a, b in zip(coords, coords[1:]):
        if b - a > 0 and (gap is None or b - a < gap):
            gap = b - a
    if gap is None:
        gap = Fraction(1)  # all coordinates equal; nothing to collide with

    widen = gap / 4
    step = gap / (8 * (r.n + 1))
    groups = {}
    for i, v in enumerate(r.ids):
        groups.setdefault(r.points[i][0], []).append(v)
    shift = {}
    for p in groups:
        members = sorted(groups[p])
        if len(members) == 1:
            shift[members[0]] = Fraction(0)
        else:
            for k, v in enumerate(members):
                shift[v] = k * step

    items = {}
    for v, box, point in r.items():
        (lo, hi) = box[0]
        s = shift[v]
        items[v] = ((lo - widen + s, hi + widen + s), point[0] + s)
    return Realization.build(1, items)


def is_safe(r: Realization, v: int) -> bool:
    """True iff p_v lies only in boxes of v itself and of v's neighbors in
    the induced graph (d = 1)."""
    if r.d != 1:
        raise RealizationError("is_safe is defined for d = 1")
    return safe_in(r.line_items(), v)


def safe_in(items: dict, v: int) -> bool:
    """is_safe over items {id: ((L, R), p)}, the form Realization.build
    takes for d = 1."""
    if v not in items:
        raise RealizationError(f"unknown vertex {v}")
    (lo, hi), p = items[v]
    # a box holding p_v belongs to a neighbour iff v's box holds its point
    return all(
        u == v or not l <= p <= h or lo <= q <= hi for u, ((l, h), q) in items.items()
    )


def relabel(r: Realization, mapping: dict) -> Realization:
    """New realization with ids mapping[v]; mapping must be injective."""
    if len(set(mapping.values())) != len(mapping):
        raise RealizationError("relabel mapping must be injective")
    missing = [v for v in r.ids if v not in mapping]
    if missing:
        raise RealizationError(f"relabel mapping misses vertices {missing}")
    items = {mapping[v]: (box, point) for v, box, point in r.items()}
    return Realization.build(r.d, items)
