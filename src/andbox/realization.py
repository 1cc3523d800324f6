"""Box-and-representative-point realizations on one integer lattice.

A realization assigns every vertex a d-dimensional closed box (product of
closed intervals) plus a representative point inside it.  Two vertices are
adjacent in the induced graph iff each box contains the other vertex's
point.  "Central" means every point is exactly its box's center.

Only whether points lie in boxes matters, and any positive scaling keeps
that, so a realization holds every coordinate as an int numerator over
one shared denominator den: the least positive integer that makes every
coordinate whole.  That den is canonical, so equal realizations compare
equal.  Every decision (containment, centrality, the sweeps) compares
ints, exactly and with no floats anywhere.  The accessors box, point,
interval, coordinate, items and line_items hand out exact Fractions, and
build takes ints and Fractions back.  Inside the package only
cand1_recognize's side-by-side layout of components reads them; the
constructions, the file formats and the SVG work on the numerators, and
the Fraction form serves callers outside the package and the tests.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

from .graphs import Graph, _bits


class RealizationError(ValueError):
    pass


class TiedPointsError(RealizationError):
    pass


_SEQ = (tuple, list)


@dataclass(frozen=True)
class Realization:
    """dimension d; per vertex: box = tuple of (L, R) per dimension,
    point = tuple of coordinates per dimension, every coordinate an int
    numerator over den.  Vertex ids are positive integers, not necessarily
    contiguous (constructors relabel as needed)."""

    d: int
    ids: tuple  # sorted vertex ids
    den: int  # the least positive common denominator of every coordinate
    boxes: tuple  # boxes[i][k] = (L, R) numerators for ids[i], dimension k
    points: tuple  # points[i][k], numerators

    @staticmethod
    def build(d: int, items: dict) -> "Realization":
        """items: id -> (box, point) with box a sequence of (L, R) pairs and
        point a sequence of coordinates, each an int or a Fraction; for
        d = 1 the box may be a bare (L, R) pair and the point a bare
        number."""
        if d < 1:
            raise RealizationError("dimension must be >= 1")
        ids = tuple(sorted(items))
        # bool is an int subclass, but True would be written as "True"
        if any(isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in ids):
            raise RealizationError("vertex ids must be positive integers")
        flat = []  # per vertex: L and R of each dimension, then the point
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
            for side in box:
                flat += side
            flat += point
        for t in set(map(type, flat)) - {int, Fraction}:
            # a float or bool would enter the lattice as a silent binary
            # fraction or as "True"
            if issubclass(t, bool) or not issubclass(t, (int, Fraction)):
                i = next(i for i, c in enumerate(flat) if type(c) is t)
                raise RealizationError(
                    f"vertex {ids[i // (3 * d)]}: coordinate {flat[i]!r}"
                    " is not an int or a Fraction"
                )
        dens = {c.denominator for c in flat}
        den = lcm(*dens)
        scale = {q: den // q for q in dens}
        whole = [c.numerator * scale[c.denominator] for c in flat]
        # dimension k of every vertex: L, R and the point, a stride apart
        step = 3 * d
        boxes = zip(*(zip(whole[2 * k :: step], whole[2 * k + 1 :: step]) for k in range(d)))
        points = zip(*(whole[2 * d + k :: step] for k in range(d)))
        return Realization._checked(d, ids, den, tuple(boxes), tuple(points))

    @staticmethod
    def _checked(d: int, ids: tuple, den: int, boxes: tuple, points: tuple) -> "Realization":
        """The realization of these fields once every point lies in its
        box.  The caller has met the rest of build's contract: ids sorted
        positive ints, den the least positive common denominator, each box
        a tuple of d (L, R) pairs and each point a tuple of d coordinates,
        all int numerators over den.  build, the file loaders and the
        integer constructions all end here, so each coordinate is checked
        once."""
        for v, box, point in zip(ids, boxes, points):
            for (lo, hi), p in zip(box, point):
                if not lo <= p <= hi:
                    raise RealizationError(
                        f"vertex {v}: point {Fraction(p, den)} outside box"
                        f" [{Fraction(lo, den)},{Fraction(hi, den)}]"
                    )
        return Realization(d, ids, den, boxes, points)

    @property
    def n(self) -> int:
        return len(self.ids)

    def index(self, v: int) -> int:
        i = bisect_left(self.ids, v)
        if i == len(self.ids) or self.ids[i] != v:
            raise RealizationError(f"unknown vertex {v}")
        return i

    def box(self, v: int):
        den = self.den
        return tuple((Fraction(lo, den), Fraction(hi, den)) for lo, hi in self.boxes[self.index(v)])

    def point(self, v: int):
        den = self.den
        return tuple(Fraction(p, den) for p in self.points[self.index(v)])

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
        den = self.den
        for v, box, point in zip(self.ids, self.boxes, self.points):
            yield (
                v,
                tuple((Fraction(lo, den), Fraction(hi, den)) for lo, hi in box),
                tuple(Fraction(p, den) for p in point),
            )


def _lowest(d: int, ids: tuple, den: int, boxes: tuple, points: tuple) -> Realization:
    """_checked of these fields after den and every numerator are divided
    by their greatest common divisor, which makes den the least one."""
    g = gcd(den, *(c for box in boxes for side in box for c in side), *(c for pt in points for c in pt))
    if g > 1:
        den //= g
        boxes = tuple(tuple((lo // g, hi // g) for lo, hi in box) for box in boxes)
        points = tuple(tuple(p // g for p in pt) for pt in points)
    return Realization._checked(d, ids, den, boxes, points)


def _contains(box, point) -> bool:
    return all(lo <= p <= hi for (lo, hi), p in zip(box, point))


def line_pairs(keys, right, left=None):
    """Index pairs (i, j) with (keys[i], i) < (keys[j], j), keys[j] <= right[i]
    and, when left is given, left[j] <= keys[i].  One sweep in key order, O(n log n
    + pairs): from bisect(left[j]) on, each live earlier rank pairs with j or, as
    keys[j] has passed its right end, dies; a path-halved next-live array skips it.
    The values are compared as given; realizations pass their int numerators."""
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


def _index_pairs(r: Realization):
    """Index pairs (i, j), each adjacent pair once in one of its orders.
    A line sweep gives the pairs of dimension 1 (exact, as every point lies
    in its own box), which are the answer when d = 1; other dimensions are
    tested per pair: O(n log n + pairs)."""
    pairs = line_pairs(
        [p[0] for p in r.points], [b[0][1] for b in r.boxes], [b[0][0] for b in r.boxes]
    )
    if r.d == 1:
        return pairs
    return (
        (i, j)
        for i, j in pairs
        if _contains(r.boxes[i][1:], r.points[j][1:])
        and _contains(r.boxes[j][1:], r.points[i][1:])
    )


def adjacency_pairs(r: Realization):
    """Set of (u, v) pairs (u < v) adjacent by mutual containment.
    Works for any id set; induced_graph adds the 1..n contract."""
    ids = r.ids
    return {(ids[i], ids[j]) if i < j else (ids[j], ids[i]) for i, j in _index_pairs(r)}


def _induced_masks(r: Realization) -> list:
    """The induced graph's adjacency bitmasks in Graph's format, read as
    row i for ids[i] and bit j for ids[j]."""
    masks = [0] * r.n
    for i, j in _index_pairs(r):
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


def induced_graph(r: Realization) -> Graph:
    if r.ids != tuple(range(1, r.n + 1)):
        raise RealizationError("induced_graph expects vertex ids 1..n")
    return Graph(r.n, tuple(_induced_masks(r)))


@dataclass(frozen=True)
class VerifyReport:
    missing_edges: tuple  # in graph, not induced
    extra_edges: tuple  # induced, not in graph

    @property
    def ok(self) -> bool:
        return not self.missing_edges and not self.extra_edges


def verify(r: Realization, g: Graph) -> VerifyReport:
    """The edges of g the realization misses and those it adds, each
    sorted: row u of the induced masks XOR g's row u, read above bit u."""
    if r.ids != tuple(g.vertices()):
        raise RealizationError("realization and graph vertex sets differ")
    missing, extra = [], []
    for u, (row, mask) in enumerate(zip(_induced_masks(r), g.masks), 1):
        diff = (row ^ mask) >> u
        if diff:
            missing += [(u, v) for v in _bits(diff & mask >> u, u)]
            extra += [(u, v) for v in _bits(diff & row >> u, u)]
    return VerifyReport(tuple(missing), tuple(extra))


def is_central(r: Realization) -> bool:
    return all(
        lo + hi == 2 * p
        for box, point in zip(r.boxes, r.points)
        for (lo, hi), p in zip(box, point)
    )


def central_realization(order, lo, hi, gaps) -> Realization:
    """The central realization with point order `order` (positive ids),
    first point 0 and gaps[t - 1] = p_{t+1} - p_t (ints or Fractions).
    Each radius is its vertex's farthest-neighbour distance, read off the
    rank bounds lo and hi of graphs.rank_bounds; an isolated vertex gets
    half the distance to its nearest point, or 1 when it is alone.

    The sums run in integers over den, twice the gaps' least common
    denominator, so every half gap is whole too, and the lattice is then
    reduced to its least den."""
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
        boxes.append(((pk - r, pk + r),))
        points.append((pk,))
    return _lowest(1, ids, den, tuple(boxes), tuple(points))


def r_order(r: Realization):
    """Vertex ids sorted by representative point (d = 1)."""
    if r.d != 1:
        raise RealizationError("r_order is defined for d = 1")
    pts = {}
    for v, point in zip(r.ids, r.points):
        p = point[0]
        if p in pts:
            raise TiedPointsError(
                f"vertices {pts[p]} and {v} share point {Fraction(p, r.den)}; "
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
    a central input stays central.  Both moves are whole on the lattice
    refined 8 (n + 1) times.
    """
    if r.d != 1:
        raise RealizationError("make_points_distinct is defined for d = 1")
    values = [p[0] for p in r.points]
    if len(set(values)) == len(values):
        return r

    coords = sorted({c for box in r.boxes for c in box[0]} | set(values))
    # all coordinates equal: nothing to collide with, and gap is 1
    gap = min((b - a for a, b in zip(coords, coords[1:])), default=r.den)
    fine = 8 * (r.n + 1)
    widen = 2 * (r.n + 1) * gap  # gap / 4 on the refined lattice
    groups = {}
    for v, p in zip(r.ids, values):
        groups.setdefault(p, []).append(v)
    shift = {}
    for members in groups.values():
        for k, v in enumerate(members):  # ids ascend within each group
            shift[v] = k * gap
    boxes, points = [], []
    for v, box, p in zip(r.ids, r.boxes, values):
        lo, hi = box[0]
        s = shift[v]
        boxes.append(((lo * fine - widen + s, hi * fine + widen + s),))
        points.append((p * fine + s,))
    return _lowest(1, r.ids, r.den * fine, tuple(boxes), tuple(points))


def is_safe(r: Realization, v: int) -> bool:
    """True iff p_v lies only in boxes of v itself and of v's neighbors in
    the induced graph (d = 1)."""
    if r.d != 1:
        raise RealizationError("is_safe is defined for d = 1")
    return safe_in({u: (box[0], p[0]) for u, box, p in zip(r.ids, r.boxes, r.points)}, v)


def safe_in(items: dict, v: int) -> bool:
    """is_safe over items {id: ((L, R), p)}, the form Realization.build
    takes for d = 1, or the same over a realization's numerators."""
    if v not in items:
        raise RealizationError(f"unknown vertex {v}")
    (lo, hi), p = items[v]
    # a box holding p_v belongs to a neighbour iff v's box holds its point
    return all(
        u == v or not l <= p <= h or lo <= q <= hi for u, ((l, h), q) in items.items()
    )


def relabel(r: Realization, mapping: dict) -> Realization:
    """New realization with ids mapping[v]; mapping must be injective.
    The numerators and den are kept, and the rows are reordered by new id."""
    if len(set(mapping.values())) != len(mapping):
        raise RealizationError("relabel mapping must be injective")
    missing = [v for v in r.ids if v not in mapping]
    if missing:
        raise RealizationError(f"relabel mapping misses vertices {missing}")
    new = [mapping[v] for v in r.ids]
    if any(isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in new):
        raise RealizationError("vertex ids must be positive integers")
    rows = sorted(range(r.n), key=new.__getitem__)
    return Realization._checked(
        r.d,
        tuple(new[i] for i in rows),
        r.den,
        tuple(r.boxes[i] for i in rows),
        tuple(r.points[i] for i in rows),
    )
