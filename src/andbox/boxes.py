"""Corner-box and semi-square intersection models.

A d-dimensional box-and-point realization maps to a product of planar
boxes [p_i, R_i] x [-p_i, -L_i], one planar factor per source dimension,
whose lower-left corner (p_i, -p_i) sits on the diagonal x + y = 0.  Two
such products intersect iff the source vertices are mutually contained,
so the intersection graph of the corner boxes is exactly the induced
graph, and it is computed as one: the inverse transform, then the
induced graph's line sweep.  For central one-dimensional realizations
the lower-left triangular halves (isosceles semi-squares) already carry
the same intersection graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph
from .realization import (
    Realization,
    RealizationError,
    induced_graph,
    is_central,
    line_pairs,
)


@dataclass(frozen=True)
class CornerBox:
    """One planar factor ((x_lo, x_hi), (y_lo, y_hi)) per source dimension;
    the overall region is the Cartesian product of the factors."""

    vertex: int
    factors: tuple

    @property
    def d(self) -> int:
        return len(self.factors)


def to_corner_boxes(r: Realization) -> tuple:
    """Corner boxes of a realization, one per vertex, in the realization's
    own coordinates: factor k is ((p_k, R_k), (-p_k, -L_k))."""
    return tuple(
        CornerBox(v, tuple(((p, hi), (-p, -lo)) for (lo, hi), p in zip(box, point)))
        for v, box, point in r.items()
    )


def check_corner_box(cb: CornerBox) -> None:
    for (x_lo, x_hi), (y_lo, y_hi) in cb.factors:
        if x_lo > x_hi or y_lo > y_hi:
            raise RealizationError(f"vertex {cb.vertex}: empty planar factor")
        if x_lo + y_lo != 0:
            raise RealizationError(
                f"vertex {cb.vertex}: corner ({x_lo},{y_lo}) off the diagonal"
            )


def corner_box_intersection_graph(boxes) -> Graph:
    """Closed-intersection graph of corner boxes; ids must be 1..n.

    Factors [p, R] x [-p, -L] and [q, S] x [-q, -M] with corners on the
    diagonal meet iff q <= R and L <= q, and p <= S and M <= p: each box
    holds the other's point.  So the graph is the induced graph of the
    inverse realization, one line sweep, O(n log n + pairs); boxes off
    the diagonal raise RealizationError."""
    return induced_graph(corner_boxes_to_realization(boxes))


def corner_boxes_to_realization(boxes) -> Realization:
    """Inverse transform: p from the corner, R from the x-extent, L from
    the negated y-extent; the round trip from to_corner_boxes is the
    identity."""
    bs = tuple(boxes)
    if not bs:
        raise RealizationError("no corner boxes given")
    d = bs[0].d
    items = {}
    for cb in bs:
        if cb.d != d:
            raise RealizationError("corner boxes disagree on dimension")
        check_corner_box(cb)
        if cb.vertex in items:
            raise RealizationError(f"corner box id {cb.vertex} repeats")
        box = tuple((-y_hi, x_hi) for (x_lo, x_hi), (y_lo, y_hi) in cb.factors)
        point = tuple(x_lo for (x_lo, x_hi), _ in cb.factors)
        items[cb.vertex] = (box, point)
    return Realization.build(d, items)


@dataclass(frozen=True)
class SemiSquare:
    """Lower-left triangular half of a planar corner box with equal legs:
    vertices (corner, -corner), (corner+leg, -corner), (corner, -corner+leg).
    A negative leg would flip the triangle and is rejected.
    """

    vertex: int
    corner: Fraction
    leg: Fraction

    def __post_init__(self):
        if self.leg < 0:
            raise RealizationError(f"vertex {self.vertex}: negative leg {self.leg}")

    def triangle(self):
        p, r = self.corner, self.leg
        return ((p, -p), (p + r, -p), (p, -p + r))


def to_semisquares(r: Realization) -> tuple:
    """Semi-squares of a central one-dimensional realization, in its own
    coordinates: vertex v gets corner p_v and leg R_v - p_v."""
    if r.d != 1:
        raise RealizationError("semi-squares are defined for d = 1")
    if not is_central(r):
        raise RealizationError("semi-squares require a central realization")
    return tuple(SemiSquare(v, pt[0], box[0][1] - pt[0]) for v, box, pt in r.items())


def semisquare_intersection_graph(squares) -> Graph:
    """Closed-intersection graph of semi-squares; ids must be 1..n.

    The triangles' edges lie along x, y and x + y, and the x + y ranges
    [0, leg] always overlap, so squares (p, r) and (q, s) touch iff
    |p - q| <= min(r, s): exactly the pairs of one line sweep with reach
    [p - r, p + r] around key p; O(n log n + edges)."""
    ts = tuple(squares)
    if not ts:
        raise RealizationError("no semi-squares given")
    ids = sorted(t.vertex for t in ts)
    if ids != list(range(1, len(ts) + 1)):
        raise RealizationError("semi-square ids must be 1..n")
    pairs = line_pairs(
        [t.corner for t in ts],
        [t.corner + t.leg for t in ts],
        [t.corner - t.leg for t in ts],
    )
    return Graph.from_edges(len(ts), [(ts[i].vertex, ts[j].vertex) for i, j in pairs])
