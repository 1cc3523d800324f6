"""Corner-box and semi-square intersection models.

Both are encodings of a realization, and both are bijections:

- A d-dimensional realization maps to a product of planar corner boxes
  [p_i, R_i] x [-p_i, -L_i], one factor per dimension, whose lower-left
  corner (p_i, -p_i) sits on the diagonal x + y = 0.  Conversely every
  nonempty factor with its corner on the diagonal reads back as point
  x_lo in box [-y_hi, x_hi].
- A central one-dimensional realization maps to semi-squares, the
  lower-left isosceles halves of its corner boxes: corner p and leg
  R - p.  Conversely (p, r) reads back as point p in box [p - r, p + r].

Two corner boxes, or two semi-squares, meet iff each source box holds
the other's point, so either intersection graph is the realization's
induced graph, one line sweep; only fileio's files hold the geometry.
"""

from __future__ import annotations

from .graphs import Graph
from .realization import Realization, RealizationError, induced_graph, is_central


def corner_box_intersection_graph(r: Realization) -> Graph:
    """Closed-intersection graph of r's corner boxes; ids must be 1..n.

    Factors [p, R] x [-p, -L] and [q, S] x [-q, -M] meet iff q <= R and
    L <= q, and p <= S and M <= p: the induced graph, one line sweep,
    O(n log n + pairs)."""
    return induced_graph(r)


def require_semisquares(r: Realization) -> None:
    """Semi-squares exist for central one-dimensional realizations only."""
    if r.d != 1:
        raise RealizationError("semi-squares are defined for d = 1")
    if not is_central(r):
        raise RealizationError("semi-squares require a central realization")


def semisquare_intersection_graph(r: Realization) -> Graph:
    """Closed-intersection graph of r's semi-squares; ids must be 1..n.

    The triangles' edges lie along x, y and x + y, and the x + y ranges
    [0, leg] always overlap, so squares (p, r) and (q, s) touch iff
    |p - q| <= min(r, s): the induced graph of the central realization,
    one line sweep, O(n log n + edges)."""
    require_semisquares(r)
    return induced_graph(r)
