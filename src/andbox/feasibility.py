"""Exact Fourier-Motzkin feasibility and central-realization search.

For central boxes B_v = [p_v - r_v, p_v + r_v] mutual containment reduces
to a min of radii: p_u is in B_v iff |p_u - p_v| <= r_v, so u and v are
adjacent iff |p_u - p_v| <= min(r_u, r_v).  With the point order fixed,
every edge needs r_v at least the distance to each neighbour of v and a
smaller radius can only help a non-edge, so each radius is set in closed
form to its vertex's farthest-neighbour distance (an isolated vertex gets
half the distance to its nearest point).  What remains is a system over
the n - 1 gaps g_t = p_{t+1} - p_t > 0 between consecutive points.

A non-edge at ranks i < j picks a side s in {i, j} whose radius
p_j - p_i must exceed.  Side i is blocked when i has a neighbour ranked
after j, since that neighbour is farther from i than j is; a neighbour
between i and j is closer anyway; a neighbour left of i adds one strict
constraint with +-1 coefficients: the span from i's leftmost neighbour
to i is shorter than the span from i to j.  Side j mirrors this.  A
non-edge with a side that needs no constraint is dropped, one with a
single possible side is forced into the base system, and one with both
sides blocked is a four point violation, which makes the order
infeasible without any solve.  Only the remaining two-option non-edges
are split case by case.

Feasibility is decided by one Fourier-Motzkin elimination over integer
cone rows c . x <= 0 or c . x < 0, each divided by the gcd of its entries;
a derived row is strict iff any parent is, and the system is infeasible
iff a strict zero row appears (Gordan's theorem for the all-strict gap
systems, which are cones already).  The core is internal: it takes only
integer cone rows, and the gap search hands it its rows as they are.
Witnesses come from back-substitution, taking midpoints of residual
intervals; it runs in integers, keeping the witness as x / scale with a
running integer scale.  No floats, no tolerances.

cand1_recognize searches only components that the constructions of
andbox.constructors cannot realize: interval graphs (read off a LexBFS
sweep) and graphs whose blocks are cliques or outerplanar are central by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf
from operator import mul

from . import kernels
from .constructors import blockwise_cand1, umbrella_free_cand1
from .graphs import Graph
from .orders import (
    DEFAULT_NODE_BUDGET,
    _require_nonnegative,
    _sweep_orders,
    rank_bounds,
)
# four_point_check is no longer called here but stays importable from this
# module: perfbench/tests/test_tracing.py checks that tracing rebinds it.
from .orders import four_point_check  # noqa: F401
from .realization import central_realization, is_central, r_order, verify


def _add_rows(rows, into) -> bool:
    """Merge integer rows (coeffs, strict) into the dict into, each divided
    by the gcd of its entries; a repeated direction is strict if any copy
    is.  Zero rows are dropped; False when one of them is strict."""
    for coeffs, strict in rows:
        d = gcd(*coeffs)
        if not d:
            if strict:
                return False
            continue
        if d != 1:
            coeffs = tuple(a // d for a in coeffs)
        into[coeffs] = strict or into.get(coeffs, False)
    return True


def _eliminate(rows, nvars, cap=inf):
    """Fourier-Motzkin elimination over integer cone rows, last variable
    first.  A row (coeffs, strict) means coeffs . x <= 0, or < 0 when
    strict.

    Returns (layers, pairs).  layers is None iff a strict zero row appears
    (the system is infeasible), else one layer (var, pos, neg) per
    eliminated variable: the rows that bound it from above and from below.
    pairs sums len(pos) * len(neg), the rows derived, over the variables
    eliminated; a variable that would take it past cap is not eliminated,
    and the layers stop short of nvars.
    """
    cur = {}
    if not _add_rows(rows, cur):
        return None, 0
    layers = []
    pairs = 0
    for var in range(nvars - 1, -1, -1):
        pos, neg, rest = [], [], {}
        for coeffs, strict in cur.items():
            a = coeffs[var]
            if a > 0:
                pos.append((coeffs, strict))
            elif a < 0:
                neg.append((coeffs, strict))
            else:
                rest[coeffs] = strict
        if pairs + len(pos) * len(neg) > cap:
            break
        pairs += len(pos) * len(neg)
        layers.append((var, pos, neg))
        derived = (
            (tuple(-q[var] * x + p[var] * y for x, y in zip(p, q)), ps or qs)
            for p, ps in pos
            for q, qs in neg
        )
        if not _add_rows(derived, rest):
            return None, pairs
        cur = rest
    return layers, pairs


def _back_substitute(layers):
    """A witness from the layers of a feasible elimination: each variable
    takes the midpoint of its residual interval, bound -/+ 1 when only one
    side is bounded, 0 when unconstrained.

    The witness is kept in integers as x / scale.  A row a*v + c . x <= 0
    bounds v by -(c . x) / a in units of 1 / scale: above when a > 0.
    Each bound is a pair (num, den) with den > 0, compared by
    cross-multiplication; a value with a new denominator multiplies x and
    scale by it, and the gcd of scale and x is divided out after each
    variable."""
    x = [0] * len(layers)
    scale = 1
    for var, pos, neg in reversed(layers):
        head = x[:var]  # the variables set so far; the rest are still 0
        hi = lo = None
        for coeffs, _ in pos:
            num, den = -sum(map(mul, coeffs, head)), coeffs[var]
            if hi is None or num * hi[1] < hi[0] * den:
                hi = (num, den)
        for coeffs, _ in neg:
            num, den = sum(map(mul, coeffs, head)), -coeffs[var]
            if lo is None or num * lo[1] > lo[0] * den:
                lo = (num, den)
        if lo is not None and hi is not None:
            num, den = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
        elif lo is not None:
            num, den = lo[0] + scale * lo[1], lo[1]
        elif hi is not None:
            num, den = hi[0] - scale * hi[1], hi[1]
        else:
            continue
        d = gcd(num, den)
        if den != d:
            den //= d
            x = [v * den for v in x]
            scale *= den
        x[var] = num // d
        d = gcd(scale, *x)
        if d != 1:
            x = [v // d for v in x]
            scale //= d
    return [Fraction(v, scale) for v in x]


@dataclass(frozen=True)
class CentralSearchResult:
    status: str  # "found" | "infeasible" | "exhausted"
    realization: object  # Realization when found, else None
    cases_solved: int
    work: int  # one per solve plus the pairs its eliminations derive

    @property
    def found(self) -> bool:
        return self.status == "found"


def _shorter_than(n, inner, outer):
    """The cone row span(inner) - span(outer) < 0 over the gaps
    g_1..g_{n-1}, where span((a, b)) = p_b - p_a is the sum of the gaps
    g_a..g_{b-1} and g_t = p_{t+1} - p_t joins ranks t and t+1."""
    c = [0] * (n - 1)
    for t in range(*inner):
        c[t - 1] = 1
    for t in range(*outer):
        c[t - 1] = -1
    return (tuple(c), True)


def _gap_cases(rows, lo, hi):
    """(base, split) cone rows over the gaps of an order with rank view
    rows, lo, hi, or None when a non-edge has both sides blocked (the
    order fails the four point check).

    base holds g_t > 0 and the row of every non-edge with one possible
    side; split lists, in order of increasing rank distance, the two side
    rows of every remaining non-edge.  A non-edge with a side that needs
    no constraint is dropped.
    """
    n = len(rows)
    base = [_shorter_than(n, (t, t), (t, t + 1)) for t in range(1, n)]  # 0 < g_t
    split = []
    for d in range(1, n):
        for i in range(1, n - d + 1):
            j = i + d
            if rows[i - 1] >> (j - 1) & 1:
                continue
            sides = []
            if hi[i - 1] < j:  # side i open: no neighbour of i at or past rank j
                if lo[i - 1] == i:  # nor before rank i: side i is free
                    continue
                sides.append(_shorter_than(n, (lo[i - 1], i), (i, j)))
            if lo[j - 1] > i:  # side j open: no neighbour of j at or before rank i
                if hi[j - 1] == j:  # nor after rank j: side j is free
                    continue
                sides.append(_shorter_than(n, (j, hi[j - 1]), (i, j)))
            if not sides:
                return None
            if len(sides) == 1:
                base.extend(sides)
            else:
                split.append(sides)
    return base, split


def cand1_for_ordering(
    g: Graph, order, budget: int = DEFAULT_NODE_BUDGET
) -> CentralSearchResult:
    """Decide whether a central realization exists whose point order is
    order, a sequence of vertex ids.

    The system is over the n - 1 gaps between consecutive points, with
    every radius fixed to its vertex's farthest-neighbour distance.  An
    order failing the four point check is infeasible with no solve.
    Two-option non-edges are resolved by depth-first case enumeration in
    order of increasing rank distance; every explored node costs one
    elimination run, infeasible partial systems prune their subtree, and
    only the case found is back-substituted.

    The budget bounds the Fourier-Motzkin work: each solve costs one unit
    plus len(pos) * len(neg) for every variable it eliminates, and a
    variable whose pairs would take the work past the budget is not
    eliminated; the search is then "exhausted".  The result reports the
    work spent, never more than the budget.  A negative budget raises
    OrderingError.
    """
    _require_nonnegative(budget)
    n = g.n
    _, lo, hi = view = rank_bounds(g, order)
    cases = _gap_cases(*view)
    if cases is None:
        return CentralSearchResult("infeasible", None, 0, 0)
    base, split = cases
    solved = work = 0
    # preorder over the case tree on an explicit stack: its depth is the
    # number of two-option non-edges, unbounded by the recursion limit
    stack = [(0, base)]
    while stack:
        k, rows = stack.pop()
        if work >= budget:
            return CentralSearchResult("exhausted", None, solved, work)
        solved += 1
        layers, pairs = _eliminate(rows, n - 1, budget - work - 1)
        work += 1 + pairs
        if layers is None:
            continue
        if len(layers) < n - 1:
            return CentralSearchResult("exhausted", None, solved, work)
        if k == len(split):
            break
        stack.extend((k + 1, rows + [side]) for side in reversed(split[k]))
    else:  # the stack ran dry: no full case is feasible
        return CentralSearchResult("infeasible", None, solved, work)
    r = central_realization(order, lo, hi, _back_substitute(layers))
    return CentralSearchResult("found", r, solved, work)


def _interval_certificate(g: Graph):
    """The interval construction's realization of the connected graph g,
    or None.

    A candidate of _sweep_orders is umbrella-free when each rank's later
    neighbours are exactly the ranks right after it, that is when its row
    above its own bit is a block of low bits; the spans [rank k, hi_k] are
    then an interval model of g (Olariu 1991) in that order, and
    umbrella_free_cand1 runs interval_to_cand1's gap sweep on it.  An
    interval graph the sweeps miss, like any other graph, gets None."""
    for cand in _sweep_orders(g):
        order = [v + 1 for v in cand]
        rows, lo, hi = rank_bounds(g, order)
        if all((x := row >> k) & (x + 1) == 0 for k, row in enumerate(rows, 1)):
            return umbrella_free_cand1(order, lo, hi)
    return None


def _certificate(g: Graph):
    """A central realization of the connected graph g from the paper's
    constructions, or None: the interval model a LexBFS sweep reads off,
    else the block-wise one when every block is a clique or outerplanar."""
    r = _interval_certificate(g)
    return blockwise_cand1(g) if r is None else r


@dataclass(frozen=True)
class CAndRecognitionResult:
    status: str  # "found" | "not_member" | "exhausted"
    realization: object
    ordering: object  # tuple of vertex ids when found, else None
    orderings_tried: int
    cases_solved: int

    @property
    def found(self) -> bool:
        return self.status == "found"


def cand1_recognize(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> CAndRecognitionResult:
    """Central recognition, certificate first: each component is first
    offered to the paper's constructions (_certificate), and only a
    component none of them realizes is searched.

    The certificates, in this order: an umbrella-free LexBFS sweep read as
    an interval model and realized by interval_to_cand1's gap sweep; else
    blockwise_cand1, when every block is a clique or outerplanar.  A
    certified component costs no order and no solve, and its ordering is
    its realization's point order.  The search decides with
    cand1_for_ordering each point order the ordering kernel yields
    (lexicographically, each {order, reversal} pair once).  Orders failing
    the four point check (every central model is in particular a
    box-and-point model) are never generated, nor are orders with twins
    (equal open or closed neighbourhoods) out of id order: swapping twins
    maps a central model to one, so the first central order found is the
    same as over all orders.

    A graph is central iff every component is, so components are decided
    one by one in ascending order of their smallest vertex; the found
    realizations are laid side by side, each to the right of the previous
    one, and the orderings concatenated.  The merged realization,
    certified parts included, is re-checked exactly (is_central and
    verify) before it is returned.

    The certificates are polynomial and not charged to the budget, so
    budget 0 can still answer found.  The budget bounds two counts of the
    search, each across all components: the kernel's placements tried, as
    for and1_recognize, and the Fourier-Motzkin work of
    cand1_for_ordering, one unit per solve plus its pair products.  A run
    therefore does at most twice the budget in units of work.  Every order
    the kernel yields passes the four point check, so each order decided
    costs at least one solve.  not_member and exhausted come only from the
    search; not_member requires one component's search to complete within
    both counts.  Search verdicts are exact but exponential; complete
    answers are practical for components of up to about 7 vertices.  A
    negative budget raises OrderingError.
    """
    _require_nonnegative(budget)
    tried = solved = work = nodes = 0
    merged = []
    points = []
    right = None  # right end of the boxes placed so far
    comps = g.connected_components()
    for comp in comps:
        sub, back = g.subgraph(comp)
        if (r := _certificate(sub)) is not None:
            order = r_order(r)
        else:
            # only the last item is not FOUND; any other break is a budget running out
            for status, order0, used in kernels.orderings(sub.masks, budget - nodes):
                if status != kernels.FOUND or work >= budget:
                    break
                tried += 1
                order = [v + 1 for v in order0]
                result = cand1_for_ordering(sub, order, budget - work)
                solved += result.cases_solved
                work += result.work
                if result.status == "exhausted":
                    break
                if result.found:
                    r = result.realization
                    break
            nodes += used
        if r is None:
            verdict = "not_member" if status == kernels.NOT_MEMBER else "exhausted"
            return CAndRecognitionResult(verdict, None, None, tried, solved)
        merged.extend(back[v] for v in order)
        if len(comps) > 1:  # the side-by-side layout the merge below reads
            least = Fraction(min(box[0][0] for box in r.boxes), r.den)
            shift = 0 if right is None else right + 1 - least
            points.extend(r.coordinate(v) + shift for v in order)
            right = shift + Fraction(max(box[0][1] for box in r.boxes), r.den)
    ordering = tuple(merged)
    if len(comps) > 1:
        # the same closed-form radii over the merged order: only an isolated
        # vertex's radius changes, to half the distance to its nearest point
        _, lo, hi = rank_bounds(g, ordering)
        r = central_realization(ordering, lo, hi, [b - a for a, b in zip(points, points[1:])])
    if not is_central(r) or not verify(r, g).ok:
        raise AssertionError("central search produced a bad witness")
    return CAndRecognitionResult("found", r, ordering, tried, solved)
