"""Exact rational linear feasibility and central-realization search.

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

Feasibility is decided by Fourier-Motzkin elimination over Fractions with
strict-inequality tracking; a derived constraint is strict iff any parent
is strict.  Witnesses come from back-substitution, taking midpoints of
residual intervals.  No floats, no tolerances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .graphs import Graph
from .orders import DEFAULT_NODE_BUDGET, Ordering, OrderingError, rank_bounds
# four_point_check is no longer called here but stays importable from this
# module: perfbench/tests/test_tracing.py checks that tracing rebinds it.
from .orders import four_point_check  # noqa: F401
from .realization import Realization, _frac, is_central, verify

DEFAULT_ORDERING_BUDGET = 10**5
DEFAULT_CASE_BUDGET = 10**6


@dataclass(frozen=True)
class LinearConstraint:
    """sum(coeffs[i] * x_i) <= bound, or < bound when strict."""

    coeffs: tuple
    strict: bool
    bound: Fraction


def constraint(coeffs, bound, strict=False) -> LinearConstraint:
    return LinearConstraint(
        tuple(_frac(c) for c in coeffs), bool(strict), _frac(bound)
    )


@dataclass(frozen=True)
class LinearConstraintSystem:
    variables: tuple
    constraints: tuple

    def __post_init__(self):
        for c in self.constraints:
            if len(c.coeffs) != len(self.variables):
                raise ValueError("constraint arity does not match variables")


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: tuple  # aligned with system.variables; None when infeasible

    def __bool__(self) -> bool:
        return self.feasible


_INFEASIBLE = FeasibilityResult(False, None)


def _canonical(c: LinearConstraint):
    """Scale so the first nonzero coefficient has absolute value 1; the
    scale is positive, so the inequality direction is unchanged."""
    for a in c.coeffs:
        if a:
            s = abs(a)
            return tuple(x / s for x in c.coeffs), c.bound / s
    return c.coeffs, c.bound


def _dedup(cons):
    """Keep, per coefficient direction, only the tightest bound.
    Dropping a dominated constraint leaves the feasible region unchanged."""
    best = {}
    for c in cons:
        key, bound = _canonical(c)
        cur = best.get(key)
        if cur is None or (bound, not c.strict) < (cur.bound, not cur.strict):
            best[key] = LinearConstraint(key, c.strict, bound)
    return list(best.values())


def eliminate_feasible(s: LinearConstraintSystem) -> FeasibilityResult:
    """Fourier-Motzkin elimination, last variable first.

    Returns Infeasible iff a contradictory constant constraint appears.
    Otherwise reconstructs a witness by back-substitution: each variable
    takes the midpoint of its residual interval, bound -/+ 1 when only one
    side is bounded, 0 when unconstrained.  The empty system is feasible
    with the zero point.
    """
    nvars = len(s.variables)
    cur = _dedup(s.constraints)
    layers = []

    for var in range(nvars - 1, -1, -1):
        pos, neg, rest = [], [], []
        for c in cur:
            a = c.coeffs[var]
            if a > 0:
                pos.append(c)
            elif a < 0:
                neg.append(c)
            else:
                rest.append(c)
        layers.append((var, pos, neg))
        new = rest
        for p, q in itertools.product(pos, neg):
            a = p.coeffs[var]
            b = -q.coeffs[var]
            coeffs = tuple(
                b * x + a * y for x, y in zip(p.coeffs, q.coeffs)
            )
            new.append(
                LinearConstraint(
                    coeffs, p.strict or q.strict, b * p.bound + a * q.bound
                )
            )
        cur = []
        for c in _dedup(new):
            if any(c.coeffs):
                cur.append(c)
            elif c.bound < 0 or (c.strict and c.bound == 0):
                return _INFEASIBLE
    for c in cur:  # leftover constants from a system with zero variables
        if c.bound < 0 or (c.strict and c.bound == 0):
            return _INFEASIBLE

    witness = [Fraction(0)] * nvars
    for var, pos, neg in reversed(layers):
        lo = hi = None
        lo_strict = hi_strict = False
        for c in pos:  # a*x + rest <= bound, a > 0
            a = c.coeffs[var]
            rest = sum(
                c.coeffs[u] * witness[u] for u in range(var)
            )
            val = (c.bound - rest) / a
            if hi is None or val < hi or (val == hi and c.strict):
                hi, hi_strict = val, c.strict
        for c in neg:  # -b*x + rest <= bound, b > 0
            b = -c.coeffs[var]
            rest = sum(
                c.coeffs[u] * witness[u] for u in range(var)
            )
            val = (rest - c.bound) / b
            if lo is None or val > lo or (val == lo and c.strict):
                lo, lo_strict = val, c.strict
        if lo is None and hi is None:
            witness[var] = Fraction(0)
        elif lo is None:
            witness[var] = hi - 1
        elif hi is None:
            witness[var] = lo + 1
        else:
            witness[var] = (lo + hi) / 2
    return FeasibilityResult(True, tuple(witness))


class CaseBudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class CentralSearchResult:
    status: str  # "found" | "infeasible" | "exhausted"
    realization: object  # Realization when found, else None
    cases_solved: int

    @property
    def found(self) -> bool:
        return self.status == "found"


def _shorter_than(n, inner, outer) -> LinearConstraint:
    """span(inner) - span(outer) < 0 over the gaps g_1..g_{n-1}, where
    span((a, b)) = p_b - p_a is the sum of the gaps g_a..g_{b-1} and
    g_t = p_{t+1} - p_t joins ranks t and t+1."""
    zero, one = Fraction(0), Fraction(1)
    c = [zero] * (n - 1)
    for t in range(*inner):
        c[t - 1] = one
    for t in range(*outer):
        c[t - 1] = -one
    return LinearConstraint(tuple(c), True, zero)


def _gap_cases(g: Graph, order, lo, hi):
    """(base, split) over the gaps of the point order, or None when a
    non-edge has both sides blocked (the order fails the four point check).

    base holds g_t > 0 and the constraint of every non-edge with one
    possible side; split lists, in order of increasing rank distance, the
    two side constraints of every remaining non-edge.  A non-edge with a
    side that needs no constraint is dropped.
    """
    n = g.n
    base = [((t, t), (t, t + 1)) for t in range(1, n)]  # 0 < g_t
    split = []
    for d in range(1, n):
        for i in range(1, n - d + 1):
            j = i + d
            u, v = order[i - 1], order[j - 1]
            if g.has_edge(u, v):
                continue
            sides = []
            if hi[u] < j:  # side i open: no neighbour of u at or past rank j
                if lo[u] == i:  # nor before rank i: side i is free
                    continue
                sides.append(((lo[u], i), (i, j)))
            if lo[v] > i:  # side j open: no neighbour of v at or before rank i
                if hi[v] == j:  # nor after rank j: side j is free
                    continue
                sides.append(((j, hi[v]), (i, j)))
            if not sides:
                return None
            if len(sides) == 1:
                base.extend(sides)
            else:
                split.append(sides)
    return (
        [_shorter_than(n, *spans) for spans in base],
        [[_shorter_than(n, *spans) for spans in sides] for sides in split],
    )


def _require_nonnegative(budget, name) -> None:
    if budget < 0:
        raise OrderingError(f"{name} must be nonnegative")


def cand1_for_ordering(
    g: Graph, o: Ordering, case_budget: int = DEFAULT_CASE_BUDGET
) -> CentralSearchResult:
    """Decide whether a central realization exists whose point order is o.

    The system is over the n - 1 gaps between consecutive points, with
    every radius fixed to its vertex's farthest-neighbour distance.  An
    order failing the four point check is infeasible with no solve.
    Two-option non-edges are resolved by depth-first case enumeration in
    order of increasing rank distance; every explored node costs one
    elimination run, and infeasible partial systems prune their subtree.
    A negative case budget raises OrderingError.
    """
    _require_nonnegative(case_budget, "case budget")
    o.check_covers(g)
    n = g.n
    order = o.order
    lo, hi = rank_bounds(g, o)
    cases = _gap_cases(g, order, lo, hi)
    if cases is None:
        return CentralSearchResult("infeasible", None, 0)
    base, split = cases
    variables = tuple(f"g{t}" for t in range(1, n))
    solved = 0

    def solve(cons):
        nonlocal solved
        if solved >= case_budget:
            raise CaseBudgetExceeded()
        solved += 1
        return eliminate_feasible(LinearConstraintSystem(variables, tuple(cons)))

    def descend(k, cons):
        result = solve(cons)
        if not result.feasible:
            return None
        if k == len(split):
            return result
        for side in split[k]:
            hit = descend(k + 1, cons + [side])
            if hit is not None:
                return hit
        return None

    try:
        result = descend(0, base)
    except CaseBudgetExceeded:
        return CentralSearchResult("exhausted", None, solved)
    if result is None:
        return CentralSearchResult("infeasible", None, solved)

    gaps = result.witness
    p = [Fraction(0)]
    for x in gaps:
        p.append(p[-1] + x)
    items = {}
    for k, v in enumerate(order, 1):
        pk = p[k - 1]
        r = max(pk - p[lo[v] - 1], p[hi[v] - 1] - pk)
        if not r:  # isolated: half the distance to the nearest point, or 1
            r = min(gaps[max(k - 2, 0):k], default=Fraction(2)) / 2
        items[v] = ((pk - r, pk + r), pk)
    return CentralSearchResult("found", Realization.build(1, items), solved)


@dataclass(frozen=True)
class CAndRecognitionResult:
    status: str  # "found" | "not_member" | "exhausted"
    realization: object
    ordering: object
    orderings_tried: int
    cases_solved: int

    @property
    def found(self) -> bool:
        return self.status == "found"


def cand1_recognize(
    g: Graph,
    ordering_budget: int = DEFAULT_ORDERING_BUDGET,
    case_budget: int = DEFAULT_CASE_BUDGET,
) -> CAndRecognitionResult:
    """Central recognition: decide with cand1_for_ordering each point order
    the ordering kernel yields (lexicographically, each {order, reversal}
    pair once).  Orders failing the four point check (every central model
    is in particular a box-and-point model) are never generated.

    The ordering budget counts orders decided; DEFAULT_NODE_BUDGET bounds
    the enumeration.  NotMember requires it to complete within all three.
    Verdicts are exact but exponential; complete answers are practical
    for n up to about 7.  A negative budget raises OrderingError.
    """
    _require_nonnegative(ordering_budget, "ordering budget")
    _require_nonnegative(case_budget, "case budget")
    tried = 0
    solved = 0
    # only the last item is not FOUND; any other break is a budget running out
    for status, order, _ in kernels.orderings(g.masks, DEFAULT_NODE_BUDGET):
        if status != kernels.FOUND or tried >= ordering_budget or solved >= case_budget:
            break
        tried += 1
        o = Ordering(tuple(v + 1 for v in order))
        result = cand1_for_ordering(g, o, case_budget - solved)
        solved += result.cases_solved
        if result.status == "exhausted":
            break
        if result.found:
            r = result.realization
            if not is_central(r) or not verify(r, g).ok:
                raise AssertionError("central search produced a bad witness")
            return CAndRecognitionResult("found", r, o, tried, solved)
    verdict = "not_member" if status == kernels.NOT_MEMBER else "exhausted"
    return CAndRecognitionResult(verdict, None, None, tried, solved)
