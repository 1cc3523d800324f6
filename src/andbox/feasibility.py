"""Exact rational linear feasibility and central-realization search.

For central boxes B_v = [p_v - r_v, p_v + r_v] mutual containment reduces
to a min of radii: p_u is in B_v iff |p_u - p_v| <= r_v, so u and v are
adjacent iff |p_u - p_v| <= r_u and |p_u - p_v| <= r_v, which is exactly
|p_u - p_v| <= min(r_u, r_v).  With a fixed point order this turns the
existence of a central realization into a finite case split over linear
systems: edges contribute two non-strict constraints, every non-edge
contributes a disjunction of two strict ones (which radius is exceeded).

Feasibility is decided by Fourier-Motzkin elimination over Fractions with
strict-inequality tracking; a derived constraint is strict iff any parent
is strict.  Witnesses come from back-substitution, taking midpoints of
residual intervals.  No floats, no tolerances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph
from .orders import Ordering, four_point_check
from .realization import Realization, _frac

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

    def holds(self, point) -> bool:
        """Exact check of every constraint at the given point."""
        point = tuple(_frac(x) for x in point)
        for c in self.constraints:
            lhs = sum(a * x for a, x in zip(c.coeffs, point))
            if c.strict:
                if not lhs < c.bound:
                    return False
            elif not lhs <= c.bound:
                return False
        return True


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


def _central_base_constraints(g: Graph, order, var_count):
    """Base system over variables p_1..p_n, r_1..r_n (rank-indexed):
    points strictly increasing, radii positive, and both radius bounds
    for every edge."""
    n = g.n

    def vec():
        return [Fraction(0)] * var_count

    cons = []
    for i in range(n - 1):  # p_i - p_{i+1} < 0
        c = vec()
        c[i] = Fraction(1)
        c[i + 1] = Fraction(-1)
        cons.append(LinearConstraint(tuple(c), True, Fraction(0)))
    for i in range(n):  # -r_i < 0
        c = vec()
        c[n + i] = Fraction(-1)
        cons.append(LinearConstraint(tuple(c), True, Fraction(0)))
    for i, j in itertools.combinations(range(n), 2):
        if not g.has_edge(order[i], order[j]):
            continue
        for side in (i, j):  # p_j - p_i - r_side <= 0
            c = vec()
            c[j] = Fraction(1)
            c[i] = Fraction(-1)
            c[n + side] = Fraction(-1)
            cons.append(LinearConstraint(tuple(c), False, Fraction(0)))
    return cons


def _nonedge_case_constraint(i, j, side, n, var_count):
    """r_side - (p_j - p_i) < 0, i.e. the gap exceeds radius `side`."""
    c = [Fraction(0)] * var_count
    c[j] = Fraction(-1)
    c[i] = Fraction(1)
    c[n + side] = Fraction(1)
    return LinearConstraint(tuple(c), True, Fraction(0))


def cand1_for_ordering(
    g: Graph, o: Ordering, case_budget: int = DEFAULT_CASE_BUDGET
) -> CentralSearchResult:
    """Decide whether a central realization exists whose point order is o.

    Non-edge disjunctions are resolved by depth-first case enumeration in
    order of increasing rank distance; every explored node costs one
    elimination run, and infeasible partial systems prune their subtree.
    """
    o.check_covers(g)
    n = g.n
    order = o.order
    var_count = 2 * n
    variables = tuple(
        f"p{i + 1}" for i in range(n)
    ) + tuple(f"r{i + 1}" for i in range(n))
    base = _central_base_constraints(g, order, var_count)
    nonedges = sorted(
        (
            (i, j)
            for i, j in itertools.combinations(range(n), 2)
            if not g.has_edge(order[i], order[j])
        ),
        key=lambda ij: (ij[1] - ij[0], ij),
    )
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
        if k == len(nonedges):
            return result
        i, j = nonedges[k]
        for side in (i, j):
            hit = descend(
                k + 1, cons + [_nonedge_case_constraint(i, j, side, n, var_count)]
            )
            if hit is not None:
                return hit
        return None

    try:
        result = descend(0, list(base))
    except CaseBudgetExceeded:
        return CentralSearchResult("exhausted", None, solved)
    if result is None:
        return CentralSearchResult("infeasible", None, solved)

    w = result.witness
    items = {}
    for rank0, v in enumerate(order):
        p, r = w[rank0], w[n + rank0]
        items[v] = ((p - r, p + r), p)
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
    """Brute-force central recognition: enumerate point orders
    lexicographically (each {order, reversal} pair once), keep those
    passing the four point check (necessary, since every central model is
    in particular a box-and-point model), and case-split the rest.

    NotMember requires the enumeration to complete within both budgets.
    Verdicts are exact but exponential; complete answers are practical
    for n up to about 7.
    """
    verts = g.vertices()
    n = len(verts)
    tried = 0
    solved = 0
    for perm in itertools.permutations(verts):
        if n > 1 and perm[0] > perm[-1]:
            continue
        if tried >= ordering_budget or solved >= case_budget:
            return CAndRecognitionResult("exhausted", None, None, tried, solved)
        tried += 1
        o = Ordering(perm)
        if four_point_check(g, o) is not None:
            continue
        result = cand1_for_ordering(g, o, case_budget - solved)
        solved += result.cases_solved
        if result.status == "exhausted":
            return CAndRecognitionResult("exhausted", None, None, tried, solved)
        if result.found:
            r = result.realization
            from .realization import is_central, verify

            if not is_central(r) or not verify(r, g).ok:
                raise AssertionError("central search produced a bad witness")
            return CAndRecognitionResult("found", r, o, tried, solved)
    return CAndRecognitionResult("not_member", None, None, tried, solved)
