"""Exact rational feasibility and the central-realization search."""

import inspect
import random
import sys
from fractions import Fraction as F
from itertools import combinations, permutations

import pytest

from andbox import families, feasibility, kernels
from andbox.feasibility import cand1_for_ordering, cand1_recognize
from andbox.graphs import Graph, complete_multipartite_graph, cycle_graph, path_graph
from andbox.orders import OrderingError, and1_recognize, four_point_check
from andbox.realization import is_central, r_order, verify

from conftest import (
    CaseBudgetExceeded,
    cone_witness,
    grid_feasible,
    random_cone_system,
    random_connected_graph,
    reference_back_substitute,
    reference_cand1_for_ordering,
    reference_cand1_recognize,
    satisfies_all,
)


def assert_central_witness(res, g, order):
    r = res.realization
    assert verify(r, g).ok and is_central(r)
    assert r_order(r) == order


def assert_closed_form_radii(r, g):
    """Radius = farthest-neighbour distance, or half the distance to the
    nearest other point for an isolated vertex (1 when it is alone)."""
    for v in g.vertices():
        (lo, hi), p = r.interval(v), r.point(v)[0]
        others = g.neighbors(v) or [u for u in g.vertices() if u != v]
        dist = [abs(r.point(u)[0] - p) for u in others]
        if g.neighbors(v):
            assert (hi - lo) / 2 == max(dist)
        else:
            assert (hi - lo) / 2 == (min(dist) / 2 if dist else 1)


@pytest.fixture
def search_only(monkeypatch):
    """Send every component to the ordering search: the tests that pin its
    witnesses, counts and budgets run with the certificate step off."""
    monkeypatch.setattr(feasibility, "_certificate", lambda g: None)


def positive(nvars):
    """The cone row -t < 0 over (t, x_1, ..., x_{nvars-1})."""
    return ((-1,) + (0,) * (nvars - 1), True)


class TestEliminateFeasible:
    """The Fourier-Motzkin core on integer cone rows.  An affine row
    a . x <= b is asked as the row (-b, a) over (t, x) beside -t < 0, so
    a witness answers it at x / t."""

    def test_open_unit_interval(self):
        # 0 < x < t
        w = cone_witness([positive(2), ((0, -1), True), ((-1, 1), True)], 2)
        assert w is not None and all(type(c) is F for c in w)
        t, x = w
        assert 0 < x < t

    def test_contradictory_interval(self):
        # t < x < 0
        assert cone_witness([positive(2), ((1, -1), True), ((0, 1), True)], 2) is None

    def test_three_constraint_contradiction(self):
        # x + y <= t, t <= x, t <= y
        rows = [positive(3), ((-1, 1, 1), False), ((1, -1, 0), False), ((1, 0, -1), False)]
        assert cone_witness(rows, 3) is None

    def test_empty_system_is_feasible_at_zero(self):
        assert cone_witness([], 2) == [F(0), F(0)]

    def test_boundary_is_reachable_with_nonstrict(self):
        # x <= 3t and 3t <= x
        w = cone_witness([positive(2), ((-3, 1), False), ((3, -1), False)], 2)
        assert w == [F(1), F(3)]

    def test_strict_shaving_detects_empty_open_box(self):
        # t < x and x < t share the boundary point only
        assert cone_witness([positive(2), ((1, -1), True), ((-1, 1), True)], 2) is None

    def test_unbounded_directions_get_finite_witness(self):
        # x <= -5t, y free
        rows = [positive(3), ((5, 1, 0), False)]
        w = cone_witness(rows, 3)
        assert w is not None and satisfies_all(rows, w)

    @pytest.mark.parametrize(
        "bound, strict, feasible",
        [(-1, False, False), (0, True, False), (0, False, True), (1, False, True)],
    )
    def test_zero_variable_systems(self, bound, strict, feasible):
        # 0 <= bound, or 0 < bound when strict, with no x at all
        w = cone_witness([positive(1), ((-bound,), strict)], 1)
        assert w == ([F(1)] if feasible else None)

    def test_homogeneous_mixed_strictness(self):
        # x <= y and y <= x pin x = y; the strict -x < 0 makes both positive
        pinned = [((1, -1), False), ((-1, 1), False)]
        rows = pinned + [((-1, 0), True)]
        w = cone_witness(rows, 2)
        assert w is not None and satisfies_all(rows, w)
        x, y = w
        assert x == y > 0
        # y < x contradicts x <= y although x = y alone is feasible
        assert cone_witness(pinned, 2) is not None
        assert cone_witness([((1, -1), False), ((-1, 1), True)], 2) is None

    def test_witnesses_exact_on_random_systems(self):
        rng = random.Random(31)
        seen_feasible = seen_infeasible = 0
        for _ in range(250):
            rows, k, anchored = random_cone_system(rng)
            w = cone_witness(rows, k)
            if anchored:
                assert w is not None
            if w is not None:
                seen_feasible += 1
                assert satisfies_all(rows, w)
            else:
                seen_infeasible += 1
        assert seen_feasible > 30 and seen_infeasible > 30

    def test_agrees_with_grid_oracle(self):
        rng = random.Random(32)
        for _ in range(150):
            rows, k, _ = random_cone_system(rng)
            w = cone_witness(rows, k)
            if grid_feasible(rows, k):
                assert w is not None
            if w is None:
                assert not grid_feasible(rows, k)


class TestBackSubstitute:
    """The integer back-substitution against the Fraction oracle: the same
    witness, value for value, so every realization file stays the same."""

    def test_matches_reference_on_check_11_systems(self):
        # the 1,000 systems of acceptance check 11; a variable bounded on
        # one side only moves one unit past its bound, a free one stays 0
        rng = random.Random(11)
        kinds = {"both": 0, "above": 0, "below": 0, "free": 0}
        for _ in range(1000):
            rows, k, _ = random_cone_system(rng)
            layers, _ = feasibility._eliminate(rows, k)
            if layers is None:
                continue
            assert feasibility._back_substitute(layers) == reference_back_substitute(layers), rows
            for _, pos, neg in layers:
                kinds[("free", "below", "above", "both")[2 * bool(pos) + bool(neg)]] += 1
        assert min(kinds.values()) > 0, kinds

    @pytest.mark.usefixtures("search_only")
    def test_matches_reference_on_found_cases(self, connected_atlas, monkeypatch):
        # every case the central search back-substitutes on the atlas, and
        # on three interval graphs whose systems reach 135-791 rows
        seen = []
        integer = feasibility._back_substitute

        def record(layers):
            seen.append(layers)
            return integer(layers)

        monkeypatch.setattr(feasibility, "_back_substitute", record)
        graphs = connected_atlas + [families.random_interval(9, s).graph for s in (36, 45, 55)]
        for g in graphs:
            cand1_recognize(g)
        assert len(seen) == 787 + 3  # one found case per central graph
        for layers in seen:
            assert integer(layers) == reference_back_substitute(layers)


class TestCandForOrdering:
    def test_square_identity_ordering(self, square_graph):
        res = cand1_for_ordering(square_graph, (1, 2, 3, 4))
        assert res.status == "found"
        r = res.realization
        assert verify(r, square_graph).ok
        assert is_central(r)
        assert r_order(r) == (1, 2, 3, 4)

    def test_single_edge(self):
        g = Graph.from_edges(2, [(1, 2)])
        res = cand1_for_ordering(g, (1, 2))
        assert res.status == "found"
        assert verify(res.realization, g).ok and is_central(res.realization)

    def test_no_central_model_for_double_star_ordering(self):
        g = complete_multipartite_graph([2, 3])
        for perm in [(1, 2, 3, 4, 5), (3, 1, 4, 2, 5), (1, 3, 2, 4, 5)]:
            assert cand1_for_ordering(g, perm).status == "infeasible"

    def test_double_star_identity_decided_in_one_solve(self):
        g = complete_multipartite_graph([2, 3])
        res = cand1_for_ordering(g, (1, 2, 3, 4, 5))
        assert res.status == "infeasible" and res.cases_solved == 1

    def test_case_budget_exhaustion(self):
        # C8 in its identity order takes 11 solves and 489 units of work;
        # the first solve costs 1 + 31 pair products, and with 488 units the
        # last solve stops before its last variable (14 pairs)
        g, o = cycle_graph(8), tuple(range(1, 9))
        res = cand1_for_ordering(g, o)
        assert (res.status, res.cases_solved, res.work) == ("found", 11, 489)
        for budget, solved, work in [(0, 0, 0), (32, 1, 32), (33, 2, 33), (488, 11, 475)]:
            res = cand1_for_ordering(g, o, budget)
            assert (res.status, res.cases_solved, res.work) == ("exhausted", solved, work)

    def test_matches_reference_search(self, connected_atlas):
        # Over every order up to reversal: a found witness is its own
        # certificate, an order failing the four point check has no
        # box-and-point model and hence no central one, and every other
        # infeasible order must be infeasible for the reference too.
        for g in connected_atlas:
            if g.n > 5:
                continue
            for perm in permutations(g.vertices()):
                if perm[0] > perm[-1]:
                    continue
                res = cand1_for_ordering(g, perm)
                if res.found:
                    assert_central_witness(res, g, perm)
                elif four_point_check(g, perm) is None:
                    ref = reference_cand1_for_ordering(g, perm)
                    assert ref.status == res.status == "infeasible", (g.edge_list(), perm)
                else:
                    assert res.status == "infeasible" and res.cases_solved == 0

    def test_reference_search_finds_what_the_gap_search_finds(self, square_graph):
        for g, perm in [(square_graph, (1, 2, 3, 4)), (cycle_graph(5), (1, 2, 3, 4, 5))]:
            ref = reference_cand1_for_ordering(g, perm)
            assert ref.found and cand1_for_ordering(g, perm).found
            assert_central_witness(ref, g, perm)

    def test_blocked_sides_are_four_point_violations(self, connected_atlas):
        # A non-edge with both sides blocked makes the order infeasible
        # before any solve, so a zero budget separates it from an order
        # that needs one.
        for g in connected_atlas:
            if g.n > 6:
                continue
            for perm in permutations(g.vertices()):
                res = cand1_for_ordering(g, perm, budget=0)
                assert res.cases_solved == 0
                expected = "infeasible" if four_point_check(g, perm) is not None else "exhausted"
                assert res.status == expected, (g.edge_list(), perm)

    @pytest.mark.usefixtures("search_only")
    def test_radii_are_farthest_neighbour_distances(self):
        rng = random.Random(34)
        found = 0
        for _ in range(60):
            n = rng.randint(1, 6)
            g = Graph.from_edges(
                n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.5]
            )
            res = cand1_recognize(g)
            if not res.found:
                continue
            found += 1
            assert_closed_form_radii(res.realization, g)
        assert found > 20

    @pytest.mark.parametrize(
        "n, edges",
        [(1, []), (3, []), (3, [(1, 2)]), (3, [(1, 3)]), (3, [(2, 3)])],
    )
    def test_isolated_vertices(self, n, edges):
        g = Graph.from_edges(n, edges)
        for perm in permutations(g.vertices()):
            res = cand1_for_ordering(g, perm)
            assert res.status == "found" and res.cases_solved == 1
            assert_central_witness(res, g, perm)
            assert_closed_form_radii(res.realization, g)

    def test_long_path_needs_no_recursion(self):
        # every one of P15's 66 two-option non-edges is one level of the
        # case tree; the walk must not spend a stack frame per level
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 40)
        try:
            res = cand1_for_ordering(path_graph(15), tuple(range(1, 16)))
        finally:
            sys.setrecursionlimit(limit)
        assert (res.status, res.cases_solved) == ("found", 67)

    def test_reference_budget_exception_type(self):
        assert issubclass(CaseBudgetExceeded, Exception)

    def test_negative_case_budget_rejected(self):
        with pytest.raises(OrderingError, match="budget must be nonnegative"):
            cand1_for_ordering(cycle_graph(4), (1, 2, 3, 4), budget=-1)


class TestCandRecognize:
    @pytest.mark.usefixtures("search_only")
    @pytest.mark.parametrize(
        "g, cases, points, radii",
        [
            (
                cycle_graph(8),
                11,
                (0, 1, 2, 3, F(9, 2), F(27, 4), F(81, 8), F(243, 16)),
                (F(243, 16), 1, 1, F(3, 2), F(9, 4), F(27, 8), F(81, 16), F(243, 16)),
            ),
            (path_graph(7), 7, (0, 1, 2, 3, 4, 5, 6), (1,) * 7),
        ],
        ids=["C8", "P7"],
    )
    def test_pinned_witnesses(self, g, cases, points, radii):
        # the back-substituted witness is part of the output contract
        res = cand1_recognize(g)
        assert (res.status, res.ordering, res.orderings_tried, res.cases_solved) == (
            "found",
            tuple(g.vertices()),
            1,
            cases,
        )
        r = res.realization
        for v, p, rad in zip(g.vertices(), points, radii):
            assert (r.interval(v), r.point(v)) == ((p - rad, p + rad), (p,))

    @pytest.mark.parametrize("seed, cases", [(36, 1), (45, 2), (55, 1)])
    @pytest.mark.usefixtures("search_only")
    def test_random_interval_n9_seeds_with_large_eliminations(self, seed, cases):
        # each seed has a solve whose FM system grows to 135-791 rows (16 at seed 0)
        g = families.random_interval(9, seed).graph
        res = cand1_recognize(g)
        assert (res.status, res.cases_solved) == ("found", cases)
        assert verify(res.realization, g).ok and is_central(res.realization)

    def test_double_star_excluded_by_complete_enumeration(self):
        res = cand1_recognize(complete_multipartite_graph([2, 3]))
        assert res.status == "not_member"
        assert res.realization is None
        # 24 of the 60 orderings left by reversal halving are 4PC-free, and
        # 2 of those keep the twins {1, 2} and {3, 4, 5} in increasing id;
        # each is decided in one solve
        assert res.orderings_tried == 2
        assert res.cases_solved == 2

    def test_octahedron_prefilter_solves_no_cases(self):
        # K(2,2,2) has no 4PC-free ordering: the kernel yields none
        res = cand1_recognize(complete_multipartite_graph([2, 2, 2]))
        assert res.status == "not_member"
        assert res.orderings_tried == 0
        assert res.cases_solved == 0

    def test_zero_ordering_budget_suffices_without_4pc_free_orders(self):
        # the enumeration completes without an ordering to decide, so the
        # budget needs to cover only the kernel's placements: 60, as for
        # and1_recognize
        g = complete_multipartite_graph([2, 2, 2])
        assert and1_recognize(g).nodes == 60
        res = cand1_recognize(g, budget=60)
        assert (res.status, res.orderings_tried, res.cases_solved) == ("not_member", 0, 0)
        res = cand1_recognize(g, budget=59)
        assert (res.status, res.orderings_tried, res.cases_solved) == ("exhausted", 0, 0)

    def test_complete_bipartite_3_3_decides_only_4pc_free_orders(self):
        res = cand1_recognize(complete_multipartite_graph([3, 3]))
        assert res.status == "not_member"
        # 72 of the 360 orders left by reversal halving are 4PC-free; 2 of
        # them keep the false twins {1, 2, 3} and {4, 5, 6} in increasing id
        assert res.orderings_tried == 2

    @pytest.mark.usefixtures("search_only")
    def test_star_and_cycle_found(self):
        star = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
        for g in (star, cycle_graph(5)):
            res = cand1_recognize(g)
            assert res.status == "found"
            assert verify(res.realization, g).ok
            assert is_central(res.realization)
            assert r_order(res.realization) == res.ordering

    @pytest.mark.usefixtures("search_only")
    def test_found_implies_interval_search_found(self):
        rng = random.Random(33)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(1, 6))
            res = cand1_recognize(g)
            if res.status == "found":
                assert and1_recognize(g).found

    def test_ordering_budget_exhaustion(self):
        # K(2,3)'s first order costs 11 units of work (1 + 10 pair
        # products), so a budget of 11 leaves none for the second order
        res = cand1_recognize(complete_multipartite_graph([2, 3]), budget=11)
        assert (res.status, res.orderings_tried, res.cases_solved) == ("exhausted", 1, 1)

    # the one budget bounds what the ordering and case budgets did: the
    # kernel's order search and the Fourier-Motzkin solves.  A negative
    # budget is bad input, not an exhausted search: it is refused before
    # either kind of work starts
    @pytest.mark.parametrize(
        "module, work",
        [
            pytest.param(kernels, "orderings", id="ordering_budget"),
            pytest.param(feasibility, "_eliminate", id="case_budget"),
        ],
    )
    def test_negative_budget_rejected(self, monkeypatch, module, work):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{work} ran under a negative budget")

        monkeypatch.setattr(module, work, no_work)
        with pytest.raises(OrderingError, match="budget must be nonnegative"):
            cand1_recognize(cycle_graph(4), budget=-1)

    def test_case_budget_exhaustion(self):
        # one unit is left for the second order: its solve starts, and its
        # first elimination would pass the budget
        res = cand1_recognize(complete_multipartite_graph([2, 3]), budget=12)
        assert (res.status, res.orderings_tried, res.cases_solved) == ("exhausted", 2, 2)

    @pytest.mark.usefixtures("search_only")
    def test_budget_bounds_the_pairs_of_one_solve(self, monkeypatch):
        # random_interval(9, 55) is decided in one solve that derives 6,719
        # rows; under a budget of 1,000 the solve stops before the variable
        # whose pairs would pass it
        g = families.random_interval(9, 55).graph
        read = 0

        def counted(rows, into, _add_rows=feasibility._add_rows):
            nonlocal read
            rows = list(rows)
            read += len(rows)
            return _add_rows(rows, into)

        monkeypatch.setattr(feasibility, "_add_rows", counted)
        res = cand1_recognize(g, budget=1000)
        assert (res.status, res.orderings_tried, res.cases_solved) == ("exhausted", 1, 1)
        assert read <= 1000
        read = 0
        assert cand1_recognize(g).found and read > 6719

    def test_exhausted_kernel_enumeration_is_exhausted(self, monkeypatch):
        # an enumeration cut short by the kernel's node budget proves nothing
        def cut_short(masks, budget):
            yield (kernels.FOUND, [0, 1, 2, 3, 4], 5)
            yield (kernels.EXHAUSTED, [], 6)

        monkeypatch.setattr(kernels, "orderings", cut_short)
        res = cand1_recognize(complete_multipartite_graph([2, 3]))
        assert res.status == "exhausted"
        assert (res.orderings_tried, res.cases_solved) == (1, 1)

    @pytest.mark.usefixtures("search_only")
    def test_matches_reference_recognition(self, connected_atlas):
        # The kernel skips only orders failing the four point check, which
        # the reference decides in no solve, and both skip orders with a
        # twin pair out of id order, so every verdict, ordering, witness
        # and case count agrees.
        small = [g for g in connected_atlas if g.n <= 6]
        assert len(small) == 143
        for g in small:
            res = cand1_recognize(g)
            ref = reference_cand1_recognize(g)
            assert (res.status, res.ordering, res.realization, res.cases_solved) == (
                ref.status,
                ref.ordering,
                ref.realization,
                ref.cases_solved,
            ), g.edge_list()
            assert res.orderings_tried <= ref.orderings_tried

    @pytest.mark.usefixtures("search_only")
    def test_twin_rule_keeps_verdict_ordering_and_witness(self, connected_atlas):
        # The first central-feasible order has its twins in increasing id:
        # swapping an out-of-order twin pair is an automorphism and gives a
        # lexicographically smaller order, central-feasible too.
        for g in [g for g in connected_atlas if g.n <= 6]:
            res = cand1_recognize(g)
            ref = reference_cand1_recognize(g, twins=False)
            assert (res.status, res.ordering, res.realization) == (
                ref.status,
                ref.ordering,
                ref.realization,
            ), g.edge_list()
            assert res.cases_solved <= ref.cases_solved, g.edge_list()
            assert res.orderings_tried <= ref.orderings_tried, g.edge_list()

    @pytest.mark.usefixtures("search_only")
    @pytest.mark.parametrize(
        "g, status, solves",
        [(cycle_graph(8), "found", 11), (complete_multipartite_graph([2, 3]), "not_member", 2)],
        ids=["C8", "K23"],
    )
    def test_only_the_found_case_is_back_substituted(self, g, status, solves, monkeypatch):
        calls = {"_eliminate": 0, "_back_substitute": 0}
        for name in calls:

            def counted(*args, _fn=getattr(feasibility, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(feasibility, name, counted)
        res = cand1_recognize(g)
        assert (res.status, res.cases_solved) == (status, solves)
        assert calls == {"_eliminate": solves, "_back_substitute": int(status == "found")}

    @pytest.mark.usefixtures("search_only")
    def test_edge_with_isolated_false_twins(self):
        # N(3) = N(4) = N(5) = {} and N[1] = N[2]; the components are
        # searched one by one, so with the certificates off K2 and each
        # isolated vertex take one order and one solve, and the first order
        # the kernel yields for each is central
        g = Graph.from_edges(5, [(1, 2)])
        res = cand1_recognize(g)
        assert res.status == "found"
        assert verify(res.realization, g).ok and is_central(res.realization)
        assert r_order(res.realization) == res.ordering
        assert res.ordering == (1, 2, 3, 4, 5)
        assert (res.orderings_tried, res.cases_solved) == (4, 4)

    @staticmethod
    def disjoint_union(*graphs):
        edges, k = [], 0
        for h in graphs:
            edges += [(u + k, v + k) for u, v in h.edge_list()]
            k += h.n
        return Graph.from_edges(k, edges)

    @pytest.mark.parametrize("p6_first", [False, True], ids=["K23+P6", "P6+K23"])
    @pytest.mark.usefixtures("search_only")
    def test_components_are_decided_one_by_one(self, p6_first):
        # interleaving the points of K(2,3) and P6 gives far more than 10^3
        # orders to decide; per component, K(2,3) needs its 2 orders (one
        # solve each) and P6 its first (4 solves)
        k23, p6 = complete_multipartite_graph([2, 3]), path_graph(6)
        g = self.disjoint_union(*((p6, k23) if p6_first else (k23, p6)))
        res = cand1_recognize(g)
        assert (res.status, res.realization, res.ordering) == ("not_member", None, None)
        assert (res.orderings_tried, res.cases_solved) == ((3, 6) if p6_first else (2, 2))

    @pytest.mark.usefixtures("search_only")
    def test_components_sit_side_by_side(self):
        parts = (cycle_graph(5), path_graph(1), path_graph(2), path_graph(1), cycle_graph(4))
        g = self.disjoint_union(*parts)
        res = cand1_recognize(g)
        assert res.status == "found"
        assert verify(res.realization, g).ok and is_central(res.realization)
        assert_closed_form_radii(res.realization, g)
        # each component's own first central order, in component order
        expected, k = [], 0
        for h in parts:
            expected += [v + k for v in cand1_recognize(h).ordering]
            k += h.n
        assert r_order(res.realization) == res.ordering == tuple(expected)
        # every component, each isolated vertex included, decides one order
        assert res.orderings_tried == 5

    @pytest.mark.usefixtures("search_only")
    def test_budgets_are_charged_across_components(self):
        # P3 takes 3 placements and 1 unit of work; K(2,3) 20 placements and
        # 11 + 8 units for its two orders
        g = self.disjoint_union(path_graph(3), complete_multipartite_graph([2, 3]))
        res = cand1_recognize(g, budget=23)
        assert (res.status, res.orderings_tried, res.cases_solved) == ("not_member", 3, 3)
        res = cand1_recognize(g, budget=22)
        assert (res.status, res.orderings_tried, res.cases_solved) == ("exhausted", 3, 3)
        res = cand1_recognize(g, budget=12)
        assert (res.status, res.orderings_tried, res.cases_solved) == ("exhausted", 2, 2)


class TestCertificates:
    """Components the paper's constructions realize are decided before the
    ordering search: no kernel node, no solve, nothing charged."""

    @pytest.fixture
    def no_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the search ran on a certified component")

        monkeypatch.setattr(kernels, "orderings", refuse)
        monkeypatch.setattr(feasibility, "_eliminate", refuse)

    @pytest.mark.parametrize(
        "make, budget",
        [
            pytest.param(lambda: families.random_interval(12, 0).graph, 10**6, id="interval12"),
            pytest.param(lambda: families.random_interval(16, 0).graph, 10**7, id="interval16"),
            pytest.param(lambda: families.random_dissection(14, 0).graph, 10**7, id="dissection14"),
            pytest.param(lambda: families.random_interval(300, 1).graph, 0, id="interval300"),
            pytest.param(lambda: families.random_block_graph(200, 1).graph, 0, id="block200"),
            pytest.param(lambda: cycle_graph(2000), 0, id="C2000"),
            pytest.param(lambda: path_graph(5000), 0, id="P5000"),
        ],
    )
    def test_certified_without_search(self, no_search, make, budget):
        g = make()
        res = cand1_recognize(g, budget)
        assert (res.status, res.orderings_tried, res.cases_solved) == ("found", 0, 0)
        assert verify(res.realization, g).ok and is_central(res.realization)
        assert r_order(res.realization) == res.ordering

    def test_interval_first(self):
        # P5000 is outerplanar too, but glued block by block its nested
        # denominators grow with the path; the interval model has integer points
        res = cand1_recognize(path_graph(5000), 0)
        assert res.realization.den == 1
        assert feasibility._interval_certificate(cycle_graph(4)) is None

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: path_graph(50), id="P50"),
        pytest.param(lambda: families.random_interval(30, 0).graph, id="interval30"),
    ])
    def test_connected_interval_graph_makes_no_fraction(self, monkeypatch, make):
        # the interval certificate works in ints, and one component needs
        # no side-by-side layout
        g = make()
        made = []
        new = F.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", counted)
        res = cand1_recognize(g, 0)
        assert res.found and res.realization.den == 1
        assert made == []
        res.realization.coordinate(1)  # the counter sees a Fraction made
        assert made

    def test_components_certified_one_by_one(self, no_search):
        # a cycle, a clique-block graph and a path beside an isolated vertex
        parts = (cycle_graph(6), families.random_block_graph(9, 3).graph, path_graph(1), path_graph(4))
        g = TestCandRecognize.disjoint_union(*parts)
        res = cand1_recognize(g, 0)
        assert (res.status, res.orderings_tried, res.cases_solved) == ("found", 0, 0)
        assert verify(res.realization, g).ok and is_central(res.realization)
        assert r_order(res.realization) == res.ordering

    def test_theta_graph_reaches_the_search(self, monkeypatch):
        # h(2,4,4) is three paths between two hubs: neither interval nor
        # outerplanar, so only the search can decide it
        calls = []
        orderings = kernels.orderings

        def counted(masks, budget):
            calls.append(budget)
            return orderings(masks, budget)

        monkeypatch.setattr(kernels, "orderings", counted)
        res = cand1_recognize(families.h_graph(2, 4, 4).graph, budget=1000)
        assert calls == [1000] and res.status == "exhausted" and res.orderings_tried > 0
        res = cand1_recognize(complete_multipartite_graph([2, 3]), budget=0)
        assert (res.status, res.orderings_tried) == ("exhausted", 0)
