"""Orderings, the quadruple condition, implicit codes, the recognizer,
and cycle labeling analysis."""

import random
import time
from itertools import combinations, permutations

import pytest

from andbox import families, fileio, kernels, orders
from andbox.constructors import h_graph_ordering, rdp_ordering
from andbox.feasibility import cand1_for_ordering, cand1_recognize
from andbox.graphs import Graph, complete_multipartite_graph, cycle_graph, path_graph
from andbox.orders import (
    FourPointViolationError,
    ImplicitCode,
    OrderingError,
    Violation,
    and1_recognize,
    cycle_label_analysis,
    four_point_check,
    implicit_adjacent,
    implicit_encode,
    lexbfs,
    rank_bounds,
    realization_from_codes,
    realization_from_ordering,
)
from andbox.realization import induced_graph, r_order, verify

from conftest import (
    edge_set,
    naive_four_point_scan,
    neighbour_sets,
    random_connected_graph,
    reference_rank_bounds,
)


class TestOrdering:
    def test_cover_check(self, paw_graph):
        with pytest.raises(OrderingError):
            four_point_check(paw_graph, (1, 2, 3))
        with pytest.raises(OrderingError):
            four_point_check(paw_graph, (1, 2, 3, 3))


class TestRankBounds:
    def test_worked_example(self, paw_graph):
        order = (1, 2, 3, 4)
        rows, lo, hi = rank_bounds(paw_graph, order)
        assert rows == [0b0110, 0b0101, 0b1011, 0b0100]
        assert lo == [1, 1, 1, 3]
        assert hi == [3, 3, 4, 4]
        nbrs = neighbour_sets(4, paw_graph.edge_list())
        assert reference_rank_bounds(nbrs, order) == (
            {1: 1, 2: 1, 3: 1, 4: 3},
            {1: 3, 2: 3, 3: 4, 4: 4},
        )

    def test_non_identity_order(self, paw_graph):
        order = (4, 3, 1, 2)
        rows, lo, hi = rank_bounds(paw_graph, order)
        # ranks: 4->1, 3->2, 1->3, 2->4; entry k - 1 belongs to rank k
        assert rows == [0b0010, 0b1101, 0b1010, 0b0110]
        assert lo == [1, 1, 2, 2]
        assert hi == [2, 4, 4, 4]
        nbrs = neighbour_sets(4, paw_graph.edge_list())
        assert reference_rank_bounds(nbrs, order) == (
            {1: 2, 2: 2, 3: 1, 4: 1},
            {1: 4, 2: 4, 3: 4, 4: 2},
        )


class TestFourPointCheck:
    def test_clean_ordering(self, paw_graph):
        assert four_point_check(paw_graph, (1, 2, 3, 4)) is None

    def test_single_violation(self):
        g = Graph.from_edges(4, [(1, 3), (2, 4)])
        v = four_point_check(g, (1, 2, 3, 4))
        assert v == Violation(x=1, u=2, v=3, y=4)

    def test_agrees_with_exhaustive_scan_on_all_orderings(self):
        rng = random.Random(11)
        graphs = [
            cycle_graph(5),
            path_graph(5),
            complete_multipartite_graph([2, 3]),
            complete_multipartite_graph([2, 2, 2]),
        ]
        graphs += [random_connected_graph(rng, 6) for _ in range(6)]
        for g in graphs:
            for perm in permutations(g.vertices()):
                fast = four_point_check(g, perm)
                slow = naive_four_point_scan(g, perm)
                if slow is None:
                    assert fast is None
                else:
                    # same first violation in rank-lexicographic order
                    assert (fast.x, fast.u, fast.v, fast.y) == slow

    def test_reversal_symmetry(self):
        rng = random.Random(12)
        for _ in range(200):
            g = random_connected_graph(rng, rng.randint(4, 8))
            perm = list(g.vertices())
            rng.shuffle(perm)
            assert (four_point_check(g, perm) is None) == (
                four_point_check(g, perm[::-1]) is None
            )


    def test_stops_at_last_neighbour_rank(self):
        # identity order on a perfect matching: no rank of a non-neighbour
        # lies before u's last neighbour, so no pair is scanned; a scan
        # running k up to n visits about n^2 / 2 = 5 * 10^7 pairs here
        # (about 45 s), this one takes milliseconds
        n = 10000
        g = Graph.from_edges(n, [(i, i + 1) for i in range(1, n, 2)])
        t0 = time.perf_counter()
        assert four_point_check(g, tuple(range(1, n + 1))) is None
        assert time.perf_counter() - t0 < 5.0


class TestRealizationFromOrdering:
    def test_square_frozen_values(self, square_graph):
        r = realization_from_ordering(square_graph, (1, 2, 3, 4))
        assert r.interval(1) == (1, 4)
        assert r.interval(2) == (1, 3)
        assert r.interval(3) == (2, 4)
        assert r.interval(4) == (1, 4)
        assert [r.coordinate(v) for v in (1, 2, 3, 4)] == [1, 2, 3, 4]
        assert edge_set(induced_graph(r)) == edge_set(square_graph)

    def test_paw_frozen_values(self, paw_graph):
        r = realization_from_ordering(paw_graph, (1, 2, 3, 4))
        assert r.interval(1) == (1, 3)
        assert r.interval(2) == (1, 3)
        assert r.interval(3) == (1, 4)
        assert r.interval(4) == (3, 4)
        assert edge_set(induced_graph(r)) == edge_set(paw_graph)

    def test_rejects_violating_ordering(self):
        g = Graph.from_edges(4, [(1, 3), (2, 4)])
        with pytest.raises(FourPointViolationError) as exc:
            realization_from_ordering(g, (1, 2, 3, 4))
        assert exc.value.violation == Violation(1, 2, 3, 4)

    def test_verifies_and_preserves_order(self):
        rng = random.Random(13)
        produced = 0
        while produced < 50:
            g = random_connected_graph(rng, rng.randint(2, 8))
            perm = list(g.vertices())
            rng.shuffle(perm)
            o = tuple(perm)
            if four_point_check(g, o) is not None:
                continue
            produced += 1
            r = realization_from_ordering(g, o)
            assert verify(r, g).ok
            assert r_order(r) == o


class TestImplicitCodes:
    def test_codes_listed_by_vertex_id(self, paw_graph):
        codes = implicit_encode(paw_graph, (4, 3, 1, 2))
        assert [c.pos for c in codes] == [3, 4, 2, 1]

    def test_adjacency_from_codes_alone(self):
        rng = random.Random(14)
        checked = 0
        while checked < 40:
            g = random_connected_graph(rng, rng.randint(2, 9))
            res = and1_recognize(g)
            if not res.found:
                continue
            checked += 1
            codes = implicit_encode(g, res.ordering)
            for u in g.vertices():
                for v in g.vertices():
                    if u == v:
                        continue
                    assert implicit_adjacent(codes[u - 1], codes[v - 1]) == g.has_edge(u, v)

    def test_requires_clean_ordering(self):
        g = Graph.from_edges(4, [(1, 3), (2, 4)])
        with pytest.raises(FourPointViolationError):
            implicit_encode(g, (1, 2, 3, 4))

    def test_symmetric(self):
        g = cycle_graph(6)
        codes = implicit_encode(g, and1_recognize(g).ordering)
        for a in codes:
            for b in codes:
                assert implicit_adjacent(a, b) == implicit_adjacent(b, a)


class TestRecognizer:
    def test_members_get_verifying_orderings(self):
        rng = random.Random(15)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(1, 8), extra_edge_prob=0.2)
            res = and1_recognize(g)
            if res.found:
                assert naive_four_point_scan(g, res.ordering) is None
                r = realization_from_ordering(g, res.ordering)
                assert verify(r, g).ok

    def test_octahedron_rejected_with_frozen_node_count(self):
        res = and1_recognize(complete_multipartite_graph([2, 2, 2]))
        assert res.status == "not_member"
        assert res.ordering is None
        assert res.nodes == 60

    @pytest.mark.parametrize("lengths, nodes", [((4, 5, 5), 290_954), ((5, 5, 5), 844_133)])
    def test_h_graphs_rejected_within_a_million_nodes(self, lengths, nodes):
        # the pair rule decides both; the look-ahead alone exhausts 10^6 nodes
        res = and1_recognize(families.h_graph(*lengths).graph, budget=10**6)
        assert (res.status, res.ordering, res.nodes) == ("not_member", None, nodes)

    def test_k23_found_quickly(self):
        g = complete_multipartite_graph([2, 3])
        res = and1_recognize(g)
        assert res.found
        assert res.nodes == 5
        assert naive_four_point_scan(g, res.ordering) is None

    def test_budget_exhaustion(self):
        res = and1_recognize(complete_multipartite_graph([2, 2, 2]), budget=10)
        assert res.status == "exhausted"
        assert res.ordering is None
        assert res.nodes == 10

    def test_found_ordering_is_rechecked(self, monkeypatch, square_graph):
        # 1, 2, 4, 3 violates the four point condition on the square
        monkeypatch.setattr(kernels, "search_order", lambda masks, budget: (kernels.FOUND, [0, 1, 3, 2], 1))
        with pytest.raises(FourPointViolationError):
            and1_recognize(square_graph)

    def test_certified_ordering_is_rechecked(self, monkeypatch, square_graph):
        monkeypatch.setattr(orders, "_sweep_certificate", lambda g: [0, 1, 3, 2])
        with pytest.raises(FourPointViolationError):
            and1_recognize(square_graph)

    def test_negative_budget_rejected(self):
        with pytest.raises(OrderingError):
            and1_recognize(cycle_graph(3), budget=-1)

    def test_disconnected_graph_member(self):
        # one square and one path laid out per component
        g = Graph.from_edges(7, [(1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
        res = and1_recognize(g)
        assert res.found
        assert sorted(res.ordering) == list(range(1, 8))
        assert naive_four_point_scan(g, res.ordering) is None

    def test_components_read_only_their_own_vertices(self, monkeypatch):
        # 2,000 components; building each from the whole edge list made one
        # edge_list call (and a sort of all edges) per component
        n = 4000
        g = Graph.from_edges(n, [(i, i + 1) for i in range(1, n, 2)])
        calls = 0
        edge_list = Graph.edge_list

        def counted(self):
            nonlocal calls
            calls += 1
            return edge_list(self)

        monkeypatch.setattr(Graph, "edge_list", counted)
        res = and1_recognize(g)
        # a LexBFS sweep certifies every 2-vertex component: no kernel nodes
        assert res.found and res.nodes == 0
        assert res.ordering == tuple(range(1, n + 1))
        assert calls == 0

    @pytest.mark.parametrize("n", [12, 30, 60])
    def test_interval_graphs_certified_without_the_kernel(self, n):
        # without the sweeps all 30 are exhausted at budget 0; the kernel
        # alone finds n = 30 seeds 0 and 1 and n = 60 seed 0 in at most
        # 3,238 nodes (test_kernels.py)
        for seed in range(10):
            g = families.random_interval(n, seed).graph
            res = and1_recognize(g, budget=0)
            assert res.found and res.nodes == 0
            assert naive_four_point_scan(g, res.ordering) is None

    def test_long_path_certified_without_recursion(self):
        g = path_graph(5000)
        res = and1_recognize(g, budget=0)
        assert res.found and res.nodes == 0
        assert res.ordering == tuple(g.vertices())

    def test_disconnected_graph_with_bad_component(self):
        edges = complete_multipartite_graph([2, 2, 2]).edge_list() + [(7, 8)]
        g = Graph.from_edges(8, edges)
        res = and1_recognize(g)
        assert res.status == "not_member"

    def test_agrees_with_exhaustive_enumeration(self):
        # full cross-check on every connected graph with up to 5 vertices
        rng = random.Random(16)
        seen = set()
        pool = [random_connected_graph(rng, rng.randint(1, 5), 0.5) for _ in range(120)]
        for g in pool:
            key = (g.n, tuple(g.edge_list()))
            if key in seen:
                continue
            seen.add(key)
            res = and1_recognize(g)
            assert res.status in ("found", "not_member")
            expected_some = any(
                naive_four_point_scan(g, perm) is None
                for perm in permutations(g.vertices())
            )
            assert res.found == expected_some


def random_graph(rng, n):
    p = rng.choice((0.2, 0.4, 0.6, 0.8))
    return Graph.from_edges(
        n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]
    )


class TestLexBFS:
    def test_sweep_is_a_lexbfs_ordering(self):
        # a < b < c with ac in E and ab not in E need some d < a with db in
        # E and dc not in E (the LexBFS four-point characterization)
        rng = random.Random(19)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 12))
            prior = list(range(g.n))
            rng.shuffle(prior)
            order = lexbfs(g.masks, prior)
            assert sorted(order) == list(range(g.n))

            def adj(u, v):
                return g.masks[u] >> v & 1

            for a, b, c in combinations(range(g.n), 3):
                x, y, z = order[a], order[b], order[c]
                if adj(x, z) and not adj(x, y):
                    assert any(
                        adj(order[d], y) and not adj(order[d], z) for d in range(a)
                    ), (g.edge_list(), order)

    def test_plus_sweep_breaks_ties_by_latest_in_previous_sweep(self):
        rng = random.Random(20)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 12))
            prior = list(range(g.n))
            rng.shuffle(prior)
            sweep = lexbfs(g.masks, prior)
            # the fixed point that ends _sweep_certificate early
            assert lexbfs(g.masks, sweep) == sweep
            plus = lexbfs(g.masks, sweep[::-1])
            where = {v: i for i, v in enumerate(sweep)}
            seen = 0
            for i, v in enumerate(plus):
                # equal labels: the same visited neighbours
                ties = [u for u in plus[i:] if g.masks[u] & seen == g.masks[v] & seen]
                assert max(ties, key=where.get) == v, (g.edge_list(), sweep, plus)
                seen |= 1 << v


class TestCycleLabelAnalysis:
    def test_identity_labeling_for_clean_cycle(self):
        r = realization_from_ordering(cycle_graph(4), (1, 2, 3, 4))
        rep = cycle_label_analysis(r)
        assert rep.max_deviation == 0
        assert rep.extremes_adjacent
        assert rep.labeling == {1: 1, 2: 2, 3: 3, 4: 4}

    def test_deviation_counts_label_vs_rank_gap(self):
        from andbox.realization import Realization

        # C_4 with point order 1,3,2,4: walking the cycle cannot match
        # ranks exactly, best deviation is 1
        r = Realization.build(
            1,
            {
                1: ((0, 3), 0),
                2: ((0, 2), 2),
                3: ((1, 3), 1),
                4: ((0, 3), 3),
            },
        )
        assert edge_set(induced_graph(r)) == edge_set(cycle_graph(4))
        rep = cycle_label_analysis(r)
        assert rep.max_deviation == 1

    def test_rejects_non_cycle(self, paw_realization):
        with pytest.raises(OrderingError):
            cycle_label_analysis(paw_realization)

    def test_extremes_flag(self):
        from andbox.constructors import cycle_cand1

        rep = cycle_label_analysis(cycle_cand1(7))
        assert rep.extremes_adjacent
        assert rep.max_deviation == 0


class TestOrderingsAreTuples:
    """An ordering is a sequence of vertex ids: every consumer takes a
    tuple or a list, and every producer returns a tuple."""

    @pytest.mark.parametrize("kind", [tuple, list])
    def test_consumers_take_any_sequence(self, kind, tmp_path):
        g, order = path_graph(4), kind((1, 2, 3, 4))
        _, lo, hi = rank_bounds(g, order)
        assert (lo, hi) == ([1, 1, 2, 3], [2, 3, 4, 4])
        assert four_point_check(g, order) is None
        two_k2 = Graph.from_edges(4, [(1, 3), (2, 4)])
        assert four_point_check(two_k2, order) == Violation(1, 2, 3, 4)
        codes = implicit_encode(g, order)
        assert codes == tuple(ImplicitCode(*c) for c in [(1, 2, 1), (1, 3, 2), (2, 4, 3), (3, 4, 4)])
        assert realization_from_ordering(g, order) == realization_from_codes(codes)
        res = cand1_for_ordering(g, order)
        assert res.found and r_order(res.realization) == (1, 2, 3, 4)
        assert fileio.dumps_ordering(order) == "o 1 2 3 4\n"
        fileio.save_file(str(tmp_path / "p4.order"), "ordering", order)
        assert (tmp_path / "p4.order").read_text() == "o 1 2 3 4\n"

    def test_producers_return_tuples(self, tmp_path):
        (tmp_path / "g.order").write_text("o 3 1 2\n")
        graphs = [path_graph(4), cycle_graph(5), Graph.from_edges(5, [(1, 2)])]
        produced = [
            fileio.loads_ordering("o 3 1 2\n"),
            fileio.load_file(str(tmp_path / "g.order"), "ordering"),
            rdp_ordering(families.random_rooted_path(10, 1).aux),
            h_graph_ordering(families.h_graph(2, 3, 3).aux),
            h_graph_ordering(families.h_graph(3, 3, 4).aux),
            *(and1_recognize(g).ordering for g in graphs),
            *(cand1_recognize(g).ordering for g in graphs),
        ]
        assert all(type(o) is tuple for o in produced), [type(o) for o in produced]

    @pytest.mark.parametrize("t", [(1,), (3, 1, 2), tuple(range(12, 0, -1))])
    def test_text_round_trip(self, t):
        assert fileio.loads_ordering(fileio.dumps_ordering(t)) == t
        assert fileio.loads_ordering(fileio.dumps_ordering(list(t))) == t
