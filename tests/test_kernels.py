"""The ordering search kernel: frozen instances, budgets, a node-for-node
match with the direct-scan reference search, whose plain, twin-free and
pair-free forms check that the look-ahead, the twin rule and the pair
rule prune only subtrees without a first passing ordering, and the
enumeration of every passing ordering with its twins in increasing id
against brute force."""

import random
from itertools import combinations, permutations

from andbox import _kernels_py, families, kernels
from andbox.graphs import Graph, complete_multipartite_graph, path_graph
from andbox.orders import and1_recognize

from conftest import (
    naive_four_point_scan,
    random_connected_graph,
    reference_search_order,
    twin_pairs,
    twins_in_order,
)

def masks(g: Graph):
    return [sum(1 << (u - 1) for u in g.neighbors(v)) for v in g.vertices()]


def test_backend_name():
    # perfbench/tracing.py wraps only functions defined in andbox.kernels,
    # and perfbench/run.py imports andbox._kernels_py and records the backend.
    assert kernels.search_order.__module__ == "andbox.kernels"
    assert _kernels_py.search_order is kernels.search_order
    assert kernels.backend_name() == "pure-python"


def test_status_constants_distinct():
    # the statuses are the strings the recognizers report
    assert (kernels.FOUND, kernels.NOT_MEMBER, kernels.EXHAUSTED) == ("found", "not_member", "exhausted")


def test_pure_kernel_frozen_instances():
    status, order, nodes = kernels.search_order(masks(complete_multipartite_graph([2, 2, 2])), 10**8)
    assert (status, order, nodes) == (kernels.NOT_MEMBER, [], 60)
    status, order, nodes = kernels.search_order(masks(complete_multipartite_graph([2, 3])), 10**8)
    assert status == kernels.FOUND and nodes == 5
    assert order == [0, 1, 2, 3, 4]


def test_look_ahead_work_counts():
    # plain search: 380,422, 534,906 and 1,928,003 nodes; without the twin
    # rule K(2,2,2,2,2) takes 143,874 and the block graph 34 (h(3,4,4) has
    # no twins); without the pair rule 32,853, 6,850 and 28
    h344 = families.h_graph(3, 4, 4).graph
    status, order, nodes = kernels.search_order(masks(h344), 10**8)
    assert status == kernels.FOUND and nodes == 4_980
    assert naive_four_point_scan(h344, [i + 1 for i in order]) is None
    k22222 = complete_multipartite_graph([2, 2, 2, 2, 2])
    assert kernels.search_order(masks(k22222), 10**8) == (kernels.NOT_MEMBER, [], 310)
    block = families.random_block_graph(16, 5).graph
    status, order, nodes = kernels.search_order(masks(block), 10**8)
    assert status == kernels.FOUND and nodes == 25
    assert naive_four_point_scan(block, [i + 1 for i in order]) is None


def test_found_orders_satisfy_quadruple_scan():
    rng = random.Random(21)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(1, 9))
        status, order, _ = kernels.search_order(masks(g), 10**7)
        if status == kernels.FOUND:
            vertex_order = [i + 1 for i in order]
            assert sorted(vertex_order) == list(g.vertices())
            assert naive_four_point_scan(g, vertex_order) is None


def test_budget_counts_processed_placements():
    g = complete_multipartite_graph([2, 2, 2])
    for budget in (0, 1, 10, 59):
        status, order, nodes = kernels.search_order(masks(g), budget)
        assert status == kernels.EXHAUSTED
        assert order == []
        assert nodes == budget
    # one node above the full tree size changes nothing
    status, _, nodes = kernels.search_order(masks(g), 60)
    assert status == kernels.NOT_MEMBER and nodes == 60


def test_graph_masks_are_the_kernel_input(connected_atlas):
    for g in connected_atlas:
        assert list(g.masks) == masks(g), g.edge_list()


def test_matches_reference_search_node_for_node(connected_atlas):
    for g in connected_atlas:
        m = masks(g)
        full = kernels.search_order(m, 10**9)
        assert full == reference_search_order(g, 10**9), g.edge_list()
        for budget in (0, 1, 3, 17):
            status, order, nodes = kernels.search_order(m, budget)
            assert (status, order, nodes) == reference_search_order(g, budget), (
                g.edge_list(),
                budget,
            )
            # a budget cuts the search short or changes nothing
            assert (status, nodes) == (kernels.EXHAUSTED, budget) or (status, order, nodes) == full


def test_look_ahead_keeps_verdict_and_ordering(connected_atlas):
    for g in connected_atlas:
        status, order, nodes = reference_search_order(g, 10**9)
        plain_status, plain_order, plain_nodes = reference_search_order(g, 10**9, look_ahead=False)
        assert (status, order) == (plain_status, plain_order), g.edge_list()
        assert nodes <= plain_nodes, g.edge_list()


def test_twin_rule_keeps_verdict_and_ordering(connected_atlas):
    for g in connected_atlas:
        status, order, nodes = kernels.search_order(masks(g), 10**9)
        free_status, free_order, free_nodes = reference_search_order(g, 10**9, twins=False)
        assert (status, order) == (free_status, free_order), g.edge_list()
        assert nodes <= free_nodes, g.edge_list()


def test_pair_rule_keeps_verdict_and_ordering(connected_atlas):
    for g in connected_atlas:
        status, order, nodes = kernels.search_order(masks(g), 10**9)
        free_status, free_order, free_nodes = reference_search_order(g, 10**9, pairs=False)
        assert (status, order) == (free_status, free_order), g.edge_list()
        assert nodes <= free_nodes, g.edge_list()


def test_pair_rule_decides_random_interval_graphs():
    # the look-ahead alone exhausts 10^6 nodes on each (and1_recognize's
    # sweeps certify them before the kernel runs)
    for n, seed, expected in ((30, 0, 3_238), (30, 1, 162), (60, 0, 2_277)):
        g = families.random_interval(n, seed).graph
        status, order, nodes = kernels.search_order(masks(g), 10**6)
        assert (status, nodes) == (kernels.FOUND, expected), (n, seed)
        assert naive_four_point_scan(g, [i + 1 for i in order]) is None


def test_no_vertex_has_both_twin_kinds(connected_atlas):
    # so one predecessor per vertex orders both kinds of twin class
    for g in connected_atlas:
        nb = {v: set(g.neighbors(v)) for v in g.vertices()}
        for v in g.vertices():
            kinds = {
                "open" if nb[u] == nb[v] else "closed"
                for u in g.vertices()
                if u != v and (nb[u] == nb[v] or nb[u] | {u} == nb[v] | {v})
            }
            assert len(kinds) <= 1, (g.edge_list(), v)


def test_complete_graph_is_one_true_twin_class():
    # every vertex waits for the one before it: the identity, one node a rank
    for n in range(1, 9):
        g = complete_multipartite_graph([1] * n)
        assert kernels.search_order(masks(g), 10**9) == (kernels.FOUND, list(range(n)), n)
        assert list(kernels.orderings(masks(g), 10**9)) == [
            (kernels.FOUND, list(range(n)), n),
            (kernels.NOT_MEMBER, [], n),
        ]


def test_twin_classes_of_both_kinds():
    # true twins 1, 2 (N[1] = N[2] = {1, 2, 3}) and false twins 4, 5
    # (N(4) = N(5) = {3}) around the cut vertex 3
    g = Graph.from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5)])
    assert twin_pairs(g) == [(1, 2), (4, 5)]
    found = [order for status, order, _ in kernels.orderings(masks(g), 10**9) if status == kernels.FOUND]
    assert found == brute_force_orderings(g)
    assert len(found) == 14


def test_kernel_handles_graphs_beyond_64_vertices():
    res = and1_recognize(path_graph(70))
    assert res.found
    assert sorted(res.ordering) == list(range(1, 71))


def brute_force_orderings(g: Graph):
    """0-indexed permutations with p[0] < p[-1] and twins in increasing id
    that pass the quadruple scan, in lexicographic order."""
    n = g.n
    pairs = twin_pairs(g)
    return [
        [v - 1 for v in p]
        for p in permutations(g.vertices())
        if (n < 2 or p[0] < p[-1]) and twins_in_order(pairs, p) and naive_four_point_scan(g, p) is None
    ]


def test_enumeration_matches_brute_force(connected_atlas):
    rng = random.Random(22)
    disconnected = []
    while len(disconnected) < 5:
        n = rng.randint(3, 7)
        g = Graph.from_edges(n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.3])
        if not g.is_connected():
            disconnected.append(g)
    for g in [g for g in connected_atlas if g.n <= 6] + disconnected:
        m = masks(g)
        items = list(kernels.orderings(m, 10**9))
        *found, (last, order, _) = items
        assert (last, order) == (kernels.NOT_MEMBER, []), g.edge_list()
        assert all(status == kernels.FOUND for status, _, _ in found)
        assert [order for _, order, _ in found] == brute_force_orderings(g), g.edge_list()
        nodes = [item[2] for item in items]
        assert nodes == sorted(nodes)
        assert items[0] == kernels.search_order(m, 10**9)


def test_enumeration_budget_ends_the_stream():
    m = masks(complete_multipartite_graph([2, 3]))
    full = list(kernels.orderings(m, 10**9))
    # the false twins {0, 1} and {2, 3, 4} leave two orderings
    assert len(full) == 3 and full[-1][0] == kernels.NOT_MEMBER
    for budget in (0, 1, 7, full[-1][2] - 1):
        items = list(kernels.orderings(m, budget))
        assert items[-1] == (kernels.EXHAUSTED, [], budget)
        # a budget cuts the stream short, the items before the cut unchanged
        assert items[:-1] == full[: len(items) - 1]
        assert all(status == kernels.FOUND for status, _, _ in items[:-1])


def test_enumeration_of_tiny_graphs():
    assert list(kernels.orderings([], 10**9)) == [(kernels.FOUND, [], 0), (kernels.NOT_MEMBER, [], 0)]
    assert list(kernels.orderings([], 0))[0] == kernels.search_order([], 0) == (kernels.FOUND, [], 0)
    assert list(kernels.orderings([0], 10**9)) == [(kernels.FOUND, [0], 1), (kernels.NOT_MEMBER, [], 1)]
    assert list(kernels.orderings([0], 0)) == [(kernels.EXHAUSTED, [], 0)]
    assert kernels.search_order([0], 0) == (kernels.EXHAUSTED, [], 0)
