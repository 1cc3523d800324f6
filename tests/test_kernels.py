"""The ordering search kernel: frozen instances, budgets, a node-for-node
match with the direct-scan reference search, whose plain form checks that
the look-ahead prunes only subtrees without a passing ordering, and the
enumeration of every passing ordering against brute force."""

import random
from itertools import combinations, permutations

from andbox import _kernels_py, families, kernels
from andbox.graphs import Graph, complete_multipartite_graph, path_graph
from andbox.orders import and1_recognize

from conftest import naive_four_point_scan, random_connected_graph, reference_search_order

STATUS = {kernels.FOUND: "found", kernels.NOT_MEMBER: "not_member", kernels.EXHAUSTED: "exhausted"}


def masks(g: Graph):
    return [sum(1 << (u - 1) for u in g.neighbors(v)) for v in g.vertices()]


def test_backend_name():
    # perfbench/tracing.py wraps only functions defined in andbox.kernels,
    # and perfbench/run.py imports andbox._kernels_py and records the backend.
    assert kernels.search_order.__module__ == "andbox.kernels"
    assert _kernels_py.search_order is kernels.search_order
    assert kernels.backend_name() == "pure-python"


def test_status_constants_distinct():
    assert len({kernels.FOUND, kernels.NOT_MEMBER, kernels.EXHAUSTED}) == 3


def test_pure_kernel_frozen_instances():
    status, order, nodes = kernels.search_order(masks(complete_multipartite_graph([2, 2, 2])), 10**8)
    assert (status, order, nodes) == (kernels.NOT_MEMBER, [], 610)
    status, order, nodes = kernels.search_order(masks(complete_multipartite_graph([2, 3])), 10**8)
    assert status == kernels.FOUND and nodes == 5
    assert order == [0, 1, 2, 3, 4]


def test_look_ahead_work_counts():
    # plain search: 380,422, 534,906 and 1,928,003 nodes
    h344 = families.h_graph(3, 4, 4).graph
    status, order, nodes = kernels.search_order(masks(h344), 10**8)
    assert status == kernels.FOUND and nodes == 32_853
    assert naive_four_point_scan(h344, [i + 1 for i in order]) is None
    k22222 = complete_multipartite_graph([2, 2, 2, 2, 2])
    assert kernels.search_order(masks(k22222), 10**8) == (kernels.NOT_MEMBER, [], 143_874)
    block = families.random_block_graph(16, 5).graph
    status, order, nodes = kernels.search_order(masks(block), 10**8)
    assert status == kernels.FOUND and nodes == 34
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
    for budget in (0, 1, 10, 500):
        status, order, nodes = kernels.search_order(masks(g), budget)
        assert status == kernels.EXHAUSTED
        assert order == []
        assert nodes == budget
    # one node above the full tree size changes nothing
    status, _, nodes = kernels.search_order(masks(g), 610)
    assert status == kernels.NOT_MEMBER and nodes == 610


def test_graph_masks_are_the_kernel_input(connected_atlas):
    for g in connected_atlas:
        assert list(g.masks) == masks(g), g.edge_list()


def test_matches_reference_search_node_for_node(connected_atlas):
    for g in connected_atlas:
        m = masks(g)
        full = kernels.search_order(m, 10**9)
        assert (STATUS[full[0]], *full[1:]) == reference_search_order(g, 10**9), g.edge_list()
        for budget in (0, 1, 3, 17):
            status, order, nodes = kernels.search_order(m, budget)
            assert (STATUS[status], order, nodes) == reference_search_order(g, budget), (
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


def test_kernel_handles_graphs_beyond_64_vertices():
    res = and1_recognize(path_graph(70))
    assert res.found
    assert sorted(res.ordering.order) == list(range(1, 71))


def brute_force_orderings(g: Graph):
    """0-indexed permutations with p[0] < p[-1] that pass the quadruple
    scan, in lexicographic order."""
    n = g.n
    return [
        [v - 1 for v in p]
        for p in permutations(g.vertices())
        if (n < 2 or p[0] < p[-1]) and naive_four_point_scan(g, p) is None
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
    assert len(full) == 25 and full[-1][0] == kernels.NOT_MEMBER
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
