"""The ordering search kernel: frozen instances, budgets, and a node-for-node
match with the direct-scan reference search."""

import random

from andbox import _kernels_py, kernels
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
    assert (status, order, nodes) == (kernels.NOT_MEMBER, [], 1054)
    status, order, nodes = kernels.search_order(masks(complete_multipartite_graph([2, 3])), 10**8)
    assert status == kernels.FOUND and nodes == 5
    assert order == [0, 1, 2, 3, 4]


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
    status, _, nodes = kernels.search_order(masks(g), 1054)
    assert status == kernels.NOT_MEMBER and nodes == 1054


def test_graph_masks_are_the_kernel_input(connected_atlas):
    for g in connected_atlas:
        assert list(g.masks) == masks(g), g.edge_list()


def test_matches_reference_search_node_for_node(connected_atlas):
    for g in connected_atlas:
        m = masks(g)
        for budget in (10**9, 0, 1, 3, 17):
            status, order, nodes = kernels.search_order(m, budget)
            assert (STATUS[status], order, nodes) == reference_search_order(g, budget), (
                g.edge_list(),
                budget,
            )


def test_kernel_handles_graphs_beyond_64_vertices():
    res = and1_recognize(path_graph(70))
    assert res.found
    assert sorted(res.ordering.order) == list(range(1, 71))
