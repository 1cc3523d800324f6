"""Graph type, named constructions, block decomposition, obstruction test."""

import random
from itertools import combinations

import pytest

from andbox.graphs import (
    BlockDecomposition,
    Graph,
    GraphError,
    block_decomposition,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    has_double_nonadjacent_common_neighbors,
    path_graph,
    relabel_masks,
)
from andbox.orders import rank_bounds

from conftest import edge_set, neighbour_sets, random_connected_graph, reference_rank_bounds


def fz(u, v):
    return frozenset((u, v))


class TestGraphBasics:
    def test_accessors(self):
        g = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 3)])
        assert g.n == 4
        assert g.m == 4
        assert list(g.vertices()) == [1, 2, 3, 4]
        assert g.neighbors(3) == (1, 2, 4)
        assert g.degree(3) == 3
        assert g.has_edge(2, 3) and g.has_edge(3, 2)
        assert not g.has_edge(1, 4)
        assert g.edge_list() == [(1, 2), (1, 3), (2, 3), (3, 4)]

    def test_rejects_loop(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, [(1, 2), (2, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, [(1, 4)])
        with pytest.raises(GraphError):
            Graph.from_edges(3, [(0, 2)])

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(GraphError):
            Graph.from_edges(0, [])

    def test_connectivity(self):
        g = Graph.from_edges(5, [(1, 2), (3, 4), (4, 5)])
        assert not g.is_connected()
        assert g.connected_components() == [(1, 2), (3, 4, 5)]
        assert Graph.from_edges(1, []).is_connected()

    def test_subgraph_relabels(self):
        g = Graph.from_edges(5, [(1, 3), (3, 5), (2, 4)])
        sub, old_of_new = g.subgraph([1, 3, 5])
        assert sub.n == 3
        assert sub.edge_list() == [(1, 2), (2, 3)]
        assert old_of_new == {1: 1, 2: 3, 3: 5}


class TestGraphRepresentation:
    def test_equal_and_hash_alike_for_any_edge_order(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(1, 12), extra_edge_prob=0.4)
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edge_list()]
            rng.shuffle(edges)
            h = Graph.from_edges(g.n, edges)
            assert h == g and hash(h) == hash(g)

    def test_same_edges_other_vertex_count_differ(self):
        assert Graph.from_edges(3, [(1, 2)]) != Graph.from_edges(4, [(1, 2)])

    def test_has_edge_outside_the_vertex_range(self):
        g = complete_graph(4)
        for bad in (0, -1, 5):
            assert g.has_edge(bad, 2) is False
            assert g.has_edge(2, bad) is False

    def test_neighbors_sorted_beyond_64_vertices(self):
        rng = random.Random(11)
        n = 150
        edges = rng.sample(list(combinations(range(1, n + 1), 2)), 900)
        g = Graph.from_edges(n, edges)
        for v in g.vertices():
            expected = sorted({b for a, b in edges if a == v} | {a for a, b in edges if b == v})
            assert list(g.neighbors(v)) == expected
            assert g.degree(v) == len(expected)
        assert g.m == 900
        assert g.edge_list() == sorted(edges)

    def test_neighbors_and_degree_reject_vertices_outside_the_range(self):
        g = path_graph(4)
        for bad in (0, -1, 5):
            with pytest.raises(GraphError, match=rf"^vertex {bad} out of range 1\.\.4$"):
                g.neighbors(bad)
            with pytest.raises(GraphError):
                g.degree(bad)

    def test_subgraph_of_non_contiguous_vertices(self):
        rng = random.Random(12)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(1, 20), extra_edge_prob=0.3)
            keep = sorted(rng.sample(list(g.vertices()), rng.randint(1, g.n)))
            sub, old_of_new = g.subgraph(reversed(keep))
            assert sub.n == len(keep)
            assert [old_of_new[i] for i in sub.vertices()] == keep
            expected = {
                (keep.index(u) + 1, keep.index(v) + 1)
                for u, v in g.edge_list()
                if u in keep and v in keep
            }
            assert set(sub.edge_list()) == expected
            assert sub == Graph.from_edges(sub.n, expected)

    def test_relabelling_matches_neighbour_sets(self):
        # relabel_masks, rank_bounds and subgraph against neighbour sets
        # read off the edge list; random subsets drop outside neighbours
        rng = random.Random(27)
        for _ in range(200):
            n = rng.randint(1, 12)
            p = rng.random()
            edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]
            nbrs = neighbour_sets(n, edges)
            g = Graph.from_edges(n, edges)
            keep = rng.sample(range(1, n + 1), rng.randint(0, n))
            rows = relabel_masks(g.masks, [v - 1 for v in keep])
            assert rows == [
                sum(1 << i for i, u in enumerate(keep) if u in nbrs[v]) for v in keep
            ]
            order = rng.sample(range(1, n + 1), n)
            rows, lo, hi = rank_bounds(g, order)
            assert rows == [
                sum(1 << i for i, u in enumerate(order) if u in nbrs[v]) for v in order
            ]
            ref_lo, ref_hi = reference_rank_bounds(nbrs, order)
            assert lo == [ref_lo[v] for v in order]
            assert hi == [ref_hi[v] for v in order]
            if keep:
                sub, old_of_new = g.subgraph(keep)
                kept = sorted(keep)
                assert [old_of_new[i] for i in sub.vertices()] == kept
                for a, u in enumerate(kept, 1):
                    assert set(sub.neighbors(a)) == {kept.index(w) + 1 for w in nbrs[u] if w in keep}

    def test_edgeless(self):
        g = Graph.from_edges(5, [])
        assert g.m == 0
        assert g.edge_list() == []
        assert g.neighbors(3) == ()
        assert g.connected_components() == [(1,), (2,), (3,), (4,), (5,)]

    def test_from_edges_messages(self):
        with pytest.raises(GraphError, match="^loop at vertex 2$"):
            Graph.from_edges(3, [(1, 2), (2, 2)])
        with pytest.raises(GraphError, match=r"^edge 1,4 out of range 1\.\.3$"):
            Graph.from_edges(3, [(1, 4)])
        with pytest.raises(GraphError, match=r"^edge 0,2 out of range 1\.\.3$"):
            Graph.from_edges(3, [(0, 2)])
        with pytest.raises(GraphError, match="^duplicate edge 1,2$"):
            Graph.from_edges(3, [(1, 2), (2, 1)])
        with pytest.raises(GraphError, match="^duplicate edge 2,3$"):
            Graph.from_edges(3, [(3, 2), (1, 2), (3, 2)])
        with pytest.raises(GraphError, match="^vertex count must be >= 1$"):
            Graph.from_edges(0, [])


class TestNamedGraphs:
    def test_cycle(self):
        g = cycle_graph(4)
        assert edge_set(g) == {fz(1, 2), fz(2, 3), fz(3, 4), fz(1, 4)}
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_path(self):
        g = path_graph(4)
        assert edge_set(g) == {fz(1, 2), fz(2, 3), fz(3, 4)}
        assert path_graph(1).m == 0

    def test_complete(self):
        g = complete_graph(4)
        assert g.m == 6
        assert all(g.has_edge(u, v) for u, v in combinations(range(1, 5), 2))

    def test_complete_multipartite(self):
        g = complete_multipartite_graph([2, 2, 2])
        # octahedron: parts {1,2},{3,4},{5,6}; edges across parts only
        assert g.n == 6 and g.m == 12
        assert not g.has_edge(1, 2) and not g.has_edge(3, 4) and not g.has_edge(5, 6)
        assert g.has_edge(1, 3) and g.has_edge(2, 6)
        g2 = complete_multipartite_graph([2, 3])
        assert g2.m == 6 and not g2.has_edge(4, 5)


def nx_block_oracle(g: Graph):
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(g.vertices())
    G.add_edges_from(g.edge_list())
    blocks = {frozenset(c) for c in nx.biconnected_components(G)}
    cuts = frozenset(nx.articulation_points(G))
    return blocks, cuts


class TestBlockDecomposition:
    def test_bowtie(self):
        g = Graph.from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
        bd = block_decomposition(g)
        assert set(bd.blocks) == {frozenset({1, 2, 3}), frozenset({3, 4, 5})}
        assert bd.cut_vertices == frozenset({3})
        assert bd.blocks_at(3) == (0, 1)
        assert bd.blocks_at(1) == (0,)

    def test_blocks_at_matches_a_scan_of_the_blocks(self):
        rng = random.Random(5)
        for _ in range(20):
            bd = block_decomposition(random_connected_graph(rng, rng.randint(1, 14), 0.15))
            for v in range(0, 16):
                scan = tuple(i for i, b in enumerate(bd.blocks) if v in b)
                assert bd.blocks_at(v) == scan
        # the index is derived state: built from blocks, ignored by ==
        built = BlockDecomposition(bd.blocks, bd.cut_vertices, bd.edges)
        assert built == bd and built.blocks_at(1) == bd.blocks_at(1)

    def test_path_blocks_are_bridges(self):
        bd = block_decomposition(path_graph(4))
        assert set(bd.blocks) == {frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4})}
        assert bd.cut_vertices == frozenset({2, 3})

    def test_biconnected_graph_is_one_block(self):
        bd = block_decomposition(cycle_graph(6))
        assert bd.blocks == (frozenset(range(1, 7)),)
        assert bd.cut_vertices == frozenset()

    def test_single_vertex(self):
        bd = block_decomposition(Graph.from_edges(1, []))
        assert bd.blocks == (frozenset({1}),)
        assert bd.cut_vertices == frozenset()
        assert bd.edges == ((),)

    @staticmethod
    def check_edges(g):
        """bd.edges partitions g's edges, each list sorted, each edge
        inside its own block."""
        bd = block_decomposition(g)
        assert len(bd.edges) == len(bd.blocks)
        for blk, es in zip(bd.blocks, bd.edges):
            assert list(es) == sorted(es)
            assert all(u < v and u in blk and v in blk for u, v in es)
        assert sorted(e for es in bd.edges for e in es) == g.edge_list()

    def test_block_edges_partition_the_edges(self):
        rng = random.Random(26)
        for _ in range(200):
            self.check_edges(random_connected_graph(rng, rng.randint(1, 30), rng.choice((0.05, 0.2, 0.5))))

    def test_block_edges_partition_the_atlas_edges(self, connected_atlas):
        for g in connected_atlas:
            self.check_edges(g)

    def test_requires_connected(self):
        with pytest.raises(GraphError):
            block_decomposition(Graph.from_edges(4, [(1, 2), (3, 4)]))

    def test_matches_networkx_on_random_graphs(self):
        rng = random.Random(42)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(2, 16))
            bd = block_decomposition(g)
            blocks, cuts = nx_block_oracle(g)
            assert set(bd.blocks) == blocks
            assert bd.cut_vertices == cuts
            # deterministic order: by (min vertex, sorted tuple)
            keys = [(min(b), tuple(sorted(b))) for b in bd.blocks]
            assert keys == sorted(keys)


class TestDoubleNonadjacentCommonNeighbors:
    def test_octahedron_has_property(self):
        assert has_double_nonadjacent_common_neighbors(
            complete_multipartite_graph([2, 2, 2])
        )

    def test_small_graphs_lack_property(self):
        assert not has_double_nonadjacent_common_neighbors(Graph.from_edges(1, []))
        assert not has_double_nonadjacent_common_neighbors(cycle_graph(4))
        assert not has_double_nonadjacent_common_neighbors(complete_graph(4))
        assert not has_double_nonadjacent_common_neighbors(path_graph(3))

    def test_matches_pairwise_definition(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 9), extra_edge_prob=0.5)
            expected = True
            for u, v in combinations(g.vertices(), 2):
                common = set(g.neighbors(u)) & set(g.neighbors(v))
                if not any(
                    not g.has_edge(a, b) for a, b in combinations(sorted(common), 2)
                ):
                    expected = False
                    break
            assert has_double_nonadjacent_common_neighbors(g) == expected
