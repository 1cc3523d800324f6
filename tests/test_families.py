"""Graph family generators and their aux-model consistency."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from andbox.families import (
    HGraphSpec,
    IntervalModel,
    RootedPathModel,
    complete_multipartite,
    cycle,
    family_names,
    generate,
    h_graph,
    path,
    random_block_graph,
    random_dissection,
    random_interval,
    random_rooted_path,
)
from andbox.constructors import rdp_ordering
from andbox.graphs import GraphError, block_decomposition

from conftest import edge_set, oracle_interval_overlap_edges, reference_rooted_path_edges


def fz(u, v):
    return frozenset((u, v))


def h_spec_edges(spec: HGraphSpec) -> set:
    """Rebuild the three-path edge set straight from the HGraphSpec fields."""
    out = set()
    for path_vs in (spec.x, spec.y, spec.z):
        seq = (spec.a,) + tuple(path_vs) + (spec.b,)
        out.update(fz(p, q) for p, q in zip(seq, seq[1:]))
    return out


class TestFixedFamilies:
    def test_cycle(self):
        b = cycle(5)
        assert b.aux is None
        assert edge_set(b.graph) == {fz(1, 2), fz(2, 3), fz(3, 4), fz(4, 5), fz(1, 5)}

    def test_path(self):
        b = path(3)
        assert edge_set(b.graph) == {fz(1, 2), fz(2, 3)}

    def test_complete_multipartite(self):
        b = complete_multipartite([2, 2, 2])
        assert b.graph.n == 6 and b.graph.m == 12

    def test_h_graph_smallest_is_double_star(self):
        b = h_graph(2, 2, 2)
        # two hubs joined by three length-2 paths: the 2x3 biclique
        assert b.graph.n == 5
        hubs = {b.aux.a, b.aux.b}
        mids = set(b.graph.vertices()) - hubs
        assert edge_set(b.graph) == {fz(h, m) for h in hubs for m in mids}

    def test_h_graph_spec_consistency(self):
        for lx, ly, lz in [(2, 3, 4), (3, 3, 3), (4, 4, 4), (2, 2, 5)]:
            b = h_graph(lx, ly, lz)
            assert b.graph.n == lx + ly + lz - 1
            assert b.aux.lx == lx and b.aux.ly == ly and b.aux.lz == lz
            assert len(b.aux.x) == lx - 1
            assert len(b.aux.y) == ly - 1
            assert len(b.aux.z) == lz - 1
            assert edge_set(b.graph) == h_spec_edges(b.aux)

    def test_h_graph_rejects_short_paths(self):
        with pytest.raises(GraphError):
            h_graph(1, 2, 2)
        with pytest.raises(GraphError):
            h_graph(2, 2, 1)


class TestRandomFamilies:
    def test_interval_spans_reproduce_graph(self):
        b = random_interval(5, seed=7)
        assert edge_set(b.graph) == oracle_interval_overlap_edges(b.aux.spans)
        for s in range(20):
            b = random_interval(random.Random(s).randint(1, 25), seed=s)
            assert len(b.aux.spans) == b.graph.n
            assert edge_set(b.graph) == oracle_interval_overlap_edges(b.aux.spans)

    def test_rooted_path_model_reproduces_graph(self):
        for s in range(20):
            b = random_rooted_path(random.Random(s).randint(1, 25), seed=s)
            model = b.aux
            assert sorted(model.paths) == list(b.graph.vertices())
            assert edge_set(b.graph) == reference_rooted_path_edges(model)
            # every path walks child-to-parent-linked tree nodes downward
            for seq in model.paths.values():
                for parent_node, child_node in zip(seq, seq[1:]):
                    assert model.parent[child_node] == parent_node
            roots = [k for k, p in model.parent.items() if p == 0]
            assert len(roots) == 1

    def test_dissection_models_are_valid(self):
        for s in range(20):
            b = random_dissection(random.Random(s).randint(3, 25), seed=s)
            model = b.aux
            k = b.graph.n
            assert sorted(model.outer) == list(range(1, k + 1))
            ring = {
                fz(model.outer[i], model.outer[(i + 1) % k]) for i in range(k)
            }
            chords = {fz(u, v) for u, v in model.chords}
            assert edge_set(b.graph) == ring | chords
            pos = {v: i for i, v in enumerate(model.outer)}
            for u, v in model.chords:
                i, j = sorted((pos[u], pos[v]))
                assert j - i >= 2 and not (i == 0 and j == k - 1)
            # chords pairwise non-crossing
            for (a, b2), (c, d) in combinations(model.chords, 2):
                i, j = sorted((pos[a], pos[b2]))
                p, q = sorted((pos[c], pos[d]))
                crossing = (i < p < j < q) or (p < i < q < j)
                assert not crossing

    def test_block_graphs_have_clique_blocks(self):
        for s in range(20):
            b = random_block_graph(random.Random(s).randint(1, 25), seed=s)
            assert b.graph.is_connected()
            for block in block_decomposition(b.graph).blocks:
                for u, v in combinations(sorted(block), 2):
                    assert b.graph.has_edge(u, v)


class TestIntersectionGraphs:
    def test_interval_sweep_matches_all_pairs_reference(self):
        # endpoints on a small grid: shared endpoints, equal intervals and
        # single points are common
        rng = random.Random(5150)
        for _ in range(300):
            n = rng.randint(1, 16)
            spans = []
            for _ in range(n):
                if spans and rng.random() < 0.15:
                    spans.append(rng.choice(spans))
                    continue
                lo = Fraction(rng.randint(0, 12), rng.choice((1, 2)))
                spans.append((lo, lo + Fraction(rng.randint(0, 6), rng.choice((1, 2)))))
            model = IntervalModel(tuple(spans))
            assert edge_set(model.intersection_graph()) == oracle_interval_overlap_edges(spans)

    def test_interval_ties(self):
        model = IntervalModel(((0, 1), (1, 2), (1, 1), (0, 1), (3, 3), (2, 3)))
        assert edge_set(model.intersection_graph()) == {
            fz(1, 2), fz(1, 3), fz(1, 4), fz(2, 3), fz(2, 4), fz(3, 4),
            fz(2, 6), fz(5, 6),
        }

    def test_empty_interval_meets_nothing(self):
        spans = ((0, 4), (3, 1), (2, 2))
        model = IntervalModel(spans)
        assert edge_set(model.intersection_graph()) == oracle_interval_overlap_edges(spans) == {fz(1, 3)}

    def test_interval_numerators_share_the_least_denominator(self):
        # an empty span's ends count too; int ends have denominator 1
        spans = ((Fraction(-1, 2), Fraction(2, 3)), (3, Fraction(5, 4)), (0, 0))
        assert IntervalModel(spans).numerators() == ([-6, 36, 0], [8, 15, 0])

    def test_rooted_path_index_matches_all_pairs_reference(self):
        # small trees and short paths: single-node paths, equal tops and paths
        # that meet only at one path's top are common
        rng = random.Random(5151)
        for _ in range(300):
            size = rng.randint(1, 8)
            parent = {1: 0}
            children = {1: []}
            for node in range(2, size + 1):
                p = rng.randint(1, node - 1)
                parent[node] = p
                children[p].append(node)
                children[node] = []
            paths = {}
            for v in range(1, rng.randint(1, 14) + 1):
                chain = [rng.randint(1, size)]
                while children[chain[-1]] and rng.random() < 0.6:
                    chain.append(rng.choice(children[chain[-1]]))
                paths[v] = tuple(chain)
            model = RootedPathModel(parent, paths)
            assert edge_set(model.intersection_graph()) == reference_rooted_path_edges(model)

    def test_deep_chain_is_validated_once_in_linear_time(self):
        # walking every node of a k-node chain up to the root reads k^2/2
        # = 8,000,000 parent links; one walk down the child lists reads
        # none, so what is left is one membership test per parent link
        # and two reads per path node, once per model
        reads = [0]

        class CountedParent(dict):
            def __getitem__(self, key):
                reads[0] += 1
                return dict.__getitem__(self, key)

            def __contains__(self, key):
                reads[0] += 1
                return dict.__contains__(self, key)

        k = 4000
        parent = CountedParent({1: 0, **{u: u - 1 for u in range(2, k + 1)}})
        paths = {1: (1, 2, 3), 2: (2000,), 3: (k - 1, k)}
        model = RootedPathModel(parent, paths)
        validated = reads[0]
        assert validated <= k + 2 * 6
        assert edge_set(model.intersection_graph()) == set()
        assert rdp_ordering(model) == (3, 2, 1)
        assert reads[0] == validated

    def test_cyclic_parent_links_are_rejected(self):
        # nodes 2 and 3 point at each other, out of the root's reach
        with pytest.raises(GraphError, match="^parent links contain a cycle$"):
            RootedPathModel({1: 0, 2: 3, 3: 2}, {1: (1,)})
        with pytest.raises(GraphError, match="^parent 9 of node 2 is not a node$"):
            RootedPathModel({1: 0, 2: 9}, {1: (1,)})
        with pytest.raises(GraphError, match="^tree must have exactly one root$"):
            RootedPathModel({1: 0, 2: 0}, {1: (1,)})

    def test_rooted_paths_meeting_only_at_a_top(self):
        # tree 1 -> 2 -> 3, 1 -> 4; 2 -> 5
        parent = {1: 0, 2: 1, 3: 2, 4: 1, 5: 2}
        paths = {
            1: (1, 2, 3),  # reaches 2, the top of 4 and of 5
            2: (2, 5),  # meets 1 at node 2 only
            3: (1, 4),  # meets 1 at its own top only
            4: (2,),  # single node, the top of 2
            5: (5,),  # bottom of 2
            6: (4,),  # bottom of 3
            7: (3,),  # bottom of 1
        }
        model = RootedPathModel(parent, paths)
        expected = {
            fz(1, 2), fz(1, 3), fz(1, 4), fz(2, 4), fz(2, 5), fz(3, 6), fz(1, 7),
        }
        assert edge_set(model.intersection_graph()) == expected
        assert reference_rooted_path_edges(model) == expected


class TestGenerateDispatcher:
    def test_names(self):
        assert set(family_names()) == {
            "complete-multipartite",
            "cycle",
            "h",
            "path",
            "random-block",
            "random-dissection",
            "random-interval",
            "random-rooted-path",
        }

    def test_dispatch_matches_direct_calls(self):
        assert edge_set(generate("cycle", (6,)).graph) == edge_set(cycle(6).graph)
        assert edge_set(generate("h", (2, 3, 4)).graph) == edge_set(h_graph(2, 3, 4).graph)
        direct = random_interval(9, seed=5)
        via = generate("random-interval", (9,), seed=5)
        assert edge_set(via.graph) == edge_set(direct.graph)
        assert via.aux.spans == direct.aux.spans

    def test_unknown_family_rejected(self):
        with pytest.raises(GraphError):
            generate("no-such-family", (3,))

    def test_bad_arity_rejected(self):
        with pytest.raises(GraphError):
            generate("cycle", (3, 4))

    def test_seed_determinism(self):
        a = random_dissection(14, seed=9)
        b = random_dissection(14, seed=9)
        assert edge_set(a.graph) == edge_set(b.graph)
        assert a.aux == b.aux
        c = random_dissection(14, seed=10)
        assert edge_set(a.graph) != edge_set(c.graph) or a.aux != c.aux
