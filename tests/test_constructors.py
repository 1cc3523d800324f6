"""Constructions that output central realizations or membership orderings:
single cycles, interval models via the one gap sweep, cliques and block
assemblies, polygon dissections (two cycles fused on an edge among them),
outer rings of outerplanar blocks and the block-wise build of a plain
graph, rooted-path models, and the two-hub three-path family.
"""

import random
from fractions import Fraction as F

import pytest

from andbox.constructors import (
    _clique_items,
    _dissection_faces,
    _Lattice,
    _numerator_items,
    assemble_block_tree,
    blockwise_cand1,
    clique_cand1,
    cycle_cand1,
    glue_at_safe_vertex,
    h_graph_ordering,
    interval_to_cand1,
    outer_ring,
    outerplanar_cand1,
    rdp_ordering,
)
from andbox.families import (
    HGraphSpec,
    IntervalModel,
    OuterplanarModel,
    RootedPathModel,
    h_graph,
    random_block_graph,
    random_dissection,
    random_interval,
    random_rooted_path,
)
from andbox.graphs import BlockDecomposition, Graph, GraphError, block_decomposition, cycle_graph
from andbox.orders import cycle_label_analysis, four_point_check, realization_from_ordering
from andbox.realization import (
    Realization,
    adjacency_pairs,
    is_central,
    is_safe,
    r_order,
    relabel,
    verify,
)

from conftest import (
    ear_polygon,
    ear_polygon_chain,
    edge_set,
    fan_polygon,
    nested_polygon,
    oracle_central_edges,
    oracle_induced_edges,
    oracle_interval_overlap_edges,
    reference_interval_to_cand1,
    one_chord_polygon,
    reference_assemble_block_tree,
    reference_blockwise_cand1,
    reference_cycle_cand1,
    reference_dissection_faces,
    reference_glue_at_safe_vertex,
    reference_insert_cycle_into_gap,
    reference_is_outerplanar,
    reference_noncrossing,
)


def fz(u, v):
    return frozenset((u, v))


def ring_edges(ids):
    ids = tuple(ids)
    return {fz(ids[i], ids[(i + 1) % len(ids)]) for i in range(len(ids))}


def random_outerplanar_walk(seed):
    """Random dissections hung at random walk positions: an outerplanar
    model with several blocks, bridges (2-gons) included.  Each new polygon
    c, f1, ..., fk is spliced into the walk right after an occurrence of c
    as f1, ..., fk, c."""
    rng = random.Random(seed)
    first = random_dissection(rng.randint(3, 9), seed).aux
    walk, chords = list(first.outer), list(first.chords)
    for _ in range(rng.randint(1, 6)):
        at = rng.randrange(len(walk))
        c, k = walk[at], rng.randint(2, 7)
        fresh = len(set(walk)) + 1
        label = [None, c] + list(range(fresh, fresh + k - 1))
        walk[at + 1:at + 1] = label[2:] + [c]
        if k >= 4:
            for u, v in random_dissection(k, rng.randrange(1000)).aux.chords:
                chords.append(tuple(sorted((label[u], label[v]))))
    return OuterplanarModel(tuple(walk), tuple(sorted(chords)))


class TestCycleCand1:
    def test_square_exact_values(self):
        r = cycle_cand1(4, F(1, 2))
        assert r.interval(1) == (F(-5, 2), F(9, 2))
        assert r.interval(2) == (F(1, 2), F(7, 2))
        assert r.interval(3) == (F(3, 2), F(9, 2))
        assert r.interval(4) == (F(1, 2), F(15, 2))
        assert [r.coordinate(v) for v in (1, 2, 3, 4)] == [1, 2, 3, 4]

    @pytest.mark.parametrize("eps", [F(1, 4), F(1, 2), F(3, 4)])
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 17, 32])
    def test_induces_cycle_and_central(self, n, eps):
        r = cycle_cand1(n, eps)
        assert is_central(r)
        assert oracle_induced_edges(r) == ring_edges(range(1, n + 1))
        assert oracle_central_edges(r) == ring_edges(range(1, n + 1))
        assert verify(r, cycle_graph(n)).ok

    def test_any_anchor_is_safe(self):
        for anchor in range(1, 8):
            r = cycle_cand1(7, F(1, 2), anchor=anchor)
            assert is_safe(r, anchor)
            assert oracle_induced_edges(r) == ring_edges(range(1, 8))
            assert is_central(r)

    def test_labels_match_cycle_positions(self):
        for n in (3, 6, 11):
            report = cycle_label_analysis(cycle_cand1(n, F(1, 4)))
            assert report.max_deviation == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(GraphError):
            cycle_cand1(2)
        for eps in (0, 1, F(-1, 2), F(3, 2)):
            with pytest.raises(GraphError):
                cycle_cand1(5, eps)
        for anchor in (0, 6):
            with pytest.raises(GraphError):
                cycle_cand1(5, F(1, 2), anchor=anchor)
        # a float would enter the lattice as a binary fraction
        for eps in (0.3, 0.5, True):
            with pytest.raises(GraphError, match="int or a Fraction"):
                cycle_cand1(5, eps)

    @pytest.mark.parametrize("eps", [F(1, 4), F(1, 3), F(2, 5), F(1, 2), F(3, 4)])
    def test_matches_fraction_reference(self, eps):
        for n in range(3, 13):
            for anchor in range(1, n + 1):
                assert cycle_cand1(n, eps, anchor) == reference_cycle_cand1(n, eps, anchor)


def assert_least_integer_gaps(m, r):
    """Check the realization of interval model m against the gap sweep,
    recomputed from the all-pairs overlap oracle: the points follow the
    (span, id) order and are integers from 0, and every gap is the least
    positive integer meeting the rows that close at it, so lowering it by
    one violates such a row p_{t+1} - p_k > p_k - p_{lo_k} or zeroes it."""
    order = sorted(range(1, m.n + 1), key=lambda v: (m.span(v), v))
    rank = {v: k for k, v in enumerate(order, 1)}
    nbrs = {v: {v} for v in order}
    for e in oracle_interval_overlap_edges(m.spans):
        u, v = tuple(e)
        nbrs[u].add(v)
        nbrs[v].add(u)
    lo = {v: min(rank[u] for u in nbrs[v]) for v in order}
    hi = {v: max(rank[u] for u in nbrs[v]) for v in order}
    p = [r.coordinate(v) for v in order]
    assert p[0] == 0 and all(x.denominator == 1 for x in p)
    assert all(a < b for a, b in zip(p, p[1:]))
    slack = {t: [] for t in range(1, m.n)}  # per gap: p_{t+1} - p_k - (p_k - p_{lo_k})
    for v in order:
        k = rank[v]
        if hi[v] < m.n:
            slack[hi[v]].append(p[hi[v]] - 2 * p[k - 1] + p[lo[v] - 1])
    for t, rows in slack.items():
        assert all(x > 0 for x in rows), t
        assert p[t] - p[t - 1] == 1 or min(rows) == 1, t


def assert_interval_realization(m):
    r = interval_to_cand1(m)
    assert is_central(r)
    assert oracle_induced_edges(r) == oracle_interval_overlap_edges(m.spans)
    assert_least_integer_gaps(m, r)
    return r


class TestIntervalGreedy:
    """interval_to_cand1: a sweep that greedily takes each gap as small as
    the rows closing at it allow."""

    def test_star_model(self):
        m = IntervalModel(((F(0), F(10)), (F(1), F(2)), (F(4), F(5)), (F(7), F(8))))
        r = interval_to_cand1(m)
        assert is_central(r)
        assert oracle_induced_edges(r) == {fz(1, 2), fz(1, 3), fz(1, 4)}
        assert verify(r, m.intersection_graph()).ok
        # gaps 1, 2, 4: each leaf lies farther from the next leaf than
        # from the centre; radii reach the farthest neighbour
        assert [r.coordinate(v) for v in (1, 2, 3, 4)] == [0, 1, 3, 7]
        assert [r.interval(v) for v in (1, 2, 3, 4)] == [(-7, 7), (0, 2), (0, 6), (0, 14)]

    def test_three_vertex_path_model(self):
        m = IntervalModel(((F(0), F(2)), (F(1), F(3)), (F(5, 2), F(4))))
        r = interval_to_cand1(m)
        assert is_central(r)
        assert oracle_induced_edges(r) == {fz(1, 2), fz(2, 3)}
        assert [r.coordinate(v) for v in (1, 2, 3)] == [0, 1, 2]
        assert [r.interval(v) for v in (1, 2, 3)] == [(-1, 1), (0, 2), (1, 3)]

    def test_single_vertex(self):
        r = interval_to_cand1(IntervalModel(((F(0), F(1)),)))
        assert r.n == 1
        assert is_central(r)
        assert oracle_induced_edges(r) == set()
        assert r.coordinate(1) == 0 and r.interval(1) == (-1, 1)

    def test_equal_left_ends(self):
        m = IntervalModel(((F(0), F(5)), (F(0), F(1)), (F(0), F(3)), (F(2), F(4)), (F(4), F(6))))
        r = assert_interval_realization(m)
        # ties on the left end go by right end: 2, 3, 1, then 4, 5
        assert r_order(r) == (2, 3, 1, 4, 5)

    def test_identical_spans(self):
        # twins rank by id; a run of identical spans plus a tail
        spans = [(F(1), F(3))] * 4 + [(F(0), F(1)), (F(3), F(5)), (F(5), F(6))]
        r = assert_interval_realization(IntervalModel(tuple(spans)))
        assert r_order(r) == (5, 1, 2, 3, 4, 6, 7)

    def test_nested_spans(self):
        spans = [(F(-i), F(i)) for i in range(1, 8)] + [(F(7), F(9)), (F(9), F(10))]
        assert_interval_realization(IntervalModel(tuple(spans)))

    def test_matches_overlap_oracle(self):
        for seed in range(15):
            n = 4 + seed
            b = random_interval(n, seed)
            r = interval_to_cand1(b.aux)
            assert is_central(r)
            assert oracle_induced_edges(r) == oracle_interval_overlap_edges(b.aux.spans)
            assert verify(r, b.graph).ok

    def test_least_integer_gaps_on_300_random_models(self):
        rng = random.Random(12)
        for _ in range(300):
            b = random_interval(rng.randint(1, 60), rng.randrange(2**30))
            r = interval_to_cand1(b.aux)
            assert is_central(r) and verify(r, b.graph).ok
            assert_least_integer_gaps(b.aux, r)

    def test_disconnected_models_realize(self):
        # the gap sweep never reads connectivity: isolated first and last
        # ranks, a zero-width and an empty span, and seeded random splits
        for spans in (
            ((0, 1), (2, 3)),
            ((0, 0), (2, 5), (3, 4), (7, 7)),
            ((9, 9), (2, 5), (0, 1), (3, 4)),
            ((0, 4), (2, 1), (3, 6), (8, 9)),
        ):
            assert_interval_realization(IntervalModel(tuple((F(a), F(b)) for a, b in spans)))
        rng = random.Random(13)
        tried = 0
        while tried < 100:
            n = rng.randint(2, 25)
            starts = [rng.randint(0, 3 * n) for _ in range(n)]
            m = IntervalModel(tuple((F(a), F(a + rng.randint(0, 4))) for a in starts))
            if not m.intersection_graph().is_connected():
                tried += 1
                assert_interval_realization(m)

    def test_empty_model_rejected(self):
        with pytest.raises(GraphError):
            interval_to_cand1(IntervalModel(()))


def random_interval_model(rng, n: int) -> IntervalModel:
    """Spans with denominators 1 to 3 on a short range, so ends tie often;
    some spans are zero-width, some empty (lo > hi), some repeat another."""
    spans = []
    for _ in range(n):
        lo, kind = F(rng.randint(-4, 8), rng.randint(1, 3)), rng.random()
        if kind < 0.1:
            hi = lo
        elif kind < 0.2:
            hi = lo - F(rng.randint(1, 3), rng.randint(1, 3))
        elif kind < 0.3 and spans:
            lo, hi = rng.choice(spans)
        else:
            hi = lo + F(rng.randint(0, 9), rng.randint(1, 3))
        spans.append((lo, hi))
    return IntervalModel(tuple(spans))


class TestIntervalSweep:
    """interval_to_cand1 reads its rank bounds off the sorted ends; the
    graph path (all-pairs overlaps, then closed neighbourhoods) must give
    the same realization."""

    def test_matches_graph_path_on_random_models(self):
        rng = random.Random(36)
        for _ in range(4000):
            m = random_interval_model(rng, rng.randint(1, 12))
            assert interval_to_cand1(m) == reference_interval_to_cand1(m), m

    def test_matches_graph_path_on_random_interval(self):
        for n, seeds in ((1, 5), (2, 5), (7, 10), (30, 5), (100, 3), (300, 1)):
            for seed in range(seeds):
                m = random_interval(n, seed).aux
                assert interval_to_cand1(m) == reference_interval_to_cand1(m), (n, seed)

    def test_builds_no_graph(self, monkeypatch):
        import andbox.constructors
        import andbox.graphs

        rng = random.Random(2000)
        starts = [F(rng.randint(0, 4000), rng.randint(1, 3)) for _ in range(2000)]
        m = IntervalModel(tuple((a, a + F(rng.randint(0, 6), 2)) for a in starts))
        g = m.intersection_graph()

        def boom(*args):
            raise AssertionError("interval_to_cand1 built the graph")

        monkeypatch.setattr(IntervalModel, "intersection_graph", boom)
        monkeypatch.setattr(andbox.graphs, "rank_bounds", boom)
        # a module that imports the name holds its own binding
        monkeypatch.setattr(andbox.constructors, "rank_bounds", boom, raising=False)
        r = interval_to_cand1(m)
        monkeypatch.undo()
        assert is_central(r) and verify(r, g).ok


class TestCliqueCand1:
    def test_triangle_exact_values(self):
        r = clique_cand1([1, 2, 3])
        assert r.interval(1) == (F(-2), F(4))
        assert r.interval(2) == (F(-1), F(5))
        assert r.interval(3) == (F(0), F(6))
        assert [r.coordinate(v) for v in (1, 2, 3)] == [1, 2, 3]
        assert oracle_induced_edges(r) == {fz(1, 2), fz(1, 3), fz(2, 3)}

    def test_arbitrary_ids_all_safe(self):
        ids = {9, 2, 5, 11}
        r = clique_cand1(ids)
        assert is_central(r)
        assert set(adjacency_pairs(r)) == {
            (u, v) for u in ids for v in ids if u < v
        }
        for v in ids:
            assert is_safe(r, v)

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            clique_cand1([])


class TestGlueAtSafeVertex:
    def test_two_triangles_make_a_bowtie(self):
        glued = glue_at_safe_vertex(clique_cand1([1, 2, 3]), 3, clique_cand1([3, 4, 5]), 3)
        bowtie = Graph.from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
        assert verify(glued, bowtie).ok
        assert is_central(glued)

    def test_scale_accounts_for_every_host_point(self):
        # vertex 3 is NOT adjacent to the hosting vertex 1, yet its point
        # sits much closer to p_1 than any neighbor's: the shrink factor
        # must clear it or the guest would pick up a spurious edge
        host = Realization.build(1, {
            1: ((F(-15), F(15)), F(0)),
            2: ((F(-20), F(20)), F(10)),
            3: ((F(2, 5), F(5)), F(1, 2)),
        })
        assert oracle_induced_edges(host) == {fz(1, 2)}
        guest = Realization.build(1, {1: ((F(-1), F(1)), F(0)), 4: ((F(0), F(2)), F(1))})
        # delta = 1/2 (p_3), span = 3: the guest shrinks by 1/12
        glued = glue_at_safe_vertex(host, 1, guest, 1)
        assert glued.coordinate(4) == F(1, 12)
        assert glued.interval(4) == (F(0), F(1, 6))
        assert oracle_induced_edges(glued) == {fz(1, 2), fz(1, 4)}

    def test_degenerate_params_fall_back_to_one(self):
        host = Realization.build(1, {7: ((F(-1), F(1)), F(0))})
        guest = Realization.build(1, {7: ((F(2), F(2)), F(2))})
        # no other host point and a zero-length guest: delta = span = 1,
        # and the guest's one point lands on p_7
        assert glue_at_safe_vertex(host, 7, guest, 7) == host
        # no other host point and a guest of span 1: the guest shrinks by 1/2
        guest = Realization.build(1, {7: ((F(0), F(1)), F(0)), 8: ((F(0), F(1)), F(1))})
        glued = glue_at_safe_vertex(host, 7, guest, 7)
        assert glued.coordinate(8) == F(1, 2)
        assert glued.interval(8) == (F(0), F(1, 2))

    def test_unsafe_guest_vertex_rejected(self):
        guest = Realization.build(1, {
            1: ((F(0), F(4)), F(1)),
            2: ((F(1), F(3)), F(2)),
            3: ((F(2), F(9)), F(6)),
        })
        assert not is_safe(guest, 2)
        with pytest.raises(GraphError):
            glue_at_safe_vertex(clique_cand1([2]), 2, guest, 2)

    def test_tied_points_rejected(self):
        tied = Realization.build(1, {1: ((F(0), F(2)), F(1)), 2: ((F(0), F(2)), F(1))})
        with pytest.raises(GraphError):
            glue_at_safe_vertex(tied, 1, clique_cand1([1]), 1)
        with pytest.raises(GraphError):
            glue_at_safe_vertex(clique_cand1([3]), 3, relabel(tied, {1: 3, 2: 4}), 3)

    def test_colliding_ids_rejected(self):
        with pytest.raises(GraphError):
            glue_at_safe_vertex(clique_cand1([1, 2, 3]), 3, clique_cand1([2, 3]), 3)
        # the host's glued id may not reappear as another guest vertex
        with pytest.raises(GraphError, match=r"collide.*\[3\]"):
            glue_at_safe_vertex(clique_cand1([1, 2, 3]), 3, clique_cand1([3, 11]), 11)

    def test_higher_dimensions_rejected(self):
        flat = Realization.build(2, {
            1: (((F(0), F(2)), (F(0), F(2))), (F(1), F(1))),
        })
        with pytest.raises(GraphError):
            glue_at_safe_vertex(flat, 1, clique_cand1([1]), 1)
        with pytest.raises(GraphError):
            glue_at_safe_vertex(clique_cand1([1]), 1, flat, 1)

    def test_compositions_preserve_edge_unions(self):
        rng = random.Random(20240811)
        for _ in range(12):
            m = rng.randint(4, 8)
            acc = cycle_cand1(m, F(1, 2))
            expected = ring_edges(range(1, m + 1))
            next_id = m + 1
            for _ in range(3):
                w = rng.choice(sorted(acc.ids))
                k = rng.randint(2, 4)
                fresh = list(range(next_id, next_id + k - 1))
                next_id += k - 1
                if rng.random() < 0.5:
                    guest = clique_cand1([w] + fresh)
                    added = {fz(a, b) for a in [w] + fresh for b in fresh if a < b}
                else:
                    t = k + 1
                    mapping = {1: w}
                    mapping.update({i + 2: vid for i, vid in enumerate(fresh)})
                    mapping[t] = next_id
                    fresh.append(next_id)
                    next_id += 1
                    guest = relabel(cycle_cand1(t, F(1, 2)), mapping)
                    added = ring_edges([w] + fresh)
                glued = glue_at_safe_vertex(acc, w, guest, w)
                assert glued == reference_glue_at_safe_vertex(acc, w, guest, w)
                acc = glued
                expected |= added
                assert is_central(acc)
                assert oracle_induced_edges(acc) == expected


class TestLatticeFold:
    @staticmethod
    def random_line(rng, n):
        """(den, int items, Fraction items) of n distinct random points
        whose boxes reach at least their neighbours' points, so every two
        consecutive points can take a fold."""
        den = rng.randint(1, 12)
        pts = sorted(rng.sample(range(-50, 50), n))
        nums, fracs = {}, {}
        for i, p in enumerate(pts):
            lo = pts[max(i - 1, 0)] - rng.randint(0, 5)
            hi = pts[min(i + 1, n - 1)] + rng.randint(0, 5)
            v = 10 * i + rng.randint(1, 9)
            nums[v] = ((lo, hi), p)
            fracs[v] = ((F(lo, den), F(hi, den)), F(p, den))
        return den, nums, fracs

    def test_matches_the_fraction_fold(self):
        # random neighbours on both sides of the gap, so either may bound eps
        rng = random.Random(33)
        fresh = 10**4
        for _ in range(300):
            den, nums, fracs = self.random_line(rng, rng.randint(2, 8))
            lattice = _Lattice(den, nums)
            for _ in range(rng.randint(1, 4)):
                order = sorted(fracs, key=lambda v: fracs[v][1])
                i = rng.randrange(len(order) - 1)
                ids = list(range(fresh, fresh + rng.randint(1, 6)))
                fresh += len(ids)
                lattice.fold(order[i], order[i + 1], ids)
                reference_insert_cycle_into_gap(fracs, order[i], order[i + 1], ids)
            assert lattice.realization() == Realization.build(1, fracs)

    @pytest.mark.parametrize("x,y,message", [
        (2, 1, "ascending points"),
        (1, 3, "no other representative point"),
        (2, 3, "cover the whole gap"),
    ])
    def test_bad_gap_rejected(self, x, y, message):
        lattice = _Lattice(1, {1: ((0, 4), 1), 2: ((1, 4), 2), 3: ((3, 5), 3)})
        with pytest.raises(GraphError, match=message):
            lattice.fold(x, y, [4])


class TestBlockAssembly:
    BOWTIE = Graph.from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])

    def test_dict_components(self):
        bd = block_decomposition(self.BOWTIE)
        parts = {i: (1, _clique_items(blk)) for i, blk in enumerate(bd.blocks)}
        r = assemble_block_tree(lambda bi, cut: parts[bi], bd)
        assert verify(r, self.BOWTIE).ok
        assert is_central(r)

    def test_callable_gets_block_and_parent_cut(self):
        bd = block_decomposition(self.BOWTIE)
        calls = []

        def build(bi, cut):
            calls.append((bi, cut))
            return 1, _clique_items(bd.blocks[bi])

        r = assemble_block_tree(build, bd)
        assert calls == [(0, None), (1, 3)]
        assert verify(r, self.BOWTIE).ok

    def test_block_graphs_random(self):
        for seed in range(8):
            b = random_block_graph(6 + 2 * seed, seed)
            r = blockwise_cand1(b.graph)
            assert verify(r, b.graph).ok
            assert is_central(r)

    def test_single_vertex_graph(self):
        r = blockwise_cand1(Graph.from_edges(1, []))
        assert r.n == 1
        assert is_central(r)

    def test_block_graphs_match_sequential_fold(self):
        for seed in range(20):
            g = random_block_graph(6 + 7 * seed, seed).graph
            bd = block_decomposition(g)
            expected = reference_assemble_block_tree(lambda bi, cut: _clique_items(bd.blocks[bi]), bd)
            assert blockwise_cand1(g) == expected

    def test_outerplanar_models_match_sequential_fold(self, monkeypatch):
        models = [random_dissection(4 + 3 * seed, seed).aux for seed in range(10)]
        models += [random_outerplanar_walk(seed) for seed in range(20)]
        # random_dissection often stops at the root face: these fold every
        # face, nested, fanned or side by side, and glue folded blocks
        models += [fan_polygon(200), ear_polygon(200), nested_polygon(199)]
        graphs = [m.graph() for m in models] + [ear_polygon_chain(4, 31)]
        fold = _Lattice.fold

        def keeps_points_linked_in_order(self, x, y, ids):
            fold(self, x, y, ids)
            (first,) = [v for v, u in self.left.items() if u is None]
            walk = [first]
            while self.right[walk[-1]] is not None:
                walk.append(self.right[walk[-1]])
            assert sorted(walk) == sorted(self.at)
            points = [self._now(v)[2] for v in walk]
            assert points == sorted(set(points))

        monkeypatch.setattr(_Lattice, "fold", keeps_points_linked_in_order)
        fast = [outerplanar_cand1(m) for m in models] + [blockwise_cand1(graphs[-1])]
        monkeypatch.undo()
        for g, r in zip(graphs, fast):
            assert verify(r, g).ok
            assert r == reference_blockwise_cand1(g)

    def test_star_builds_each_vertex_a_bounded_number_of_times(self, monkeypatch):
        # a star with 400 leaves has 400 bridge blocks; rebuilding the
        # accumulated realization after every glue hands about n^2/2 rows
        # to Realization._checked, one final build hands it n
        n = 401
        passed = 0
        checked = Realization._checked

        def counted(d, ids, den, boxes, points):
            nonlocal passed
            passed += len(ids)
            return checked(d, ids, den, boxes, points)

        monkeypatch.setattr(Realization, "_checked", staticmethod(counted))
        r = blockwise_cand1(Graph.from_edges(n, [(1, v) for v in range(2, n + 1)]))
        assert r.n == n
        assert passed <= 3 * n

    TRIANGLE_GUESTS = {
        "unsafe": (
            relabel(
                Realization.build(1, {1: ((0, 4), 1), 2: ((1, 3), 2), 3: ((2, 9), 6)}),
                {1: 4, 2: 3, 3: 5},
            ),
            "vertex 3 is not safe",
        ),
        "tied": (Realization.build(1, {3: ((0, 2), 1), 4: ((0, 2), 1)}), "distinct points"),
        "colliding": (clique_cand1([2, 3]), r"collide outside the glued pair: \[2\]"),
    }

    @pytest.mark.parametrize("kind", sorted(TRIANGLE_GUESTS))
    def test_bad_guest_rejected(self, kind):
        guest, message = self.TRIANGLE_GUESTS[kind]
        bd = block_decomposition(self.BOWTIE)
        with pytest.raises(GraphError, match=message):
            assemble_block_tree(
                lambda bi, cut: (1, _clique_items(bd.blocks[0])) if cut is None else (guest.den, _numerator_items(guest)),
                bd,
            )

    def test_tied_root_rejected(self):
        bd = block_decomposition(self.BOWTIE)
        tied = relabel(self.TRIANGLE_GUESTS["tied"][0], {3: 1, 4: 2})
        with pytest.raises(GraphError, match="distinct points"):
            assemble_block_tree(
                lambda bi, cut: (tied.den, _numerator_items(tied)) if cut is None else (1, _clique_items(bd.blocks[bi])),
                bd,
            )

    def test_disconnected_blocks_rejected(self):
        bd = BlockDecomposition((frozenset({1, 2}), frozenset({3, 4})), frozenset(), (((1, 2),), ((3, 4),)))
        with pytest.raises(GraphError, match="block tree is not connected"):
            assemble_block_tree(lambda bi, cut: (1, _clique_items(bd.blocks[bi])), bd)


def fused_cycle_edges(n, m, shared):
    """Ring 1..m plus a fresh path between the shared endpoints; the pair
    is normalized so the second endpoint follows the first on the ring,
    and the path hangs off the first endpoint: u, m+1, ..., m+n-2, v."""
    u, v = shared
    if (v - u) % m == m - 1:
        u, v = v, u
    seq = [u] + list(range(m + 1, m + n - 1)) + [v]
    return ring_edges(range(1, m + 1)) | {fz(a, b) for a, b in zip(seq, seq[1:])}


class TestGlueCyclesOnEdge:
    FROZEN = {
        (3, 3, (1, 2)): [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)],
        (4, 4, (1, 2)): [(1, 2), (1, 4), (1, 5), (2, 3), (2, 6), (3, 4), (5, 6)],
        (5, 4, (1, 2)): [(1, 2), (1, 4), (1, 5), (2, 3), (2, 7), (3, 4), (5, 6), (6, 7)],
        (3, 4, (3, 4)): [(1, 2), (1, 4), (2, 3), (3, 4), (3, 5), (4, 5)],
        (6, 5, (5, 1)): [(1, 2), (1, 5), (1, 9), (2, 3), (3, 4), (4, 5),
                         (5, 6), (6, 7), (7, 8), (8, 9)],
        (4, 3, (3, 1)): [(1, 2), (1, 3), (1, 5), (2, 3), (3, 4), (4, 5)],
    }

    def test_frozen_edge_lists(self):
        for (n, m, shared), edges in self.FROZEN.items():
            r = outerplanar_cand1(one_chord_polygon(n, m, shared))
            assert sorted(adjacency_pairs(r)) == edges
            assert {fz(*e) for e in edges} == fused_cycle_edges(n, m, shared)

    def test_shared_pair_orientation_is_normalized(self):
        a = outerplanar_cand1(one_chord_polygon(5, 4, (1, 2)))
        b = outerplanar_cand1(one_chord_polygon(5, 4, (2, 1)))
        assert one_chord_polygon(5, 4, (1, 2)) == one_chord_polygon(5, 4, (2, 1))
        assert oracle_induced_edges(a) == oracle_induced_edges(b)

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_all_consecutive_shared_pairs(self, n, m):
        for u in range(1, m + 1):
            v = u % m + 1
            expected = fused_cycle_edges(n, m, (u, v))
            r = outerplanar_cand1(one_chord_polygon(n, m, (u, v)))
            g = Graph.from_edges(m + n - 2, [tuple(sorted(e)) for e in expected])
            assert verify(r, g).ok
            assert is_central(r)


class TestOuterplanar:
    def test_chordless_polygon(self):
        r = outerplanar_cand1(OuterplanarModel(tuple(range(1, 7)), ()))
        assert oracle_induced_edges(r) == ring_edges(range(1, 7))
        assert is_central(r)

    def test_pentagon_with_one_chord(self):
        m = OuterplanarModel((1, 2, 3, 4, 5), ((1, 3),))
        r = outerplanar_cand1(m)
        assert verify(r, m.graph()).ok
        assert oracle_induced_edges(r) == ring_edges(range(1, 6)) | {fz(1, 3)}
        assert is_central(r)

    def test_hexagon_with_fan_chords(self):
        m = OuterplanarModel((1, 2, 3, 4, 5, 6), ((1, 3), (1, 5)))
        r = outerplanar_cand1(m)
        assert verify(r, m.graph()).ok
        assert is_central(r)

    def test_walk_with_cut_vertex(self):
        m = OuterplanarModel((1, 2, 3, 1, 4, 5), ())
        g = m.graph()
        assert edge_set(g) == {fz(1, 2), fz(2, 3), fz(1, 3), fz(1, 4), fz(4, 5), fz(1, 5)}
        r = outerplanar_cand1(m)
        assert verify(r, g).ok
        assert is_central(r)

    def test_tree_shaped_walk(self):
        m = OuterplanarModel((1, 2, 1, 3), ())
        r = outerplanar_cand1(m)
        assert oracle_induced_edges(r) == {fz(1, 2), fz(1, 3)}
        assert is_central(r)

    def test_random_dissections(self):
        for seed in range(20):
            b = random_dissection(5 + seed % 12, seed)
            r = outerplanar_cand1(b.aux)
            assert verify(r, b.graph).ok
            assert is_central(r)

    def test_face_walk_matches_recursive_reference(self):
        for seed in range(60):
            b = random_dissection(4 + seed % 30, seed)
            k = b.graph.n
            chords = sorted((u - 1, v - 1) for u, v in b.aux.chords)
            assert _dissection_faces(k, chords) == reference_dissection_faces(k, chords)

    def test_fan_walk_bisects_chord_ends(self):
        # a fan of chords from position 0: every face starts at 0, so a
        # scan of 0's chord ends on each step makes about 2k^2 = 8,000,000
        # comparisons here; bisecting them makes about 13k
        compared = [0]

        class Pos(int):
            def __lt__(self, other):
                compared[0] += 1
                return int.__lt__(self, other)

            def __le__(self, other):
                compared[0] += 1
                return int.__le__(self, other)

            def __gt__(self, other):
                compared[0] += 1
                return int.__gt__(self, other)

            def __ge__(self, other):
                compared[0] += 1
                return int.__ge__(self, other)

        k = 2000
        chords = [(0, Pos(t)) for t in range(2, k - 1)]
        faces = _dissection_faces(k, chords)
        assert len(faces) == len(chords) + 1
        assert faces[0] == ([0, k - 2, k - 1], None)
        assert faces[-1] == ([0, 1, 2], (0, 2))
        assert compared[0] < 20 * k

    def test_deeply_nested_chords(self):
        # chords (i, k - 1 - i) nest 1,198 faces deep: past Python's
        # recursion limit for a recursive walk
        k = 2400
        chords = [(i, k - 1 - i) for i in range(1, 1198)]
        faces = _dissection_faces(k, chords)
        assert len(faces) == len(chords) + 1
        assert faces[0] == ([0, 1, k - 2, k - 1], None)
        assert faces[-1] == ([1197, 1198, 1199, 1200, 1201, 1202], (1197, 1202))

    def test_nested_polygon_reads_block_edges(self, monkeypatch):
        # nested chords (i, k + 1 - i) in one block: testing every vertex
        # pair of the block for an edge would make k(k - 1)/2 = 79,800
        # has_edge calls; the block's edges are read from its edge list
        k = 400
        m = nested_polygon(k)
        calls = 0
        has_edge = Graph.has_edge

        def counted(self, u, v):
            nonlocal calls
            calls += 1
            return has_edge(self, u, v)

        monkeypatch.setattr(Graph, "has_edge", counted)
        r = outerplanar_cand1(m)
        assert calls <= 2 * k
        monkeypatch.undo()
        assert verify(r, m.graph()).ok
        assert is_central(r)

    def test_nested_polygon_reads_only_the_gap_neighbours(self, monkeypatch):
        # each face is folded into its closing chord's gap from the points
        # linked next to the gap; a walk over every placed vertex per face
        # costs O(faces * n) comparisons
        class OneVertexAtATime:
            def __init__(self, placed):
                self.placed = placed

            def __getitem__(self, v):
                return self.placed[v]

            def __setitem__(self, v, value):
                self.placed[v] = value

            def __iter__(self):
                raise AssertionError("walked every placed vertex")

            keys = values = items = __len__ = __contains__ = __iter__

        m = nested_polygon(400)
        fold = _Lattice.fold
        calls = 0

        def guarded(self, x, y, ids):
            nonlocal calls
            calls += 1
            maps = self.at, self.left, self.right
            self.at, self.left, self.right = map(OneVertexAtATime, maps)
            fold(self, x, y, ids)
            self.at, self.left, self.right = maps

        monkeypatch.setattr(_Lattice, "fold", guarded)
        r = outerplanar_cand1(m)
        assert calls == len(m.chords)
        assert r.n == 400

    def test_crossing_chords_rejected(self):
        m = OuterplanarModel((1, 2, 3, 4, 5, 6), ((1, 3), (2, 4)))
        with pytest.raises(GraphError):
            outerplanar_cand1(m)


def blocks_of(g):
    """(vertices, edges) of every block with at least three vertices, over
    the components of g."""
    out = []
    for comp in g.connected_components():
        sub, back = g.subgraph(comp)
        bd = block_decomposition(sub)
        for blk, es in zip(bd.blocks, bd.edges):
            if len(blk) >= 3:
                out.append(({back[v] for v in blk}, [(back[u], back[v]) for u, v in es]))
    return out


class TestOuterRing:
    @staticmethod
    def check(blk, es):
        """outer_ring answers a ring iff networkx finds the block
        outerplanar, and the ring is a Hamiltonian cycle of the block whose
        chords do not cross."""
        ring = outer_ring(frozenset(blk), es)
        assert (ring is not None) == reference_is_outerplanar(blk, es), (sorted(blk), es)
        if ring is None:
            return False
        assert sorted(ring) == sorted(blk)
        outer = ring_edges(ring)
        assert outer <= {fz(u, v) for u, v in es}
        pos = {v: i for i, v in enumerate(ring)}
        chords = [tuple(sorted((pos[u], pos[v]))) for u, v in es if fz(u, v) not in outer]
        assert reference_noncrossing(chords)
        return True

    def test_atlas_blocks_match_networkx(self, connected_atlas):
        blocks = [b for g in connected_atlas for b in blocks_of(g)]
        outer = sum(self.check(blk, es) for blk, es in blocks)
        assert (len(blocks), outer) == (1044, 287)

    def test_random_blocks_match_networkx(self):
        rng = random.Random(24)
        blocks = []
        while len(blocks) < 2000:
            n = rng.randint(3, 12)
            p = rng.choice((0.25, 0.35, 0.5))
            edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
            blocks += blocks_of(Graph.from_edges(n, edges))
        outer = sum(self.check(blk, es) for blk, es in blocks)
        assert (len(blocks), outer) == (2000, 759)

    def test_polygons_and_dissections_keep_their_ring(self):
        for seed in range(10):
            m = random_dissection(5 + 3 * seed, seed).aux
            g = m.graph()
            ring = outer_ring(frozenset(g.vertices()), g.edge_list())
            k = ring.index(1)
            assert ring[k:] + ring[:k] in (m.outer, (1,) + tuple(reversed(m.outer[1:])))


class TestBlockwiseCand1:
    def test_matches_the_model_constructions(self):
        # a model's walk defines its graph only: triangle blocks come out
        # as clique_cand1 builds them, not as 3-gons
        for seed in range(20):
            m = random_outerplanar_walk(seed)
            assert outerplanar_cand1(m) == blockwise_cand1(m.graph())

    def test_certificate_is_built_once(self, monkeypatch):
        # each block hands its items to the assembly, which builds the
        # glued whole once: C8 alone, and C8 with a triangle hung off 8
        c8 = cycle_graph(8)
        c8_triangle = Graph.from_edges(10, c8.edge_list() + [(8, 9), (8, 10), (9, 10)])
        checked = Realization._checked
        for g, blocks in ((c8, 1), (c8_triangle, 2)):
            builds = 0

            def counted(d, ids, den, boxes, points):
                nonlocal builds
                builds += 1
                return checked(d, ids, den, boxes, points)

            monkeypatch.setattr(Realization, "_checked", staticmethod(counted))
            r = blockwise_cand1(g)
            assert builds == 1
            monkeypatch.undo()
            assert len(block_decomposition(g).blocks) == blocks
            assert verify(r, g).ok and is_central(r)

    def test_cliques_and_dissections_glued(self):
        for seed in range(10):
            m = random_outerplanar_walk(seed)
            g = m.graph()
            # hang a K5 off vertex 1: not outerplanar, but a clique block
            n = g.n
            k5 = [(u, v) for u in [1] + list(range(n + 1, n + 5)) for v in range(n + 1, n + 5) if u < v]
            h = Graph.from_edges(n + 4, g.edge_list() + k5)
            for graph in (g, h):
                r = blockwise_cand1(graph)
                assert verify(r, graph).ok and is_central(r)

    def test_a_block_neither_clique_nor_outerplanar_gives_none(self):
        g = Graph.from_edges(6, [(1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5), (5, 6)])
        assert blockwise_cand1(g) is None


class TestRdpOrdering:
    WORKED_PARENT = {1: 0, 2: 1, 3: 2, 4: 2, 5: 4, 6: 1, 7: 6, 8: 6, 9: 8, 10: 8}
    WORKED_PATHS = {
        1: (8, 10),
        2: (2, 3),
        3: (4, 5),
        4: (1, 6, 7),
        5: (1, 2, 4),
        6: (1, 6, 8),
        7: (6, 8, 9),
    }

    def test_worked_instance(self):
        m = RootedPathModel(self.WORKED_PARENT, self.WORKED_PATHS)
        g = m.intersection_graph()
        assert edge_set(g) == {
            fz(2, 5), fz(3, 5), fz(4, 5), fz(5, 6), fz(4, 6),
            fz(4, 7), fz(6, 7), fz(1, 6), fz(1, 7),
        }
        o = rdp_ordering(m)
        assert o == (1, 7, 6, 4, 3, 5, 2)
        assert four_point_check(g, o) is None
        assert verify(realization_from_ordering(g, o), g).ok

    def test_rank_ties_fall_back_to_vertex_id(self):
        m = RootedPathModel({1: 0, 2: 1, 3: 2}, {1: (1, 2, 3), 2: (2, 3), 3: (3,)})
        assert rdp_ordering(m) == (1, 2, 3)

    def test_random_models_give_clean_orderings(self):
        for seed in range(20):
            b = random_rooted_path(4 + seed, seed)
            o = rdp_ordering(b.aux)
            assert four_point_check(b.graph, o) is None
            assert verify(realization_from_ordering(b.graph, o), b.graph).ok

    def test_inconsistent_models_rejected(self):
        with pytest.raises(GraphError):
            rdp_ordering(RootedPathModel({1: 0, 2: 0}, {1: (1,)}))
        with pytest.raises(GraphError):
            rdp_ordering(RootedPathModel({1: 0, 2: 1}, {1: (2, 1)}))


class TestHGraphOrdering:
    def test_shortest_length_two_frozen(self):
        b = h_graph(2, 2, 2)
        o = h_graph_ordering(b.aux)
        assert o == (1, 5, 2, 3, 4)
        assert four_point_check(b.graph, o) is None
        assert verify(realization_from_ordering(b.graph, o), b.graph).ok

    def test_shortest_length_three_frozen(self):
        b = h_graph(3, 3, 3)
        o = h_graph_ordering(b.aux)
        assert o == (5, 3, 1, 7, 8, 2, 4, 6)
        assert four_point_check(b.graph, o) is None
        assert verify(realization_from_ordering(b.graph, o), b.graph).ok

    def test_all_supported_length_triples(self):
        for lx in (2, 3):
            for ly in range(lx, 6):
                for lz in range(ly, 6):
                    b = h_graph(lx, ly, lz)
                    o = h_graph_ordering(b.aux)
                    assert sorted(o) == list(range(1, b.aux.n + 1))
                    assert four_point_check(b.graph, o) is None
                    assert verify(realization_from_ordering(b.graph, o), b.graph).ok

    def test_longer_shortest_paths_rejected(self):
        with pytest.raises(GraphError):
            h_graph_ordering(h_graph(4, 4, 4).aux)

    def test_unsorted_lengths_rejected(self):
        spec = HGraphSpec(3, 2, 3, 1, 2, (3, 4), (5,), (6, 7))
        with pytest.raises(GraphError):
            h_graph_ordering(spec)
