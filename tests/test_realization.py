"""Realization data model: induced graphs, verification, point
separation, safety."""

import random
from fractions import Fraction as F

import pytest

from andbox import realization
from andbox.constructors import blockwise_cand1, cycle_cand1, outerplanar_cand1
from andbox.families import OuterplanarModel, random_block_graph
from andbox.graphs import cycle_graph
from andbox.realization import (
    Realization,
    RealizationError,
    TiedPointsError,
    adjacency_pairs,
    induced_graph,
    is_central,
    is_safe,
    line_pairs,
    make_points_distinct,
    r_order,
    relabel,
    verify,
)

from conftest import (
    edge_set,
    oracle_central_edges,
    oracle_induced_edges,
    random_central_realization,
    random_prime_denominator_realization,
    random_realization,
    random_tied_realization,
    reference_line_pairs,
    reference_relabel,
)


class CountedInt(int):
    """An int that counts the order comparisons made on it."""

    comparisons = 0

    def _count(op):
        def counted(self, other):
            CountedInt.comparisons += 1
            return op(self, other)

        return counted

    __lt__ = _count(int.__lt__)
    __le__ = _count(int.__le__)
    __gt__ = _count(int.__gt__)
    __ge__ = _count(int.__ge__)


class TestLinePairs:
    @pytest.mark.parametrize("with_left", [False, True])
    def test_matches_all_pairs_reference(self, with_left):
        # small integer coordinates: tied keys, keys on a right or left end,
        # zero-width reaches and right ends below their key
        rng = random.Random(4400 + with_left)
        for _ in range(500):
            n = rng.randint(0, 12)
            keys = [rng.randint(0, 6) for _ in range(n)]
            right = [k + rng.randint(-2, 3) for k in keys]
            left = [k - rng.randint(-2, 3) for k in keys] if with_left else None
            pairs = list(line_pairs(keys, right, left))
            assert len(pairs) == len(set(pairs))
            assert set(pairs) == reference_line_pairs(keys, right, left)

    def test_edge_cases(self):
        assert list(line_pairs([], [])) == []
        assert list(line_pairs([F(1)], [F(1)], [F(1)])) == []
        # all keys tied on zero-width reaches: every pair once, in index order
        assert list(line_pairs([2, 2, 2], [2, 2, 2], [2, 2, 2])) == [(0, 1), (0, 2), (1, 2)]
        # keys on the ends of the reaches still pair
        assert list(line_pairs([0, 3], [3, 5], [-1, 0])) == [(0, 1)]
        # item 0 is an empty corner-box factor (right end below its key):
        # nothing starting at it pairs, the later item 1 still reaches it
        assert set(line_pairs([1, 0, 2], [0, 4, 2])) == {(1, 0), (1, 2)}
        assert list(line_pairs([1, 2], [0, 2], [1, 1])) == []


class TestBuild:
    def test_d1_shorthand(self):
        r = Realization.build(1, {1: ((0, 2), 1), 2: ((F(1, 2), 3), F(5, 2))})
        assert r.d == 1
        assert r.interval(1) == (F(0), F(2))
        assert r.coordinate(2) == F(5, 2)
        assert r.box(1) == ((F(0), F(2)),)
        assert r.point(1) == (F(1),)

    def test_d2(self):
        r = Realization.build(2, {7: (((0, 1), (2, 4)), (F(1, 2), 3))})
        assert r.box(7) == ((F(0), F(1)), (F(2), F(4)))
        assert r.point(7) == (F(1, 2), F(3))

    def test_point_on_boundary_allowed(self):
        r = Realization.build(1, {1: ((0, 2), 2)})
        assert r.coordinate(1) == 2

    def test_point_outside_box_rejected(self):
        with pytest.raises(RealizationError):
            Realization.build(1, {1: ((0, 2), 3)})

    def test_containment_is_exact_on_near_ties(self):
        lo, hi, tiny = F(-(10**50), 3**100), F(2**70, 5**40), F(1, 10**300)
        for p in (lo, hi, lo + tiny, hi - tiny):
            assert Realization.build(1, {1: ((lo, hi), p)}).coordinate(1) == p
        for p in (lo - tiny, hi + tiny):
            with pytest.raises(RealizationError, match="outside box"):
                Realization.build(1, {1: ((lo, hi), p)})

    def test_arity_mismatch_rejected(self):
        with pytest.raises(RealizationError):
            Realization.build(2, {1: ((0, 2), 1)})

    def test_bad_ids_rejected(self):
        with pytest.raises(RealizationError):
            Realization.build(1, {0: ((0, 1), 0)})

    def test_bool_ids_rejected(self):
        # True is an int, but would be written as "v True ..." and not load
        with pytest.raises(RealizationError, match="positive integers"):
            Realization.build(1, {True: ((0, 2), 1), 2: ((1, 3), 2)})

    def test_float_and_bool_coordinates_rejected(self):
        # 0.1 would be stored as 3602879701896397/36028797018963968 and True as 1
        for items in ({1: ((0.1, 1), F(1, 2))}, {1: ((0, 1), 0.5)}, {1: ((0, True), 1)}):
            with pytest.raises(RealizationError, match="not an int or a Fraction"):
                Realization.build(1, items)

    def test_lattice_is_canonical(self):
        # the least common denominator, whatever form the values come in
        r = Realization.build(2, {1: (((F(2, 4), F(3, 2)), (0, 4)), (1, F(6, 3)))})
        assert (r.den, r.boxes, r.points) == (2, (((1, 3), (0, 8)),), ((2, 4),))
        assert all(type(c) is int for side in r.boxes[0] for c in side + r.points[0])
        assert r == Realization.build(2, {1: (((F(1, 2), F(3, 2)), (0, 4)), (1, 2))})
        assert Realization.build(1, {1: ((0, 4), 2)}).den == 1

    def test_unknown_vertex_lookup(self):
        r = Realization.build(1, {1: ((0, 1), 0)})
        with pytest.raises(RealizationError):
            r.box(2)


class TestInducedGraph:
    def test_worked_example_edges(self, paw_realization, paw_graph):
        assert edge_set(induced_graph(paw_realization)) == edge_set(paw_graph)

    def test_matches_containment_oracle_d1(self):
        rng = random.Random(101)
        for _ in range(80):
            r = random_realization(rng, rng.randint(1, 12))
            assert edge_set(induced_graph(r)) == oracle_induced_edges(r)

    def test_matches_containment_oracle_d2(self):
        rng = random.Random(202)
        for _ in range(40):
            r = random_realization(rng, rng.randint(1, 9), d=2)
            assert edge_set(induced_graph(r)) == oracle_induced_edges(r)

    def test_one_sided_containment_is_not_an_edge(self):
        # box of 1 contains point of 2 but not vice versa
        r = Realization.build(1, {1: ((0, 10), 0), 2: ((4, 6), 5)})
        assert adjacency_pairs(r) == set()

    def test_requires_contiguous_ids(self):
        r = Realization.build(1, {1: ((0, 1), 0), 3: ((0, 1), 1)})
        with pytest.raises(RealizationError):
            induced_graph(r)
        assert adjacency_pairs(r) == {(1, 3)}


class TestAdjacencySweep:
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_all_pairs_reference_with_ties(self, d):
        # tied points and endpoints, zero-width sides, negative coordinates
        # and ids that are not 1..n
        rng = random.Random(8100 + d)
        for _ in range(300):
            r = random_tied_realization(rng, rng.randint(1, 14), d=d)
            pairs = adjacency_pairs(r)
            assert all(u < v for u, v in pairs)
            assert {frozenset(p) for p in pairs} == oracle_induced_edges(r)

    def test_matches_naive_scan_with_distinct_prime_denominators(self):
        # 900 coordinates, each on its own prime denominator
        r = random_prime_denominator_realization(random.Random(8300), 300)
        pairs = adjacency_pairs(r)
        assert len(pairs) > 300
        assert {frozenset(p) for p in pairs} == oracle_induced_edges(r)

    def test_contains_calls_are_output_sensitive(self, monkeypatch):
        # an all-pairs scan makes at least n(n-1)/2 = 1,999,000 calls here
        calls = 0
        contains = realization._contains

        def counted(box, point):
            nonlocal calls
            calls += 1
            return contains(box, point)

        monkeypatch.setattr(realization, "_contains", counted)
        r = cycle_cand1(2000)
        assert adjacency_pairs(r) == set(cycle_graph(2000).edge_list())
        n = m = 2000
        assert calls < 5 * (n + m)

    def test_nested_polygon_work_is_output_sensitive(self, monkeypatch):
        # nested chords (i, k + 1 - i): nearly every point lies inside the
        # first side of the outer boxes, so a scan of the points within
        # each first side makes about k^2 / 2 = 80,000 containment tests;
        # the sweep makes about 4.5 (k + m) int comparisons, every one counted
        k = 400
        m = OuterplanarModel(tuple(range(1, k + 1)), tuple((i, k + 1 - i) for i in range(2, k // 2)))
        r = outerplanar_cand1(m)
        counted = Realization(
            r.d,
            r.ids,
            r.den,
            tuple(tuple((CountedInt(lo), CountedInt(hi)) for lo, hi in b) for b in r.boxes),
            tuple(tuple(CountedInt(x) for x in p) for p in r.points),
        )
        calls = 0
        contains = realization._contains

        def counted_contains(box, point):
            nonlocal calls
            calls += 1
            return contains(box, point)

        monkeypatch.setattr(realization, "_contains", counted_contains)
        monkeypatch.setattr(CountedInt, "comparisons", 0)
        pairs = adjacency_pairs(counted)
        assert pairs == set(m.graph().edge_list())
        assert calls + CountedInt.comparisons <= 10 * (k + len(pairs))


class TestVerify:
    def test_report_against_wrong_graph(self, paw_realization, square_graph):
        report = verify(paw_realization, square_graph)
        assert report.missing_edges == ((1, 4),)
        assert report.extra_edges == ((1, 3),)
        assert not report.ok

    def test_clean_report(self, paw_realization, paw_graph):
        report = verify(paw_realization, paw_graph)
        assert report.ok
        assert report.missing_edges == () and report.extra_edges == ()

    def test_vertex_set_mismatch(self, paw_realization):
        with pytest.raises(RealizationError):
            verify(paw_realization, cycle_graph(5))


class TestCentral:
    def test_is_central(self):
        assert is_central(Realization.build(1, {1: ((0, 4), 2)}))
        assert not is_central(Realization.build(1, {1: ((0, 4), 1)}))

    @pytest.mark.parametrize("d", [1, 2])
    def test_decided_exactly_on_distinct_denominators(self, d):
        # centre c and radius r on distinct primes; an error of 10**-300
        # in one endpoint of one dimension must show
        c, r, tiny = F(10**40 + 1, 7**30), F(5, 11**20), F(1, 10**300)
        side = ((c - r, c + r),) * d
        assert is_central(Realization.build(d, {1: (side, (c,) * d)}))
        for k in range(d):
            for moved in ((c - r - tiny, c + r), (c - r, c + r + tiny)):
                box = side[:k] + (moved,) + side[k + 1 :]
                assert not is_central(Realization.build(d, {1: (box, (c,) * d)}))

    def test_central_adjacency_matches_distance_rule(self):
        rng = random.Random(303)
        for _ in range(80):
            r = random_central_realization(rng, rng.randint(1, 12))
            assert is_central(r)
            assert oracle_induced_edges(r) == oracle_central_edges(r)


class TestROrder:
    def test_sorted_by_point(self, paw_realization):
        assert r_order(paw_realization) == (1, 2, 3, 4)

    def test_nontrivial_order(self):
        r = Realization.build(1, {1: ((0, 9), 8), 2: ((0, 9), 1), 3: ((0, 9), 4)})
        assert r_order(r) == (2, 3, 1)

    def test_ties_raise(self):
        r = Realization.build(1, {1: ((0, 2), 1), 2: ((0, 4), 1)})
        with pytest.raises(TiedPointsError):
            r_order(r)


class TestMakePointsDistinct:
    def test_identical_pair_keeps_edge(self):
        # two identical vertices form an edge; separation must keep it
        r = Realization.build(1, {1: ((0, 2), 1), 2: ((0, 2), 1)})
        s = make_points_distinct(r)
        assert s.coordinate(1) != s.coordinate(2)
        assert adjacency_pairs(s) == {(1, 2)}
        r_order(s)  # must not raise

    def test_distinct_input_returned_unchanged(self, paw_realization):
        assert make_points_distinct(paw_realization) is paw_realization

    def test_random_tied_instances_keep_graph(self):
        rng = random.Random(606)
        for _ in range(60):
            n = rng.randint(2, 10)
            r = random_realization(rng, n)
            # force some ties by snapping points to a coarse lattice
            items = {}
            for v, box, point in r.items():
                (lo, hi) = box[0]
                snapped = min(max(round(point[0]), lo), hi)
                items[v] = ((lo, hi), snapped)
            r = Realization.build(1, items)
            s = make_points_distinct(r)
            vals = [s.coordinate(v) for v in s.ids]
            assert len(set(vals)) == len(vals)
            assert oracle_induced_edges(s) == oracle_induced_edges(r)

    def test_central_input_stays_central(self):
        r = Realization.build(1, {1: ((0, 2), 1), 2: ((0, 2), 1), 3: ((1, 1), 1)})
        assert is_central(r)
        s = make_points_distinct(r)
        assert is_central(s)
        assert oracle_induced_edges(s) == oracle_induced_edges(r)


class TestSafety:
    def test_safe_and_unsafe(self):
        # point of 2 sits inside the box of non-neighbor 3 (one-sided)
        r = Realization.build(
            1,
            {
                1: ((0, 4), 1),
                2: ((1, 3), 2),
                3: ((2, 9), 6),
            },
        )
        assert adjacency_pairs(r) == {(1, 2)}
        assert is_safe(r, 1)
        assert not is_safe(r, 2)
        assert is_safe(r, 3)

    def test_matches_definition_on_random_instances(self):
        rng = random.Random(707)
        for k in range(80):
            # every other instance has tied points and ids other than 1..n
            generate = random_tied_realization if k % 2 else random_realization
            r = generate(rng, rng.randint(2, 10))
            adj = {v: set() for v in r.ids}
            for a, b in map(tuple, oracle_induced_edges(r)):
                adj[a].add(b)
                adj[b].add(a)
            for v in r.ids:
                pv = r.point(v)
                expected = all(
                    w == v
                    or w in adj[v]
                    or not all(
                        lo <= x <= hi for (lo, hi), x in zip(r.box(w), pv)
                    )
                    for w in r.ids
                )
                assert is_safe(r, v) == expected


class TestRelabel:
    def test_permutes_ids(self, paw_realization):
        s = relabel(paw_realization, {1: 4, 2: 3, 3: 2, 4: 1})
        assert s.interval(4) == paw_realization.interval(1)
        assert edge_set(induced_graph(s)) == {
            frozenset(e) for e in [(4, 3), (4, 2), (3, 2), (2, 1)]
        }

    def test_rejects_non_injective(self, paw_realization):
        with pytest.raises(RealizationError, match="injective"):
            relabel(paw_realization, {1: 1, 2: 1, 3: 3, 4: 4})

    def test_rejects_partial(self, paw_realization):
        with pytest.raises(RealizationError, match=r"misses vertices \[3, 4\]"):
            relabel(paw_realization, {1: 1, 2: 2})

    def test_rejects_non_positive_ids(self, paw_realization):
        with pytest.raises(RealizationError, match="positive integers"):
            relabel(paw_realization, {1: 0, 2: 2, 3: 3, 4: 4})

    def test_matches_the_fraction_round_trip(self):
        # the cycle and block certificates of the geometry workload, their
        # ids reversed and spread out
        for r in (cycle_cand1(700), blockwise_cand1(random_block_graph(220, 1).graph)):
            for mapping in ({v: r.n + 1 - v for v in r.ids}, {v: 3 * v + 7 for v in r.ids}):
                assert relabel(r, mapping) == reference_relabel(r, mapping)
