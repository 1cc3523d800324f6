"""Planar corner-box products and semi-square triangles: the two
intersection models that reproduce a realization's graph geometrically.
"""

import random
from fractions import Fraction as F

import pytest

from andbox.boxes import (
    CornerBox,
    SemiSquare,
    check_corner_box,
    corner_box_intersection_graph,
    corner_boxes_to_realization,
    semisquare_intersection_graph,
    to_corner_boxes,
    to_semisquares,
)
from andbox.constructors import clique_cand1, cycle_cand1, outerplanar_cand1
from andbox.families import OuterplanarModel
from andbox.graphs import cycle_graph
from andbox.realization import (
    Realization,
    RealizationError,
    line_pairs,
)

from conftest import (
    edge_set,
    oracle_induced_edges,
    random_central_realization,
    random_realization,
    reference_corner_box_edges,
    reference_semisquare_edges,
)


def fz(u, v):
    return frozenset((u, v))


class TestToCornerBoxes:
    def test_paw_vertex_frozen(self, paw_realization):
        boxes = to_corner_boxes(paw_realization)
        assert boxes[0] == CornerBox(1, (((F(2), F(9, 2)), (F(-2), F(-1))),))

    def test_corners_sit_on_the_antidiagonal(self, paw_realization):
        for cb in to_corner_boxes(paw_realization):
            for (x_lo, _), (y_lo, _) in cb.factors:
                assert x_lo + y_lo == 0
            check_corner_box(cb)

    def test_negative_coordinates_are_kept(self):
        r = cycle_cand1(5, F(1, 2))  # vertex 1 is [-7/2, 11/2] around 1
        boxes = to_corner_boxes(r)
        assert boxes[0] == CornerBox(1, (((F(1), F(11, 2)), (F(-1), F(7, 2))),))
        for cb, (v, _, point) in zip(boxes, r.items()):
            assert cb.vertex == v
            assert cb.factors[0][0][0] == point[0]
            check_corner_box(cb)

    def test_two_dimensional_frozen(self):
        r = Realization.build(2, {
            1: (((F(0), F(2)), (F(1), F(3))), (F(1), F(2))),
            2: (((F(1), F(4)), (F(0), F(5))), (F(2), F(1))),
        })
        boxes = to_corner_boxes(r)
        assert boxes[0].factors == (
            ((F(1), F(2)), (F(-1), F(0))),
            ((F(2), F(3)), (F(-2), F(-1))),
        )
        assert boxes[1].factors == (
            ((F(2), F(4)), (F(-2), F(-1))),
            ((F(1), F(5)), (F(-1), F(0))),
        )


class TestCornerBoxGraph:
    def test_paw(self, paw_realization, paw_graph):
        g = corner_box_intersection_graph(to_corner_boxes(paw_realization))
        assert g == paw_graph

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_induced_graph(self, d):
        rng = random.Random(530 + d)
        for _ in range(40):
            r = random_realization(rng, rng.randint(2, 9), d=d)
            g = corner_box_intersection_graph(to_corner_boxes(r))
            assert edge_set(g) == oracle_induced_edges(r)

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_all_pairs_reference_on_closed_rectangles(self, d):
        # corners on the diagonal of a small integer grid, so rectangles
        # touch along edges and at corners, and some are segments or points
        rng = random.Random(6400 + d)

        def factor():
            x_lo, x_hi = sorted(rng.randint(-3, 3) for _ in range(2))
            return (F(x_lo), F(x_hi)), (F(-x_lo), F(rng.randint(-x_lo, 3)))

        for _ in range(300):
            n = rng.randint(1, 14)
            boxes = [
                CornerBox(v, tuple(factor() for _ in range(d)))
                for v in rng.sample(range(1, n + 1), n)
            ]
            g = corner_box_intersection_graph(boxes)
            assert edge_set(g) == reference_corner_box_edges(boxes)

    def test_rejects_off_diagonal_rectangles(self):
        on = CornerBox(1, (((F(1), F(2)), (F(-1), F(0))),))
        off = CornerBox(2, (((F(1), F(2)), (F(0), F(1))),))
        with pytest.raises(RealizationError):
            corner_box_intersection_graph([on, off])

    def test_nested_polygon_work_is_output_sensitive(self, monkeypatch):
        # nested chords (i, k + 1 - i): nearly every point lies inside the
        # outer x-extents, so sweeping those alone yields about
        # 40 (k + m) candidate pairs; the induced graph's sweep yields m
        k = 400
        m = OuterplanarModel(tuple(range(1, k + 1)), tuple((i, k + 1 - i) for i in range(2, k // 2)))
        boxes = to_corner_boxes(outerplanar_cand1(m))
        yielded = 0

        def counted_line_pairs(*args):
            nonlocal yielded
            for pair in line_pairs(*args):
                yielded += 1
                yield pair

        monkeypatch.setattr("andbox.boxes.line_pairs", counted_line_pairs)
        monkeypatch.setattr("andbox.realization.line_pairs", counted_line_pairs)
        g = corner_box_intersection_graph(boxes)
        assert g == m.graph()
        assert yielded <= 2 * (k + g.m)

    def test_requires_contiguous_ids(self):
        cb = CornerBox(5, (((F(1), F(2)), (F(-1), F(0))),))
        with pytest.raises(RealizationError):
            corner_box_intersection_graph([cb])

    def test_requires_equal_dimensions(self):
        flat = CornerBox(1, (((F(1), F(2)), (F(-1), F(0))),))
        deep = CornerBox(2, (((F(1), F(2)), (F(-1), F(0))),) * 2)
        with pytest.raises(RealizationError):
            corner_box_intersection_graph([flat, deep])

    def test_rejects_empty(self):
        with pytest.raises(RealizationError):
            corner_box_intersection_graph([])


class TestCornerBoxRoundTrip:
    @pytest.mark.parametrize("d", [1, 2])
    def test_model_round_trip_is_identity(self, d):
        rng = random.Random(77 + d)
        for _ in range(25):
            r = random_realization(rng, rng.randint(1, 8), d=d)
            assert corner_boxes_to_realization(to_corner_boxes(r)) == r

    def test_validates_before_converting(self):
        off_diagonal = CornerBox(1, (((F(1), F(2)), (F(0), F(1))),))
        with pytest.raises(RealizationError):
            corner_boxes_to_realization([off_diagonal])
        empty_factor = CornerBox(1, (((F(2), F(1)), (F(-2), F(3))),))
        with pytest.raises(RealizationError):
            corner_boxes_to_realization([empty_factor])

    def test_rejects_repeated_ids(self):
        a = CornerBox(1, (((F(1), F(2)), (F(-1), F(0))),))
        b = CornerBox(1, (((F(3), F(4)), (F(-3), F(-2))),))
        with pytest.raises(RealizationError):
            corner_boxes_to_realization([a, b])


class TestCheckCornerBox:
    def test_accepts_valid(self):
        check_corner_box(CornerBox(3, (((F(1, 2), F(7)), (F(-1, 2), F(4))),)))

    def test_rejects_off_diagonal_corner(self):
        with pytest.raises(RealizationError):
            check_corner_box(CornerBox(1, (((F(1), F(2)), (F(-2), F(0))),)))

    def test_rejects_empty_factor(self):
        with pytest.raises(RealizationError):
            check_corner_box(CornerBox(1, (((F(2), F(1)), (F(-2), F(0))),)))


class TestSemiSquares:
    def test_triangle_geometry(self):
        s = SemiSquare(4, F(3), F(2))
        assert s.triangle() == ((F(3), F(-3)), (F(5), F(-3)), (F(3), F(-1)))

    def test_pentagon_frozen(self):
        squares = to_semisquares(cycle_cand1(5, F(1, 2)))
        assert squares == (
            SemiSquare(1, F(1), F(9, 2)),
            SemiSquare(2, F(2), F(3, 2)),
            SemiSquare(3, F(3), F(3, 2)),
            SemiSquare(4, F(4), F(3, 2)),
            SemiSquare(5, F(5), F(9, 2)),
        )
        assert semisquare_intersection_graph(squares) == cycle_graph(5)

    def test_positive_input_is_not_shifted(self):
        r = Realization.build(1, {1: ((F(1), F(3)), F(2)), 2: ((F(2), F(4)), F(3))})
        assert to_semisquares(r) == (SemiSquare(1, F(2), F(1)), SemiSquare(2, F(3), F(1)))

    def test_requires_one_dimension(self):
        r = Realization.build(2, {1: (((F(0), F(2)), (F(0), F(2))), (F(1), F(1)))})
        with pytest.raises(RealizationError):
            to_semisquares(r)

    def test_requires_central(self, paw_realization):
        with pytest.raises(RealizationError):
            to_semisquares(paw_realization)

    def test_matches_induced_graph_on_random_central(self):
        rng = random.Random(991)
        for _ in range(40):
            r = random_central_realization(rng, rng.randint(2, 9))
            g = semisquare_intersection_graph(to_semisquares(r))
            assert edge_set(g) == oracle_induced_edges(r)

    def test_matches_triangle_reference(self):
        # equal corners, zero legs, and triangles touching at a vertex or
        # along an edge (integer corners and legs)
        rng = random.Random(7300)
        for _ in range(300):
            n = rng.randint(1, 14)
            squares = [
                SemiSquare(v, F(rng.randint(0, 6)), F(rng.choice([0, 0, 1, 2, 3, 5])))
                for v in rng.sample(range(1, n + 1), n)
            ]
            g = semisquare_intersection_graph(squares)
            assert edge_set(g) == reference_semisquare_edges(squares)

    def test_negative_leg_rejected(self):
        with pytest.raises(RealizationError):
            SemiSquare(1, F(2), F(-1, 2))

    def test_clique_realization_gives_complete_graph(self):
        squares = to_semisquares(clique_cand1([1, 2, 3, 4]))
        g = semisquare_intersection_graph(squares)
        assert edge_set(g) == {fz(u, v) for u in range(1, 5) for v in range(u + 1, 5)}


class TestTriangleContact:
    def test_touching_at_one_point_counts(self):
        a = SemiSquare(1, F(1), F(1))
        b = SemiSquare(2, F(2), F(1))
        g = semisquare_intersection_graph([a, b])
        assert edge_set(g) == {fz(1, 2)}

    def test_separated_pair(self):
        a = SemiSquare(1, F(1), F(1))
        b = SemiSquare(2, F(3), F(1))
        assert edge_set(semisquare_intersection_graph([a, b])) == set()

    def test_shared_corner_nests(self):
        a = SemiSquare(1, F(2), F(3))
        b = SemiSquare(2, F(2), F(1))
        assert edge_set(semisquare_intersection_graph([a, b])) == {fz(1, 2)}

    def test_asymmetric_reach_is_not_enough(self):
        # the wide triangle reaches past the narrow one's corner, but the
        # narrow one cannot reach back: no intersection, like the
        # one-sided-containment non-edge in the interval picture
        a = SemiSquare(1, F(1), F(5))
        b = SemiSquare(2, F(4), F(1))
        assert edge_set(semisquare_intersection_graph([a, b])) == set()

    def test_requires_contiguous_ids(self):
        with pytest.raises(RealizationError):
            semisquare_intersection_graph([SemiSquare(2, F(1), F(1))])

    def test_rejects_empty(self):
        with pytest.raises(RealizationError):
            semisquare_intersection_graph([])
