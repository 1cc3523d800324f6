"""Planar corner-box products and semi-square triangles: the two
intersection models that reproduce a realization's graph geometrically.

Both are file encodings of a realization, so every geometric object here
is written as .boxes or .tri text, read back with fileio, and compared
with the all-pairs references of conftest on the plain tuples.
"""

import random
from fractions import Fraction as F

import pytest

from andbox import fileio
from andbox.boxes import corner_box_intersection_graph, semisquare_intersection_graph
from andbox.constructors import clique_cand1, cycle_cand1, outerplanar_cand1
from andbox.families import OuterplanarModel
from andbox.fileio import FileFormatError, format_rational
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
    read_corner_boxes,
    reference_corner_box_edges,
    reference_semisquare_edges,
    semisquare_triangle,
)


def fz(u, v):
    return frozenset((u, v))


def boxes_text(boxes) -> str:
    """.boxes text of (vertex, factors) pairs, in the given order."""
    return "".join(
        f"b {v} {dim} " + " ".join(format_rational(c) for side in factor for c in side) + "\n"
        for v, factors in boxes
        for dim, factor in enumerate(factors, start=1)
    )


def squares_text(squares) -> str:
    """.tri text of (vertex, corner, leg) triples, in the given order."""
    return "".join(
        f"s {v} {format_rational(p)} {format_rational(r)}\n" for v, p, r in squares
    )


def load_squares(*squares) -> Realization:
    return fileio.loads_semisquares(squares_text(squares))


class TestToCornerBoxes:
    def test_paw_vertex_frozen(self, paw_realization):
        boxes = read_corner_boxes(fileio.dumps_corner_boxes(paw_realization))
        assert boxes[0] == (1, (((F(2), F(9, 2)), (F(-2), F(-1))),))

    def test_corners_sit_on_the_antidiagonal(self, paw_realization):
        text = fileio.dumps_corner_boxes(paw_realization)
        for _, factors in read_corner_boxes(text):
            for (x_lo, _), (y_lo, _) in factors:
                assert x_lo + y_lo == 0
        assert fileio.loads_corner_boxes(text) == paw_realization

    def test_negative_coordinates_are_kept(self):
        r = cycle_cand1(5, F(1, 2))  # vertex 1 is [-7/2, 11/2] around 1
        boxes = read_corner_boxes(fileio.dumps_corner_boxes(r))
        assert boxes[0] == (1, (((F(1), F(11, 2)), (F(-1), F(7, 2))),))
        for (v, factors), (u, _, point) in zip(boxes, r.items()):
            assert v == u
            assert factors[0][0][0] == point[0]

    def test_two_dimensional_frozen(self):
        r = Realization.build(2, {
            1: (((F(0), F(2)), (F(1), F(3))), (F(1), F(2))),
            2: (((F(1), F(4)), (F(0), F(5))), (F(2), F(1))),
        })
        assert fileio.dumps_corner_boxes(r) == (
            "b 1 1 1 2 -1 0\n"
            "b 1 2 2 3 -2 -1\n"
            "b 2 1 2 4 -2 -1\n"
            "b 2 2 1 5 -1 0\n"
        )


class TestCornerBoxGraph:
    def test_paw(self, paw_realization, paw_graph):
        boxes = fileio.loads_corner_boxes(fileio.dumps_corner_boxes(paw_realization))
        assert corner_box_intersection_graph(boxes) == paw_graph

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_induced_graph(self, d):
        rng = random.Random(530 + d)
        for _ in range(40):
            r = random_realization(rng, rng.randint(2, 9), d=d)
            text = fileio.dumps_corner_boxes(r)
            g = corner_box_intersection_graph(fileio.loads_corner_boxes(text))
            assert edge_set(g) == oracle_induced_edges(r)
            assert edge_set(g) == reference_corner_box_edges(read_corner_boxes(text))

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
                (v, tuple(factor() for _ in range(d)))
                for v in rng.sample(range(1, n + 1), n)
            ]
            g = corner_box_intersection_graph(fileio.loads_corner_boxes(boxes_text(boxes)))
            assert edge_set(g) == reference_corner_box_edges(boxes)

    def test_rejects_off_diagonal_rectangles(self):
        on = (1, (((F(1), F(2)), (F(-1), F(0))),))
        off = (2, (((F(1), F(2)), (F(0), F(1))),))
        with pytest.raises(FileFormatError, match=r"^<boxes>:2: vertex 2: corner"):
            fileio.loads_corner_boxes(boxes_text([on, off]))

    def test_nested_polygon_work_is_output_sensitive(self, monkeypatch):
        # nested chords (i, k + 1 - i): nearly every point lies inside the
        # outer x-extents, so sweeping those alone yields about
        # 40 (k + m) candidate pairs; the induced graph's sweep yields m
        k = 400
        m = OuterplanarModel(tuple(range(1, k + 1)), tuple((i, k + 1 - i) for i in range(2, k // 2)))
        boxes = fileio.loads_corner_boxes(fileio.dumps_corner_boxes(outerplanar_cand1(m)))
        yielded = 0

        def counted_line_pairs(*args):
            nonlocal yielded
            for pair in line_pairs(*args):
                yielded += 1
                yield pair

        monkeypatch.setattr("andbox.realization.line_pairs", counted_line_pairs)
        g = corner_box_intersection_graph(boxes)
        assert g == m.graph()
        assert yielded <= 2 * (k + g.m)

    def test_requires_contiguous_ids(self):
        boxes = fileio.loads_corner_boxes("b 5 1 1 2 -1 0\n")
        with pytest.raises(RealizationError):
            corner_box_intersection_graph(boxes)

    def test_requires_equal_dimensions(self):
        # vertex 1 has one factor and vertex 2 two
        text = "b 1 1 1 2 -1 0\nb 2 1 1 2 -1 0\nb 2 2 1 2 -1 0\n"
        with pytest.raises(FileFormatError, match="vertex 1 missing dimension 2"):
            fileio.loads_corner_boxes(text)

    def test_rejects_empty(self):
        with pytest.raises(FileFormatError, match="no corner boxes"):
            fileio.loads_corner_boxes("c nothing\n")


class TestCornerBoxRoundTrip:
    @pytest.mark.parametrize("d", [1, 2])
    def test_model_round_trip_is_identity(self, d):
        rng = random.Random(77 + d)
        for _ in range(25):
            r = random_realization(rng, rng.randint(1, 8), d=d)
            text = fileio.dumps_corner_boxes(r)
            assert fileio.loads_corner_boxes(text) == r
            assert fileio.dumps_corner_boxes(fileio.loads_corner_boxes(text)) == text

    def test_validates_before_converting(self):
        with pytest.raises(FileFormatError, match=r"^<boxes>:1: vertex 1: corner \(1,0\) off"):
            fileio.loads_corner_boxes("b 1 1 1 2 0 1\n")
        with pytest.raises(FileFormatError, match=r"^<boxes>:2: vertex 1: empty planar factor"):
            fileio.loads_corner_boxes("c x_lo above x_hi\nb 1 1 2 1 -2 3\n")

    def test_rejects_repeated_ids(self):
        with pytest.raises(FileFormatError, match=r"^<boxes>:2: duplicate box factor 1 1"):
            fileio.loads_corner_boxes("b 1 1 1 2 -1 0\nb 1 1 3 4 -3 -2\n")


class TestCheckCornerBox:
    def test_accepts_valid(self):
        r = fileio.loads_corner_boxes("b 3 1 1/2 7 -1/2 4\n")
        assert r == Realization.build(1, {3: ((F(-4), F(7)), F(1, 2))})

    def test_rejects_off_diagonal_corner(self):
        with pytest.raises(FileFormatError, match=r"^<boxes>:1: .*off the diagonal"):
            fileio.loads_corner_boxes("b 1 1 1 2 -2 0\n")

    def test_rejects_empty_factor(self):
        # y_lo above y_hi: the point would lie left of the box
        with pytest.raises(FileFormatError, match=r"^<boxes>:1: .*empty planar factor"):
            fileio.loads_corner_boxes("b 1 1 2 3 -2 -3\n")
        with pytest.raises(FileFormatError, match=r"^<boxes>:1: .*empty planar factor"):
            fileio.loads_corner_boxes("b 1 1 2 1 -2 0\n")


class TestSemiSquares:
    def test_triangle_geometry(self):
        assert semisquare_triangle(F(3), F(2)) == ((F(3), F(-3)), (F(5), F(-3)), (F(3), F(-1)))

    def test_pentagon_frozen(self):
        r = cycle_cand1(5, F(1, 2))
        text = fileio.dumps_semisquares(r)
        assert text == "s 1 1 9/2\ns 2 2 3/2\ns 3 3 3/2\ns 4 4 3/2\ns 5 5 9/2\n"
        assert fileio.loads_semisquares(text) == r
        assert semisquare_intersection_graph(fileio.loads_semisquares(text)) == cycle_graph(5)

    def test_positive_input_is_not_shifted(self):
        r = Realization.build(1, {1: ((F(1), F(3)), F(2)), 2: ((F(2), F(4)), F(3))})
        assert fileio.dumps_semisquares(r) == "s 1 2 1\ns 2 3 1\n"

    def test_requires_one_dimension(self):
        r = Realization.build(2, {1: (((F(0), F(2)), (F(0), F(2))), (F(1), F(1)))})
        with pytest.raises(RealizationError, match="d = 1"):
            fileio.dumps_semisquares(r)
        with pytest.raises(RealizationError, match="d = 1"):
            semisquare_intersection_graph(r)

    def test_requires_central(self, paw_realization):
        with pytest.raises(RealizationError, match="central"):
            fileio.dumps_semisquares(paw_realization)
        with pytest.raises(RealizationError, match="central"):
            semisquare_intersection_graph(paw_realization)

    def test_matches_induced_graph_on_random_central(self):
        rng = random.Random(991)
        for _ in range(40):
            r = random_central_realization(rng, rng.randint(2, 9))
            g = semisquare_intersection_graph(fileio.loads_semisquares(fileio.dumps_semisquares(r)))
            assert edge_set(g) == oracle_induced_edges(r)

    def test_matches_triangle_reference(self):
        # equal corners, zero legs, and triangles touching at a vertex or
        # along an edge (integer corners and legs)
        rng = random.Random(7300)
        for _ in range(300):
            n = rng.randint(1, 14)
            squares = [
                (v, F(rng.randint(0, 6)), F(rng.choice([0, 0, 1, 2, 3, 5])))
                for v in rng.sample(range(1, n + 1), n)
            ]
            g = semisquare_intersection_graph(load_squares(*squares))
            assert edge_set(g) == reference_semisquare_edges(squares)

    def test_negative_leg_rejected(self):
        with pytest.raises(FileFormatError, match=r"^<semisquares>:2: leg length"):
            fileio.loads_semisquares("s 1 2 1\ns 2 2 -1/2\n")

    def test_clique_realization_gives_complete_graph(self):
        squares = fileio.loads_semisquares(fileio.dumps_semisquares(clique_cand1([1, 2, 3, 4])))
        g = semisquare_intersection_graph(squares)
        assert edge_set(g) == {fz(u, v) for u in range(1, 5) for v in range(u + 1, 5)}


class TestTriangleContact:
    def test_touching_at_one_point_counts(self):
        g = semisquare_intersection_graph(load_squares((1, F(1), F(1)), (2, F(2), F(1))))
        assert edge_set(g) == {fz(1, 2)}

    def test_separated_pair(self):
        g = semisquare_intersection_graph(load_squares((1, F(1), F(1)), (2, F(3), F(1))))
        assert edge_set(g) == set()

    def test_shared_corner_nests(self):
        g = semisquare_intersection_graph(load_squares((1, F(2), F(3)), (2, F(2), F(1))))
        assert edge_set(g) == {fz(1, 2)}

    def test_asymmetric_reach_is_not_enough(self):
        # the wide triangle reaches past the narrow one's corner, but the
        # narrow one cannot reach back: no intersection, like the
        # one-sided-containment non-edge in the interval picture
        g = semisquare_intersection_graph(load_squares((1, F(1), F(5)), (2, F(4), F(1))))
        assert edge_set(g) == set()

    def test_requires_contiguous_ids(self):
        with pytest.raises(RealizationError):
            semisquare_intersection_graph(load_squares((2, F(1), F(1))))

    def test_rejects_empty(self):
        with pytest.raises(FileFormatError, match="no semi-squares"):
            fileio.loads_semisquares("c nothing\n")
