import random
from fractions import Fraction as F
from itertools import combinations

import pytest

import oracles
from oracles import CheckFailed, classify


def write(tmp_path, name, lines):
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n")
    return str(p)


def ok():
    pass


def bad():
    raise CheckFailed("planted")


# --- orderings -------------------------------------------------------------

PLANTED = [(1, 3), (2, 4)]  # ranks 1<2<3<4: edges (1,3), (2,4), non-edge (2,3)


def test_naive_scan_finds_planted_violation():
    assert oracles.four_point_violation(PLANTED, [1, 2, 3, 4]) == (1, 2, 3, 4)
    assert oracles.four_point_violation(PLANTED, [1, 3, 2, 4]) is None


def test_check_ordering_rejects_planted_violation(tmp_path):
    path = write(tmp_path, "g.order", ["o 1 2 3 4"])
    with pytest.raises(CheckFailed, match="violation"):
        oracles.check_ordering(path, 4, PLANTED)
    oracles.check_ordering(write(tmp_path, "h.order", ["o 1 3 2 4"]), 4, PLANTED)
    with pytest.raises(CheckFailed, match="permutation"):
        oracles.check_ordering(write(tmp_path, "i.order", ["o 1 3 4"]), 4, PLANTED)


# --- realizations ----------------------------------------------------------

P3 = [(1, 2), (2, 3)]
P3_CENTRAL = ["r and 3 1", "central", "v 1 1 -2 2 0", "v 2 1 0 4 2", "v 3 1 2 6 4"]


def test_check_realization_accepts_a_right_one(tmp_path):
    oracles.check_realization(write(tmp_path, "p.real", P3_CENTRAL), 3, P3, central=True)


def test_check_realization_rejects_one_wrong_edge(tmp_path):
    path = write(tmp_path, "p.real", P3_CENTRAL)
    with pytest.raises(CheckFailed, match="missing"):
        oracles.check_realization(path, 3, [(1, 2), (2, 3), (1, 3)], central=True)
    # vertex 3's box shrunk so that it no longer holds vertex 2's point
    wrong = P3_CENTRAL[:-1] + ["v 3 1 3 5 4"]
    with pytest.raises(CheckFailed, match=r"missing \[\(2, 3\)\]"):
        oracles.check_realization(write(tmp_path, "q.real", wrong), 3, P3, central=True)


def test_check_realization_rejects_false_central_claim(tmp_path):
    lines = ["r and 2 1", "central", "v 1 1 0 2 0", "v 2 1 0 3 1"]
    with pytest.raises(CheckFailed, match="central"):
        oracles.check_realization(write(tmp_path, "x.real", lines), 2, [(1, 2)], central=False)


def brute_containment(rows):
    return {
        (u, v)
        for u, v in combinations(sorted(rows), 2)
        if rows[u][0] <= rows[v][2] <= rows[u][1] and rows[v][0] <= rows[u][2] <= rows[v][1]
    }


def test_sweeps_match_all_pairs_scans():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 9)
        rows = {}
        rects = {}
        for v in range(1, n + 1):
            p = F(rng.randint(0, 8), rng.choice((1, 2)))
            rows[v] = (p - rng.randint(0, 4), p + F(rng.randint(0, 4), 2), p)
            x, y = F(rng.randint(-5, 5)), F(rng.randint(-5, 5))
            rects[v] = (x, x + rng.randint(0, 4), y, y + rng.randint(0, 4))
        assert oracles.mutual_containment_edges(rows) == brute_containment(rows)
        want = {
            (u, v)
            for u, v in combinations(sorted(rects), 2)
            if max(rects[u][0], rects[v][0]) <= min(rects[u][1], rects[v][1])
            and max(rects[u][2], rects[v][2]) <= min(rects[u][3], rects[v][3])
        }
        assert oracles.rectangle_edges(rects) == want


def triangles_meet(a, b):
    # separating axes of two triangles with legs along x, y and x + y = c
    for ax, ay in ((1, 0), (0, 1), (1, 1)):
        pa = [ax * x + ay * y for x, y in a]
        pb = [ax * x + ay * y for x, y in b]
        if max(min(pa), min(pb)) > min(max(pa), max(pb)):
            return False
    return True


def test_semisquare_closed_form_matches_triangle_geometry():
    rng = random.Random(5)
    for _ in range(100):
        sq = {v: (F(rng.randint(-6, 6), 2), F(rng.randint(0, 6), 2)) for v in range(1, 7)}
        tri = {v: ((p, -p), (p + r, -p), (p, -p + r)) for v, (p, r) in sq.items()}
        want = {(u, v) for u, v in combinations(range(1, 7), 2) if triangles_meet(tri[u], tri[v])}
        assert oracles.semisquare_edges(sq) == want


def test_corner_box_check_rejects_off_diagonal_corner(tmp_path):
    path = write(tmp_path, "x.boxes", ["b 1 1 1 2 -1 0", "b 2 1 2 3 -2 -1"])
    oracles.check_corner_boxes(path, 2, [(1, 2)])
    off = write(tmp_path, "y.boxes", ["b 1 1 1 2 -1 0", "b 2 1 2 3 -3 -1"])
    with pytest.raises(CheckFailed, match="diagonal"):
        oracles.check_corner_boxes(off, 2, [(1, 2)])


def test_svg_counts(tmp_path):
    svg = write(tmp_path, "x.svg", [
        '<svg xmlns="http://www.w3.org/2000/svg"><rect/><circle/><circle/></svg>'
    ])
    oracles.check_svg(svg, 1)
    with pytest.raises(CheckFailed):
        oracles.check_svg(svg, 2)


# --- classification --------------------------------------------------------

YES = "verdict=yes time_ms=3\n"


def test_classify_separates_exhausted_from_failed():
    assert classify("yes", True, 3, "verdict=exhausted time_ms=9\n", bad) == ("exhausted", "")
    assert classify("no", True, 3, "verdict=exhausted time_ms=9\n", bad)[0] == "exhausted"
    assert classify("yes", False, 3, "verdict=exhausted time_ms=9\n", ok)[0] == "failed"


def test_classify_failures():
    assert classify("yes", True, 0, YES, ok) == ("ok", "")
    assert classify("no", True, 1, "verdict=no time_ms=1\n", ok) == ("ok", "")
    assert classify("yes", True, 0, YES, bad) == ("failed", "planted")
    assert classify("no", True, 0, YES, ok)[0] == "failed"
    assert classify("yes", True, 1, "verdict=no time_ms=1\n", ok)[0] == "failed"
    assert classify("yes", False, 2, "", ok)[0] == "failed"
    assert classify("yes", False, None, "", ok)[0] == "failed"
    assert classify("yes", False, 0, "verdict=no time_ms=1\n", ok)[0] == "failed"
    assert classify("yes", False, 0, YES + YES, ok)[0] == "failed"
    assert classify("yes", False, 0, None, ok) == ("ok", "")
