"""Exact checks the benchmark applies to what the program returns.

Nothing here imports andbox.  Every answer the benchmark accepts is
re-derived from the files the CLI wrote (or the graph a library call
returned) with plain integer and Fraction arithmetic, so a defect in the
code under test cannot vouch for its own output.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import combinations


class CheckFailed(Exception):
    """An output that does not match the benchmark's own exact answer."""


def edge_set(edges) -> set:
    return {(min(u, v), max(u, v)) for u, v in edges}


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _records(path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            toks = line.split()
            if toks and toks[0] != "c":
                yield toks


def _rows(path, tag, width):
    rows = {}
    for toks in _records(path):
        _require(toks[0] == tag and len(toks) == width, f"{path}: bad line {toks}")
        vid = int(toks[1])
        _require(vid not in rows, f"{path}: vertex {vid} twice")
        rows[vid] = toks[2:]
    return rows


# ---------------------------------------------------------------------------
# readers for the CLI's output formats

def read_ordering(path) -> list:
    lines = list(_records(path))
    _require(len(lines) == 1 and lines[0][0] == "o", f"{path}: not one 'o' line")
    return [int(t) for t in lines[0][1:]]


def read_realization(path):
    """(claims_central, {v: (L, R, p)}) of a one-dimensional realization."""
    central = False
    rows = {}
    header = None
    for toks in _records(path):
        if toks[0] == "r":
            header = (int(toks[2]), int(toks[3]))
        elif toks[0] == "central":
            central = True
        elif toks[0] == "v":
            _require(toks[2] == "1", f"{path}: dimension {toks[2]} in a 1-d check")
            vid = int(toks[1])
            _require(vid not in rows, f"{path}: vertex {vid} twice")
            lo, hi, p = (Fraction(t) for t in toks[3:6])
            rows[vid] = (lo, hi, p)
        else:
            raise CheckFailed(f"{path}: unknown record {toks[0]}")
    _require(header == (len(rows), 1), f"{path}: header {header} vs {len(rows)} rows")
    return central, rows


def read_codes(path) -> dict:
    return {v: tuple(int(t) for t in r) for v, r in _rows(path, "ic", 5).items()}


def read_corner_boxes(path) -> dict:
    out = {}
    for v, r in _rows(path, "b", 7).items():
        _require(r[0] == "1", f"{path}: dimension {r[0]} in a 1-d check")
        out[v] = tuple(Fraction(t) for t in r[1:])
    return out


def read_semisquares(path) -> dict:
    return {v: tuple(Fraction(t) for t in r) for v, r in _rows(path, "s", 4).items()}


def svg_element_counts(path) -> Counter:
    root = ET.parse(path).getroot()
    return Counter(el.tag.rsplit("}", 1)[-1] for el in root.iter())


# ---------------------------------------------------------------------------
# exact answers

def four_point_violation(edges, order):
    """Naive quadruple scan: the first ranked quadruple i < j < k < l with
    edges (i,k), (j,l) and non-edge (j,k), as vertices; None if none."""
    adj = edge_set(edges)

    def e(a, b):
        return (min(a, b), max(a, b)) in adj

    for i, j, k, l in combinations(range(len(order)), 4):
        a, b, c, d = order[i], order[j], order[k], order[l]
        if e(a, c) and e(b, d) and not e(b, c):
            return (a, b, c, d)
    return None


def mutual_containment_edges(rows) -> set:
    """Pairs whose points lie in each other's closed interval.

    rows maps v -> (L, R, p).  Points are sorted once; the candidates for
    v are the points inside [L_v, R_v], each then tested the other way.
    """
    pts = sorted((p, v) for v, (_, _, p) in rows.items())
    keys = [p for p, _ in pts]
    out = set()
    for v, (lo, hi, p) in rows.items():
        for q, u in pts[bisect_left(keys, lo):bisect_right(keys, hi)]:
            if u != v and rows[u][0] <= p <= rows[u][1]:
                out.add((min(u, v), max(u, v)))
    return out


def rectangle_edges(rects) -> set:
    """Pairs of closed axis-parallel rectangles (x_lo, x_hi, y_lo, y_hi)
    that intersect: sweep on x_lo, then test both axes."""
    order = sorted(rects, key=lambda v: rects[v][0])
    starts = [rects[v][0] for v in order]
    out = set()
    for v in order:
        xl, xh, yl, yh = rects[v]
        for u in order[bisect_left(starts, xl):bisect_right(starts, xh)]:
            if u == v:
                continue
            uxl, uxh, uyl, uyh = rects[u]
            if max(xl, uxl) <= min(xh, uxh) and max(yl, uyl) <= min(yh, uyh):
                out.add((min(u, v), max(u, v)))
    return out


def semisquare_edges(squares) -> set:
    """Semi-square (p, r) is the closed triangle x >= p, y >= -p, x+y <= r.
    Two meet iff x >= max(p,q), y >= -min(p,q), x+y <= min(r,s) is
    solvable, i.e. iff |p - q| <= min(r, s): each point lies in the
    other's interval [p - r, p + r]."""
    return mutual_containment_edges(
        {v: (p - r, p + r, p) for v, (p, r) in squares.items()}
    )


def interval_edges(spans) -> set:
    """spans maps v -> (lo, hi); closed intervals that overlap."""
    return {
        (u, v)
        for u, v in combinations(sorted(spans), 2)
        if max(spans[u][0], spans[v][0]) <= min(spans[u][1], spans[v][1])
    }


def rooted_path_edges(paths) -> set:
    """paths maps v -> tree nodes; vertices whose paths share a node."""
    sets = {v: set(p) for v, p in paths.items()}
    return {(u, v) for u, v in combinations(sorted(sets), 2) if sets[u] & sets[v]}


# ---------------------------------------------------------------------------
# file checks

def check_graph(got: set, want: set, what: str) -> None:
    if got != want:
        missing = sorted(want - got)[:3]
        extra = sorted(got - want)[:3]
        raise CheckFailed(f"{what}: missing {missing} extra {extra}")


def check_ordering(path, n, edges) -> None:
    order = read_ordering(path)
    _require(sorted(order) == list(range(1, n + 1)), f"{path}: not a permutation")
    bad = four_point_violation(edges, order)
    _require(bad is None, f"{path}: four-point violation {bad}")


def check_realization(path, n, edges, central: bool) -> None:
    claims, rows = read_realization(path)
    _require(sorted(rows) == list(range(1, n + 1)), f"{path}: vertex set")
    for v, (lo, hi, p) in rows.items():
        _require(lo <= p <= hi, f"{path}: point of {v} outside its box")
    is_central = all(lo + hi == 2 * p for lo, hi, p in rows.values())
    _require(claims == is_central, f"{path}: 'central' line is wrong")
    _require(is_central or not central, f"{path}: not central")
    check_graph(mutual_containment_edges(rows), edge_set(edges), path)


def check_codes(path, n, edges) -> None:
    codes = read_codes(path)  # v -> (lo, hi, pos): a box and a point
    _require(sorted(codes) == list(range(1, n + 1)), f"{path}: vertex set")
    check_graph(mutual_containment_edges(codes), edge_set(edges), path)


def check_corner_boxes(path, n, edges) -> None:
    boxes = read_corner_boxes(path)
    _require(sorted(boxes) == list(range(1, n + 1)), f"{path}: vertex set")
    for v, (xl, xh, yl, yh) in boxes.items():
        _require(xl <= xh and yl <= yh, f"{path}: empty box {v}")
        _require(xl + yl == 0, f"{path}: corner of {v} off the diagonal")
    check_graph(rectangle_edges(boxes), edge_set(edges), path)


def check_semisquares(path, n, edges) -> None:
    squares = read_semisquares(path)
    _require(sorted(squares) == list(range(1, n + 1)), f"{path}: vertex set")
    _require(all(r >= 0 for _, r in squares.values()), f"{path}: negative leg")
    check_graph(semisquare_edges(squares), edge_set(edges), path)


def check_svg(path, n) -> None:
    counts = svg_element_counts(path)
    _require(counts["rect"] == n, f"{path}: {counts['rect']} boxes for n={n}")
    _require(counts["circle"] == 2 * n, f"{path}: {counts['circle']} points")


def check_witness(path, needle: str) -> None:
    with open(path, encoding="utf-8") as fh:
        _require(needle in fh.read(), f"{path}: no '{needle}' line")


# ---------------------------------------------------------------------------
# verdicts

EXIT_VERDICT = {0: "yes", 1: "no", 3: "exhausted"}


def classify(expect, budgeted, code, stdout, check) -> tuple:
    """("ok" | "exhausted" | "failed", reason) for one operation.

    expect is the right answer, "yes" or "no".  code is the exit code
    (None when the call raised).  stdout is the CLI's output, or None for
    a library call.  check() re-derives the certificate and raises
    CheckFailed; it runs for every answer that is not exhausted.
    """
    if code is None:
        return "failed", "raised"
    verdict = EXIT_VERDICT.get(code)
    if verdict is None:
        return "failed", f"exit code {code}"
    if stdout is not None:
        lines = stdout.splitlines()
        if len(lines) != 1 or not lines[0].startswith(f"verdict={verdict} time_ms="):
            return "failed", f"stdout {stdout!r} for exit code {code}"
    if verdict == "exhausted":
        return ("exhausted", "") if budgeted else ("failed", "exhausted without a budget")
    if verdict != expect:
        return "failed", f"answered {verdict}, expected {expect}"
    try:
        check()
    except (CheckFailed, OSError, ValueError, ET.ParseError) as e:
        return "failed", str(e)
    return "ok", ""
