"""Plain-text file formats and atomic writers.

All formats share the same conventions: UTF-8 text, one record per line,
blank lines and comment lines ("c" alone or "c " prefix) ignored, tokens
separated by any run of whitespace, integers written canonically (no
"-0", sign or leading zero; every field has a minimum of 0 or 1), and
rationals written as "<num>" or "<num>/<den>" in lowest terms with a
positive denominator.

  graph         "p and <n> <m>" header, then "e <u> <v>" with 1 <= u < v <= n
  realization   "r and <n> <d>" header, optional "central" flag line,
                then "v <id> <dim> <L> <R> <p>" (d lines per vertex)
  ordering      "o <v1> ... <vn>"
  implicit      "ic <id> <l> <rho> <p>" rank triples
  interval      "i <id> <L> <R>"
  outerplanar   "outer <v1> ... <vk>" once, then "chord <u> <v>" lines
  rooted path   "t <parent> <child>" tree lines (parent 0 marks the root),
                then "k <vid> <node> ..." path lines
  corner boxes  "b <id> <dim> <x_lo> <x_hi> <y_lo> <y_hi>"
  semi-squares  "s <id> <corner> <leg>"

Corner boxes and semi-squares are file encodings of a realization (see
boxes): their loaders return the Realization the file encodes, checked
line by line, and their writers take one.
"""

from __future__ import annotations

import functools
import os
import re
import tempfile
from fractions import Fraction
from math import gcd, lcm

from .boxes import require_semisquares
from .families import IntervalModel, OuterplanarModel, RootedPathModel
from .graphs import Graph, GraphError
from .orders import ImplicitCode
from .realization import Realization, is_central


class FileFormatError(ValueError):
    pass


_RATIONAL = re.compile(r"(-?(?:0|[1-9][0-9]*))(?:/([1-9][0-9]*))?")
_INT = re.compile(r"0|-?[1-9][0-9]*")


def parse_rational(token: str) -> Fraction:
    """Strict rational syntax: optional sign, no leading zeros, lowest
    terms, positive denominator, no denominator 1 spelled out."""
    m = _RATIONAL.fullmatch(token)
    if m is None:
        raise FileFormatError(f"bad rational {token!r}")
    num, den = m.groups()
    d = int(den) if den else 1
    f = Fraction(int(num), d)
    if f.denominator != d or den == "1" or num == "-0":
        raise FileFormatError(f"rational {token!r} is not in lowest terms")
    return f


def format_rational(f: Fraction) -> str:
    return str(f)


def _parse_int(token: str, minimum=None) -> int:
    if _INT.fullmatch(token) is None:
        raise FileFormatError(f"bad integer {token!r}")
    value = int(token)
    if minimum is not None and value < minimum:
        raise FileFormatError(f"integer {value} below {minimum}")
    return value


def _tokens(raw: str):
    """The tokens of one line, or None for a blank or comment line."""
    line = raw.strip()
    if not line or line == "c" or line.startswith("c "):
        return None
    return line.split()


def _content_lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        toks = _tokens(raw)
        if toks is not None:
            yield no, toks


# The loaders of the large files (graphs, realizations, corner boxes and
# semi-squares) read each data line with one match of its whole record:
# ids in the _INT syntax above 0, rationals in the _RATIONAL syntax less
# "-0", and any run of whitespace (the set str.split uses) between them.
# A line the match rejects, or one failing a check after it (a duplicate,
# a fraction not in lowest terms, ...), goes to the token checks, which
# alone write the error; a valid line never reaches them.

@functools.cache
def _record(tag: str, ids: int, rationals: int):
    """fullmatch of a whole `tag` line with `ids` ids, then `rationals`
    rationals as (numerator, denominator or None) group pairs.  Compiled
    on first use, so importing the module compiles none of them."""
    fields = [tag] + [r"([1-9][0-9]*)"] * ids
    fields += [r"(0|-?[1-9][0-9]*)(?:/([1-9][0-9]*))?"] * rationals
    return re.compile(r"\s*" + r"\s+".join(fields) + r"\s*").fullmatch


def _rationals(groups):
    """The rationals of matched (numerator, denominator) group pairs as one
    flat list of ints, each numerator followed by its denominator, or None
    when one is not in lowest terms.  Each denominator is read before its
    numerator, as in parse_rational."""
    out = []
    pairs = iter(groups)
    for num, den in zip(pairs, pairs):
        if den is None:
            out += int(num), 1
        elif den == "1" or gcd(d := int(den), n := int(num)) != 1:
            return None
        else:
            out += n, d
    return out


def _flat(*fractions) -> tuple:
    """The numerators and denominators of Fractions, in _rationals' form."""
    return tuple(x for f in fractions for x in (f.numerator, f.denominator))


def _over(den: int):
    """The writer of numerators over den: x/den in lowest terms, spelled
    as str(Fraction(x, den)) spells it, with one gcd."""
    if den == 1:
        return str

    def fmt(x: int) -> str:
        g = gcd(x, den)
        return str(x // g) if g == den else f"{x // g}/{den // g}"

    return fmt


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory plus rename, so readers
    never observe a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _fail(path, no, msg):
    raise FileFormatError(f"{path}:{no}: {msg}")


def _int_at(path, no, token, minimum=None) -> int:
    try:
        return _parse_int(token, minimum)
    except FileFormatError as e:
        _fail(path, no, str(e))


def _rat_at(path, no, token) -> Fraction:
    try:
        return parse_rational(token)
    except FileFormatError as e:
        _fail(path, no, str(e))


# ---------------------------------------------------------------------------
# graphs

def loads_graph(text: str, path: str = "<graph>") -> Graph:
    n = m = None
    edges = {}  # insertion-ordered set of (u, v)
    edge = _record("e", 2, 0)
    for no, raw in enumerate(text.splitlines(), start=1):
        if n is not None and (match := edge(raw)) is not None:
            u, v = int(match[1]), int(match[2])
            if u < v <= n and (u, v) not in edges:
                edges[u, v] = None
                continue
        toks = _tokens(raw)
        if toks is None:
            continue
        if toks[0] == "p":
            if n is not None:
                _fail(path, no, "duplicate header")
            if len(toks) != 4 or toks[1] != "and":
                _fail(path, no, "header must be 'p and <n> <m>'")
            n = _int_at(path, no, toks[2], 1)
            m = _int_at(path, no, toks[3], 0)
        elif toks[0] == "e":
            if n is None:
                _fail(path, no, "edge before header")
            if len(toks) != 3:
                _fail(path, no, "edge line must be 'e <u> <v>'")
            u = _int_at(path, no, toks[1], 1)
            v = _int_at(path, no, toks[2], 1)
            if not (u < v):
                _fail(path, no, f"edges need u < v, got {u} {v}")
            if v > n:
                _fail(path, no, f"vertex {v} above n={n}")
            if (u, v) in edges:
                _fail(path, no, f"duplicate edge {u} {v}")
            edges[u, v] = None
        else:
            _fail(path, no, f"unknown record {toks[0]!r}")
    if n is None:
        _fail(path, 0, "missing 'p and <n> <m>' header")
    if len(edges) != m:
        _fail(path, 0, f"header says {m} edges, file has {len(edges)}")
    return Graph.from_edges(n, edges)


def dumps_graph(g: Graph) -> str:
    lines = [f"p and {g.n} {g.m}"]
    lines += [f"e {u} {v}" for u, v in g.edge_list()]
    return "\n".join(lines) + "\n"


def load_graph(path: str) -> Graph:
    return loads_graph(_read(path), path)


def save_graph(path: str, g: Graph) -> None:
    atomic_write_text(path, dumps_graph(g))


# ---------------------------------------------------------------------------
# realizations

def loads_realization(text: str, path: str = "<realization>") -> Realization:
    header = None
    central_flag = False
    rows = {}
    vertex = _record("v", 2, 3)
    for no, raw in enumerate(text.splitlines(), start=1):
        if header is not None and (match := vertex(raw)) is not None:
            vid, dim, *q = match.groups()
            key = (int(vid), int(dim))
            if key[1] <= header[1] and (q := _rationals(q)) is not None and key not in rows:
                rows[key] = q
                continue
        toks = _tokens(raw)
        if toks is None:
            continue
        if toks[0] == "r":
            if header is not None:
                _fail(path, no, "duplicate header")
            if len(toks) != 4 or toks[1] != "and":
                _fail(path, no, "header must be 'r and <n> <d>'")
            header = (_int_at(path, no, toks[2], 1), _int_at(path, no, toks[3], 1))
        elif toks[0] == "central":
            if central_flag:
                _fail(path, no, "duplicate 'central' line")
            if len(toks) != 1:
                _fail(path, no, "flag line must be 'central' alone")
            central_flag = True
        elif toks[0] == "v":
            if header is None:
                _fail(path, no, "vertex line before header")
            if len(toks) != 6:
                _fail(path, no, "vertex line must be 'v <id> <dim> <L> <R> <p>'")
            vid = _int_at(path, no, toks[1], 1)
            dim = _int_at(path, no, toks[2], 1)
            if dim > header[1]:
                _fail(path, no, f"dimension {dim} above d={header[1]}")
            lo, hi, p = (_rat_at(path, no, t) for t in toks[3:6])
            if (vid, dim) in rows:
                _fail(path, no, f"duplicate vertex/dimension {vid} {dim}")
            rows[(vid, dim)] = _flat(lo, hi, p)
        else:
            _fail(path, no, f"unknown record {toks[0]!r}")
    if header is None:
        _fail(path, 0, "missing 'r and <n> <d>' header")
    n, d = header
    r = _assemble(path, d, rows)
    if r.n != n:
        _fail(path, 0, f"header says {n} vertices, file has {r.n}")
    if central_flag and not is_central(r):
        _fail(path, 0, "file claims 'central' but the realization is not")
    return r


def _assemble(path, d, rows) -> Realization:
    """Realization of rows {(vid, dim): (L_num, L_den, R_num, R_den, p_num,
    p_den)} of ints, in which every vertex has each dimension 1..d.  The
    lattice's den is the lcm of the rows' denominators, the least one for
    the rows the loaders read."""
    ids = sorted({vid for vid, _ in rows})
    dens = set()
    for q in rows.values():
        dens.update(q[1::2])
    den = lcm(*dens)
    scale = {x: den // x for x in dens}
    boxes = []
    points = []
    for vid in ids:
        box = []
        point = []
        for dim in range(1, d + 1):
            q = rows.get((vid, dim))
            if q is None:
                _fail(path, 0, f"vertex {vid} missing dimension {dim}")
            box.append((q[0] * scale[q[1]], q[2] * scale[q[3]]))
            point.append(q[4] * scale[q[5]])
        boxes.append(tuple(box))
        points.append(tuple(point))
    return Realization._checked(d, tuple(ids), den, tuple(boxes), tuple(points))


def dumps_realization(r: Realization) -> str:
    fmt = _over(r.den)
    lines = [f"r and {r.n} {r.d}"]
    if is_central(r):
        lines.append("central")
    for v, box, point in zip(r.ids, r.boxes, r.points):
        for dim, ((lo, hi), p) in enumerate(zip(box, point), start=1):
            lines.append(f"v {v} {dim} {fmt(lo)} {fmt(hi)} {fmt(p)}")
    return "\n".join(lines) + "\n"


def load_realization(path: str) -> Realization:
    return loads_realization(_read(path), path)


def save_realization(path: str, r: Realization) -> None:
    atomic_write_text(path, dumps_realization(r))


# ---------------------------------------------------------------------------
# orderings and implicit codes

def loads_ordering(text: str, path: str = "<ordering>") -> tuple:
    seq = None
    for no, toks in _content_lines(text):
        if toks[0] != "o":
            _fail(path, no, f"unknown record {toks[0]!r}")
        if seq is not None:
            _fail(path, no, "duplicate ordering line")
        if len(toks) < 2:
            _fail(path, no, "empty ordering")
        seq = tuple(_int_at(path, no, t, 1) for t in toks[1:])
        if len(set(seq)) != len(seq):
            _fail(path, no, "ordering repeats a vertex")
    if seq is None:
        _fail(path, 0, "missing 'o <v1> ...' line")
    return seq


def dumps_ordering(order) -> str:
    return "o " + " ".join(map(str, order)) + "\n"


def load_ordering(path: str) -> tuple:
    return loads_ordering(_read(path), path)


def save_ordering(path: str, order) -> None:
    atomic_write_text(path, dumps_ordering(order))


def loads_implicit_codes(text: str, path: str = "<implicit>"):
    rows = {}
    for no, toks in _content_lines(text):
        if toks[0] != "ic" or len(toks) != 5:
            _fail(path, no, "lines must be 'ic <id> <l> <rho> <p>'")
        vid = _int_at(path, no, toks[1], 1)
        lo, hi, pos = (_int_at(path, no, t, 1) for t in toks[2:5])
        if vid in rows:
            _fail(path, no, f"duplicate code for vertex {vid}")
        if not (lo <= pos <= hi):
            _fail(path, no, f"rank {pos} outside [{lo},{hi}]")
        rows[vid] = ImplicitCode(lo, hi, pos)
    if sorted(rows) != list(range(1, len(rows) + 1)):
        _fail(path, 0, "implicit codes must cover vertices 1..n")
    return tuple(rows[v] for v in sorted(rows))


def dumps_implicit_codes(codes) -> str:
    lines = [
        f"ic {vid} {c.lo} {c.hi} {c.pos}"
        for vid, c in enumerate(codes, start=1)
    ]
    return "\n".join(lines) + "\n"


def load_implicit_codes(path: str):
    return loads_implicit_codes(_read(path), path)


def save_implicit_codes(path: str, codes) -> None:
    atomic_write_text(path, dumps_implicit_codes(codes))


# ---------------------------------------------------------------------------
# auxiliary models

def loads_interval_model(text: str, path: str = "<interval>") -> IntervalModel:
    rows = {}
    for no, toks in _content_lines(text):
        if toks[0] != "i" or len(toks) != 4:
            _fail(path, no, "lines must be 'i <id> <L> <R>'")
        vid = _int_at(path, no, toks[1], 1)
        lo, hi = _rat_at(path, no, toks[2]), _rat_at(path, no, toks[3])
        if lo > hi:
            _fail(path, no, f"empty interval [{lo},{hi}]")
        if vid in rows:
            _fail(path, no, f"duplicate interval for vertex {vid}")
        rows[vid] = (lo, hi)
    if sorted(rows) != list(range(1, len(rows) + 1)):
        _fail(path, 0, "interval ids must cover 1..n")
    return IntervalModel(tuple(rows[v] for v in sorted(rows)))


def dumps_interval_model(m: IntervalModel) -> str:
    lines = [
        f"i {v} {format_rational(lo)} {format_rational(hi)}"
        for v, (lo, hi) in enumerate(m.spans, start=1)
    ]
    return "\n".join(lines) + "\n"


def loads_outerplanar_model(text: str, path: str = "<outerplanar>") -> OuterplanarModel:
    outer = None
    chords = {}  # (u, v) -> line
    for no, toks in _content_lines(text):
        if toks[0] == "outer":
            if outer is not None:
                _fail(path, no, "duplicate outer walk")
            if len(toks) < 2:
                _fail(path, no, "empty outer walk")
            outer = tuple(_int_at(path, no, t, 1) for t in toks[1:])
            if any(u == v for u, v in zip(outer, outer[1:] + outer[:1])):
                _fail(path, no, "outer walk repeats a vertex consecutively")
            outer_no = no
        elif toks[0] == "chord":
            if len(toks) != 3:
                _fail(path, no, "chord line must be 'chord <u> <v>'")
            u = _int_at(path, no, toks[1], 1)
            v = _int_at(path, no, toks[2], 1)
            if u >= v:
                _fail(path, no, f"chords need u < v, got {u} {v}")
            if (u, v) in chords:
                _fail(path, no, f"duplicate chord {u} {v}")
            chords[u, v] = no
        else:
            _fail(path, no, f"unknown record {toks[0]!r}")
    if outer is None:
        _fail(path, 0, "missing 'outer <v1> ...' line")
    walk = set(outer)
    for (u, v), no in chords.items():
        if u not in walk or v not in walk:
            _fail(path, no, f"chord {u} {v} leaves the outer walk")
    if len(walk) < max(walk):
        skipped = min(set(range(1, max(walk) + 1)) - walk)
        _fail(path, outer_no, f"outer walk skips vertex {skipped}")
    return OuterplanarModel(outer, tuple(sorted(chords)))


def dumps_outerplanar_model(m: OuterplanarModel) -> str:
    lines = ["outer " + " ".join(str(v) for v in m.outer)]
    lines += [f"chord {u} {v}" for u, v in m.chords]
    return "\n".join(lines) + "\n"


def loads_rooted_path_model(text: str, path: str = "<rootedpath>") -> RootedPathModel:
    parent = {}
    paths = {}
    for no, toks in _content_lines(text):
        if toks[0] == "t":
            if len(toks) != 3:
                _fail(path, no, "tree line must be 't <parent> <child>'")
            p = _int_at(path, no, toks[1], 0)
            child = _int_at(path, no, toks[2], 1)
            if child in parent:
                _fail(path, no, f"node {child} listed twice")
            parent[child] = p
        elif toks[0] == "k":
            if len(toks) < 3:
                _fail(path, no, "path line must be 'k <vid> <node> ...'")
            vid = _int_at(path, no, toks[1], 1)
            if vid in paths:
                _fail(path, no, f"duplicate path for vertex {vid}")
            paths[vid] = tuple(_int_at(path, no, t, 1) for t in toks[2:])
        else:
            _fail(path, no, f"unknown record {toks[0]!r}")
    if not parent or not paths:
        _fail(path, 0, "need both 't' tree lines and 'k' path lines")
    if sorted(paths) != list(range(1, len(paths) + 1)):
        _fail(path, 0, "path ids must cover 1..n")
    try:
        return RootedPathModel(parent, paths)
    except GraphError as e:
        _fail(path, 0, str(e))


def dumps_rooted_path_model(m: RootedPathModel) -> str:
    lines = [f"t {p} {child}" for child, p in sorted(m.parent.items())]
    lines += [
        "k " + " ".join(str(x) for x in (v,) + tuple(m.paths[v]))
        for v in sorted(m.paths)
    ]
    return "\n".join(lines) + "\n"


def load_interval_model(path: str) -> IntervalModel:
    return loads_interval_model(_read(path), path)


def save_interval_model(path: str, m: IntervalModel) -> None:
    atomic_write_text(path, dumps_interval_model(m))


def load_outerplanar_model(path: str) -> OuterplanarModel:
    return loads_outerplanar_model(_read(path), path)


def save_outerplanar_model(path: str, m: OuterplanarModel) -> None:
    atomic_write_text(path, dumps_outerplanar_model(m))


def load_rooted_path_model(path: str) -> RootedPathModel:
    return loads_rooted_path_model(_read(path), path)


def save_rooted_path_model(path: str, m: RootedPathModel) -> None:
    atomic_write_text(path, dumps_rooted_path_model(m))


# ---------------------------------------------------------------------------
# corner boxes and semi-squares: encodings of a realization (see boxes)

def loads_corner_boxes(text: str, path: str = "<boxes>") -> Realization:
    """The realization the corner boxes encode: factor ((x_lo, x_hi),
    (y_lo, y_hi)) of a vertex is its point x_lo in box [-y_hi, x_hi]."""
    rows = {}
    factor = _record("b", 2, 4)
    for no, raw in enumerate(text.splitlines(), start=1):
        if (match := factor(raw)) is not None:
            vid, dim, *q = match.groups()
            key = (int(vid), int(dim))
            if (q := _rationals(q)) is not None and key not in rows:
                xl, xld, xh, xhd, yl, yld, yh, yhd = q
                # x_lo <= x_hi, y_lo <= y_hi and y_lo == -x_lo over positive
                # denominators in lowest terms
                if xl * xhd <= xh * xld and yl * yhd <= yh * yld and (yl, yld) == (-xl, xld):
                    rows[key] = (-yh, yhd, xh, xhd, xl, xld)
                    continue
        toks = _tokens(raw)
        if toks is None:
            continue
        if toks[0] != "b" or len(toks) != 7:
            _fail(path, no, "lines must be 'b <id> <dim> <x_lo> <x_hi> <y_lo> <y_hi>'")
        vid = _int_at(path, no, toks[1], 1)
        dim = _int_at(path, no, toks[2], 1)
        xl, xh, yl, yh = (_rat_at(path, no, t) for t in toks[3:7])
        if (vid, dim) in rows:
            _fail(path, no, f"duplicate box factor {vid} {dim}")
        if xl > xh or yl > yh:
            _fail(path, no, f"vertex {vid}: empty planar factor")
        if xl + yl != 0:
            _fail(path, no, f"vertex {vid}: corner ({xl},{yl}) off the diagonal")
        rows[(vid, dim)] = _flat(-yh, xh, xl)
    if not rows:
        _fail(path, 0, "no corner boxes")
    return _assemble(path, max(dim for _, dim in rows), rows)


def dumps_corner_boxes(r: Realization) -> str:
    """Factor k of vertex v is [p_k, R_k] x [-p_k, -L_k]."""
    fmt = _over(r.den)
    lines = []
    for v, box, point in zip(r.ids, r.boxes, r.points):
        for dim, ((lo, hi), p) in enumerate(zip(box, point), start=1):
            lines.append(f"b {v} {dim} {fmt(p)} {fmt(hi)} {fmt(-p)} {fmt(-lo)}")
    return "\n".join(lines) + "\n"


def load_corner_boxes(path: str) -> Realization:
    return loads_corner_boxes(_read(path), path)


def save_corner_boxes(path: str, r: Realization) -> None:
    atomic_write_text(path, dumps_corner_boxes(r))


def loads_semisquares(text: str, path: str = "<semisquares>") -> Realization:
    """The central one-dimensional realization the semi-squares encode:
    (p, r) is point p in box [p - r, p + r]."""
    rows = {}
    square = _record("s", 1, 2)
    for no, raw in enumerate(text.splitlines(), start=1):
        if (match := square(raw)) is not None:
            vid, *q = match.groups()
            key = (int(vid), 1)
            if (q := _rationals(q)) is not None and q[2] >= 0 and key not in rows:
                c, cd, leg, legd = q
                m = lcm(cd, legd)
                c, leg = c * (m // cd), leg * (m // legd)
                rows[key] = (c - leg, m, c + leg, m, q[0], cd)
                continue
        toks = _tokens(raw)
        if toks is None:
            continue
        if toks[0] != "s" or len(toks) != 4:
            _fail(path, no, "lines must be 's <id> <corner> <leg>'")
        vid = _int_at(path, no, toks[1], 1)
        corner, leg = _rat_at(path, no, toks[2]), _rat_at(path, no, toks[3])
        if leg < 0:
            _fail(path, no, "leg length must be nonnegative")
        if (vid, 1) in rows:
            _fail(path, no, f"duplicate semi-square for vertex {vid}")
        rows[vid, 1] = _flat(corner - leg, corner + leg, corner)
    if not rows:
        _fail(path, 0, "no semi-squares")
    return _assemble(path, 1, rows)


def dumps_semisquares(r: Realization) -> str:
    """Vertex v gets corner p_v and leg R_v - p_v; r must be central and
    one-dimensional."""
    require_semisquares(r)
    fmt = _over(r.den)
    lines = [
        f"s {v} {fmt(point[0])} {fmt(box[0][1] - point[0])}"
        for v, box, point in zip(r.ids, r.boxes, r.points)
    ]
    return "\n".join(lines) + "\n"


def load_semisquares(path: str) -> Realization:
    return loads_semisquares(_read(path), path)


def save_semisquares(path: str, r: Realization) -> None:
    atomic_write_text(path, dumps_semisquares(r))


# ---------------------------------------------------------------------------
# format sniffing (used by the CLI)

_KIND_BY_TOKEN = {
    "p": "graph",
    "e": "graph",
    "r": "realization",
    "v": "realization",
    "central": "realization",
    "o": "ordering",
    "ic": "implicit",
    "i": "interval",
    "outer": "outerplanar",
    "chord": "outerplanar",
    "t": "rootedpath",
    "k": "rootedpath",
    "b": "corner",
    "s": "semisquare",
}


def sniff_format(text: str) -> str:
    """Kind of the first content record; raises on unknown or empty."""
    for _, toks in _content_lines(text):
        kind = _KIND_BY_TOKEN.get(toks[0])
        if kind is None:
            raise FileFormatError(f"unknown record {toks[0]!r}")
        return kind
    raise FileFormatError("empty file")
