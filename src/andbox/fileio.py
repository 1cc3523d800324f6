"""Plain-text file formats and atomic writers.

All formats share the same conventions: UTF-8 text, one record per line,
blank lines and comment lines ("c" alone or "c " prefix) ignored, tokens
separated by any run of whitespace, integers written canonically (no
"-0", sign or leading zero; every field has a minimum of 0 or 1), and
rationals written as "<num>" or "<num>/<den>" in lowest terms with a
positive denominator.  There are nine kinds of file:

  graph         "p and <n> <m>" header, then "e <u> <v>" with 1 <= u < v <= n
  realization   "r and <n> <d>" header, optional "central" flag line,
                then "v <id> <dim> <L> <R> <p>" (d lines per vertex)
  ordering      "o <v1> ... <vn>"
  implicit      "ic <id> <l> <rho> <p>" rank triples
  interval      "i <id> <L> <R>"
  outerplanar   "outer <v1> ... <vk>" once, then "chord <u> <v>" lines
  rootedpath    "t <parent> <child>" tree lines (parent 0 marks the root),
                then "k <vid> <node> ..." path lines
  corner        "b <id> <dim> <x_lo> <x_hi> <y_lo> <y_hi>"
  semisquare    "s <id> <corner> <leg>"

Each kind has a reader loads_*(text, path) and a writer dumps_*(obj)
of text.  FORMATS maps each kind to its record tags, reader and writer,
and is the one place that pairs them: load_file(path, kind) and
save_file(path, kind, obj) read and write a file through it, and
sniff_format / sniff_file name the kind of a text or file by the tag of
its first record.  Three loaders of one kind remain, load_graph,
load_corner_boxes and load_semisquares, because the benchmark calls them
by name.

Corner boxes and semi-squares are file encodings of a realization (see
boxes): their readers return the Realization the file encodes, checked
line by line, and their writers take one.
"""

from __future__ import annotations

import functools
import os
import re
import tempfile
from contextlib import suppress
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, lt, mul, neg, sub

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
# semi-squares) first read a file in bulk, as its writer writes it: the
# header line (and "central" line), then data lines in the writer's order,
# all matched in one pass by their _record pattern, their tokens then
# converted a column at a time.  A file the bulk read does not take (a
# comment or blank line, a duplicate, a fraction not in lowest terms, a
# line out of order, ...) fails one of its tests or raises ValueError in
# it, and goes to the token checks, which read every line again and alone
# write the error.

@functools.cache
def _record(tag: str, ids: int, rationals: int):
    """fullmatch of a whole `tag` line with `ids` ids in the _INT syntax
    above 0, then `rationals` rationals in the _RATIONAL syntax less "-0",
    split by any run of whitespace (the set str.split uses), so the line
    holds exactly 1 + ids + rationals tokens.  Compiled on first use, so
    importing the module compiles none of them."""
    fields = [tag] + [r"[1-9][0-9]*"] * ids
    fields += [r"(?:0|-?[1-9][0-9]*)(?:/[1-9][0-9]*)?"] * rationals
    return re.compile(r"\s*" + r"\s+".join(fields) + r"\s*").fullmatch


def _header(lines, tag: str, *minima) -> list:
    """The two integers of a first line 'tag and <a> <b>', each at least
    its minimum; ValueError for any other first line."""
    toks = lines[0].split() if lines else []
    if len(toks) != 4 or toks[:2] != [tag, "and"]:
        raise ValueError(tag)
    return [*map(_parse_int, toks[2:], minima)]


def _by_vertex(toks, k: int, d: int) -> list:
    """The id tokens, one per vertex, of records of k tokens 'tag <id>
    <dim> ...' in which each vertex lists its dimensions 1..d in turn;
    ValueError otherwise."""
    n, rest = divmod(len(toks), k * d)
    ids = toks[1::k * d]
    if rest or toks[2::k] != [*map(str, range(1, d + 1))] * n or any(
        toks[1 + k * j::k * d] != ids for j in range(1, d)
    ):
        raise ValueError("records out of order")
    return ids


def _lattice(*columns) -> list:
    """[den, then one list per column]: columns of rational tokens matched
    by a _record pattern as int numerators over den, their least common
    denominator, with one lcm and one scale per distinct denominator.
    ValueError when a token is not in lowest terms ("2/4", "0/3", "3/1")."""
    parsed, value = [], {}  # value: denominator token -> int
    for column in columns:
        nums, _, dens = zip(*map(str.partition, column, repeat("/")))
        value.update((x, int(x or 1)) for x in set(dens))
        nums = [*map(int, nums)]
        if "1" in value or max(map(gcd, nums, map(value.__getitem__, dens))) > 1:
            raise ValueError("rational not in lowest terms")
        parsed.append((nums, dens))
    den = lcm(*value.values())
    scale = {x: den // y for x, y in value.items()}
    return [den] + [[*map(mul, nums, map(scale.__getitem__, dens))] for nums, dens in parsed]


def _columns(d: int, ids, den: int, lo, hi, p) -> Realization:
    """The realization of lattice columns with one row per vertex and
    dimension, vertex by vertex, and of the id tokens, one per vertex,
    which must increase (ValueError otherwise)."""
    ids = tuple(map(int, ids))
    if not all(map(lt, ids, ids[1:])):
        raise ValueError("ids out of order")
    sides = [*zip(lo, hi)]
    boxes = tuple(zip(*(sides[k::d] for k in range(d))))
    points = tuple(zip(*(p[k::d] for k in range(d))))
    return Realization._checked(d, ids, den, boxes, points)


def _over(den: int):
    """The writer of numerators over den: x/den in lowest terms, spelled
    as str(Fraction(x, den)) spells it, with one gcd."""
    if den == 1:
        return str

    def fmt(x: int) -> str:
        g = gcd(x, den)
        return str(x // g) if g == den else f"{x // g}/{den // g}"

    return fmt


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
    lines = text.splitlines()
    with suppress(ValueError):
        n, m = _header(lines, "p", 1, 0)
        if all(map(_record("e", 2, 0), lines[1:])):
            toks = text.split()[4:]
            us, vs = [*map(int, toks[1::3])], [*map(int, toks[2::3])]
            if len(us) == m and all(map(lt, us, vs)) and max(vs, default=0) <= n:
                masks = [0] * n
                for u, v in zip(us, vs):
                    masks[u - 1] |= 1 << (v - 1)
                    masks[v - 1] |= 1 << (u - 1)
                if sum(map(int.bit_count, masks)) == 2 * m:  # no edge listed twice
                    return Graph(n, tuple(masks))
    n = m = None
    edges = {}  # insertion-ordered set of (u, v)
    for no, raw in enumerate(lines, start=1):
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


# ---------------------------------------------------------------------------
# realizations

def loads_realization(text: str, path: str = "<realization>") -> Realization:
    lines = text.splitlines()
    with suppress(ValueError):
        n, d = _header(lines, "r", 1, 1)
        central_flag = lines[1:2] == ["central"]
        data = lines[1 + central_flag:]
        if len(data) == n * d and all(map(_record("v", 2, 3), data)):
            toks = text.split()[4 + central_flag:]
            ids = _by_vertex(toks, 6, d)
            r = _columns(d, ids, *_lattice(toks[3::6], toks[4::6], toks[5::6]))
            if not central_flag or is_central(r):
                return r
    header = None
    central_flag = False
    rows = {}
    for no, raw in enumerate(lines, start=1):
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
            rows[(vid, dim)] = ((lo, hi), p)
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
    """Realization.build of the token checks' rows {(vid, dim): ((L, R),
    p)} of Fractions, in which every vertex has each dimension 1..d."""
    items = {}
    for vid in sorted({vid for vid, _ in rows}):
        for dim in range(1, d + 1):
            if (vid, dim) not in rows:
                _fail(path, 0, f"vertex {vid} missing dimension {dim}")
        items[vid] = tuple(zip(*(rows[vid, dim] for dim in range(1, d + 1))))
    return Realization.build(d, items)


def dumps_realization(r: Realization) -> str:
    fmt = _over(r.den)
    lines = [f"r and {r.n} {r.d}"]
    if is_central(r):
        lines.append("central")
    for v, box, point in zip(r.ids, r.boxes, r.points):
        for dim, ((lo, hi), p) in enumerate(zip(box, point), start=1):
            lines.append(f"v {v} {dim} {fmt(lo)} {fmt(hi)} {fmt(p)}")
    return "\n".join(lines) + "\n"


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


# ---------------------------------------------------------------------------
# corner boxes and semi-squares: encodings of a realization (see boxes)

def loads_corner_boxes(text: str, path: str = "<boxes>") -> Realization:
    """The realization the corner boxes encode: factor ((x_lo, x_hi),
    (y_lo, y_hi)) of a vertex is its point x_lo in box [-y_hi, x_hi]."""
    lines = text.splitlines()
    with suppress(ValueError):
        if all(map(_record("b", 2, 4), lines)):
            toks = text.split()
            d = max(map(int, toks[2::7]))
            ids = _by_vertex(toks, 7, d)
            den, xl, xh, yl, yh = _lattice(*(toks[k::7] for k in range(3, 7)))
            # on the diagonal, _columns checks x_lo <= x_hi and y_lo <= y_hi
            if yl == [*map(neg, xl)]:
                return _columns(d, ids, den, [*map(neg, yh)], xh, xl)
    rows = {}
    for no, raw in enumerate(lines, start=1):
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
        rows[(vid, dim)] = ((-yh, xh), xl)
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


def loads_semisquares(text: str, path: str = "<semisquares>") -> Realization:
    """The central one-dimensional realization the semi-squares encode:
    (p, r) is point p in box [p - r, p + r]."""
    lines = text.splitlines()
    with suppress(ValueError):
        if all(map(_record("s", 1, 2), lines)):
            toks = text.split()
            den, c, leg = _lattice(toks[2::4], toks[3::4])
            # _columns raises for a negative leg: the corner is then outside its box
            return _columns(1, toks[1::4], den, [*map(sub, c, leg)], [*map(add, c, leg)], c)
    rows = {}
    for no, raw in enumerate(lines, start=1):
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
        rows[vid, 1] = ((corner - leg, corner + leg), corner)
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


# ---------------------------------------------------------------------------
# the format table: kind -> (record tags, reader, writer)

FORMATS = {
    "graph": (("p", "e"), loads_graph, dumps_graph),
    "realization": (("r", "v", "central"), loads_realization, dumps_realization),
    "ordering": (("o",), loads_ordering, dumps_ordering),
    "implicit": (("ic",), loads_implicit_codes, dumps_implicit_codes),
    "interval": (("i",), loads_interval_model, dumps_interval_model),
    "outerplanar": (
        ("outer", "chord"), loads_outerplanar_model, dumps_outerplanar_model
    ),
    "rootedpath": (("t", "k"), loads_rooted_path_model, dumps_rooted_path_model),
    "corner": (("b",), loads_corner_boxes, dumps_corner_boxes),
    "semisquare": (("s",), loads_semisquares, dumps_semisquares),
}

_KIND_BY_TAG = {tag: kind for kind, (tags, _, _) in FORMATS.items() for tag in tags}


# The benchmark's tracer counts a fileio call as file I/O by its load_ or
# save_ prefix and reads the byte count from its first argument, the path.
def load_file(path: str, kind: str):
    """The object the `kind` file at path holds."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return FORMATS[kind][1](text, path)


def save_file(path: str, kind: str, obj) -> None:
    """Write obj as a `kind` file, atomically."""
    atomic_write_text(path, FORMATS[kind][2](obj))


# Kept only because the benchmark (perfbench/run.py, workloads.py) calls
# them by name; they go when it reads the table instead.
def load_graph(path: str) -> Graph:
    return load_file(path, "graph")


def load_corner_boxes(path: str) -> Realization:
    return load_file(path, "corner")


def load_semisquares(path: str) -> Realization:
    return load_file(path, "semisquare")


def sniff_format(text: str) -> str:
    """Kind of the first content record; raises on unknown or empty."""
    return _sniff(text.splitlines())


def sniff_file(path: str) -> str:
    """sniff_format of the file at path, read only up to its first
    content record (split at every line break str.splitlines knows)."""
    with open(path, "r", encoding="utf-8") as fh:
        return _sniff(raw for line in fh for raw in line.splitlines())


def _sniff(lines) -> str:
    for raw in lines:
        if (toks := _tokens(raw)) is not None:
            if toks[0] not in _KIND_BY_TAG:
                raise FileFormatError(f"unknown record {toks[0]!r}")
            return _KIND_BY_TAG[toks[0]]
    raise FileFormatError("empty file")
