"""Text formats: strict rational syntax, load/dump round trips for every
record kind, error positions as path:line, atomic writes, format sniffing.
"""

import os
import random
import tracemalloc
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from andbox import fileio
from andbox.constructors import (
    blockwise_cand1,
    cycle_cand1,
    interval_to_cand1,
    outerplanar_cand1,
    rdp_ordering,
)
from andbox.families import (
    IntervalModel,
    OuterplanarModel,
    RootedPathModel,
    cycle,
    random_block_graph,
    random_dissection,
    random_interval,
    random_rooted_path,
)
from andbox.fileio import (
    FileFormatError,
    atomic_write_text,
    format_rational,
    parse_rational,
    sniff_format,
)
from andbox.feasibility import cand1_recognize
from andbox.graphs import path_graph
from andbox.orders import implicit_encode, realization_from_ordering
from andbox.boxes import corner_box_intersection_graph, semisquare_intersection_graph
from andbox.realization import Realization, induced_graph, is_central, relabel, verify
from andbox.svg import render_realization_svg

from conftest import (
    random_connected_graph,
    random_realization,
    reference_dumps_corner_boxes,
    reference_dumps_realization,
    reference_dumps_semisquares,
    reference_loads_corner_boxes,
    reference_loads_graph,
    reference_loads_realization,
    reference_loads_semisquares,
    reference_render_svg,
)


class TestRationalSyntax:
    @pytest.mark.parametrize("token,value", [
        ("0", F(0)),
        ("42", F(42)),
        ("-7", F(-7)),
        ("1/2", F(1, 2)),
        ("-19/4", F(-19, 4)),
        ("100/3", F(100, 3)),
    ])
    def test_accepts_canonical(self, token, value):
        assert parse_rational(token) == value
        assert format_rational(value) == token

    @pytest.mark.parametrize("token", [
        "2/4", "1/-2", "+3", "03", "1/0", "-0", "", "3/1", "1.5", "7 ", "0/2",
        "7\n", "5\n", "-0/5", "1/1",
    ])
    def test_rejects_non_canonical(self, token):
        with pytest.raises(FileFormatError):
            parse_rational(token)

    @given(st.fractions())
    def test_round_trip_any_fraction(self, f):
        assert parse_rational(format_rational(f)) == f


class TestIntegerSyntax:
    @pytest.mark.parametrize("token,value", [("0", 0), ("7", 7), ("-12", -12)])
    def test_accepts(self, token, value):
        assert fileio._parse_int(token) == value

    @pytest.mark.parametrize("token", [
        "", "-", "-0", "+7", "07", "7\n", " 7", "7 ", "1/1", "1.0", "1e3", "7_0", "\u0663",
    ])
    def test_rejects(self, token):
        # int() alone would accept the whitespace, "7_0" and the Arabic-Indic 3;
        # "-0" is not canonical, as parse_rational says of it too
        with pytest.raises(FileFormatError, match="bad integer"):
            fileio._parse_int(token)

    def test_minimum(self):
        assert fileio._parse_int("1", minimum=1) == 1
        with pytest.raises(FileFormatError, match="below 1"):
            fileio._parse_int("0", minimum=1)

    @pytest.mark.parametrize("load, text, line", [
        (fileio.loads_graph, "p and 2 -0\n", 1),
        (fileio.loads_rooted_path_model, "t -0 1\nk 1 1\n", 1),
    ], ids=["graph-edge-count", "rooted-path-parent"])
    def test_minus_zero_rejected_where_zero_is_allowed(self, load, text, line):
        with pytest.raises(FileFormatError) as err:
            load(text, "m.txt")
        assert str(err.value) == f"m.txt:{line}: bad integer '-0'"


class TestGraphFormat:
    TEXT = (
        "c four vertices, a triangle plus a pendant\n"
        "p and 4 4\n"
        "\n"
        "e 1 2\n"
        "c\n"
        "e 1 3\n"
        "e 2 3\n"
        "e 3 4\n"
    )

    def test_literal(self, paw_graph):
        assert fileio.loads_graph(self.TEXT) == paw_graph

    def test_round_trip(self, paw_graph):
        assert fileio.loads_graph(fileio.dumps_graph(paw_graph)) == paw_graph

    def test_random_round_trips(self):
        rng = random.Random(4242)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(1, 12))
            assert fileio.loads_graph(fileio.dumps_graph(g)) == g

    @pytest.mark.parametrize("text,line", [
        ("e 1 2\np and 2 1\n", 1),          # edge before header
        ("p and 2 1\np and 2 1\ne 1 2\n", 2),  # duplicate header
        ("p and 2 1\ne 2 1\n", 2),          # u >= v
        ("p and 2 2\ne 1 2\ne 1 2\n", 3),   # duplicate edge
        ("p and 2 1\ne 1 3\n", 2),          # vertex above n
        ("p and 2 1\nq 1 2\n", 2),          # unknown record
        ("p nad 2 1\n", 1),                 # bad magic
        ("p and 0 0\n", 1),                 # no vertices
    ])
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(FileFormatError) as err:
            fileio.loads_graph(text, "g.txt")
        assert str(err.value).startswith(f"g.txt:{line}:")

    def test_first_duplicate_edge_reported(self):
        text = "p and 4 5\ne 1 2\ne 2 3\ne 3 4\ne 2 3\ne 1 2\n"
        with pytest.raises(FileFormatError) as err:
            fileio.loads_graph(text, "g.txt")
        assert str(err.value) == "g.txt:5: duplicate edge 2 3"

    def test_edge_count_mismatch(self):
        with pytest.raises(FileFormatError):
            fileio.loads_graph("p and 2 2\ne 1 2\n")

    def test_missing_header(self):
        with pytest.raises(FileFormatError):
            fileio.loads_graph("c nothing here\n")


class TestRealizationFormat:
    def test_literal_with_central_flag(self):
        text = "r and 2 1\ncentral\nv 1 1 0 2 1\nv 2 1 1 3 2\n"
        r = fileio.loads_realization(text)
        assert r == Realization.build(1, {1: ((F(0), F(2)), F(1)), 2: ((F(1), F(3)), F(2))})

    def test_central_flag_written_and_verified(self):
        r = cycle_cand1(5, F(1, 2))
        text = fileio.dumps_realization(r)
        assert "central" in text.splitlines()
        assert fileio.loads_realization(text) == r

    def test_false_central_claim_rejected(self):
        text = "r and 1 1\ncentral\nv 1 1 0 3 1\n"
        with pytest.raises(FileFormatError) as err:
            fileio.loads_realization(text, "r.txt")
        assert "central" in str(err.value)

    @pytest.mark.parametrize("d", [1, 2])
    def test_random_round_trips(self, d):
        rng = random.Random(17 + d)
        for _ in range(25):
            r = random_realization(rng, rng.randint(1, 8), d=d)
            assert fileio.loads_realization(fileio.dumps_realization(r)) == r

    @pytest.mark.parametrize("text,line", [
        ("v 1 1 0 2 1\n", 1),                       # vertex before header
        ("r and 1 1\nv 1 2 0 2 1\n", 2),            # dimension above d
        ("r and 1 1\nv 1 1 0 2 1\nv 1 1 0 2 1\n", 3),  # duplicate vertex/dim
        ("r and 1 1\nv 1 1 0 2/4 1\n", 2),          # non-canonical rational
        ("r and 1 1\nv 1 1 0 2\n", 2),              # wrong arity
        ("r and 1 1\ncentral yes please\nv 1 1 -1 1 0\n", 2),  # flag arity
        ("r and 1 1\ncentral\ncentral\nv 1 1 -1 1 0\n", 3),   # duplicate flag
    ])
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(FileFormatError) as err:
            fileio.loads_realization(text, "r.txt")
        assert str(err.value).startswith(f"r.txt:{line}:")

    def test_missing_dimension_detected(self):
        text = "r and 1 2\nv 1 1 0 2 1\n"
        with pytest.raises(FileFormatError) as err:
            fileio.loads_realization(text)
        assert "missing dimension" in str(err.value)

    def test_vertex_count_mismatch(self):
        with pytest.raises(FileFormatError):
            fileio.loads_realization("r and 2 1\nv 1 1 0 2 1\n")


class TestOrderingFormat:
    def test_literal(self):
        assert fileio.loads_ordering("c tour\no 2 3 1\n") == (2, 3, 1)

    def test_round_trip(self):
        o = (4, 1, 3, 2)
        assert fileio.loads_ordering(fileio.dumps_ordering(o)) == o

    @pytest.mark.parametrize("text", [
        "o 1 2\no 2 1\n",   # two ordering lines
        "o 1 1\n",          # repeated vertex
        "o\n",              # empty
        "order 1 2\n",      # unknown record
        "",                 # missing line
    ])
    def test_rejects(self, text):
        with pytest.raises(FileFormatError):
            fileio.loads_ordering(text)


class TestImplicitCodesFormat:
    def test_round_trip_from_encoder(self, paw_graph):
        codes = implicit_encode(paw_graph, (1, 2, 3, 4))
        text = fileio.dumps_implicit_codes(codes)
        assert fileio.loads_implicit_codes(text) == tuple(codes)

    def test_rank_outside_window_rejected(self):
        with pytest.raises(FileFormatError) as err:
            fileio.loads_implicit_codes("ic 1 2 3 1\n", "x.ic")
        assert str(err.value).startswith("x.ic:1:")

    def test_ids_must_cover_prefix(self):
        with pytest.raises(FileFormatError):
            fileio.loads_implicit_codes("ic 2 1 1 1\n")

    def test_duplicate_rejected(self):
        with pytest.raises(FileFormatError):
            fileio.loads_implicit_codes("ic 1 1 1 1\nic 1 1 1 1\n")


class TestIntervalFormat:
    def test_literal(self):
        m = fileio.loads_interval_model("i 1 0 2\ni 2 1/2 3\n")
        assert m == IntervalModel(((F(0), F(2)), (F(1, 2), F(3))))

    def test_round_trips(self):
        for seed in range(10):
            m = random_interval(3 + seed, seed).aux
            assert fileio.loads_interval_model(fileio.dumps_interval_model(m)) == m

    @pytest.mark.parametrize("text", [
        "i 1 2 0\n",          # empty interval
        "i 1 0 1\ni 1 0 1\n",  # duplicate id
        "i 2 0 1\n",          # ids must cover 1..n
        "i 1 0\n",            # wrong arity
    ])
    def test_rejects(self, text):
        with pytest.raises(FileFormatError):
            fileio.loads_interval_model(text)


class TestOuterplanarFormat:
    def test_literal(self):
        m = fileio.loads_outerplanar_model("outer 1 2 3 4\nchord 1 3\n")
        assert m == OuterplanarModel((1, 2, 3, 4), ((1, 3),))

    def test_round_trips(self):
        for seed in range(10):
            m = random_dissection(5 + seed, seed).aux
            normalized = OuterplanarModel(m.outer, tuple(sorted(m.chords)))
            got = fileio.loads_outerplanar_model(fileio.dumps_outerplanar_model(m))
            assert got == normalized

    @pytest.mark.parametrize("text", [
        "outer 1 2 3\nouter 1 2 3\n",      # duplicate walk
        "chord 1 3\n",                     # no walk
        "outer 1 2 3 4\nchord 3 1\n",      # chord needs u < v
        "outer 1 2 3 4\nchord 1 3\nchord 1 3\n",  # duplicate chord
        "outer\n",                         # empty walk
    ])
    def test_rejects(self, text):
        with pytest.raises(FileFormatError):
            fileio.loads_outerplanar_model(text)

    @pytest.mark.parametrize("text, line", [
        ("outer 1 2 3\nchord 1 5\n", 2),
        ("c chords may come first\nchord 2 7\nchord 1 3\nouter 1 2 3 4\n", 2),
        ("outer 1 2 4 5\nchord 1 4\nchord 3 5\n", 3),
    ])
    def test_chord_off_the_walk_fails_at_its_line(self, text, line):
        with pytest.raises(FileFormatError) as err:
            fileio.loads_outerplanar_model(text, "m.op")
        assert str(err.value).startswith(f"m.op:{line}:")

    @pytest.mark.parametrize("text, line", [
        ("outer 1 1 2 3\n", 1),
        ("chord 1 3\nouter 1 2 3 1\n", 2),
    ], ids=["repeat", "wrap"])
    def test_walk_repeating_a_vertex_fails_at_its_line(self, text, line):
        # a consecutive repeat, or the walk closing on its first vertex,
        # would be a loop edge
        with pytest.raises(FileFormatError, match="repeats a vertex consecutively") as err:
            fileio.loads_outerplanar_model(text, "m.op")
        assert str(err.value).startswith(f"m.op:{line}:")

    @pytest.mark.parametrize("text, line", [
        ("outer 1 2 4\n", 1),
        ("chord 1 3\nc the walk comes last\nouter 1 2 3 5\n", 3),
    ], ids=["walk-skips-3", "chords-first"])
    def test_walk_skipping_an_id_fails_at_its_line(self, text, line):
        # the vertex set is 1..max(outer): a skipped id would sit on no walk
        with pytest.raises(FileFormatError, match="skips vertex") as err:
            fileio.loads_outerplanar_model(text, "m.op")
        assert str(err.value).startswith(f"m.op:{line}:")


class TestRootedPathFormat:
    def test_literal(self):
        m = fileio.loads_rooted_path_model("t 0 1\nt 1 2\nk 1 1 2\nk 2 2\n")
        assert m == RootedPathModel({1: 0, 2: 1}, {1: (1, 2), 2: (2,)})

    def test_round_trips(self):
        for seed in range(10):
            m = random_rooted_path(4 + seed, seed).aux
            got = fileio.loads_rooted_path_model(fileio.dumps_rooted_path_model(m))
            assert got == m

    def test_inconsistent_model_rejected_with_path(self):
        text = "t 0 1\nt 0 2\nk 1 1\nk 2 2\n"  # two roots
        with pytest.raises(FileFormatError) as err:
            fileio.loads_rooted_path_model(text, "m.rp")
        assert str(err.value).startswith("m.rp:")

    @pytest.mark.parametrize("text", [
        "t 0 1\n",                 # no paths
        "k 1 1\n",                 # no tree
        "t 0 1\nt 0 1\nk 1 1\n",   # node listed twice
        "t 0 1\nk 2 1\n",          # path ids must cover 1..n
    ])
    def test_rejects(self, text):
        with pytest.raises(FileFormatError):
            fileio.loads_rooted_path_model(text)


class TestCornerBoxFormat:
    def test_literal(self):
        r = fileio.loads_corner_boxes("b 1 1 1 2 -1 0\n")
        assert r == Realization.build(1, {1: ((F(0), F(2)), F(1))})

    def test_round_trip_is_identity(self):
        rng = random.Random(3217)
        negative = 0
        for d in (1, 2):
            for _ in range(40):
                r = random_realization(rng, rng.randint(1, 8), d=d)
                negative += any(lo < 0 for box in r.boxes for lo, _ in box)
                assert fileio.loads_corner_boxes(fileio.dumps_corner_boxes(r)) == r
        assert negative > 40

    def test_two_dimensional_file_round_trips(self, tmp_path):
        text = "b 1 1 1 2 -1 0\nb 1 2 2 3 -2 -1\nb 2 1 2 4 -2 -1\nb 2 2 1 5 -1 0\n"
        r = fileio.loads_corner_boxes(text)
        assert r.d == 2 and r.box(2) == ((F(1), F(4)), (F(0), F(5))) and r.point(2) == (F(2), F(1))
        fileio.save_file(str(tmp_path / "x.boxes"), "corner", r)
        assert (tmp_path / "x.boxes").read_text() == text
        assert fileio.load_file(str(tmp_path / "x.boxes"), "corner") == r

    def test_off_diagonal_corner_rejected(self):
        with pytest.raises(FileFormatError):
            fileio.loads_corner_boxes("b 1 1 1 2 0 1\n")

    @pytest.mark.parametrize("text, line", [
        ("b 1 1 1 2 -1 0\nb 2 1 2 3 -1 0\n", 2),   # corner (2, -1) off the diagonal
        ("c header\nb 1 1 3 2 -3 0\n", 2),         # x_lo above x_hi
        ("b 1 1 1 2 -1 -2\n", 1),                 # y_lo above y_hi
    ])
    def test_bad_factor_fails_at_its_line(self, text, line):
        with pytest.raises(FileFormatError) as err:
            fileio.loads_corner_boxes(text, "m.boxes")
        assert str(err.value).startswith(f"m.boxes:{line}: vertex ")

    @pytest.mark.parametrize("text", [
        "b 1 1 1 2 -1\n",                       # wrong arity
        "b 1 1 1 2 -1 0\nb 1 1 1 2 -1 0\n",     # duplicate factor
        "b 1 1 1 2 -1 0\nb 2 2 1 2 -1 0\n",     # vertex 2 misses dimension 1
        "",                                     # empty
    ])
    def test_rejects(self, text):
        with pytest.raises(FileFormatError):
            fileio.loads_corner_boxes(text)


class TestSemiSquareFormat:
    def test_literal(self):
        r = fileio.loads_semisquares("s 1 1 2\ns 2 3/2 1\n")
        assert r == Realization.build(1, {
            1: ((F(-1), F(3)), F(1)),
            2: ((F(1, 2), F(5, 2)), F(3, 2)),
        })

    def test_round_trip(self):
        text = "s 1 5/2 1/4\ns 2 3 0\n"
        r = fileio.loads_semisquares(text)
        assert r == Realization.build(1, {1: ((F(9, 4), F(11, 4)), F(5, 2)), 2: ((F(3), F(3)), F(3))})
        assert fileio.dumps_semisquares(r) == text
        assert fileio.loads_semisquares(fileio.dumps_semisquares(r)) == r

    def test_negative_leg_fails_at_its_line(self):
        with pytest.raises(FileFormatError) as err:
            fileio.loads_semisquares("s 1 1 1\nc next\ns 2 1 -1\n", "m.tri")
        assert str(err.value).startswith("m.tri:3:")

    @pytest.mark.parametrize("text", [
        "s 1 1 -1\n",          # negative leg
        "s 1 1 1\ns 1 1 1\n",  # duplicate
        "s 1 1\n",             # wrong arity
        "",                    # empty
    ])
    def test_rejects(self, text):
        with pytest.raises(FileFormatError):
            fileio.loads_semisquares(text)


class TestSniffFormat:
    @pytest.mark.parametrize("text,kind", [
        ("p and 1 0\n", "graph"),
        ("e 1 2\n", "graph"),
        ("r and 1 1\n", "realization"),
        ("v 1 1 0 1 0\n", "realization"),
        ("central\n", "realization"),
        ("o 1 2\n", "ordering"),
        ("ic 1 1 1 1\n", "implicit"),
        ("i 1 0 1\n", "interval"),
        ("outer 1 2 3\n", "outerplanar"),
        ("chord 1 3\n", "outerplanar"),
        ("t 0 1\n", "rootedpath"),
        ("k 1 1\n", "rootedpath"),
        ("b 1 1 1 2 -1 0\n", "corner"),
        ("s 1 1 1\n", "semisquare"),
    ])
    def test_first_record_decides(self, text, kind):
        assert sniff_format("c preamble\n\n" + text) == kind

    def test_unknown_token(self):
        with pytest.raises(FileFormatError):
            sniff_format("what 1 2\n")

    def test_empty(self):
        with pytest.raises(FileFormatError):
            sniff_format("c only comments\n\n")

    @pytest.mark.parametrize("text", [
        "c a\r\nc b\rp and 1 0\n",
        "c a\x0cp and 1 0\n",
        "c a o 1\n",
        "c a\n\nwhat 1\n",
        "c only comments\n",
    ])
    def test_file_sniffs_as_its_text(self, tmp_path, text):
        path = tmp_path / "x.txt"
        path.write_bytes(text.encode("utf-8"))

        def outcome(sniff, arg):
            try:
                return sniff(arg)
            except FileFormatError as e:
                return str(e)

        assert outcome(fileio.sniff_file, str(path)) == outcome(sniff_format, text)


def _one_of_each_kind():
    """kind -> (an object of that kind, its writer)."""
    r = cycle_cand1(5, F(1, 4))
    codes = implicit_encode(path_graph(7), tuple(range(1, 8)))
    return {
        "graph": (random_connected_graph(random.Random(3), 7), fileio.dumps_graph),
        "realization": (r, fileio.dumps_realization),
        "ordering": ((3, 1, 2), fileio.dumps_ordering),
        "implicit": (codes, fileio.dumps_implicit_codes),
        "interval": (random_interval(7, 2).aux, fileio.dumps_interval_model),
        "outerplanar": (random_dissection(8, 4).aux, fileio.dumps_outerplanar_model),
        "rootedpath": (random_rooted_path(9, 2).aux, fileio.dumps_rooted_path_model),
        "corner": (random_realization(random.Random(5), 6, d=2), fileio.dumps_corner_boxes),
        "semisquare": (r, fileio.dumps_semisquares),
    }


class TestFormatTable:
    def test_every_kind_round_trips_through_a_file(self, tmp_path):
        samples = _one_of_each_kind()
        assert set(samples) == set(fileio.FORMATS)
        for kind, (obj, dumps) in samples.items():
            path = str(tmp_path / f"x.{kind}")
            fileio.save_file(path, kind, obj)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            assert text == dumps(obj), kind
            assert fileio.load_file(path, kind) == obj, kind
            assert sniff_format(text) == fileio.sniff_file(path) == kind
        assert sorted(os.listdir(tmp_path)) == sorted(f"x.{kind}" for kind in samples)

    def test_no_tag_names_two_kinds(self):
        tags = [tag for tags, _, _ in fileio.FORMATS.values() for tag in tags]
        assert len(tags) == len(set(tags)) == 14


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(str(target), "payload\n")
        assert target.read_text(encoding="utf-8") == "payload\n"

    def test_overwrites_existing(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write_text(str(target), "new\n")
        assert target.read_text(encoding="utf-8") == "new\n"

    def test_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "out.txt"
        for i in range(3):
            atomic_write_text(str(target), f"round {i}\n")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_save_load_pairs_hit_disk(self, tmp_path, paw_graph):
        gp = tmp_path / "g.and"
        fileio.save_file(str(gp), "graph", paw_graph)
        assert fileio.load_file(str(gp), "graph") == paw_graph
        r = cycle_cand1(3, F(1, 2))
        rp = tmp_path / "c3.real"
        fileio.save_file(str(rp), "realization", r)
        assert fileio.load_file(str(rp), "realization") == r
        op = tmp_path / "o.ord"
        fileio.save_file(str(op), "ordering", (2, 1))
        assert fileio.load_file(str(op), "ordering") == (2, 1)


def _outcome(load, text):
    """("ok", value) or (exception type, message) of one load."""
    try:
        return "ok", load(text, "m.txt")
    except ValueError as e:  # FileFormatError, RealizationError, GraphError
        return type(e), str(e)


def _family_files():
    """Dumped files of each reader's kind: kind -> list of texts."""
    graphs, reals = [], []
    for s in range(3):
        iv, dis = random_interval(30, s), random_dissection(20, s)
        block, rp = random_block_graph(25, s), random_rooted_path(20, s)
        graphs += [iv.graph, dis.graph, block.graph, rp.graph]
        reals += [
            interval_to_cand1(iv.aux),
            outerplanar_cand1(dis.aux),
            blockwise_cand1(block.graph),
            realization_from_ordering(rp.graph, rdp_ordering(rp.aux)),
        ]
    rng = random.Random(2203)
    reals += [random_realization(rng, 12, d=d) for d in (1, 2, 2)] + [cycle_cand1(9)]
    return {
        "graph": [fileio.dumps_graph(g) for g in graphs + [cycle(9).graph]],
        "realization": [fileio.dumps_realization(r) for r in reals],
        "corner": [fileio.dumps_corner_boxes(r) for r in reals],
        "semisquare": [fileio.dumps_semisquares(r) for r in reals if r.d == 1 and is_central(r)],
    }


# A token replaced by a non-canonical one or by a canonical value that
# breaks a check (an id, a dimension, a corner, a box), a token dropped or
# added, other separators and line breaks, comment and blank lines,
# repeated and misplaced lines.
_TOKENS = (
    "-0", "01", "2/4", "3/1", "0/1", "-0/5", "1/0", "+1", "1.5", "x", "１",
    "0", "1", "2", "-3", "1/2", "-1/2", "40",
)
_SEPARATORS = ("\t", "\x0b", "\x0c", "　", "\xa0", "  ", " \t ")


def _mutants(text, rng):
    lines = text.splitlines()
    yield text.replace("\n", "\r\n")
    yield "c header comment\n\n" + text + "c\n   \n"
    for i in sorted(set(rng.sample(range(len(lines)), min(4, len(lines))) + [0, len(lines) - 1])):
        toks = lines[i].split(" ")

        def with_line(line, i=i):
            return "\n".join(lines[:i] + [line] + lines[i + 1:]) + "\n"

        for k in range(len(toks)):
            for t in rng.sample(_TOKENS, 9):
                yield with_line(" ".join(toks[:k] + [t] + toks[k + 1:]))
        yield with_line(" ".join(toks[:-1]))
        yield with_line(" ".join(toks + ["1"]))
        for sep in _SEPARATORS:
            yield with_line(sep.join(toks))
            yield with_line(sep + lines[i] + sep)
        yield with_line(lines[i] + "\nc note")
        yield with_line(lines[i] + "\n" + lines[i])
        yield with_line(lines[i] + "\n" + " ".join(toks[:-1] + ["1" if toks[-1] != "1" else "2"]))
        yield with_line(lines[i].replace(" ", "\x0b", 1))
        yield with_line(lines[i][:-1] + "\x0b" + lines[i][-1:])
        yield with_line("c" + lines[i])
        yield "\n".join([lines[i]] + lines[:i] + lines[i + 1:]) + "\n"
        yield "\n".join(lines[:i] + lines[i + 1:]) + "\n"
        if 0 < i < len(lines) - 1:
            yield "\n".join(lines[:i] + lines[i + 1:i + 2] + lines[i:i + 1] + lines[i + 2:]) + "\n"
    # aimed at the bulk read, which takes only files laid out as written
    yield text[:-1]
    yield "\n".join(lines[1:] + lines[:1]) + "\n"
    second = [i for i, line in enumerate(lines) if line.split()[:1] in (["v"], ["b"]) and line.split()[2] == "2"]
    if second:
        i = second[0]
        yield "\n".join(lines[:i - 1] + [lines[i], lines[i - 1]] + lines[i + 1:]) + "\n"


class TestLineReadersMatchTokenReaders:
    """Each loader first reads a file in bulk, taking only one laid out
    as its writer writes it, and sends any other file to the token
    checks.  The token-by-token readers in conftest must agree on every
    file, either path taken: equal values, or the identical exception
    and message."""

    LOADERS = {
        "graph": (fileio.loads_graph, reference_loads_graph),
        "realization": (fileio.loads_realization, reference_loads_realization),
        "corner": (fileio.loads_corner_boxes, reference_loads_corner_boxes),
        "semisquare": (fileio.loads_semisquares, reference_loads_semisquares),
    }

    @pytest.fixture(scope="class")
    def files(self):
        return _family_files()

    @pytest.mark.parametrize("kind", list(LOADERS))
    def test_family_files_load_equal(self, files, kind):
        load, reference = self.LOADERS[kind]
        assert len(files[kind]) >= 10
        for text in files[kind]:
            status, value = _outcome(load, text)
            assert status == "ok"
            assert value == reference(text)
            if kind != "graph":
                # the lattice invariant: plain int numerators over the least den
                coords = [c for box in value.boxes for side in box for c in side]
                coords += [c for pt in value.points for c in pt]
                assert all(type(c) is int for c in coords + [value.den])
                assert value.den >= 1 and gcd(value.den, *coords) == 1
        if kind in ("realization", "corner"):
            assert {load(text).d for text in files[kind]} == {1, 2}

    @pytest.mark.parametrize("kind", list(LOADERS))
    def test_mutants_give_the_same_value_or_error(self, files, kind):
        load, reference = self.LOADERS[kind]
        rng = random.Random(kind)
        errors = set()
        count = 0
        for base in files[kind][:2] + files[kind][-2:]:
            for text in _mutants(base, rng):
                got, want = _outcome(load, text), _outcome(reference, text)
                assert got == want, repr(text)
                count += 1
                if got[0] != "ok":
                    errors.add(got[1].split(":", 2)[-1].split()[0])
        assert count > 1000 and len(errors) >= 5

    def test_off_diagonal_corner_matches(self, files):
        text = files["corner"][0]
        lines = text.splitlines()
        for i, line in enumerate(lines[:20]):
            toks = line.split()
            toks[5] = "1/3" if toks[5] != "1/3" else "1/5"
            mutant = "\n".join(lines[:i] + [" ".join(toks)] + lines[i + 1:])
            got = _outcome(fileio.loads_corner_boxes, mutant)
            assert got == _outcome(reference_loads_corner_boxes, mutant)
            assert "off the diagonal" in got[1] or "empty planar factor" in got[1]


class TestBulkRead:
    """Files laid out as the writers write them are read in bulk: no data
    line reaches the token checks, and memory stays within a bound."""

    def test_written_files_skip_the_token_checks(self, lattice_instances, monkeypatch):
        files = [(fileio.loads_graph, text) for text in _family_files()["graph"]]
        for _, r in lattice_instances:
            files += [
                (fileio.loads_realization, fileio.dumps_realization(r)),
                (fileio.loads_corner_boxes, fileio.dumps_corner_boxes(r)),
            ]
            if r.d == 1 and is_central(r):
                files.append((fileio.loads_semisquares, fileio.dumps_semisquares(r)))
            if r.ids == tuple(range(1, r.n + 1)):
                files.append((fileio.loads_graph, fileio.dumps_graph(induced_graph(r))))
        expected = [load(text) for load, text in files]
        int_calls = []
        int_at = fileio._int_at

        def counted(*args):
            int_calls.append(args)
            return int_at(*args)

        def no_rationals(*args):
            raise AssertionError(f"a data line reached the token checks: {args}")

        monkeypatch.setattr(fileio, "_int_at", counted)
        monkeypatch.setattr(fileio, "_rat_at", no_rationals)
        loads = {load for load, _ in files}
        assert len(loads) == 4 and {r.d for _, r in lattice_instances} == {1, 2}
        assert any(is_central(r) for _, r in lattice_instances)
        assert any(not is_central(r) for _, r in lattice_instances)
        for (load, text), value in zip(files, expected):
            int_calls.clear()
            assert load(text) == value
            assert len(int_calls) <= 2, int_calls  # the header's n and m, or n and d

    def test_peak_memory_per_byte_of_text(self):
        # a whole-text regex with a repeated group keeps a backtracking frame
        # per repetition: 56 bytes or more per byte of text
        r = cycle_cand1(20000)
        for dumps, loads in (
            (fileio.dumps_realization, fileio.loads_realization),
            (fileio.dumps_corner_boxes, fileio.loads_corner_boxes),
        ):
            text = dumps(r)
            tracemalloc.start()
            try:
                loaded = loads(text)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert loaded == r
            assert peak < 40 * len(text), (loads.__name__, peak / len(text))


class TestLatticeMatchesFractionReferences:
    """The lattice writers, loaders and renderer against the Fraction
    ones kept in conftest, byte for byte, on files with long
    denominators."""

    def test_writers_and_loaders(self, lattice_instances):
        assert {r.d for _, r in lattice_instances} == {1, 2}
        for name, r in lattice_instances:
            text = fileio.dumps_realization(r)
            assert text == reference_dumps_realization(r), name
            assert fileio.loads_realization(text) == reference_loads_realization(text) == r
            text = fileio.dumps_corner_boxes(r)
            assert text == reference_dumps_corner_boxes(r), name
            assert fileio.loads_corner_boxes(text) == reference_loads_corner_boxes(text) == r
            if r.d == 1 and is_central(r):
                text = fileio.dumps_semisquares(r)
                assert text == reference_dumps_semisquares(r), name
                assert fileio.loads_semisquares(text) == reference_loads_semisquares(text) == r

    def test_renderer(self, lattice_instances):
        for name, r in lattice_instances:
            if r.d == 1:
                assert render_realization_svg(r) == reference_render_svg(r), name


class TestNoFractionsOnTheGeometryPath:
    @staticmethod
    def count_fractions(monkeypatch) -> list:
        """The arguments of every Fraction made from here on."""
        made = []
        new = F.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", counted)
        return made

    def test_load_verify_render_convert_and_intersect(self, tmp_path, monkeypatch):
        # long denominators, negative coordinates, central and d = 1
        g = random_block_graph(40, 108).graph
        r = blockwise_cand1(g)
        real, boxes, tri = (str(tmp_path / f"b.{ext}") for ext in ("real", "boxes", "tri"))
        fileio.save_file(real, "realization", r)
        fileio.save_file(boxes, "corner", r)
        fileio.save_file(tri, "semisquare", r)
        made = self.count_fractions(monkeypatch)
        loaded = fileio.load_file(real, "realization")
        assert verify(loaded, g).ok
        render_realization_svg(loaded)
        fileio.dumps_corner_boxes(loaded)
        fileio.dumps_semisquares(loaded)
        assert corner_box_intersection_graph(fileio.load_file(boxes, "corner")) == g
        assert semisquare_intersection_graph(fileio.load_file(tri, "semisquare")) == g
        assert made == []
        loaded.coordinate(1)  # the counter sees a Fraction made
        assert made

    def test_cycle_block_and_relabel(self, monkeypatch):
        # realize --cycle 700 and realize block build on the lattice, and
        # relabel permutes the numerators
        g = random_block_graph(220, 1).graph
        made = self.count_fractions(monkeypatch)
        for r in (cycle_cand1(700), blockwise_cand1(g)):
            relabel(r, {v: r.n + 1 - v for v in r.ids})
        assert made == []

    def test_outerplanar_faces_and_cycle_certificate(self, monkeypatch):
        # the faces of a dissection fold on the lattice, and the certificate
        # for C8 is one outerplanar block
        models = [m for m in (random_dissection(110, s).aux for s in range(1, 11)) if m.chords]
        assert len(models) == 6
        made = self.count_fractions(monkeypatch)
        for m in models:
            outerplanar_cand1(m)
        assert cand1_recognize(cycle(8).graph, 0).status == "found"
        assert made == []
