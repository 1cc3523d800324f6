"""End-to-end checks of the command line front end.

Runs main(argv) in-process so the verdict line, the exit code, and every
file the commands drop next to their inputs can be asserted directly.
Subprocess tests at the end confirm that `python -m andbox` and the
installed console script are wired to the same entry point, and that a
sequence of in-process calls answers as fresh processes do.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction as F

import pytest

import andbox
from conftest import (
    edge_set,
    naive_four_point_scan,
    one_chord_polygon,
    reference_glue_at_safe_vertex,
)
from andbox import cli, families, feasibility, fileio, kernels, orders
from andbox.boxes import corner_box_intersection_graph, semisquare_intersection_graph
from andbox.cli import main
from andbox.constructors import (
    blockwise_cand1,
    cycle_cand1,
    clique_cand1,
    glue_at_safe_vertex,
    interval_to_cand1,
    outerplanar_cand1,
    rdp_ordering,
)
from andbox.families import IntervalModel, generate
from andbox.graphs import Graph, complete_multipartite_graph, cycle_graph
from andbox.orders import implicit_encode, realization_from_ordering
from andbox.realization import Realization, is_central, relabel, verify
from andbox.svg import render_realization_svg

VERDICT = re.compile(r"\Averdict=(yes|no|exhausted) time_ms=\d+\n\Z")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_paw():
    return Graph.from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 4)])


def write_graph(path, g):
    fileio.save_file(str(path), "graph", g)
    return str(path)


def write_real(path, r):
    fileio.save_file(str(path), "realization", r)
    return str(path)


class TestVerdictLine:
    def test_yes_line_is_the_whole_stdout(self, tmp_path, capsys):
        g = write_graph(tmp_path / "paw.and", make_paw())
        code, out, err = run(capsys, "recognize-and1", g)
        assert code == 0
        assert VERDICT.fullmatch(out)
        assert out.startswith("verdict=yes ")
        assert err == ""

    def test_no_and_exhausted_verdicts(self, tmp_path, capsys):
        g = write_graph(
            tmp_path / "oct.and", complete_multipartite_graph([2, 2, 2])
        )
        code, out, _ = run(capsys, "recognize-and1", g)
        assert code == 1
        assert out.startswith("verdict=no ")
        code, out, _ = run(capsys, "recognize-and1", g, "--node-budget", "5")
        assert code == 3
        assert out.startswith("verdict=exhausted ")
        assert VERDICT.fullmatch(out)


class TestGen:
    def test_graph_plus_aux_model(self, tmp_path, capsys):
        for family, kind in (
            ("random-interval", "interval"),
            ("random-dissection", "outerplanar"),
            ("random-rooted-path", "rootedpath"),
        ):
            out_g = tmp_path / f"{family}.and"
            out_m = tmp_path / f"{family}.aux"
            code, out, _ = run(
                capsys,
                "gen", "--family", family, "6",
                "--seed", "3", "-o", str(out_g), "--aux-out", str(out_m),
            )
            assert code == 0 and out.startswith("verdict=yes "), family
            bundle = generate(family, (6,), seed=3)
            assert edge_set(fileio.load_file(str(out_g), "graph")) == edge_set(bundle.graph)
            assert fileio.load_file(str(out_m), kind) == bundle.aux, family

    def test_h_family_graph(self, tmp_path, capsys):
        out_g = tmp_path / "h.and"
        code, _, _ = run(
            capsys, "gen", "--family", "h", "2", "3", "4", "-o", str(out_g)
        )
        assert code == 0
        expected = generate("h", (2, 3, 4)).graph
        assert edge_set(fileio.load_file(str(out_g), "graph")) == edge_set(expected)

    def test_aux_out_rejected_when_family_has_no_model(self, tmp_path, capsys):
        code, out, err = run(
            capsys,
            "gen", "--family", "cycle", "5",
            "-o", str(tmp_path / "c.and"), "--aux-out", str(tmp_path / "c.aux"),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert not (tmp_path / "c.aux").exists()
        assert not (tmp_path / "c.and").exists()

    def test_unknown_family_exits_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "--family", "mystery", "-o", str(tmp_path / "x")
        )
        assert code == 2
        assert "invalid choice" in err

    def test_missing_output_exits_2(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "cycle", "5")
        assert code == 2
        assert err != ""

    def test_seed_changes_random_graph(self, tmp_path, capsys):
        outs = []
        for seed in ("1", "2"):
            path = tmp_path / f"b{seed}.and"
            code, _, _ = run(
                capsys,
                "gen", "--family", "random-block", "20",
                "--seed", seed, "-o", str(path),
            )
            assert code == 0
            outs.append(edge_set(fileio.load_file(str(path), "graph")))
        assert outs[0] != outs[1]


class TestRealize:
    def test_cycle_matches_library(self, tmp_path, capsys):
        out = tmp_path / "c5.real"
        code, text, _ = run(
            capsys, "realize", "--cycle", "5", "--eps", "1/4", "-o", str(out)
        )
        assert code == 0 and text.startswith("verdict=yes ")
        assert fileio.load_file(str(out), "realization") == cycle_cand1(5, F(1, 4))

    def test_cycle_anchor_flag(self, tmp_path, capsys):
        out = tmp_path / "c6.real"
        code, _, _ = run(
            capsys,
            "realize", "--cycle", "6", "--anchor", "3", "-o", str(out),
        )
        assert code == 0
        expected = cycle_cand1(6, F(1, 2), anchor=3)
        assert fileio.load_file(str(out), "realization") == expected

    def test_cycle_requires_explicit_output(self, capsys):
        code, _, err = run(capsys, "realize", "--cycle", "5")
        assert code == 2
        assert err.startswith("error:")

    def test_glued_cycles(self, tmp_path, capsys):
        # a 4-cycle fused onto the edge 2-3 of the 5-cycle 1..5
        src = tmp_path / "fused.op"
        src.write_text("outer 3 4 5 1 2 6 7\nchord 2 3\n")
        model = fileio.load_file(str(src), "outerplanar")
        assert model == one_chord_polygon(4, 5, (2, 3))
        code, _, _ = run(capsys, "realize", str(src))
        assert code == 0
        r = fileio.load_file(str(tmp_path / "fused.real"), "realization")
        assert r == outerplanar_cand1(model)
        assert verify(r, model.graph()).ok and is_central(r)

    def test_glued_cycles_flag_is_gone(self, tmp_path, capsys):
        out = tmp_path / "x.real"
        code, text, _ = run(capsys, "realize", "--glued-cycles", "4", "5", "-o", str(out))
        assert code == 2 and text == ""
        assert not out.exists()

    def test_interval_file_default_output_name(self, tmp_path, capsys):
        model = generate("random-interval", (7,), seed=11).aux
        src = tmp_path / "m.iv"
        fileio.save_file(str(src), "interval", model)
        code, _, _ = run(capsys, "realize", str(src))
        assert code == 0
        r = fileio.load_file(str(tmp_path / "m.real"), "realization")
        assert r == interval_to_cand1(model)

    def test_disconnected_interval_file(self, tmp_path, capsys):
        model = IntervalModel(((F(0), F(1)), (F(3), F(5)), (F(4), F(6)), (F(9), F(9))))
        src = tmp_path / "split.iv"
        fileio.save_file(str(src), "interval", model)
        code, _, _ = run(capsys, "realize", str(src))
        assert code == 0
        r = fileio.load_file(str(tmp_path / "split.real"), "realization")
        assert is_central(r) and verify(r, model.intersection_graph()).ok

    def test_outerplanar_file(self, tmp_path, capsys):
        bundle = generate("random-dissection", (8,), seed=4)
        src = tmp_path / "d.outer"
        fileio.save_file(str(src), "outerplanar", bundle.aux)
        code, _, _ = run(capsys, "realize", str(src))
        assert code == 0
        r = fileio.load_file(str(tmp_path / "d.real"), "realization")
        assert r == outerplanar_cand1(bundle.aux)
        assert verify(r, bundle.graph).ok

    def test_rooted_path_file(self, tmp_path, capsys):
        bundle = generate("random-rooted-path", (9,), seed=2)
        src = tmp_path / "t.rp"
        fileio.save_file(str(src), "rootedpath", bundle.aux)
        code, _, _ = run(capsys, "realize", str(src))
        assert code == 0
        r = fileio.load_file(str(tmp_path / "t.real"), "realization")
        g = bundle.aux.intersection_graph()
        assert r == realization_from_ordering(g, rdp_ordering(bundle.aux))
        assert verify(r, g).ok

    def test_graph_file_goes_through_block_assembly(self, tmp_path, capsys):
        g = generate("random-block", (12,), seed=7).graph
        src = write_graph(tmp_path / "blocks.and", g)
        code, _, _ = run(capsys, "realize", src)
        assert code == 0
        r = fileio.load_file(str(tmp_path / "blocks.real"), "realization")
        assert r == blockwise_cand1(g)
        assert verify(r, g).ok and is_central(r)

    def test_graph_file_with_an_outerplanar_block(self, tmp_path, capsys):
        g = cycle_graph(7)
        src = write_graph(tmp_path / "c7.and", g)
        code, _, _ = run(capsys, "realize", src)
        assert code == 0
        r = fileio.load_file(str(tmp_path / "c7.real"), "realization")
        assert r == blockwise_cand1(g)
        assert verify(r, g).ok and is_central(r)

    def test_graph_file_with_neither_block_exits_2(self, tmp_path, capsys):
        src = write_graph(tmp_path / "k23.and", complete_multipartite_graph([2, 3]))
        code, out, err = run(capsys, "realize", src)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "neither a clique nor outerplanar" in err
        assert not (tmp_path / "k23.real").exists()

    def test_disconnected_graph_file_exits_2(self, tmp_path, capsys):
        src = write_graph(tmp_path / "four.and", Graph.from_edges(4, []))
        code, out, err = run(capsys, "realize", src)
        assert code == 2 and out == ""
        assert err == f"error: {src}: the graph is not connected; recognize-cand1 realizes each component\n"
        assert not (tmp_path / "four.real").exists()

    @pytest.mark.parametrize("flags", [["--eps", "7/3"], ["--anchor", "99"], ["--eps", "1/2"]])
    def test_cycle_flags_rejected_with_a_model_file(self, tmp_path, capsys, flags):
        model = generate("random-interval", (7,), seed=11).aux
        src = tmp_path / "m.iv"
        fileio.save_file(str(src), "interval", model)
        code, out, err = run(capsys, "realize", str(src), *flags)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--cycle" in err
        assert not (tmp_path / "m.real").exists()

    def test_wrong_input_kind_exits_2(self, tmp_path, capsys):
        src = tmp_path / "o.ord"
        fileio.atomic_write_text(str(src), "o 1 2 3\n")
        code, _, err = run(capsys, "realize", str(src))
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("kind, text", [
        ("realization", "r and 1 1\nv 1 1 0 1\n"),
        ("ordering", "o 1 2\no 2 1\n"),
        ("implicit", "ic 1 1 1 1\nic 1 2\n"),
        ("corner", "b 1 1 0 1 0\n"),
        ("semisquare", "c a leg below 0\ns 1 0 -1\n"),
    ])
    def test_unrealizable_kind_rejected_before_its_records_are_read(
        self, tmp_path, capsys, kind, text
    ):
        # every file is malformed after its first record: reading it would
        # fail with a path:line error instead
        src = tmp_path / "x.in"
        src.write_text(text)
        with pytest.raises(fileio.FileFormatError):
            fileio.load_file(str(src), kind)
        code, out, err = run(capsys, "realize", str(src))
        assert (code, out, err) == (2, "", f"error: cannot realize a {kind} file\n")
        assert sorted(os.listdir(tmp_path)) == ["x.in"]

    def test_two_sources_exit_2(self, tmp_path, capsys):
        src = write_graph(tmp_path / "g.and", make_paw())
        code, _, err = run(
            capsys, "realize", src, "--cycle", "4", "-o", str(tmp_path / "x")
        )
        assert code == 2
        assert err.startswith("error:")

    def test_no_source_exits_2(self, capsys):
        code, _, err = run(capsys, "realize")
        assert code == 2
        assert err.startswith("error:")


class TestVerify:
    def test_matching_pair_yes(self, tmp_path, capsys):
        r = write_real(tmp_path / "c4.real", cycle_cand1(4, F(1, 2)))
        g = write_graph(tmp_path / "c4.and", cycle_graph(4))
        code, out, _ = run(capsys, "verify", r, g)
        assert code == 0
        assert out.startswith("verdict=yes ")
        assert not (tmp_path / "c4.witness").exists()

    def test_mismatch_writes_witness(self, tmp_path, capsys):
        r = write_real(tmp_path / "c4.real", cycle_cand1(4, F(1, 2)))
        g = write_graph(tmp_path / "paw.and", make_paw())
        code, out, _ = run(capsys, "verify", r, g)
        assert code == 1
        assert out.startswith("verdict=no ")
        witness = (tmp_path / "c4.witness").read_text()
        assert witness == "missing 1 3\nextra 1 4\n"

    def test_witness_out_flag_overrides_default(self, tmp_path, capsys):
        r = write_real(tmp_path / "c4.real", cycle_cand1(4, F(1, 2)))
        g = write_graph(tmp_path / "paw.and", make_paw())
        target = tmp_path / "sub" / "w.txt"
        target.parent.mkdir()
        code, _, _ = run(capsys, "verify", r, g, "--witness-out", str(target))
        assert code == 1
        assert target.read_text() == "missing 1 3\nextra 1 4\n"
        assert not (tmp_path / "c4.witness").exists()


class TestCheckOrder:
    def test_pass_with_side_outputs(self, tmp_path, capsys):
        g = make_paw()
        gp = write_graph(tmp_path / "paw.and", g)
        op = tmp_path / "paw.ord"
        fileio.atomic_write_text(str(op), "o 1 2 3 4\n")
        codes = tmp_path / "paw.ic"
        real = tmp_path / "paw.real"
        code, out, _ = run(
            capsys,
            "check-order", gp, str(op),
            "--codes-out", str(codes), "--realize-out", str(real),
        )
        assert code == 0 and out.startswith("verdict=yes ")
        order = fileio.load_file(str(op), "ordering")
        assert fileio.load_file(str(codes), "implicit") == implicit_encode(
            g, order
        )
        assert fileio.load_file(str(real), "realization") == realization_from_ordering(
            g, order
        )

    def test_violation_witness_text(self, tmp_path, capsys):
        g = Graph.from_edges(4, [(1, 3), (2, 4)])
        gp = write_graph(tmp_path / "x.and", g)
        op = tmp_path / "x.ord"
        fileio.atomic_write_text(str(op), "o 1 2 3 4\n")
        code, out, _ = run(capsys, "check-order", gp, str(op))
        assert code == 1
        assert out.startswith("verdict=no ")
        assert (tmp_path / "x.witness").read_text() == "violation 1 2 3 4\n"

    @pytest.mark.parametrize("member", [True, False])
    def test_decides_the_four_point_condition_once(self, tmp_path, capsys, monkeypatch, member):
        # with both side outputs the codes, the realization and the
        # witness all come from one check over one rank view
        if member:
            b = families.random_interval(30, 1)
            g, spans = b.graph, b.aux.spans
            o = tuple(sorted(g.vertices(), key=lambda v: (spans[v - 1], v)))
        else:
            g = Graph.from_edges(4, [(1, 3), (2, 4)])
            o = (1, 2, 3, 4)
        want = orders.four_point_check(g, o)
        assert (want is None) == member
        gp = write_graph(tmp_path / "g.and", g)
        op = tmp_path / "g.ord"
        fileio.save_file(str(op), "ordering", o)
        calls = {"_violation": 0, "rank_bounds": 0}

        def counted(name):
            fn = getattr(orders, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(orders, name, wrapper)

        for name in calls:
            counted(name)
        codes, real = tmp_path / "g.ic", tmp_path / "g.oreal"
        code, _, _ = run(
            capsys, "check-order", gp, str(op), "--codes-out", str(codes), "--realize-out", str(real)
        )
        assert calls == {"_violation": 1, "rank_bounds": 1}
        monkeypatch.undo()
        if member:
            assert code == 0
            assert codes.read_text() == fileio.dumps_implicit_codes(implicit_encode(g, o))
            assert real.read_text() == fileio.dumps_realization(realization_from_ordering(g, o))
        else:
            assert code == 1 and not codes.exists() and not real.exists()
            assert (tmp_path / "g.witness").read_text() == (
                f"violation {want.x} {want.u} {want.v} {want.y}\n"
            )

    def test_ordering_must_cover_graph(self, tmp_path, capsys):
        gp = write_graph(tmp_path / "paw.and", make_paw())
        op = tmp_path / "short.ord"
        fileio.atomic_write_text(str(op), "o 1 2 3\n")
        code, _, err = run(capsys, "check-order", gp, str(op))
        assert code == 2
        assert err.startswith("error:")


class TestRecognizeAnd1:
    def test_member_writes_order_file(self, tmp_path, capsys):
        g = complete_multipartite_graph([2, 3])
        gp = write_graph(tmp_path / "k23.and", g)
        code, out, _ = run(capsys, "recognize-and1", gp)
        assert code == 0 and out.startswith("verdict=yes ")
        order = fileio.load_file(str(tmp_path / "k23.order"), "ordering")
        assert order == (1, 2, 3, 4, 5)

    def test_non_member_witness(self, tmp_path, capsys):
        gp = write_graph(
            tmp_path / "oct.and", complete_multipartite_graph([2, 2, 2])
        )
        code, _, _ = run(capsys, "recognize-and1", gp)
        assert code == 1
        witness = (tmp_path / "oct.witness").read_text()
        assert witness == (
            "c no vertex ordering satisfies the four point condition\n"
            "exhaustive nodes 60\n"
        )

    def test_budget_exhaustion_writes_nothing(self, tmp_path, capsys):
        gp = write_graph(
            tmp_path / "oct.and", complete_multipartite_graph([2, 2, 2])
        )
        code, out, _ = run(
            capsys, "recognize-and1", gp, "--node-budget", "5"
        )
        assert code == 3
        assert out.startswith("verdict=exhausted ")
        assert not (tmp_path / "oct.witness").exists()
        assert not (tmp_path / "oct.order").exists()

    def test_violating_kernel_ordering_exits_2(self, tmp_path, capsys, monkeypatch):
        # no certificate covers K(2,3), so the kernel's ordering is used;
        # 1, 3, 4, 2, 5 violates the four point condition on it
        calls = []

        def violating(masks, budget):
            calls.append(budget)
            return kernels.FOUND, [0, 2, 3, 1, 4], 1

        monkeypatch.setattr(kernels, "search_order", violating)
        gp = write_graph(tmp_path / "k23.and", complete_multipartite_graph([2, 3]))
        code, out, err = run(capsys, "recognize-and1", gp)
        assert code == 2
        assert out == "" and err.startswith("error:")
        assert not (tmp_path / "k23.order").exists()
        assert len(calls) == 1

    def test_violating_certificate_exits_2(self, tmp_path, capsys, monkeypatch):
        # 1, 2, 4, 3 violates the four point condition on the square
        monkeypatch.setattr(orders, "certificate", lambda g: ([1, 2, 4, 3], None, None, None))
        gp = write_graph(tmp_path / "sq.and", cycle_graph(4))
        code, out, err = run(capsys, "recognize-and1", gp)
        assert code == 2
        assert out == "" and err.startswith("error:")
        assert not (tmp_path / "sq.order").exists()

    def test_zero_budget_still_certifies(self, tmp_path, capsys):
        g = families.random_interval(30, 0).graph
        gp = write_graph(tmp_path / "iv.and", g)
        code, out, _ = run(capsys, "recognize-and1", gp, "--node-budget", "0")
        assert code == 0 and out.startswith("verdict=yes ")
        order = fileio.load_file(str(tmp_path / "iv.order"), "ordering")
        assert naive_four_point_scan(g, order) is None
        gp = write_graph(tmp_path / "k222.and", complete_multipartite_graph([2, 2, 2]))
        code, out, _ = run(capsys, "recognize-and1", gp, "--node-budget", "0")
        assert code == 3 and out.startswith("verdict=exhausted ")


class TestRecognizeCand1:
    def test_member_writes_realization(self, tmp_path, capsys):
        g = cycle_graph(5)
        gp = write_graph(tmp_path / "c5.and", g)
        code, out, _ = run(capsys, "recognize-cand1", gp)
        assert code == 0 and out.startswith("verdict=yes ")
        r = fileio.load_file(str(tmp_path / "c5.real"), "realization")
        assert verify(r, g).ok and is_central(r)

    def test_non_member_witness(self, tmp_path, capsys):
        gp = write_graph(
            tmp_path / "k23.and", complete_multipartite_graph([2, 3])
        )
        code, _, _ = run(capsys, "recognize-cand1", gp)
        assert code == 1
        witness = (tmp_path / "k23.witness").read_text()
        assert witness == (
            "c no point order admits a central realization\n"
            "exhaustive orderings 2 cases 2\n"
        )

    def test_ordering_budget_exhaustion(self, tmp_path, capsys):
        # the first order costs all 11 units: the second is not decided
        gp = write_graph(
            tmp_path / "k23.and", complete_multipartite_graph([2, 3])
        )
        code, out, _ = run(
            capsys, "recognize-cand1", gp, "--node-budget", "11"
        )
        assert code == 3
        assert out.startswith("verdict=exhausted ")
        assert not (tmp_path / "k23.witness").exists()

    def test_case_budget_exhaustion(self, tmp_path, capsys):
        # the second order's solve stops at its first elimination
        gp = write_graph(
            tmp_path / "k23.and", complete_multipartite_graph([2, 3])
        )
        code, out, _ = run(
            capsys, "recognize-cand1", gp, "--node-budget", "12"
        )
        assert code == 3
        assert out.startswith("verdict=exhausted ")
        assert not (tmp_path / "k23.witness").exists()

    def test_node_budget_bounds_the_kernel(self, tmp_path, capsys):
        # K(2,2,2) has no four-point-free order; the kernel rejects it in
        # 60 placements, as recognize-and1 does
        gp = write_graph(tmp_path / "k222.and", complete_multipartite_graph([2, 2, 2]))
        code, out, _ = run(capsys, "recognize-cand1", gp, "--node-budget", "59")
        assert code == 3 and out.startswith("verdict=exhausted ")
        assert not (tmp_path / "k222.witness").exists()
        code, out, _ = run(capsys, "recognize-cand1", gp, "--node-budget", "60")
        assert code == 1 and out.startswith("verdict=no ")
        assert (tmp_path / "k222.witness").read_text() == (
            "c no point order admits a central realization\n"
            "exhaustive orderings 0 cases 0\n"
        )

    def test_zero_budget_still_certifies(self, tmp_path, capsys):
        # the cycle's outer ring gives its realization with no search
        gp = write_graph(tmp_path / "c2000.and", cycle_graph(2000))
        code, out, _ = run(capsys, "recognize-cand1", gp, "--node-budget", "0")
        assert code == 0 and out.startswith("verdict=yes ")
        real = str(tmp_path / "c2000.real")
        assert is_central(fileio.load_file(real, "realization"))
        code, out, _ = run(capsys, "verify", real, gp)
        assert code == 0 and out.startswith("verdict=yes ")

    def test_exhausted_kernel_enumeration_exits_3(self, tmp_path, capsys, monkeypatch):
        def cut_short(masks, budget):
            yield (kernels.EXHAUSTED, [], budget)

        monkeypatch.setattr(kernels, "orderings", cut_short)
        gp = write_graph(tmp_path / "k222.and", complete_multipartite_graph([2, 2, 2]))
        code, out, _ = run(capsys, "recognize-cand1", gp)
        assert code == 3
        assert out.startswith("verdict=exhausted ")
        assert not list(tmp_path.glob("k222.[rw]*"))

    # for recognize-cand1, --node-budget bounds what --ordering-budget and
    # --case-budget did: the kernel's order search and the Fourier-Motzkin
    # solves.  A negative value is refused before either kind of work starts
    @pytest.mark.parametrize(
        "cmd, work",
        [
            pytest.param("recognize-and1", None, id="recognize-and1---node-budget"),
            pytest.param(
                "recognize-cand1",
                (kernels, "orderings"),
                id="recognize-cand1---ordering-budget",
            ),
            pytest.param(
                "recognize-cand1",
                (feasibility, "_eliminate"),
                id="recognize-cand1---case-budget",
            ),
        ],
    )
    def test_negative_budget_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, cmd, work
    ):
        if work is not None:
            module, name = work

            def no_work(*args, **kwargs):
                raise AssertionError(f"{name} ran under a negative budget")

            monkeypatch.setattr(module, name, no_work)
        gp = write_graph(tmp_path / "c4.and", cycle_graph(4))
        code, out, err = run(capsys, cmd, gp, "--node-budget", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "budget must be nonnegative" in err
        assert not list(tmp_path.glob("c4.[orw]*"))


class TestConversions:
    def test_to_boxes_default_name(self, tmp_path, capsys):
        r = cycle_cand1(4, F(1, 2))
        rp = write_real(tmp_path / "c4.real", r)
        code, _, _ = run(capsys, "to-boxes", rp)
        assert code == 0
        loaded = fileio.load_file(str(tmp_path / "c4.boxes"), "corner")
        assert loaded == r
        assert (tmp_path / "c4.boxes").read_text() == fileio.dumps_corner_boxes(r)

    def test_realized_cycle_boxes_keep_its_points(self, tmp_path, capsys):
        real, boxes = tmp_path / "c5.real", tmp_path / "c5.boxes"
        code, _, _ = run(capsys, "realize", "--cycle", "5", "-o", str(real))
        assert code == 0
        code, _, _ = run(capsys, "to-boxes", str(real), "-o", str(boxes))
        assert code == 0
        points = {
            (toks[1], toks[2]): toks[5]
            for toks in map(str.split, real.read_text().splitlines())
            if toks[0] == "v"
        }
        rows = [toks for toks in map(str.split, boxes.read_text().splitlines()) if toks[0] == "b"]
        assert len(rows) == len(points) == 5
        for toks in rows:
            assert toks[3] == points[(toks[1], toks[2])]
        g = corner_box_intersection_graph(fileio.load_file(str(boxes), "corner"))
        assert g == cycle_graph(5)

    def test_to_triangles_default_name(self, tmp_path, capsys):
        r = cycle_cand1(5, F(1, 2))
        rp = write_real(tmp_path / "c5.real", r)
        code, _, _ = run(capsys, "to-triangles", rp)
        assert code == 0
        loaded = fileio.load_file(str(tmp_path / "c5.tri"), "semisquare")
        assert loaded == r
        assert (tmp_path / "c5.tri").read_text() == fileio.dumps_semisquares(r)
        assert semisquare_intersection_graph(loaded) == cycle_graph(5)

    def test_to_triangles_rejects_non_central(self, tmp_path, capsys):
        g = make_paw()
        r = realization_from_ordering(g, (1, 2, 3, 4))
        rp = write_real(tmp_path / "paw.real", r)
        code, _, err = run(capsys, "to-triangles", rp)
        assert code == 2
        assert err.startswith("error:")

    def test_glue_default_name(self, tmp_path, capsys):
        host = clique_cand1([1, 2, 3])
        # guest ids must avoid the host's outside the glued pair
        guest = relabel(cycle_cand1(4, F(1, 2)), {1: 11, 2: 12, 3: 13, 4: 14})
        hp = write_real(tmp_path / "tri.real", host)
        gp = write_real(tmp_path / "sq.real", guest)
        code, _, _ = run(capsys, "glue", hp, "3", gp, "11")
        assert code == 0
        merged = fileio.load_file(str(tmp_path / "tri-glued.real"), "realization")
        assert merged == glue_at_safe_vertex(host, 3, guest, 11)
        assert merged == reference_glue_at_safe_vertex(host, 3, guest, 11)

    def test_glue_rejects_unsafe_vertex(self, tmp_path, capsys):
        host = clique_cand1([1, 2, 3])
        guest = relabel(cycle_cand1(4, F(1, 2)), {1: 11, 2: 12, 3: 13, 4: 14})
        hp = write_real(tmp_path / "a.real", host)
        gp = write_real(tmp_path / "b.real", guest)
        # 13 sits inside the wide box of non-neighbor 11: not safe
        code, _, err = run(capsys, "glue", hp, "3", gp, "13")
        assert code == 2
        assert err.startswith("error:")

    def test_glue_rejects_unknown_host_vertex(self, tmp_path, capsys):
        hp = write_real(tmp_path / "a.real", clique_cand1([1, 2, 3]))
        gp = write_real(tmp_path / "b.real", clique_cand1([7, 11]))
        code, _, err = run(capsys, "glue", hp, "7", gp, "7")
        assert code == 2
        assert err == "error: unknown vertex 7\n"

    def test_glue_rejects_unknown_guest_vertex(self, tmp_path, capsys):
        hp = write_real(tmp_path / "a.real", clique_cand1([1, 2, 3]))
        gp = write_real(tmp_path / "b.real", clique_cand1([1, 11]))
        code, _, err = run(capsys, "glue", hp, "1", gp, "5")
        assert code == 2
        assert err == "error: unknown vertex 5\n"

    def test_render_default_name(self, tmp_path, capsys):
        r = cycle_cand1(4, F(1, 2))
        rp = write_real(tmp_path / "c4.real", r)
        code, _, _ = run(capsys, "render", rp)
        assert code == 0
        svg = (tmp_path / "c4.svg").read_text()
        assert svg == render_realization_svg(r)
        ET.fromstring(svg)

    @pytest.mark.parametrize("side,message", [
        (F(10**400), "coordinates too large to draw"),
        (F(1, 10**400), "coordinates too close together to draw"),
    ])
    def test_render_beyond_float_range_exits_2(self, tmp_path, capsys, side, message):
        # the other commands handle the file exactly; only drawing needs floats
        rp = write_real(tmp_path / "far.real", Realization.build(1, {1: ((-side, side), 0)}))
        code, _, err = run(capsys, "render", rp)
        assert (code, err) == (2, f"error: {message}\n")
        assert not (tmp_path / "far.svg").exists()
        assert run(capsys, "to-boxes", rp)[0] == 0


class TestPipelines:
    def test_gen_realize_verify_round_trip(self, tmp_path, capsys):
        gp = tmp_path / "d.and"
        mp = tmp_path / "d.outer"
        code, _, _ = run(
            capsys,
            "gen", "--family", "random-dissection", "10",
            "--seed", "5", "-o", str(gp), "--aux-out", str(mp),
        )
        assert code == 0
        code, _, _ = run(capsys, "realize", str(mp))
        assert code == 0
        code, out, _ = run(
            capsys, "verify", str(tmp_path / "d.real"), str(gp)
        )
        assert code == 0 and out.startswith("verdict=yes ")

    def test_recognize_then_check_order(self, tmp_path, capsys):
        gp = write_graph(tmp_path / "g.and", make_paw())
        code, _, _ = run(capsys, "recognize-and1", gp)
        assert code == 0
        code, out, _ = run(
            capsys, "check-order", gp, str(tmp_path / "g.order")
        )
        assert code == 0 and out.startswith("verdict=yes ")

    def test_realize_then_render_and_boxes(self, tmp_path, capsys):
        rp = tmp_path / "c7.real"
        assert run(capsys, "realize", "--cycle", "7", "-o", str(rp))[0] == 0
        assert run(capsys, "render", str(rp))[0] == 0
        assert run(capsys, "to-boxes", str(rp))[0] == 0
        assert (tmp_path / "c7.svg").exists()
        assert (tmp_path / "c7.boxes").exists()


class TestErrorHandling:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "verify", str(tmp_path / "no.real"), str(tmp_path / "no.and")
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_malformed_file_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.and"
        bad.write_text("p and 3 1\ne 1 two\n")
        code, _, err = run(capsys, "recognize-and1", str(bad))
        assert code == 2
        assert "bad.and:2:" in err

    def test_no_subcommand_exits_2(self, capsys):
        code, _, err = run(capsys)
        assert code == 2
        assert err != ""

    def test_unknown_flag_exits_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "render", "--bogus")
        assert code == 2

    def test_vertex_count_too_large_to_index_exits_2(self, tmp_path, capsys):
        src = tmp_path / "huge.and"
        src.write_text("p and 99999999999999999999 0\n")
        code, out, err = run(capsys, "recognize-and1", str(src))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["huge.and"]

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        def no_memory(path, kind):
            raise MemoryError

        monkeypatch.setattr(fileio, "load_file", no_memory)
        src = write_graph(tmp_path / "paw.and", make_paw())
        code, out, err = run(capsys, "recognize-and1", src)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["paw.and"]


SUBCOMMANDS = (
    "gen", "realize", "verify", "check-order", "recognize-and1",
    "recognize-cand1", "to-boxes", "to-triangles", "glue", "render",
)


README = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md"
)


def readme_cli_rows():
    """(subcommand, options) for each row of the README's CLI table, both
    read from the row's command column."""
    with open(README, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    start = lines.index("| command | does | default output |")
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        command = line.split("|")[1].strip().strip("`")
        options = re.findall(r"(?<![\w-])--?[a-z][a-z0-9-]*", command)
        rows.append((command.split()[0], options))
    return rows


class TestReadmeCliTable:
    def test_every_documented_option_is_parsed(self):
        actions = cli.build_parser()._actions
        (sub,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
        rows = readme_cli_rows()
        assert [name for name, _ in rows] == list(SUBCOMMANDS)
        for name, flags in rows:
            assert set(flags) <= set(sub.choices[name]._option_string_actions), name

    def test_rows_name_their_options(self):
        rows = dict(readme_cli_rows())
        assert rows["realize"] == ["--cycle", "--eps", "--anchor", "-o"]
        assert rows["check-order"] == ["--codes-out", "--realize-out"]


def run_fresh(*argv):
    """`python -m andbox argv` in a new process: (exit code, stdout, stderr)."""
    src = os.path.dirname(os.path.dirname(andbox.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "andbox", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestOneParserPerProcess:
    """main() builds its parser on the first call and reuses it: a later
    call must answer as a fresh process would."""

    def test_no_state_leaks_between_calls(self, tmp_path, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli.build_parser.cache_clear()
        model = generate("random-interval", (7,), seed=11).aux
        dirs = {}
        for side in ("inproc", "fresh"):
            d = tmp_path / side
            d.mkdir()
            write_graph(d / "k23.and", complete_multipartite_graph([2, 3]))
            fileio.save_file(str(d / "model.iv"), "interval", model)
            dirs[side] = d
        steps = [
            (2, "realize --cycle 5 --bogus"),  # a usage error mid-parse
            (3, "recognize-cand1 {d}/k23.and --node-budget 0"),
            (1, "recognize-cand1 {d}/k23.and"),  # the default budget is back
            (0, "realize --cycle 5 -o {d}/cycle.real"),
            (0, "realize {d}/model.iv"),  # --cycle is back to None
        ]
        for k, (expected, cmd) in enumerate(steps):
            code, out, err = run(capsys, *cmd.format(d=dirs["inproc"]).split())
            fresh = run_fresh(*cmd.format(d=dirs["fresh"]).split())
            assert code == fresh[0] == expected, cmd
            assert out.split(" ")[0] == fresh[1].split(" ")[0], cmd
            assert err == fresh[2], cmd
            if k == 0:
                assert len(built) > 1  # the parser and its subparsers
                built.clear()
        assert built == []
        names = sorted(p.name for p in dirs["inproc"].iterdir())
        assert names == sorted(p.name for p in dirs["fresh"].iterdir())
        assert {"k23.witness", "cycle.real", "model.real"} <= set(names)
        for name in names:
            assert (dirs["inproc"] / name).read_bytes() == (
                dirs["fresh"] / name
            ).read_bytes(), name

    def test_help(self, capsys):
        texts = []
        for _ in range(2):
            code, out, err = run(capsys, "--help")
            assert code == 0 and err == ""
            texts.append(out)
        assert texts[0] == texts[1]
        code, out, _ = run_fresh("--help")
        assert code == 0
        listed = re.search(r"\{([a-z0-9,-]+)\}", out).group(1).split(",")
        assert listed == list(SUBCOMMANDS)


def test_python_dash_m_runs_the_cli(tmp_path):
    gp = write_graph(tmp_path / "k23.and", complete_multipartite_graph([2, 3]))
    code, out, err = run_fresh("recognize-and1", gp)
    assert code == 0, err
    assert VERDICT.fullmatch(out) and out.startswith("verdict=yes ")
    assert fileio.load_file(str(tmp_path / "k23.order"), "ordering") == (1, 2, 3, 4, 5)


def test_loads_only_the_standard_library():
    # pyproject.toml declares no dependencies: importing andbox and running
    # the CLI in a fresh interpreter may load standard-library modules and
    # andbox's own, besides what the interpreter loaded at start-up
    src = os.path.dirname(os.path.dirname(andbox.__file__))
    script = "\n".join([
        "import contextlib, io, sys",
        "before = set(sys.modules)",
        f"sys.path.insert(0, {src!r})",
        "import andbox",
        "from andbox import cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert cli.main(['--help']) == 0",
        "for name in sorted(set(sys.modules) - before):",
        "    if name.split('.')[0] not in sys.stdlib_module_names | {'andbox'}:",
        "        print(name)",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


@pytest.mark.skipif(
    shutil.which("andbox") is None, reason="console script not on PATH"
)
class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        out_g = tmp_path / "c.and"
        proc = subprocess.run(
            ["andbox", "gen", "--family", "cycle", "6", "-o", str(out_g)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert VERDICT.fullmatch(proc.stdout)
        assert edge_set(fileio.load_file(str(out_g), "graph")) == edge_set(
            cycle_graph(6)
        )
