"""Command-line front end.

Subcommands: gen, realize, verify, check-order, recognize-and1,
recognize-cand1, to-boxes, to-triangles, glue, render.

Exit codes: 0 success or membership YES; 1 membership NO (a witness file
is written); 2 usage or format error, an input too large to allocate
included; 3 search budget exhausted.  On every non-error run stdout
carries one line "verdict=<yes|no|exhausted> time_ms=<t>".

main() builds its parser once per process, on its first call, and reuses
it for every later call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from . import fileio
from .constructors import (
    blockwise_cand1,
    cycle_cand1,
    glue_at_safe_vertex,
    interval_to_cand1,
    outerplanar_cand1,
    rdp_ordering,
)
from .families import (
    IntervalModel,
    OuterplanarModel,
    RootedPathModel,
    family_names,
    generate,
)
from .feasibility import cand1_recognize
from .orders import (
    DEFAULT_NODE_BUDGET,
    FourPointViolationError,
    and1_recognize,
    implicit_encode,
    realization_from_codes,
    realization_from_ordering,
)
from .realization import verify
from .svg import render_realization_svg


class UsageError(ValueError):
    pass


def _stem(path: str) -> str:
    return os.path.splitext(path)[0]


def _out(args, default: str) -> str:
    return args.output if args.output else default


def _witness(args, default: str) -> str:
    return args.witness_out if args.witness_out else default


def _cmd_gen(args) -> str:
    bundle = generate(args.family, args.params, seed=args.seed)
    save_aux = {
        IntervalModel: fileio.save_interval_model,
        OuterplanarModel: fileio.save_outerplanar_model,
        RootedPathModel: fileio.save_rooted_path_model,
    }.get(type(bundle.aux))
    if args.aux_out and save_aux is None:
        raise UsageError(f"family {args.family} has no writable auxiliary model")
    fileio.save_graph(args.output, bundle.graph)
    if args.aux_out:
        save_aux(args.aux_out, bundle.aux)
    return "yes"


def _cmd_realize(args) -> str:
    if (args.input is None) == (args.cycle is None):
        raise UsageError("give exactly one of: an input model file, --cycle")
    if args.cycle is not None:
        if not args.output:
            raise UsageError("-o is required with --cycle")
        eps = fileio.parse_rational("1/2" if args.eps is None else args.eps)
        anchor = 1 if args.anchor is None else args.anchor
        r = cycle_cand1(args.cycle, eps, anchor=anchor)
        out = args.output
    else:
        if args.eps is not None or args.anchor is not None:
            raise UsageError("--eps and --anchor apply only with --cycle")
        text = fileio._read(args.input)
        kind = fileio.sniff_format(text)
        if kind == "interval":
            r = interval_to_cand1(fileio.loads_interval_model(text, args.input))
        elif kind == "outerplanar":
            r = outerplanar_cand1(
                fileio.loads_outerplanar_model(text, args.input)
            )
        elif kind == "rootedpath":
            model = fileio.loads_rooted_path_model(text, args.input)
            order = rdp_ordering(model)
            r = realization_from_ordering(model.intersection_graph(), order)
        elif kind == "graph":
            # the one block-tree construction; recognize-cand1 is the
            # command that tries every construction and then searches
            g = fileio.loads_graph(text, args.input)
            if not g.is_connected():
                raise UsageError(
                    f"{args.input}: the graph is not connected; "
                    "recognize-cand1 realizes each component"
                )
            r = blockwise_cand1(g)
            if r is None:
                raise UsageError(
                    f"{args.input}: a block is neither a clique nor outerplanar"
                )
        else:
            raise UsageError(f"cannot realize a {kind} file")
        out = _out(args, _stem(args.input) + ".real")
    fileio.save_realization(out, r)
    return "yes"


def _cmd_verify(args) -> str:
    r = fileio.load_realization(args.realization)
    g = fileio.load_graph(args.graph)
    report = verify(r, g)
    if report.ok:
        return "yes"
    lines = [f"missing {u} {v}" for u, v in report.missing_edges]
    lines += [f"extra {u} {v}" for u, v in report.extra_edges]
    fileio.atomic_write_text(
        _witness(args, _stem(args.realization) + ".witness"),
        "\n".join(lines) + "\n",
    )
    return "no"


def _cmd_check_order(args) -> str:
    g = fileio.load_graph(args.graph)
    order = fileio.load_ordering(args.ordering)
    try:
        codes = implicit_encode(g, order)  # the one four point check
    except FourPointViolationError as e:
        w = e.violation
        fileio.atomic_write_text(
            _witness(args, _stem(args.ordering) + ".witness"),
            f"violation {w.x} {w.u} {w.v} {w.y}\n",
        )
        return "no"
    if args.codes_out:
        fileio.save_implicit_codes(args.codes_out, codes)
    if args.realize_out:
        fileio.save_realization(args.realize_out, realization_from_codes(codes))
    return "yes"


def _cmd_recognize_and1(args) -> str:
    g = fileio.load_graph(args.graph)
    res = and1_recognize(g, budget=args.node_budget)
    if res.found:
        fileio.save_ordering(_out(args, _stem(args.graph) + ".order"), res.ordering)
        return "yes"
    if res.status == "not_member":
        fileio.atomic_write_text(
            _witness(args, _stem(args.graph) + ".witness"),
            "c no vertex ordering satisfies the four point condition\n"
            f"exhaustive nodes {res.nodes}\n",
        )
        return "no"
    return "exhausted"


def _cmd_recognize_cand1(args) -> str:
    g = fileio.load_graph(args.graph)
    res = cand1_recognize(g, budget=args.node_budget)
    if res.found:
        fileio.save_realization(_out(args, _stem(args.graph) + ".real"), res.realization)
        return "yes"
    if res.status == "not_member":
        fileio.atomic_write_text(
            _witness(args, _stem(args.graph) + ".witness"),
            "c no point order admits a central realization\n"
            f"exhaustive orderings {res.orderings_tried}"
            f" cases {res.cases_solved}\n",
        )
        return "no"
    return "exhausted"


def _cmd_to_boxes(args) -> str:
    r = fileio.load_realization(args.realization)
    fileio.save_corner_boxes(_out(args, _stem(args.realization) + ".boxes"), r)
    return "yes"


def _cmd_to_triangles(args) -> str:
    r = fileio.load_realization(args.realization)
    fileio.save_semisquares(_out(args, _stem(args.realization) + ".tri"), r)
    return "yes"


def _cmd_glue(args) -> str:
    r1 = fileio.load_realization(args.real1)
    r2 = fileio.load_realization(args.real2)
    glued = glue_at_safe_vertex(r1, args.w1, r2, args.w2)
    fileio.save_realization(
        _out(args, _stem(args.real1) + "-glued.real"), glued
    )
    return "yes"


def _cmd_render(args) -> str:
    r = fileio.load_realization(args.realization)
    fileio.atomic_write_text(
        _out(args, _stem(args.realization) + ".svg"), render_realization_svg(r)
    )
    return "yes"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and shared
    by every later one: parsing never changes it, and each handler looks
    its library functions up when it runs."""
    parser = argparse.ArgumentParser(
        prog="andbox",
        description="box-and-representative-point graph model toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family graph (and aux model)")
    p.add_argument("--family", required=True, choices=family_names())
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--aux-out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser(
        "realize",
        help="build a realization from a model file, a graph file whose"
        " blocks are cliques or outerplanar, or --cycle: central, except the"
        " ordering's integer realization for a rooted-path model",
    )
    p.add_argument("input", nargs="?")
    p.add_argument("-o", "--output")
    p.add_argument("--cycle", type=int, help="realize a cycle of this size")
    p.add_argument(
        "--eps", help="cycle slack, rational in (0,1); 1/2 when not given"
    )
    p.add_argument(
        "--anchor", type=int, help="cycle vertex left safe; 1 when not given"
    )
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("verify", help="check a realization against a graph")
    p.add_argument("realization")
    p.add_argument("graph")
    p.add_argument("--witness-out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "check-order", help="test an ordering for the four point condition"
    )
    p.add_argument("graph")
    p.add_argument("ordering")
    p.add_argument("--witness-out")
    p.add_argument("--codes-out", help="write implicit rank codes on success")
    p.add_argument(
        "--realize-out", help="write the ordering's realization on success"
    )
    p.set_defaults(func=_cmd_check_order)

    p = sub.add_parser(
        "recognize-and1", help="search for a four-point-free ordering"
    )
    p.add_argument("graph")
    p.add_argument("-o", "--output")
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--witness-out")
    p.set_defaults(func=_cmd_recognize_and1)

    p = sub.add_parser(
        "recognize-cand1", help="search for a central realization"
    )
    p.add_argument("graph")
    p.add_argument("-o", "--output")
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--witness-out")
    p.set_defaults(func=_cmd_recognize_cand1)

    p = sub.add_parser("to-boxes", help="corner boxes of a realization")
    p.add_argument("realization")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_to_boxes)

    p = sub.add_parser(
        "to-triangles", help="semi-squares of a central realization"
    )
    p.add_argument("realization")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_to_triangles)

    p = sub.add_parser("glue", help="glue two realizations at a safe vertex")
    p.add_argument("real1")
    p.add_argument("w1", type=int)
    p.add_argument("real2")
    p.add_argument("w2", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_glue)

    p = sub.add_parser("render", help="two-panel SVG of a realization")
    p.add_argument("realization")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        verdict = args.func(args)
    except (OSError, ValueError, OverflowError, MemoryError) as e:
        # a graph too large to allocate is bad input, not a "no" verdict
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    print(f"verdict={verdict} time_ms={elapsed_ms}")
    return {"yes": 0, "no": 1, "exhausted": 3}[verdict]


if __name__ == "__main__":
    sys.exit(main())
