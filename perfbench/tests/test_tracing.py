import sys

import pytest

import tracing
from tracing import Span, Tracer, fileio_io, summarize


def span(name, start, end, parent, counts=None):
    s = Span(name, name.split(".")[0], start, parent, 0)
    s.end = end
    s.counts = counts
    return s


def test_self_time_of_nested_spans():
    # cli.main [0,10] > orders.a [1,4], orders.b [5,9] > orders.a [6,7]
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("orders.a", 1.0, 4.0, 0),
        span("orders.b", 5.0, 9.0, 0),
        span("orders.a", 6.0, 7.0, 2),
    ]
    s = summarize(spans)
    fns, layers = s["functions"], s["layers"]
    assert fns["cli.main"]["self_s"] == pytest.approx(3.0)
    assert fns["orders.b"]["self_s"] == pytest.approx(3.0)
    assert fns["orders.a"]["self_s"] == pytest.approx(4.0)
    assert fns["orders.a"]["calls"] == 2
    # the inner orders.a is not nested in another orders.a: both count
    assert fns["orders.a"]["busy_s"] == pytest.approx(4.0)
    # but the layer's busy time counts orders.b's child only once
    assert layers["orders"]["busy_s"] == pytest.approx(7.0)
    assert layers["orders"]["self_s"] == pytest.approx(7.0)
    assert layers["cli"]["self_s"] == pytest.approx(3.0)


def test_recursive_span_counts_busy_once():
    spans = [span("feasibility.f", 0.0, 5.0, -1), span("feasibility.f", 1.0, 3.0, 0)]
    f = summarize(spans)["functions"]["feasibility.f"]
    assert f["busy_s"] == pytest.approx(5.0)
    assert f["self_s"] == pytest.approx(5.0)


def test_fileio_counts_outermost_spans_only():
    spans = [
        span("fileio.save_graph", 0.0, 2.0, -1, {"bytes": 10}),
        span("fileio.atomic_write_text", 0.5, 1.5, 0, {"bytes": 10}),
        span("fileio.atomic_write_text", 3.0, 4.0, -1, {"bytes": 7}),
        span("fileio.load_graph", 5.0, 6.0, -1, {"bytes": 4}),
        span("fileio.loads_graph", 5.1, 5.9, 3, {"bytes": 4}),
    ]
    assert fileio_io(spans, "save") == {"calls": 2, "busy_s": 3.0, "bytes": 17}
    assert fileio_io(spans, "load") == {"calls": 1, "busy_s": 1.0, "bytes": 4}


def test_wrapper_records_parent_and_counts():
    t = Tracer()
    inner = t.wrap("orders.inner", "orders", lambda x: x + 1, lambda a, r: {"seen": r})
    outer = t.wrap("cli.outer", "cli", lambda x: inner(x) * 2)
    t.op = 7
    assert outer(1) == 4
    assert [(s.name, s.parent, s.op) for s in t.spans] == [("cli.outer", -1, 7), ("orders.inner", 0, 7)]
    assert t.spans[1].counts == {"seen": 2}
    assert t.spans[0].start <= t.spans[1].start <= t.spans[1].end <= t.spans[0].end


def test_install_rebinds_every_lookup_and_uninstall_restores():
    from andbox import cli, feasibility, graphs, kernels, orders, realization  # noqa: F401

    originals = (realization.verify, cli.verify, feasibility.four_point_check, kernels.search_order)
    t = Tracer()
    t.install()
    try:
        assert cli.verify is realization.verify is not originals[0]
        assert feasibility.four_point_check is orders.four_point_check
        assert cli.four_point_check is orders.four_point_check
        assert sys.modules["andbox"].verify is realization.verify
        g = graphs.Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
        res = orders.and1_recognize(g)
        names = [s.name for s in t.spans]
        assert "kernels.search_order" in names and "orders.and1_recognize" in names
        node_spans = [s for s in t.spans if s.name == "kernels.search_order"]
        assert sum(s.counts["nodes"] for s in node_spans) == res.nodes
        # per-element helpers and private functions stay unwrapped
        assert not any(n.endswith(("has_edge", "_contains", "parse_rational")) for n in names)
    finally:
        t.uninstall()
    assert (realization.verify, cli.verify, feasibility.four_point_check, kernels.search_order) == originals
    assert graphs.Graph.from_edges(2, [(1, 2)]).m == 1


def test_layer_metrics_cover_every_layer_and_units():
    m = tracing.layer_metrics([])
    for layer in tracing.LAYERS:
        assert m[f"{layer}.self_s"] == 0
    assert tracing.unit_of("kernels.nodes_per_s") == "1/s"
    assert tracing.unit_of("cli.main.self_s") == "s"
    assert tracing.unit_of("fileio.load.bytes") == "B"
    assert tracing.unit_of("orders.four_point_check.pass_ratio") == "1"
    assert tracing.unit_of("kernels.search_order.calls") == "count"
