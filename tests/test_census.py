"""The AND1 / CAND1 census of all 996 connected graphs with n <= 7.

Every graph is decided by both recognizers; the counts per (n, AND1
verdict, CAND1 verdict) are pinned and every `found` is re-verified
independently: the ordering by the naive quadruple scan, the
realization by verify, is_central and its point order.  This runs the
twin rule of the ordering kernel through both recognizers at n = 7.
The minimal CAND1 obstructions among the AND1 graphs are then read off
the same verdicts.  Digests pin every result byte for byte: the AND1 and
CAND1 answers on the atlas, and both on seeded disconnected graphs with
isolated vertices.  The AND1 verdicts are pinned apart from their
orderings, so a change of certificate that moves an ordering shows
whether any verdict moved with it.
"""

import hashlib
import random
from collections import Counter
from itertools import combinations

import pytest

from andbox.families import h_graph
from andbox.constructors import blockwise_cand1
from andbox.feasibility import cand1_recognize
from andbox.fileio import dumps_realization
from andbox.graphs import Graph
from andbox.orders import and1_recognize, certificate
from andbox.realization import is_central, r_order, verify

from conftest import naive_four_point_scan

# 787 graphs in both classes, 195 in AND1 only, 14 in neither
CENSUS = {
    (1, "found", "found"): 1,
    (2, "found", "found"): 1,
    (3, "found", "found"): 2,
    (4, "found", "found"): 6,
    (5, "found", "found"): 20,
    (5, "found", "not_member"): 1,  # K(2,3) = h(2,2,2)
    (6, "found", "found"): 99,
    (6, "found", "not_member"): 12,
    (6, "not_member", "not_member"): 1,  # K(2,2,2)
    (7, "found", "found"): 658,
    (7, "found", "not_member"): 182,
    (7, "not_member", "not_member"): 13,
}


@pytest.fixture(scope="module")
def census(connected_atlas):
    """(graph, AND1 result, CAND1 result) for every connected atlas graph."""
    return [(g, and1_recognize(g), cand1_recognize(g)) for g in connected_atlas]


def test_and1_cand1_census(census):
    counts = Counter()
    for g, a, c in census:
        counts[g.n, a.status, c.status] += 1
        if a.found:
            assert naive_four_point_scan(g, a.ordering) is None, g.edge_list()
        if c.found:
            r = c.realization
            assert verify(r, g).ok and is_central(r), g.edge_list()
            assert r_order(r) == c.ordering, g.edge_list()
    assert dict(counts) == CENSUS


def _ids(ordering) -> str:
    return "-" if ordering is None else " ".join(map(str, ordering))


def and1_text(a) -> str:
    return f"{a.status} {_ids(a.ordering)} {a.nodes}\n"


def cand1_text(c) -> str:
    text = f"{c.status} {_ids(c.ordering)} {c.orderings_tried} {c.cases_solved}\n"
    return text + (dumps_realization(c.realization) if c.found else "")


def digest(texts) -> str:
    return hashlib.sha256("".join(texts).encode()).hexdigest()


def disconnected_with_isolated(rng: random.Random) -> Graph:
    """n = 3..9 vertices: random edges on 2..7 of them, so at least one
    vertex is isolated and the graph is disconnected."""
    n = rng.randint(3, 9)
    rest = rng.sample(range(1, n + 1), rng.randint(2, min(7, n - 1)))
    p = rng.choice((0.4, 0.6, 0.8))
    return Graph.from_edges(n, [e for e in combinations(rest, 2) if rng.random() < p])


def test_and1_census_digest(census):
    # status, ordering and nodes of every atlas graph
    assert digest(and1_text(a) for _, a, _ in census) == (
        "170515a9c25178b06d452a56de94ac8a0a440809ada04008113dc5d8d8f44bcc"
    )


def test_and1_status_digest(census):
    # the verdicts alone, which a change of certificate or search order
    # must keep
    assert digest(f"{a.status}\n" for _, a, _ in census) == (
        "1e9d3392dbf804fc6fde671cb23dbf35c5919922e35676397b59e3d2488c958f"
    )


def test_and1_certified_in_zero_nodes(census):
    # the 330 interval graphs an umbrella-free sweep orders and the 106
    # graphs of cliques and outerplanar blocks that blockwise_cand1 orders
    assert sum(a.found and a.nodes == 0 for _, a, _ in census) == 436


def test_cand1_census_digest(census):
    # status, ordering, orderings_tried, cases_solved and the .real text
    assert digest(cand1_text(c) for _, _, c in census) == (
        "37cf6499385177ad65335e08505701dad057d6997a4ae514702afc87f6c761d8"
    )


def test_disconnected_isolated_vertices_digest():
    rng = random.Random(29)
    graphs = [disconnected_with_isolated(rng) for _ in range(200)]
    assert all(not g.is_connected() and min(map(g.degree, g.vertices())) == 0 for g in graphs)
    texts = (and1_text(and1_recognize(g)) + cand1_text(cand1_recognize(g)) for g in graphs)
    assert digest(texts) == "d75d0854afa5f4c1edd1bf1a6769311cbe7053ac1c77838982020dfddd102782"


def test_certificates_split_the_central_graphs(census):
    # A component the constructions realize costs no order and no solve;
    # the interval model is tried first, then the block-wise build.  Every
    # certified realization passed cand1_recognize's exact re-check.
    split = Counter()
    for g, _, c in census:
        cert = certificate(g)
        if cert is not None and cert[3] is None:
            kind = "interval"
        elif blockwise_cand1(g) is not None:
            kind = "block-wise"
        else:
            kind = c.status
        certified = (c.status, c.orderings_tried, c.cases_solved) == ("found", 0, 0)
        assert certified == (kind != c.status), g.edge_list()
        split[kind] += 1
    assert split == {"interval": 330, "block-wise": 106, "found": 351, "not_member": 209}


def test_minimal_cand1_obstructions_among_and1_graphs(census):
    # A graph is central iff every component is, and every component of a
    # vertex-deleted subgraph is a smaller connected atlas graph, so the
    # census verdicts decide each one up to isomorphism.
    nx = pytest.importorskip("networkx")

    def to_nx(g):
        G = nx.Graph()
        G.add_nodes_from(g.vertices())
        G.add_edges_from(g.edge_list())
        return G

    def key(G):
        return tuple(sorted(d for _, d in G.degree()))

    verdicts = {}  # degree sequence -> [(graph, central?)]
    for g, _, c in census:
        G = to_nx(g)
        verdicts.setdefault(key(G), []).append((G, c.found))

    def central(H):
        for comp in nx.connected_components(H):
            C = H.subgraph(comp)
            (ok,) = [ok for G, ok in verdicts[key(C)] if nx.is_isomorphic(G, C)]
            if not ok:
                return False
        return True

    minimal = []
    for g, a, c in census:
        if a.found and not c.found:
            G = to_nx(g)
            if all(central(G.subgraph(set(G) - {v})) for v in G):
                minimal.append(G)
    assert sorted((G.number_of_nodes(), G.number_of_edges()) for G in minimal) == [
        (5, 6), (6, 7), (7, 8), (7, 8), (7, 9), (7, 9), (7, 10), (7, 13), (7, 13),
    ]
    # four of them are the paper's three-path graphs
    for lengths in ((2, 2, 2), (2, 2, 3), (2, 3, 3), (2, 2, 4)):
        H = to_nx(h_graph(*lengths).graph)
        assert sum(nx.is_isomorphic(G, H) for G in minimal) == 1, lengths
