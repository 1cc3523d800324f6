"""Acceptance gate: twelve checks, one reported line each.

Each test times its core computation, then hands verdict, elapsed time
and budget to the session recorder; the terminal summary prints one
PASS/FAIL line per check.  Checks 7 to 9 feed every central realization
they build into a shared pool that the final check replays through the
triangle contact model.
"""

import random
import time
from fractions import Fraction as F

from conftest import (
    cone_witness,
    edge_set,
    grid_feasible,
    naive_accepts_some_ordering,
    one_chord_polygon,
    random_cone_system,
    read_corner_boxes,
    read_semisquares,
    reference_corner_box_edges,
    reference_semisquare_edges,
    satisfies_all,
)
from andbox import fileio
from andbox.boxes import semisquare_intersection_graph
from andbox.constructors import (
    blockwise_cand1,
    clique_cand1,
    cycle_cand1,
    h_graph_ordering,
    interval_to_cand1,
    outerplanar_cand1,
    rdp_ordering,
)
from andbox.families import (
    RootedPathModel,
    h_graph,
    random_block_graph,
    random_dissection,
    random_interval,
    random_rooted_path,
)
from andbox.feasibility import cand1_recognize
from andbox.graphs import (
    complete_multipartite_graph,
    cycle_graph,
    has_double_nonadjacent_common_neighbors,
)
from andbox.orders import (
    and1_recognize,
    cycle_label_analysis,
    four_point_check,
    realization_from_ordering,
)
from andbox.realization import (
    Realization,
    adjacency_pairs,
    is_central,
    is_safe,
    verify,
)

PAW_EDGES = {(1, 2), (1, 3), (2, 3), (3, 4)}


def as_pairs(g):
    return sorted_pairs(edge_set(g))


def sorted_pairs(edges):
    return {tuple(sorted(e)) for e in edges}


def test_check_01_worked_box_point_instance(acceptance_record):
    t0 = time.perf_counter()
    r = Realization.build(
        1,
        {
            1: ((F(1), F(9, 2)), F(2)),
            2: ((F(1, 2), F(19, 4)), F(3)),
            3: ((F(3, 2), F(11, 2)), F(4)),
            4: ((F(9, 4), F(13, 2)), F(5)),
        },
    )
    edges_ok = adjacency_pairs(r) == PAW_EDGES
    text = fileio.dumps_corner_boxes(r)
    boxes = read_corner_boxes(text)
    corners_ok = all(
        (xside[0], yside[0]) == (point[0], -point[0])
        for (_, factors), (_, _, point) in zip(boxes, r.items())
        for xside, yside in factors
    ) and [v for v, _ in boxes] == list(r.ids)
    graph_ok = sorted_pairs(reference_corner_box_edges(boxes)) == PAW_EDGES
    elapsed = time.perf_counter() - t0
    acceptance_record(
        1,
        "worked 4-vertex instance reproduced, corner boxes on the antidiagonal",
        edges_ok and corners_ok and graph_ok,
        elapsed,
        0.001,
    )


def test_check_02_small_graphs_match_naive_scan(
    acceptance_record, connected_atlas
):
    t0 = time.perf_counter()
    mismatches = []
    bad_orderings = []
    excluded = 0
    for g in connected_atlas:
        res = and1_recognize(g)
        accepted = naive_accepts_some_ordering(g)
        if res.found != accepted or res.status == "exhausted":
            mismatches.append(g)
            continue
        if res.found:
            rep = verify(realization_from_ordering(g, res.ordering), g)
            if not (rep.ok and not rep.missing_edges and not rep.extra_edges):
                bad_orderings.append(g)
        else:
            excluded += 1
    elapsed = time.perf_counter() - t0
    acceptance_record(
        2,
        "search agrees with the naive quadruple scan on all graphs up to n=7",
        not mismatches and not bad_orderings,
        elapsed,
        600.0,
        f"{len(connected_atlas)} graphs, {excluded} excluded",
    )


def test_check_03_complete_bipartite_2_3_separation(acceptance_record):
    g = complete_multipartite_graph([2, 3])
    t0 = time.perf_counter()
    res_and = and1_recognize(g)
    and_ok = res_and.found and verify(
        realization_from_ordering(g, res_and.ordering), g
    ).ok
    res_c = cand1_recognize(g)
    cand_ok = (
        res_c.status == "not_member"
        and res_c.orderings_tried == 2
        and res_c.cases_solved == 2
    )
    elapsed = time.perf_counter() - t0
    acceptance_record(
        3,
        "K(2,3) admits a box-and-point model but no central one",
        and_ok and cand_ok,
        elapsed,
        10.0,
        f"orderings {res_c.orderings_tried}, cases {res_c.cases_solved}",
    )


def test_check_04_octahedron_exclusion(acceptance_record):
    g = complete_multipartite_graph([2, 2, 2])
    t0 = time.perf_counter()
    predicate_ok = has_double_nonadjacent_common_neighbors(g)
    res = and1_recognize(g)
    elapsed = time.perf_counter() - t0
    acceptance_record(
        4,
        "octahedron meets the exclusion predicate and the search rejects it",
        predicate_ok and res.status == "not_member" and res.nodes == 60,
        elapsed,
        5.0,
        f"nodes {res.nodes}",
    )


def test_check_05_h_family_membership_sides(acceptance_record):
    specs = [
        (lx, ly, lz)
        for lx in (2, 3)
        for ly in range(lx, 6)
        for lz in range(ly, 6)
    ]
    t0 = time.perf_counter()
    bad = []
    central_rejections = 0
    for lx, ly, lz in specs:
        bundle = h_graph(lx, ly, lz)
        o = h_graph_ordering(bundle.aux)
        if four_point_check(bundle.graph, o) is not None:
            bad.append((lx, ly, lz, "violation"))
            continue
        if not verify(
            realization_from_ordering(bundle.graph, o), bundle.graph
        ).ok:
            bad.append((lx, ly, lz, "verify"))
            continue
        if bundle.graph.n <= 6:
            if cand1_recognize(bundle.graph).status != "not_member":
                bad.append((lx, ly, lz, "central"))
            else:
                central_rejections += 1
    elapsed = time.perf_counter() - t0
    acceptance_record(
        5,
        "h graphs with short first chain are members, small ones never central",
        not bad,
        elapsed,
        300.0,
        f"{len(specs)} instances, {central_rejections} central rejections"
        + (f", failures {bad[:3]}" if bad else ""),
    )


def test_check_06_h444_exclusion_within_budget(acceptance_record):
    g = h_graph(4, 4, 4).graph
    t0 = time.perf_counter()
    res = and1_recognize(g)
    if res.status == "not_member":
        ok = res.nodes == 34_887
        detail = f"nodes {res.nodes}"
    elif res.status == "exhausted":
        # fallback evidence: a large random sample of orderings, all failing
        rng = random.Random(64)
        verts = list(g.vertices())
        ok = True
        for _ in range(10**6):
            rng.shuffle(verts)
            if four_point_check(g, tuple(verts)) is None:
                ok = False
                break
        detail = "budget exhausted, 10^6 random orderings all fail"
    else:
        ok = False
        detail = f"unexpected status {res.status}"
    elapsed = time.perf_counter() - t0
    acceptance_record(
        6, "h(4,4,4) rejected by the pruned search", ok, elapsed, 600.0, detail
    )


def test_check_07_cycle_constructions(acceptance_record, central_pool):
    t0 = time.perf_counter()
    bad = []
    built = 0
    for n in range(3, 33):
        g = cycle_graph(n)
        for eps in (F(1, 4), F(1, 2), F(3, 4)):
            r = cycle_cand1(n, eps)
            rep = cycle_label_analysis(r)
            if not (
                verify(r, g).ok
                and is_central(r)
                and is_safe(r, 1)
                and rep.extremes_adjacent
                and rep.max_deviation == 0
            ):
                bad.append((n, eps))
                continue
            central_pool.append(r)
            built += 1
    recognized = 0
    for n in range(3, 9):
        g = cycle_graph(n)
        res = and1_recognize(g)
        r = realization_from_ordering(g, res.ordering)
        if not (res.found and cycle_label_analysis(r).max_deviation <= 1):
            bad.append((n, "recognized"))
        else:
            recognized += 1
    elapsed = time.perf_counter() - t0
    acceptance_record(
        7,
        "cycles: central models are tight, recognized orderings nearly so",
        not bad,
        elapsed,
        60.0,
        f"{built} central models, {recognized} recognized orderings",
    )


def test_check_08_interval_models(acceptance_record, central_pool):
    rng = random.Random(8)
    t0 = time.perf_counter()
    bad = []
    for i in range(200):
        n = rng.randint(1, 40)
        bundle = random_interval(n, seed=rng.randrange(2**30))
        r = interval_to_cand1(bundle.aux)
        rep = verify(r, bundle.graph)
        if not (rep.ok and is_central(r)):
            bad.append((i, n, "verify"))
            continue
        if r.den != 1:
            bad.append((i, n, "integer"))
            continue
        central_pool.append(r)
    elapsed = time.perf_counter() - t0
    acceptance_record(
        8,
        "200 interval models realize centrally with integer coordinates",
        not bad,
        elapsed,
        120.0,
        f"failures {bad[:3]}" if bad else "200 models",
    )


def test_check_09_dissections_and_block_graphs(acceptance_record, central_pool):
    rng = random.Random(9)
    t0 = time.perf_counter()
    bad = []
    for i in range(100):
        bundle = random_dissection(rng.randint(3, 30), seed=rng.randrange(2**30))
        r = outerplanar_cand1(bundle.aux)
        if not (verify(r, bundle.graph).ok and is_central(r)):
            bad.append(("dissection", i))
            continue
        central_pool.append(r)
    for i in range(100):
        bundle = random_block_graph(rng.randint(1, 30), seed=rng.randrange(2**30))
        r = blockwise_cand1(bundle.graph)
        if not (verify(r, bundle.graph).ok and is_central(r)):
            bad.append(("block", i))
            continue
        central_pool.append(r)
    elapsed = time.perf_counter() - t0
    acceptance_record(
        9,
        "100 dissections and 100 block graphs assemble without edge drift",
        not bad,
        elapsed,
        300.0,
        f"failures {bad[:3]}" if bad else "200 graphs",
    )


def test_check_10_rooted_path_orderings(acceptance_record):
    t0 = time.perf_counter()
    worked = RootedPathModel(
        {1: 0, 2: 1, 3: 2, 4: 2, 5: 4, 6: 1, 7: 6, 8: 6, 9: 8, 10: 8},
        {
            1: (8, 10),
            2: (2, 3),
            3: (4, 5),
            4: (1, 6, 7),
            5: (1, 2, 4),
            6: (1, 6, 8),
            7: (6, 8, 9),
        },
    )
    worked_ok = rdp_ordering(worked) == (1, 7, 6, 4, 3, 5, 2)
    rng = random.Random(10)
    bad = []
    for i in range(100):
        bundle = random_rooted_path(
            rng.randint(1, 30), seed=rng.randrange(2**30)
        )
        o = rdp_ordering(bundle.aux)
        if four_point_check(bundle.graph, o) is not None or not verify(
            realization_from_ordering(bundle.graph, o), bundle.graph
        ).ok:
            bad.append(i)
    elapsed = time.perf_counter() - t0
    acceptance_record(
        10,
        "rooted path models order exactly as worked out, 100 random ones pass",
        worked_ok and not bad,
        elapsed,
        60.0,
        "order (1,7,6,4,3,5,2)" if worked_ok else "worked instance mismatch",
    )


def test_check_11_feasibility_against_grid(acceptance_record):
    rng = random.Random(11)
    t0 = time.perf_counter()
    bad = 0
    feasible = infeasible = grid_hits = 0
    for _ in range(1000):
        rows, k, _ = random_cone_system(rng)
        w = cone_witness(rows, k)
        if w is not None:
            feasible += 1
            if not satisfies_all(rows, w):
                bad += 1
                continue
        else:
            infeasible += 1
        if grid_feasible(rows, k):
            grid_hits += 1
            if w is None:
                bad += 1
    elapsed = time.perf_counter() - t0
    acceptance_record(
        11,
        "elimination agrees with grid search on 1000 systems, witnesses exact",
        bad == 0 and feasible > 0 and infeasible > 0,
        elapsed,
        60.0,
        f"{feasible} feasible, {infeasible} infeasible, {grid_hits} grid hits",
    )


def test_check_12_triangle_model_equivalence(acceptance_record, central_pool):
    # regenerate a deterministic batch so the check also bites when run alone
    regenerated = [cycle_cand1(n, F(1, 2)) for n in range(3, 13)]
    regenerated += [clique_cand1(list(range(1, k + 1))) for k in range(1, 7)]
    regenerated += [
        outerplanar_cand1(one_chord_polygon(n, m, (1, 2)))
        for n, m in ((3, 3), (3, 4), (4, 4), (6, 5))
    ]
    for s in range(5):
        regenerated.append(interval_to_cand1(random_interval(12, seed=s).aux))
        regenerated.append(outerplanar_cand1(random_dissection(10, seed=s).aux))
        regenerated.append(
            blockwise_cand1(random_block_graph(15, seed=s).graph)
        )
    t0 = time.perf_counter()
    bad = 0
    for r in list(central_pool) + regenerated:
        # each triangle from the .tri encoding: corner p, leg R - p
        text = fileio.dumps_semisquares(r)
        expected = adjacency_pairs(r)
        if (
            sorted_pairs(reference_semisquare_edges(read_semisquares(text))) != expected
            or as_pairs(semisquare_intersection_graph(fileio.loads_semisquares(text))) != expected
        ):
            bad += 1
    elapsed = time.perf_counter() - t0
    acceptance_record(
        12,
        "triangle contact graph matches every central realization in the suite",
        bad == 0,
        elapsed,
        60.0,
        f"{len(central_pool)} pooled + {len(regenerated)} regenerated",
    )
