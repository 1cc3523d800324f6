"""The AND1 / CAND1 census of all 996 connected graphs with n <= 7.

Every graph is decided by both recognizers; the counts per (n, AND1
verdict, CAND1 verdict) are pinned and every `found` is re-verified
independently: the ordering by the naive quadruple scan, the
realization by verify, is_central and its point order.  This runs the
twin rule of the ordering kernel through both recognizers at n = 7.
"""

from collections import Counter

from andbox.feasibility import cand1_recognize
from andbox.orders import and1_recognize
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


def test_and1_cand1_census(connected_atlas):
    census = Counter()
    for g in connected_atlas:
        a = and1_recognize(g)
        c = cand1_recognize(g)
        census[g.n, a.status, c.status] += 1
        if a.found:
            assert naive_four_point_scan(g, a.ordering.order) is None, g.edge_list()
        if c.found:
            r = c.realization
            assert verify(r, g).ok and is_central(r), g.edge_list()
            assert r_order(r) == c.ordering.order, g.edge_list()
    assert dict(census) == CENSUS
