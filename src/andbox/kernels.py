"""Ordering search kernel.

Backtracking search for vertex orderings satisfying the four point
condition (no ranks i < j < k < l with edges (i,k), (j,l) and non-edge
(j,k)), in two modes over one walk: orderings() enumerates those with
every twin class in increasing index (see the twin rule) and
search_order() stops at the first.  Vertices are 0-indexed here;
adjacency comes in as bitmasks (Python ints, so any n).

Violation test: placed rank k *blocks* rank j < k when order[k] is not
adjacent to order[j] but has a neighbour ranked before j.  Placing a
vertex adjacent to a blocked rank closes a quadruple, at this rank or any
later one, so the neighbours of the blocked ranks are *dead*: they can
never be placed after the prefix.  The ranks a placement blocks are fixed
once it is placed, so blocked[m + 1] follows from blocked[m], the ranks
blocked by the first m placements, and backtracking needs no undo.

Look-ahead (forward checking): a prefix is kept only while no unplaced
vertex is dead.  So the next candidate is never dead itself, and every
vertex killed by earlier placements is already placed: the one test per
candidate is whether the neighbours of the ranks it newly blocks include
an unplaced vertex, and no dead mask needs to be stored.

Twin rule: twins (vertices with equal open or equal closed
neighbourhoods) are placed in increasing index.  Swapping two twins is a
graph automorphism, so it maps a passing ordering to a passing one, and
sorting every twin class lowers order[0] and raises order[-1].  A
vertex cannot have both an open and a closed twin (if N(u) = N(w) and
N[u] = N[v], then v is in N(w), so w is in N[v] = N[u] and thus in
N(w)), so one predecessor per vertex suffices: v is a candidate only
once pred[v], its previous twin, is placed.

Node accounting, shared by both modes: one node = one placement tried
(the root placement or a prefix extension); it is rejected when it
leaves an unplaced vertex dead.  Candidates skipped by the
reversal-symmetry rule or the twin rule are not tried and not counted.
"""

from __future__ import annotations

# the statuses are the strings the recognizers report
FOUND = "found"
NOT_MEMBER = "not_member"
EXHAUSTED = "exhausted"


def backend_name() -> str:
    return "pure-python"


def search_order(nbr_masks, budget):
    """The first item of orderings(): (FOUND, the lexicographically first
    passing ordering, nodes), or the final (NOT_MEMBER or EXHAUSTED, [],
    nodes) of a walk that found none."""
    return next(orderings(nbr_masks, budget))


def orderings(nbr_masks, budget):
    """Yield (FOUND, order, nodes) for every ordering passing the four
    point condition with order[0] < order[-1] and every twin class in
    increasing index, in lexicographic order, then one (NOT_MEMBER, [],
    nodes) when the walk completes or one (EXHAUSTED, [], nodes) when the
    budget runs out.  order lists vertex indices and nodes counts the
    placements tried so far.

    Each {ordering, reversal} pair is met once, and the first passing
    ordering always qualifies (its reversal would otherwise be smaller);
    its twins are in order too, since swapping an out-of-order twin pair
    gives a smaller passing ordering.  The look-ahead prunes only
    prefixes that no passing ordering extends.
    """
    n = len(nbr_masks)
    if n == 0:
        yield (FOUND, [], 0)
        yield (NOT_MEMBER, [], 0)
        return

    pred = [0] * n  # pred[v]: bit of v's previous twin, or 0
    last = {}  # open neighbourhood, or ~closed neighbourhood -> last vertex
    for v, nb in enumerate(nbr_masks):
        for key in (nb, ~(nb | 1 << v)):
            if key in last:
                pred[v] = 1 << last[key]
            last[key] = v

    order = []
    rankmask = [0] * n  # rankmask[v]: bit j set iff order[j] is adjacent to v
    blocked = [0] * n  # blocked[m]: ranks blocked by order[:m]
    resume = [0] * n  # resume[m]: next candidate index to try at rank m
    used = 0
    nodes = 0
    m = 0

    while True:
        w = resume[m]
        limit = n - 1 if (m == 0 and n > 1) else n
        B = blocked[m]
        while w < limit:
            if used >> w & 1 or pred[w] & ~used or (m == n - 1 and n > 1 and w < order[0]):
                w += 1
                continue
            if nodes >= budget:
                yield (EXHAUSTED, [], nodes)
                return
            nodes += 1
            W = rankmask[w]
            if W:
                # w newly blocks the ranks after its lowest neighbour that it
                # misses; reject w if one of them has an unplaced neighbour
                low = (W & -W).bit_length() - 1
                new = x = ((1 << m) - (2 << low)) & ~W & ~B
                free = ~(used | 1 << w)
                while x:
                    if nbr_masks[order[(x & -x).bit_length() - 1]] & free:
                        break
                    x &= x - 1
                if x:
                    w += 1
                    continue
                B |= new
            break
        else:
            # no candidate left at rank m: backtrack
            if m == 0:
                yield (NOT_MEMBER, [], nodes)
                return
            m -= 1
            w = order.pop()
            used ^= 1 << w
            x = nbr_masks[w]
            bit = ~(1 << m)
            while x:
                v = (x & -x).bit_length() - 1
                rankmask[v] &= bit
                x &= x - 1
            continue

        resume[m] = w + 1
        if m == n - 1:
            yield (FOUND, order + [w], nodes)
            continue  # with the next candidate for the last rank
        order.append(w)
        used |= 1 << w
        x = nbr_masks[w]
        bit = 1 << m
        while x:
            v = (x & -x).bit_length() - 1
            rankmask[v] |= bit
            x &= x - 1
        m += 1
        blocked[m] = B
        resume[m] = 0
