"""Ordering search kernel.

Backtracking search for vertex orderings satisfying the four point
condition (no ranks i < j < k < l with edges (i,k), (j,l) and non-edge
(j,k)), in two modes over one walk: orderings() enumerates those with
every twin class in increasing index (see the twin rule) and
search_order() stops at the first.  Vertices are 0-indexed here;
adjacency comes in as bitmasks (Python ints, so any n).

Precedence sets: before[k] holds vertices that must be placed before
the unplaced vertex k.  If placed ranks i < j carry order[i] adjacent to
k, order[j] not adjacent to k and l adjacent to order[j], then placing k
before l closes a quadruple (i, j, k, l).  So placing w adds N(w) minus
the placed vertices to before[k] for every unplaced k that is not
adjacent to w and already has a placed neighbour (touched[m] holds the
vertices with a neighbour in order[:m]).

Look-ahead (forward checking): a candidate w is rejected while before[w]
holds an unplaced vertex, which would close a quadruple wherever it went
after w.  This one AND per candidate is the whole violation test: a
vertex that closes a quadruple at ranks i < j < k < m is in
before[order[k]] from rank j on, so order[k] is never placed while that
vertex is unplaced.

Pair rule: a placement is rejected when it leaves two unplaced vertices
k and l that must each precede the other, since then neither can be
placed first.  A new pair needs a new entry l in before[k], so l is in
N(w) and k is one of the vertices the placement updates; those are not
adjacent to w, so before[l] itself does not grow, and the check is
whether before[l] meets the updated vertices for some unplaced l in N(w):
O(|N(w)|) ANDs per placement.  Longer precedence cycles are not sought:
on the atlas and the h graphs a full cycle check prunes no further node.
Both rules reject only prefixes that no passing ordering extends.

Backtracking: undo[m] logs (k, old before[k]) for each entry the
placement at rank m grew, and is replayed when that rank is undone; no
rank copies the n-entry table.

Twin rule: twins (vertices with equal open or equal closed
neighbourhoods) are placed in increasing index.  Swapping two twins is a
graph automorphism, so it maps a passing ordering to a passing one, and
sorting every twin class lowers order[0] and raises order[-1].  A
vertex cannot have both an open and a closed twin (if N(u) = N(w) and
N[u] = N[v], then v is in N(w), so w is in N[v] = N[u] and thus in
N(w)), so one predecessor per vertex suffices: v is a candidate only
once pred[v], its previous twin, is placed.

Node accounting, shared by both modes: one node = one placement tried
(the root placement or a prefix extension), whether the look-ahead or
the pair rule then rejects it or not.  Candidates skipped by the
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
    gives a smaller passing ordering.  The look-ahead and the pair rule
    prune only prefixes that no passing ordering extends.
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
    before = [0] * n  # before[k]: vertices that must be placed before k
    undo = [None] * n  # undo[m]: (k, old before[k]) for each entry rank m grew
    touched = [0] * n  # touched[m]: vertices with a neighbour in order[:m]
    resume = [0] * n  # resume[m]: next candidate index to try at rank m
    used = 0
    nodes = 0
    m = 0

    while True:
        w = resume[m]
        limit = n - 1 if (m == 0 and n > 1) else n
        while w < limit:
            if used >> w & 1 or pred[w] & ~used or (m == n - 1 and n > 1 and w < order[0]):
                w += 1
                continue
            if nodes >= budget:
                yield (EXHAUSTED, [], nodes)
                return
            nodes += 1
            free = ~(used | 1 << w)
            if before[w] & free:
                w += 1
                continue
            nb = nbr_masks[w]
            grown = nb & free
            targets = touched[m] & free & ~nb if grown else 0
            if targets:
                # a new pair (k, l) has l in grown and k in targets, and k
                # already in before[l], which this placement leaves alone
                x = grown
                while x:
                    if before[(x & -x).bit_length() - 1] & targets:
                        break
                    x &= x - 1
                if x:
                    w += 1
                    continue
            break
        else:
            # no candidate left at rank m: backtrack
            if m == 0:
                yield (NOT_MEMBER, [], nodes)
                return
            m -= 1
            used ^= 1 << order.pop()
            for k, b in undo[m]:
                before[k] = b
            continue

        resume[m] = w + 1
        if m == n - 1:
            yield (FOUND, order + [w], nodes)
            continue  # with the next candidate for the last rank
        order.append(w)
        used |= 1 << w
        log = []
        while targets:
            k = (targets & -targets).bit_length() - 1
            b = before[k]
            if grown & ~b:
                log.append((k, b))
                before[k] = b | grown
            targets &= targets - 1
        undo[m] = log
        m += 1
        touched[m] = touched[m - 1] | nb
        resume[m] = 0
