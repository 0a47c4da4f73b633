"""Independent ground truth for small instances.

Nothing here shares an algorithm with the production solvers or the cover
oracle: the chromatic number is exhaustive backtracking, tree-clique
width is the subset DP over elimination orderings with this module's
own cover numbers, and chordality is maximum cardinality search.
brute_chromatic and tcl_oracle refuse a graph above their max_n with
CapacityError instead of running unbounded.
"""

from typing import Dict, List, Optional

from .bitset import bit_list, bits
from .cover import CapacityError
from .graph import Graph


def _chromatic_of_masks(adj: List[int], n: int, low: int = 1,
                        high: Optional[int] = None) -> int:
    """Chromatic number of a graph given as adjacency masks, when it is at
    most ``high``; ``high + 1`` when it is above.

    ``high`` defaults to n, which always suffices.  The caller vouches
    that no coloring with fewer than ``low`` colors exists, so only
    k = low .. high are tried.  Backtracking over vertices in
    descending-degree order; a vertex may only open one new color
    (standard symmetry pruning).
    """
    if n == 0:
        return 0
    if high is None:
        high = n
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    # earlier[i] = neighbors of order[i] among order[:i]
    earlier: List[List[int]] = []
    for v in order:
        earlier.append([i for i in range(len(earlier)) if adj[v] >> order[i] & 1])
    colors = [0] * n

    def feasible(k: int) -> bool:
        def bt(i: int, used: int) -> bool:
            if i == n:
                return True
            cap = used + 1 if used < k else k
            taken = 0
            for j in earlier[i]:
                taken |= 1 << colors[j]
            for c in range(cap):
                if taken >> c & 1:
                    continue
                colors[i] = c
                if bt(i + 1, max(used, c + 1)):
                    return True
            return False

        return bt(0, 0)

    for k in range(low, high + 1):
        if feasible(k):
            return k
    return high + 1


def brute_chromatic(g: Graph, *, max_n: int = 10) -> int:
    if g.n > max_n:
        raise CapacityError(f"n={g.n} exceeds the oracle limit of {max_n} vertices")
    return _chromatic_of_masks(list(g.adj), g.n)


def _vcc_masks(adj: List[int], sub: int, low: int = 1,
               high: Optional[int] = None) -> int:
    """Clique cover number of the graph (adj, within sub): chromatic
    number of its complement, with ``_chromatic_of_masks``'s low and high."""
    verts = bit_list(sub)
    m = len(verts)
    comp = [0] * m
    for i, v in enumerate(verts):
        row = sub & ~(adj[v] | (1 << v))
        for j, w in enumerate(verts):
            if row >> w & 1:
                comp[i] |= 1 << j
    return _chromatic_of_masks(comp, m, low, high)


def tcl_oracle(g: Graph, *, max_n: int = 16) -> int:
    """tcl(G) by the treewidth subset DP over elimination orderings
    (Bodlaender, Fomin, Koster, Kratsch and Thilikos), with vcc as the
    cost of a bag.

    Eliminating the vertices of R first and v next gives v the bag
    {v} + Q(R, v), where Q(R, v) holds the vertices outside R + v adjacent
    to v's component in G[R + v].  As vcc is monotone, tcl(G) is the
    least, over elimination orderings, of the largest vcc of such a bag:
    best[S] = min over v in S of max(best[S - v], vcc({v} + Q(S - v, v))).
    A bag never reaches across components, so a disconnected graph needs
    no split.  Cover numbers are this module's own, memoized per bag.
    A bag only matters when its vcc is below the running minimum, so its
    search stops there; a bag refused at one bound keeps that bound as
    a lower bound, and is not searched again at the same or a lower one.
    """
    if g.n > max_n:
        raise CapacityError(f"n={g.n} exceeds the oracle limit of {max_n} vertices")
    adj = g.adj
    cost: Dict[int, int] = {}
    floor: Dict[int, int] = {}
    best = [0] * (1 << g.n)
    for s in range(1, 1 << g.n):
        low = g.n + 1
        for v in bits(s):
            r = s & ~(1 << v)
            if best[r] >= low:
                continue
            comp, frontier, reach = 0, 1 << v, 0
            while frontier:
                comp |= frontier
                for u in bits(frontier):
                    reach |= adj[u]
                frontier = reach & r & ~comp
            bag = (1 << v) | (reach & ~s)
            c = cost.get(bag)
            if c is None:
                lb = floor.get(bag, 1)
                if lb >= low:
                    continue
                c = _vcc_masks(adj, bag, lb, low - 1)
                if c >= low:
                    floor[bag] = low
                    continue
                cost[bag] = c
            low = min(low, max(best[r], c))
        best[s] = low
    return best[-1]


def is_chordal(g: Graph) -> bool:
    """Maximum cardinality search followed by the elimination check."""
    n = g.n
    if n <= 2:
        return True
    weight = [0] * n
    order: List[int] = []
    pos = [0] * n
    numbered = 0
    for _ in range(n):
        best, bw = -1, -1
        for v in range(n):
            if numbered >> v & 1:
                continue
            if weight[v] > bw:
                best, bw = v, weight[v]
        order.append(best)
        pos[best] = len(order) - 1
        numbered |= 1 << best
        for u in bits(g.adj[best] & ~numbered):
            weight[u] += 1
    for v in range(n):
        preds = [u for u in bits(g.adj[v]) if pos[u] < pos[v]]
        if not preds:
            continue
        parent = max(preds, key=lambda u: pos[u])
        for u in preds:
            if u != parent and not (g.adj[parent] >> u & 1):
                return False
    return True
