"""Clique-cover machinery.

The dense object is the CoverTable: values[S] = vcc(G[S]) for every
vertex subset S, where vcc is the minimum number of disjoint cliques
covering S (equivalently the chromatic number of the complement graph
restricted to S).  The Lawler recurrence builds it, and an
inclusion-exclusion engine counts covers/partitions by independent sets,
which doubles as a chromatic-number routine with a constructive coloring
mode.  Every operation that builds a table over all 2^n subsets refuses a
graph above TABLE_MAX_N vertices before allocating anything.  The
CoverOracle is the sparse counterpart: it solves only the sets a caller
asks for, one at a time, and memoizes them.
"""

import math
from typing import Dict, List, Optional, Tuple, Union

from .bitset import bit_list, bits, lowest_bit
from .graph import Graph, enumerate_maximal_independent_sets, maximal_cliques_within

CAP = 64
# Largest n for a table over all 2^n subsets.  lawler_table takes about
# 40 MB at n = 20, and sixteen times more for every four vertices.
TABLE_MAX_N = 20


class CapacityError(Exception):
    """Raised when a graph is above CAP, or above TABLE_MAX_N for an
    operation that builds a subset table."""


def _check_cap(g: Graph) -> None:
    if g.n > CAP:
        raise CapacityError(f"n={g.n} exceeds the cap of {CAP} vertices")


def _check_table(g: Graph) -> None:
    """Refuse a subset table of g before any of it is allocated."""
    if g.n > TABLE_MAX_N:
        raise CapacityError(
            f"n={g.n} exceeds the subset-table limit of {TABLE_MAX_N} vertices")


class CoverTable:
    """Dense subset table of clique cover numbers with reconstruction.

    choice[S] is the clique removed at S's optimum.
    """

    __slots__ = ("g", "values", "choice")

    def __init__(self, g: Graph, values: List[int], choice: List[int]):
        self.g = g
        self.values = values
        self.choice = choice

    def value(self, s: int) -> int:
        return self.values[s]

    def partition(self, s: int) -> List[int]:
        """Disjoint cliques covering s, exactly values[s] of them."""
        parts = []
        while s:
            d = self.choice[s]
            parts.append(d)
            s &= ~d
        return parts


def lawler_table(g: Graph) -> CoverTable:
    """vcc(G[S]) for every S by the remove-one-clique recurrence.

    values[S] = 1 + min over maximal cliques D of G[S] containing the
    lowest vertex of S, of values[S without D].  Restricting to cliques
    through one fixed vertex preserves the optimum: every partition has a
    class containing that vertex, and the class extends to a maximal
    clique without breaking the rest.  Ties pick the lexicographically
    smallest clique mask so outputs are reproducible.
    """
    _check_table(g)
    n = g.n
    size = 1 << n
    values = [0] * size
    choice = [0] * size
    adj = g.adj
    for s in range(1, size):
        v = lowest_bit(s)
        vbit = 1 << v
        best = None
        best_d = 0
        for d in maximal_cliques_within(g, s & adj[v]):
            dd = d | vbit
            cand = values[s & ~dd]
            if best is None or cand < best:
                best, best_d = cand, dd
        values[s] = best + 1
        choice[s] = best_d
    return CoverTable(g, values, choice)


class CoverOracle:
    """vcc and a minimum clique partition of single sets, on request.

    Each set is solved once by vcc and memoized, so the caller pays for
    the sets it reads and never for a table over all 2^n subsets.
    """

    __slots__ = ("g", "memo")

    def __init__(self, g: Graph):
        self.g = g
        self.memo: Dict[int, Tuple[int, Tuple[int, ...]]] = {}

    def _solve(self, s: int) -> Tuple[int, Tuple[int, ...]]:
        hit = self.memo.get(s)
        if hit is None:
            k, classes = vcc(self.g, s)
            hit = self.memo[s] = (k, tuple(classes))
        return hit

    def value(self, s: int) -> int:
        return self._solve(s)[0]

    def partition(self, s: int) -> Tuple[int, ...]:
        """Disjoint cliques covering s, exactly value(s) of them."""
        return self._solve(s)[1]


# Anything with value(s) and partition(s) over the same graph.
Cover = Union[CoverOracle, CoverTable]


def _alpha_table(g: Graph) -> List[int]:
    size = 1 << g.n
    zeta = [0] * size
    for m in enumerate_maximal_independent_sets(g):
        zeta[m] = 1
    for i in range(g.n):
        ibit = 1 << i
        for t in range(size):
            if t & ibit:
                zeta[t] += zeta[t & ~ibit]
    full = g.full
    return [zeta[full & ~s] for s in range(size)]


def _independent_count_table(g: Graph) -> List[int]:
    """ind[T] = number of independent sets (including empty) inside T."""
    size = 1 << g.n
    ind = [0] * size
    ind[0] = 1
    for t in range(1, size):
        v = lowest_bit(t)
        ind[t] = ind[t & ~(1 << v)] + ind[t & ~g.nbr_closed(v)]
    return ind


def ie_count_covers(g: Graph, k: int) -> int:
    """Number of k-subsets of distinct maximal independent sets whose
    union is V; chi(G) is the smallest k making this positive."""
    _check_table(g)
    if k < 0:
        raise ValueError("k must be nonnegative")
    alpha = _alpha_table(g)
    total = 0
    for s in range(1 << g.n):
        term = math.comb(alpha[s], k)
        total += -term if s.bit_count() & 1 else term
    return total


def ie_count_partitions(g: Graph, k: int) -> int:
    """Number of ordered k-tuples of nonempty independent sets covering V.

    Positive exactly when chi(G) <= k; the solver paths only consume the
    positivity, which is what the subset-parity sum decides.
    """
    _check_table(g)
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _ie_partition_sum(_independent_count_table(g), g.full, k)


def _ie_partition_sum(ind: List[int], full: int, k: int) -> int:
    """The signed subset sum behind ie_count_partitions, given the
    independent-set counts ind of the graph whose vertex set is full."""
    total = 0
    for x in range(full + 1):
        a = ind[full & ~x] - 1
        term = a**k
        total += -term if x.bit_count() & 1 else term
    return total


def _ie_chromatic(g: Graph) -> int:
    if g.n == 0:
        return 0
    ind = _independent_count_table(g)
    for k in range(1, g.n + 1):
        if _ie_partition_sum(ind, g.full, k) > 0:
            return k
    return g.n


def ie_chromatic_with_construction(g: Graph) -> Tuple[int, List[int]]:
    """chi(G) by counting, plus a proper coloring with exactly chi colors.

    The construction repeatedly takes the lexicographically first
    non-adjacent pair and adds the edge; if the chromatic number is
    unchanged the edge stays, otherwise every optimal coloring agrees on
    the pair and the two vertices merge.  When the working graph becomes
    complete, its vertices are the color classes.
    """
    _check_table(g)
    n = g.n
    if n == 0:
        return 0, []
    k = _ie_chromatic(g)
    groups: List[int] = [1 << v for v in range(n)]
    h = g

    def first_nonedge(gr: Graph) -> Optional[Tuple[int, int]]:
        for i in range(gr.n):
            rest = gr.full & ~(gr.adj[i] | ((1 << (i + 1)) - 1))
            if rest:
                return i, lowest_bit(rest)
        return None

    while True:
        pair = first_nonedge(h)
        if pair is None:
            break
        i, j = pair
        trial_adj = list(h.adj)
        trial_adj[i] |= 1 << j
        trial_adj[j] |= 1 << i
        trial = Graph(h.n, trial_adj)
        # chi can only stay or grow by one under an edge addition
        if ie_count_partitions(trial, k) > 0:
            h = trial
        else:
            groups[i] |= groups[j]
            merged_adj = []
            low = (1 << j) - 1
            for v in range(h.n):
                if v == j:
                    continue
                row = h.adj[v]
                if v == i:
                    row |= h.adj[j]
                elif row >> j & 1:
                    row |= 1 << i
                row &= ~((1 << j) | (1 << v))
                # drop bit j, shifting higher bits down
                merged_adj.append((row & low) | ((row >> 1) & ~low))
            groups.pop(j)
            h = Graph(h.n - 1, merged_adj)

    if h.n != k:
        raise RuntimeError("complete merge graph must have chi vertices")
    coloring = [0] * n
    for color, grp in enumerate(groups):
        for v in bits(grp):
            coloring[v] = color
    return k, coloring


def vcc(g: Graph, s: int) -> Tuple[int, List[int]]:
    """Minimum disjoint clique partition of s, by direct backtracking.

    Independent of the subset table on purpose: it serves as the
    second route for cross-checks and for re-covering decomposition
    bags.  Returns (count, class masks).
    """
    verts = bit_list(s)
    m = len(verts)
    if m == 0:
        return 0, []
    adj = g.adj
    for k in range(1, m + 1):
        classes = [0] * k

        def bt(i: int, used: int) -> bool:
            if i == m:
                return True
            v = verts[i]
            vbit = 1 << v
            cap = used + 1 if used < k else k
            for c in range(cap):
                if classes[c] & ~adj[v]:
                    continue
                classes[c] |= vbit
                if bt(i + 1, max(used, c + 1)):
                    return True
                classes[c] &= ~vbit
            return False

        if bt(0, 0):
            return k, [c for c in classes if c]
    return m, [1 << v for v in verts]
