"""Scanline solver for permutation graphs.

A permutation pi of 1..n is drawn as n lines joining top position i to
bottom position pi^{-1}(i); vertex i-1 is line i, and two lines are
adjacent iff they cross.  A scanline is a pair of gap indices (top,
bottom) in 0..n, sitting between line endpoints, and its crossing set
holds the lines with one endpoint on each side of it.  The method follows
Bodlaender, Kloks and Kratsch ("Treewidth and pathwidth of permutation
graphs", SIAM J. Discrete Math. 1995), with clique covers for bag sizes.

A unit step moves one gap index up by one, past one line, so its two
ends' crossing sets differ in that line alone; its candidate component
is the larger of them.  The candidate components along a monotone
unit-step path from (0,0) to (n,n) form a path decomposition: a line is
in the bags from the step passing its first endpoint to the step passing
its second, a nonempty run, and if the runs of lines u and v were
disjoint, a scanline between them would have u wholly on its left and v
wholly on its right, so u and v would not cross.  So tcl(G[pi]) is the
bottleneck value over such paths of the steps' clique cover numbers.
Paths that jump a gap index by more need no search: each unit step of a
jump has a candidate component inside the jump's, and the clique cover
number is monotone under subsets.

A crossing set is the join of its sides L (top <= t, bottom > b) and R
(top > t, bottom <= b): every line of L crosses every line of R.  As
permutation graphs are perfect (Golumbic 1980), a side's cover is its
longest chain of non-crossing lines, and the set's is the larger one.

The witness is the bottleneck DP's own path, handed to from_bag_tree
as a bag tree rooted at the step from (0, 0), covered by the pile
partition.  Its contraction merges each bag contained in a neighbouring
bag into that neighbour, so the width does not grow.
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from operator import le
from typing import Iterator, List, Sequence, Tuple

from .decomposition import AugmentedTreeDecomposition, BagTree, from_bag_tree
from .graph import Graph


@dataclass(frozen=True)
class PermutationDiagram:
    pi: Tuple[int, ...]
    pi_inverse: Tuple[int, ...]  # pi_inverse[v] = 1-indexed position of value v+1

    @property
    def n(self) -> int:
        return len(self.pi)


def diagram(pi: Sequence[int]) -> PermutationDiagram:
    n = len(pi)
    if sorted(pi) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {list(pi)}")
    inv = [0] * n
    for pos, value in enumerate(pi, start=1):
        inv[value - 1] = pos
    return PermutationDiagram(tuple(pi), tuple(inv))


def inversion_graph(pi: Sequence[int]) -> Graph:
    """Graph on vertices 0..n-1 where lines i+1 and j+1 cross."""
    d = diagram(pi)
    n = d.n
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if d.pi_inverse[u] > d.pi_inverse[v]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, adj)


def _cover_piles(d: PermutationDiagram, lines: int) -> List[int]:
    """Greedy partition of a line set into cliques (pairwise-crossing piles).

    Lines are scanned by ascending top position; each goes to the
    leftmost pile whose previous bottom is larger (so tops increase and
    bottoms decrease within a pile, i.e. the pile is pairwise crossing).
    The pile count equals the minimum clique cover of the induced
    subgraph.
    """
    inv = d.pi_inverse
    lasts: List[int] = []  # current bottom of each pile, kept increasing
    piles: List[int] = []
    while lines:
        low = lines & -lines
        lines ^= low
        b = inv[low.bit_length() - 1]
        i = bisect_right(lasts, b)
        if i == len(lasts):
            lasts.append(b)
            piles.append(low)
        else:
            lasts[i] = b
            piles[i] |= low
    return piles


def _rows(d: PermutationDiagram) -> Iterator[List[int]]:
    """The rows best[0..n] in turn, where best[t][b] = max(cover(t, b),
    min(best[t-1][b], best[t][b-1])) is the least largest step cover
    over the unit-step paths from (0, 0) to (t, b).

    Row t sweeps the bottom positions twice, patience sorting each side's
    tops into piles, whose count is the side's cover: down from b = n, L
    gains the line at bottom b+1 if its top is at most t; up from b = 0, R
    gains the line at bottom b if its top is above t.
    """
    n, pi = d.n, d.pi
    above = [0] + [n + 1] * n  # before row 0 only (0, 0) is reached, at 0
    for t in range(n + 1):
        row = [0] * (n + 1)
        lasts: List[int] = []  # L's piles: negated tops, by falling bottom
        for b in range(n, -1, -1):
            if b < n and pi[b] <= t:
                i = bisect_right(lasts, -pi[b])
                lasts[i:i + 1] = [-pi[b]]  # replace that pile's last, or open a pile
            row[b] = len(lasts)
        lasts = []  # R's piles: tops, by rising bottom
        left = n + 1  # nothing steps into b = 0 from the left
        for b in range(n + 1):
            if b and pi[b - 1] > t:
                i = bisect_right(lasts, pi[b - 1])
                lasts[i:i + 1] = [pi[b - 1]]
            left = row[b] = max(row[b], len(lasts), min(above[b], left))
        yield row
        above = row


def _bottleneck(d: PermutationDiagram) -> Tuple[int, List[bytes]]:
    """best[n][n], and for each row t >= 1 the bytes tops[t-1] whose entry
    b is 1 iff best[t-1][b] <= best[t][b], the walk's one question of
    the table.  Of the rows only the running one is kept: n + 1 bytes a
    row in place of n + 1 ints."""
    tops: List[bytes] = []
    above: List[int] = []
    for row in _rows(d):
        if above:
            tops.append(bytes(map(le, above, row)))
        above = row
    return above[-1], tops


def _witness(d: PermutationDiagram, tops: List[bytes]) -> BagTree:
    """The DP's path as a bag tree rooted at the step from (0, 0).
    Walking back from (n, n), the top step is taken whenever
    tops[t-1][b] says best[t-1][b] <= best[t][b] (it attains best[t][b]).
    A step's bag is the larger of its two ends' crossing sets.
    """
    below = [0]  # below[b]: the lines with bottom position at most b
    for value in d.pi:
        below.append(below[-1] | 1 << (value - 1))

    def cross(t: int, b: int) -> int:
        return ((1 << t) - 1) ^ below[b]

    path: List[BagTree] = []  # the subtree below the next step walked back to
    t = b = d.n
    while t or b:
        if t and tops[t - 1][b]:
            bag = cross(t, b) | cross(t - 1, b)
            t -= 1
        else:
            bag = cross(t, b) | cross(t, b - 1)
            b -= 1
        path = [(bag, path)]
    return path[0] if path else (0, [])  # the empty permutation has one empty bag


def compute_tcl(pi: Sequence[int]) -> int:
    """tcl(G[pi]), from the bottleneck DP alone."""
    return _bottleneck(diagram(pi))[0]


def solve(pi: Sequence[int]) -> Tuple[int, AugmentedTreeDecomposition]:
    """tcl(G[pi]) and a path decomposition of that width, from one DP
    table."""
    d = diagram(pi)
    k, tops = _bottleneck(d)
    return k, from_bag_tree(inversion_graph(pi), _witness(d, tops), partial(_cover_piles, d))
