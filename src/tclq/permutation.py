"""Scanline solver for permutation graphs.

A permutation pi of 1..n is drawn as n lines joining top position i to
bottom position pi^{-1}(i); vertex i-1 is line i, and two lines are
adjacent iff they cross.  A scanline is a pair of gap indices (top,
bottom) in 0..n, sitting between line endpoints, and its crossing set
holds the lines with one endpoint on each side of it.  The method follows
Bodlaender, Kloks and Kratsch ("Treewidth and pathwidth of permutation
graphs", SIAM J. Discrete Math. 1995), with clique covers for bag sizes.

A unit step moves one gap index up by one; its candidate component is
the union of its two ends' crossing sets.  The candidate components
along a monotone unit-step path from (0,0) to (n,n) form a path
decomposition: a line is in the bags from the step passing its first
endpoint to the step passing its second, a nonempty run, and if the runs
of lines u and v were disjoint, a scanline between them would have u
wholly on its left and v wholly on its right, so u and v would not cross.
So tcl(G[pi]) is the bottleneck value over such paths of the steps'
clique cover numbers, floored at 1 (0 for the empty permutation).  Paths
that jump a gap index by more need no search: each unit step of a jump
has a candidate component inside the jump's, and the clique cover number
is monotone under subsets.

The witness is the bottleneck DP's own path.  A bag contained in a
neighbouring bag is dropped: its vertices all lie in that neighbour, so
every vertex still sits in consecutive bags, every edge in some bag, and
the width does not grow.
"""

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .decomposition import AugmentedTreeDecomposition, validate
from .graph import Graph


class Scanline(NamedTuple):
    top: int
    bottom: int


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


def crossing_lines(d: PermutationDiagram, s: Scanline) -> int:
    """Lines with exactly one endpoint on each side of the scanline."""
    m = 0
    for v in range(d.n):
        if (v + 1 <= s.top) != (d.pi_inverse[v] <= s.bottom):
            m |= 1 << v
    return m


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


def cover_of_line_set(d: PermutationDiagram, lines: int) -> int:
    return len(_cover_piles(d, lines))


class ScanlineGrid:
    """The scanlines of one diagram, their crossing sets and a pile memo.

    ``cross[t][b]`` is the crossing set of scanline (t, b).  Moving the
    top gap from t-1 to t toggles line t, and moving the bottom gap from
    b-1 to b toggles the line at bottom position b, so the grid is filled
    by XOR from cross[0][0] = 0.
    """

    def __init__(self, d: PermutationDiagram):
        self.d = d
        self.top_line = [1 << v for v in range(d.n)]  # top_line[t] = line t+1
        self.bottom_line = [1 << (value - 1) for value in d.pi]  # line at bottom b+1
        first = [0]
        for bit in self.bottom_line:
            first.append(first[-1] ^ bit)
        cross = [first]
        for bit in self.top_line:
            cross.append([m ^ bit for m in cross[-1]])
        self.cross = cross
        self._piles: Dict[int, List[int]] = {}
        self.best: Optional[List[List[int]]] = None  # filled by tcl()

    def piles(self, lines: int) -> List[int]:
        """The pile partition of a line set, computed once per set."""
        p = self._piles.get(lines)
        if p is None:
            p = self._piles[lines] = _cover_piles(self.d, lines)
        return p

    def tcl(self) -> int:
        """Min over monotone (0,0) -> (n,n) unit-step paths of the largest
        step cover, floored at 1 (0 when n = 0).

        best[t][b] is the unfloored value for paths ending at (t, b),
        filled in grid order from the two unit-step predecessors and kept
        in ``self.best`` for ``witness``.  The bottom step replaces the
        top step only when it is strictly better.
        """
        n = self.d.n
        if n == 0:
            return 0
        cross, piles = self.cross, self.piles
        best = [[0] * (n + 1) for _ in range(n + 1)]
        for t in range(n + 1):
            row = best[t]
            for b in range(n + 1):
                if t == 0 and b == 0:
                    continue
                cur = n + 1
                if t:
                    cur = max(best[t - 1][b], len(piles(cross[t][b] | self.top_line[t - 1])))
                if b and row[b - 1] < cur:
                    cur = min(cur, max(row[b - 1],
                                       len(piles(cross[t][b] | self.bottom_line[b - 1]))))
                row[b] = cur
        self.best = best
        return max(1, best[n][n])

    def witness(self) -> AugmentedTreeDecomposition:
        """The path decomposition of width tcl along the path of ``tcl()``,
        which must run first.  Walking back from (n, n), the top step is
        taken whenever it attains best[t][b], as in the DP, and no kept
        bag is contained in a neighbour.  Covers are the pile partitions.
        """
        best, cross, piles = self.best, self.cross, self.piles
        kept: List[int] = []
        t = b = self.d.n
        while t or b:
            bag = cross[t][b] | self.top_line[t - 1] if t else 0
            if t and max(best[t - 1][b], len(piles(bag))) == best[t][b]:
                t -= 1
            else:
                bag = cross[t][b] | self.bottom_line[b - 1]
                b -= 1
            if kept and bag & ~kept[-1] == 0:
                continue
            while kept and kept[-1] & ~bag == 0:
                kept.pop()
            kept.append(bag)
        kept = kept[::-1] or [0]  # the empty permutation has one empty bag
        covers = tuple(tuple(sorted(piles(bag))) for bag in kept)
        return AugmentedTreeDecomposition(tuple(range(-1, len(kept) - 1)), tuple(kept), covers)


def compute_tcl(pi: Sequence[int]) -> int:
    """tcl(G[pi]), from the bottleneck DP alone."""
    return ScanlineGrid(diagram(pi)).tcl()


def solve(pi: Sequence[int]) -> Tuple[int, AugmentedTreeDecomposition]:
    """tcl(G[pi]) and a path decomposition of that width, from one grid,
    validated against G[pi] as sanitize validates the solvers' witnesses."""
    grid = ScanlineGrid(diagram(pi))
    k, witness = grid.tcl(), grid.witness()
    rep = validate(inversion_graph(pi), witness)
    if not rep.ok:
        raise RuntimeError(f"scanline witness is not a decomposition: {rep}")
    return k, witness
