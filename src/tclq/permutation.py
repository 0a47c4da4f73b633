"""Scanline solver for permutation graphs.

A permutation pi of 1..n is drawn as n lines joining top position i to
bottom position pi^{-1}(i); vertex i-1 is line i, and two lines are
adjacent iff they cross.  A scanline is a pair of gap indices (top,
bottom) in 0..n, sitting between line endpoints, and its crossing set
holds the lines with one endpoint on each side of it.

Arcs join scanlines that share one gap index while the other strictly
increases, and an arc's candidate component is the union of the two
crossing sets (no line fits strictly between scanlines that share a gap
index).  The candidate components along a monotone path from (0,0) to
(n,n) form a path decomposition, and the cover of an arc is the clique
cover number of its candidate component.  So tcl(G[pi]) is the least
k >= 1 with such a path whose arcs all have cover <= k: the bottleneck
path value, floored at 1 (0 for the empty permutation).

The decision procedure of Bodlaender, Kloks and Kratsch also asks every
scanline on the path to be k-small (crossing set coverable by <= k
cliques).  That is implied: an arc's candidate component contains both
endpoints' crossing sets, and the clique cover number is monotone under
subsets (a cover of a set restricts to a cover of any subset), so an arc
of cover <= k has k-small endpoints.

Along one direction the candidate component only grows: from (t, b) to
(t', b) it is the crossing set of (t, b) plus the lines with tops in
t+1..t', and the same holds for bottoms.  So the arc covers out of, or
into, a scanline are nondecreasing in the distance along each
direction, the lazy successor lists stop a direction at the first arc
that is too large, and the bottleneck DP needs only the unit steps.

``ScanlineGrid`` holds, for one permutation, the crossing sets of all
(n+1)^2 scanlines and a pile cover per distinct line set.  Per line set
``_cover_piles`` runs at most once.  The DP reads the 2n(n+1) unit
steps, and the witness search at most the O(n^3) arcs.
"""

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .decomposition import AugmentedTreeDecomposition
from .graph import Graph


class Scanline(NamedTuple):
    top: int
    bottom: int


@dataclass(frozen=True)
class PermutationDiagram:
    pi: Tuple[int, ...]
    pi_inverse: Tuple[int, ...]  # pi_inverse[v] = 1-indexed position of value v+1
    lines: Tuple[Tuple[int, int], ...]  # vertex v -> (top, bottom) positions, 1-indexed

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
    lines = tuple((v + 1, inv[v]) for v in range(n))
    return PermutationDiagram(tuple(pi), tuple(inv), lines)


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

    def piles(self, lines: int) -> List[int]:
        """The pile partition of a line set, computed once per set."""
        p = self._piles.get(lines)
        if p is None:
            p = self._piles[lines] = _cover_piles(self.d, lines)
        return p

    def cover(self, lines: int) -> int:
        return len(self.piles(lines))

    def successors(self, s: Scanline, k: int) -> Iterator[Scanline]:
        """Arc targets of s at k: top-advancing targets first, then
        bottom-advancing ones, each in increasing order."""
        n = self.d.n
        start = self.cross[s.top][s.bottom]
        m = start
        for t in range(s.top + 1, n + 1):
            m |= self.top_line[t - 1]
            if self.cover(m) > k:
                break  # every farther top has a superset candidate component
            yield Scanline(t, s.bottom)
        m = start
        for b in range(s.bottom + 1, n + 1):
            m |= self.bottom_line[b - 1]
            if self.cover(m) > k:
                break
            yield Scanline(s.top, b)

    def tcl(self) -> int:
        """Min over monotone (0,0) -> (n,n) paths of the largest arc cover,
        floored at 1 (0 when n = 0).

        Unit steps suffice: each unit step of a jump's run has a candidate
        component inside the jump's, so replacing a jump by its unit steps
        never raises a path's largest arc cover.  best[t][b] is the
        unfloored value for paths ending at (t, b), filled in grid order
        from the two unit-step predecessors.
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
        return max(1, best[n][n])

    def path(self, k: int) -> Optional[List[Scanline]]:
        """Breadth-first path (0,0) -> (n,n) over the arcs of cover <= k,
        with successors computed as each scanline is dequeued."""
        n = self.d.n
        start, goal = Scanline(0, 0), Scanline(n, n)
        parent: Dict[Scanline, Optional[Scanline]] = {start: None}
        queue = [start]
        head = 0
        while head < len(queue) and goal not in parent:
            s = queue[head]
            head += 1
            for t in self.successors(s, k):
                if t not in parent:
                    parent[t] = s
                    queue.append(t)
                    if t == goal:
                        break
        if goal not in parent:
            return None
        path = [goal]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    def decomposition(self, k: int) -> Optional[AugmentedTreeDecomposition]:
        """A path decomposition of width <= k, or None if tcl > k.  The bags
        are the candidate components along ``path(k)``; covers are the
        pile partitions."""
        path = self.path(k)
        if path is None:
            return None
        if len(path) == 1:  # n == 0
            return AugmentedTreeDecomposition((-1,), (0,), ((),))
        cross = self.cross
        bags = tuple(cross[a.top][a.bottom] | cross[b.top][b.bottom]
                     for a, b in zip(path, path[1:]))
        covers = tuple(tuple(sorted(self.piles(bag))) for bag in bags)
        parents = tuple(i - 1 for i in range(len(bags)))
        return AugmentedTreeDecomposition(parents, bags, covers)


def k_small_scanlines(d: PermutationDiagram, k: int) -> List[Scanline]:
    """All canonical scanlines whose crossing set is coverable by <= k cliques."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return _k_small(ScanlineGrid(d), k)


def _k_small(grid: ScanlineGrid, k: int) -> List[Scanline]:
    n = grid.d.n
    return [Scanline(t, b) for t in range(n + 1) for b in range(n + 1)
            if grid.cover(grid.cross[t][b]) <= k]


@dataclass(frozen=True)
class ScanlineGraph:
    k: int
    nodes: Tuple[Scanline, ...]
    succ: Dict[Scanline, Tuple[Scanline, ...]]

    def arc_set(self) -> set:
        return {(s, t) for s, ts in self.succ.items() for t in ts}


def build_scanline_graph(d: PermutationDiagram, k: int) -> ScanlineGraph:
    """The whole scanline graph at k: arcs go between scanlines sharing one
    gap index, the other strictly increasing, whenever the candidate
    component is coverable by <= k cliques."""
    if k < 1:
        raise ValueError("k must be at least 1")
    grid = ScanlineGrid(d)
    nodes = _k_small(grid, k)
    return ScanlineGraph(k, tuple(nodes), {s: tuple(grid.successors(s, k)) for s in nodes})


def decide_tcl_at_most_k(
    pi: Sequence[int], k: int
) -> Tuple[bool, Optional[AugmentedTreeDecomposition]]:
    """Reachability (0,0) -> (n,n) over the arcs of cover <= k, with a
    path decomposition witness on yes."""
    if k < 1:
        raise ValueError("k must be at least 1")
    witness = ScanlineGrid(diagram(pi)).decomposition(k)
    return witness is not None, witness


def compute_tcl(pi: Sequence[int]) -> int:
    """tcl(G[pi]), from the bottleneck DP alone."""
    return ScanlineGrid(diagram(pi)).tcl()


def solve(pi: Sequence[int]) -> Tuple[int, AugmentedTreeDecomposition]:
    """tcl(G[pi]) and a path decomposition of that width, from one grid."""
    grid = ScanlineGrid(diagram(pi))
    k = grid.tcl()
    witness = grid.decomposition(max(k, 1))
    if witness is None:
        raise RuntimeError(f"no scanline path at the bottleneck value {k}")
    return k, witness
