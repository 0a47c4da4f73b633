"""Reference listings from first principles, for tests only.

Minimal separators by the definition, maximal cliques by filtering every
subset, and potential maximal cliques from the minimal triangulations
(one per maximal family of pairwise non-crossing minimal separators).
Each is exponential and checks a listing against its definition.
"""

from typing import List

from tclq.bitset import bits
from tclq.cover import CapacityError
from tclq.graph import Graph, enumerate_maximal_independent_sets
from tclq.oracle import is_chordal


def brute_minimal_separators(g: Graph) -> List[int]:
    """Definition-checking enumeration: S is kept iff it separates some
    pair a,b and no proper subset of S separates that pair."""
    n = g.n
    out = []
    for s in range(1 << n):
        if s == g.full:
            continue
        rest = g.full & ~s
        comps = g.components_within(rest)
        if len(comps) < 2:
            continue
        minimal = False
        for ia in range(len(comps)):
            for ib in range(ia + 1, len(comps)):
                a = comps[ia] & -comps[ia]
                bvert = comps[ib] & -comps[ib]
                ok = True
                for x in bits(s):
                    smaller = s & ~(1 << x)
                    sub = g.full & ~smaller
                    reach = a
                    frontier = a
                    while frontier:
                        grow = 0
                        for v in bits(frontier):
                            grow |= g.adj[v]
                        grow &= sub & ~reach
                        reach |= grow
                        frontier = grow
                    if reach & bvert:
                        continue
                    ok = False
                    break
                if ok:
                    minimal = True
        if minimal:
            out.append(s)
    return sorted(out)


def _crosses(g: Graph, s: int, t: int) -> bool:
    """s crosses t iff t has vertices in two different components of G - s."""
    comps = g.components_within(g.full & ~s)
    hit = 0
    for c in comps:
        if c & t:
            hit += 1
    return hit >= 2


def _maximal_cliques_by_filter(g: Graph) -> List[int]:
    cliques = [s for s in range(1 << g.n) if g.is_clique(s)]
    out = []
    for c in cliques:
        if not any(c != d and c & ~d == 0 for d in cliques):
            out.append(c)
    return sorted(out)


def brute_pmcs(g: Graph, *, max_n: int = 7) -> List[int]:
    """Potential maximal cliques from first principles: enumerate the
    minimal triangulations (one per maximal family of pairwise
    non-crossing minimal separators) and collect their maximal cliques.
    """
    if g.n > max_n:
        raise CapacityError(f"n={g.n} exceeds the brute_pmcs limit of {max_n} vertices")
    if g.n == 0:
        return []
    seps = brute_minimal_separators(g)
    seps = [s for s in seps if s]  # the empty separator fills nothing
    if not seps:
        # no nonempty separator: the graph is its own minimal triangulation
        return _maximal_cliques_by_filter(g)
    # crossing relation as a meta-graph; maximal independent sets there
    # are exactly the maximal pairwise-parallel families
    k = len(seps)
    meta = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if _crosses(g, seps[i], seps[j]):
                meta[i] |= 1 << j
                meta[j] |= 1 << i
    families = enumerate_maximal_independent_sets(Graph(k, meta))
    pmcs = set()
    for fam in families:
        h = g
        for i in bits(fam):
            h = h.complete_set(seps[i])
        if not is_chordal(h):
            raise RuntimeError("parallel-family fill must triangulate")
        for c in _maximal_cliques_by_filter(h):
            pmcs.add(c)
    return sorted(pmcs)
