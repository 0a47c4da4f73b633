"""Brute-force ground truth for tiny instances.

Everything here is deliberately independent of the production solvers: the
chromatic number is exhaustive backtracking, tree-clique width follows the
recursive k-decomposability characterization (separate, complete the
separator, recurse), and PMCs are collected from explicitly enumerated
minimal triangulations.  brute_chromatic, tcl_oracle and brute_pmcs
refuse a graph above their max_n, and tcl_oracle a search past
MAX_STEPS, with CapacityError instead of running unbounded.
"""

from typing import Dict, List, Tuple

from .bitset import bit_list, bits, submasks
from .cover import CapacityError
from .graph import Graph, enumerate_maximal_independent_sets

MAX_STEPS = 20_000_000


def _chromatic_of_masks(adj: List[int], n: int) -> int:
    """Exact chromatic number of a graph given as adjacency masks.

    Backtracking over vertices in descending-degree order; a vertex may
    only open one new color (standard symmetry pruning).
    """
    if n == 0:
        return 0
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

    for k in range(1, n + 1):
        if feasible(k):
            return k
    return n


def brute_chromatic(g: Graph, *, max_n: int = 10) -> int:
    if g.n > max_n:
        raise CapacityError(f"n={g.n} exceeds the oracle limit of {max_n} vertices")
    return _chromatic_of_masks(list(g.adj), g.n)


def _vcc_masks(adj: List[int], sub: int) -> int:
    """Clique cover number of the graph (adj, within sub): chromatic
    number of its complement."""
    verts = bit_list(sub)
    m = len(verts)
    comp = [0] * m
    for i, v in enumerate(verts):
        row = sub & ~(adj[v] | (1 << v))
        for j, w in enumerate(verts):
            if row >> w & 1:
                comp[i] |= 1 << j
    return _chromatic_of_masks(comp, m)


def tcl_oracle(g: Graph, *, max_n: int = 10) -> int:
    """Smallest k such that G is k-decomposable.

    A graph is k-decomposable when its vertex clique cover number is at
    most k, or some separator S with cover number at most k splits it so
    that every component together with S (S completed into a clique) is
    recursively k-decomposable.  Fill edges produced by completing
    separators change which sets disconnect the deeper blocks, so the
    recursion tracks them and the memo is keyed by (vertex set, fill
    rows).  Cover numbers, however, are always measured in the original
    graph: a bag of the final decomposition must be covered by real
    cliques, and a cover that leaned on fill edges would not survive the
    gluing back into G.  Disconnected inputs take the maximum over
    components.
    """
    if g.n > max_n:
        raise CapacityError(f"n={g.n} exceeds the oracle limit of {max_n} vertices")
    if g.n == 0:
        return 0
    comps = g.components_within(g.full)
    if len(comps) > 1:
        out = 0
        for c in comps:
            sub, _ = g.induced_subgraph(c)
            out = max(out, tcl_oracle(sub, max_n=max_n))
        return out

    n = g.n
    base_adj = g.adj
    steps = [0]
    memo: Dict[Tuple[int, Tuple[int, ...]], int] = {}
    vcc_memo: Dict[int, int] = {}

    def tick(units: int = 1) -> None:
        steps[0] += units
        if steps[0] > MAX_STEPS:
            raise CapacityError(f"n={n} exceeds the oracle step limit of {MAX_STEPS} steps")

    def cur_adj(mask: int, extra: Tuple[int, ...]) -> List[int]:
        return [(base_adj[v] | extra[v]) & mask if mask >> v & 1 else 0 for v in range(n)]

    def vcc_base(sub: int) -> int:
        got = vcc_memo.get(sub)
        if got is None:
            got = _vcc_masks(base_adj, sub)
            vcc_memo[sub] = got
        return got

    def comps_cur(sub: int, adj: List[int]) -> List[int]:
        out = []
        rest = sub
        while rest:
            comp = rest & -rest
            frontier = comp
            while frontier:
                grow = 0
                for v in bits(frontier):
                    grow |= adj[v]
                grow &= sub & ~comp
                comp |= grow
                frontier = grow
            out.append(comp)
            rest &= ~comp
        return out

    def val(mask: int, extra: Tuple[int, ...]) -> int:
        key = (mask, extra)
        got = memo.get(key)
        if got is not None:
            return got
        tick()
        adj = cur_adj(mask, extra)
        best = vcc_base(mask)
        if best > 1:
            cands = [s for s in submasks(mask) if s != mask and s != 0]
            cands.sort(key=lambda s: (s.bit_count(), s))
            for s in cands:
                if best == 1:
                    break
                tick()
                parts = comps_cur(mask & ~s, adj)
                if len(parts) < 2:
                    continue
                m = vcc_base(s)
                if m >= best:
                    continue
                for c in parts:
                    part = s | c
                    # complete s: new fill rows, restricted to the part,
                    # base edges excluded
                    new_extra = tuple(
                        ((extra[v] | (s if s >> v & 1 else 0)) & part & ~(base_adj[v] | (1 << v)))
                        if part >> v & 1
                        else 0
                        for v in range(n)
                    )
                    m = max(m, val(part, new_extra))
                    if m >= best:
                        break
                best = min(best, m)
        memo[key] = best
        return best

    zero = tuple([0] * n)
    return val(g.full, zero)


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
