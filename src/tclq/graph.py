"""Undirected graphs on vertices 0..n-1 with bitmask adjacency.

A Graph is immutable.  adj[v] is the open neighborhood of v as a mask;
all set-valued arguments and results are bitmasks (see bitset).  The
module also hosts the enumeration primitives the solvers share: maximal
cliques, maximal independent sets, minimal separators, the potential
maximal clique (PMC) test, and PMC listing from the minimal separators.
Those primitives share one sweep, component_neighborhoods, which yields
each component C of G[s] with N(C) from the adjacency rows its search
ORs together, walking bits with an inline lowest-bit loop.  The
separator listing remembers the sets it has swept and sweeps each once.
The PMC listing sweeps no set twice either: it carries each PMC's sweep
up the prefixes and takes their separators from Delta(G) (enumerate_pmcs).
"""

from itertools import accumulate, chain
from operator import or_
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .bitset import bit_list, bits, mask_of


class Graph:
    __slots__ = ("n", "adj", "full")

    def __init__(self, n: int, adj: Sequence[int]):
        self.n = n
        self.adj = tuple(adj)
        self.full = (1 << n) - 1

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"

    def edges(self) -> List[Tuple[int, int]]:
        out = []
        for u in range(self.n):
            for v in bits(self.adj[u] & -(1 << (u + 1))):
                out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return self.adj[u] >> v & 1 == 1

    def nbr_closed(self, v: int) -> int:
        return self.adj[v] | (1 << v)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, s: int) -> int:
        """Open neighborhood of a set: N(S) = (union of N(v)) minus S."""
        adj = self.adj
        m = 0
        rest = s
        while rest:
            low = rest & -rest
            m |= adj[low.bit_length() - 1]
            rest ^= low
        return m & ~s

    def is_clique(self, s: int) -> bool:
        for v in bits(s):
            if s & ~self.nbr_closed(v):
                return False
        return True

    def is_independent(self, s: int) -> bool:
        for v in bits(s):
            if s & self.adj[v]:
                return False
        return True

    def is_complete(self) -> bool:
        return self.is_clique(self.full)

    def clique_number(self) -> int:
        return max((c.bit_count() for c in maximal_cliques_within(self, self.full)), default=0)

    def complement(self) -> "Graph":
        return Graph(self.n, [self.full & ~self.nbr_closed(v) for v in range(self.n)])

    def complete_set(self, s: int) -> "Graph":
        """Copy of the graph with the set s completed into a clique."""
        adj = list(self.adj)
        for v in bits(s):
            adj[v] |= s & ~(1 << v)
        return Graph(self.n, adj)

    def induced_subgraph(self, s: int) -> Tuple["Graph", List[int]]:
        """Induced subgraph on s, relabeled to 0..|s|-1.

        Returns (subgraph, verts) where verts[i] is the original index of
        the subgraph's vertex i.
        """
        verts = bit_list(s)
        pos = {v: i for i, v in enumerate(verts)}
        adj = [0] * len(verts)
        for i, v in enumerate(verts):
            for w in bits(self.adj[v] & s):
                adj[i] |= 1 << pos[w]
        return Graph(len(verts), adj), verts

    def components_within(self, s: int) -> List[int]:
        """Connected components of G[s] as masks, ordered by least vertex."""
        return [c for c, _ in self.component_neighborhoods(s)]

    def component_neighborhoods(self, s: int) -> List[Tuple[int, int]]:
        """(C, N(C)) for each component C of G[s], ordered by least vertex.

        N(C) is the open neighborhood in G, so it may leave s.  It is the
        union of the rows the search ORs together anyway, minus C.
        """
        adj = self.adj
        out = []
        rest = s
        while rest:
            comp = frontier = rest & -rest
            reach = 0
            while frontier:
                grow = 0
                while frontier:
                    low = frontier & -frontier
                    grow |= adj[low.bit_length() - 1]
                    frontier ^= low
                reach |= grow
                frontier = grow & s & ~comp
                comp |= frontier
            out.append((comp, reach & ~comp))
            rest &= ~comp
        return out

    def is_connected(self, s: Optional[int] = None) -> bool:
        if s is None:
            s = self.full
        if s == 0:
            return True
        return len(self.components_within(s)) == 1


def expand_mask(small: int, verts: Sequence[int]) -> int:
    """Map a mask over relabeled vertices back through verts."""
    return mask_of(verts[i] for i in bits(small))


def maximal_cliques_within(g: Graph, sub: int) -> List[int]:
    """Maximal cliques of G[sub] as masks, sorted.

    The empty set is the unique maximal clique of the empty graph, so
    sub == 0 yields [0].
    """
    if sub == 0:
        return [0]
    adj = g.adj
    out: List[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        # Pivot on the vertex covering the most candidates.
        best_u, best = -1, -1
        for u in bits(p | x):
            c = (p & adj[u]).bit_count()
            if c > best:
                best, best_u = c, u
        for v in bits(p & ~adj[best_u]):
            vb = 1 << v
            expand(r | vb, p & adj[v], x & adj[v])
            p &= ~vb
            x |= vb

    expand(0, sub, 0)
    out.sort()
    return out


def enumerate_maximal_independent_sets(g: Graph) -> List[int]:
    """Maximal independent sets of G, sorted."""
    return maximal_cliques_within(g.complement(), g.full)


def enumerate_minimal_separators(g: Graph) -> List[int]:
    """All inclusion-minimal a-b separators of G, sorted.

    A disconnected graph contributes the empty separator plus the minimal
    separators of each component.
    """
    n = g.n
    if n == 0:
        return []
    if not g.is_connected():
        seps = {0}
        for comp in g.components_within(g.full):
            sub, verts = g.induced_subgraph(comp)
            for s in enumerate_minimal_separators(sub):
                seps.add(expand_mask(s, verts))
        seps.discard(0)
        return [0] + sorted(seps)

    # Berry-Bordat-Cogis generation: seed with neighborhoods of the
    # components of G minus N[v], then saturate by removing N(x) for
    # each x in an already-found separator.  Many (s, x) remove the
    # same set, and a set already swept yields nothing new.
    seps = set()
    swept = set()
    queue: List[int] = []

    def sweep(rest: int) -> None:
        if rest in swept:
            return
        swept.add(rest)
        for _, s in g.component_neighborhoods(rest):
            if s and s not in seps:
                seps.add(s)
                queue.append(s)

    for v in range(n):
        sweep(g.full & ~g.nbr_closed(v))
    while queue:
        s = queue.pop()
        for x in bit_list(s):
            sweep(g.full & ~(s | g.adj[x]))
    return sorted(seps)


Sweep = List[Tuple[int, int]]


def _joined(pairs: Sweep, a: int, na: int) -> Tuple[Sweep, int]:
    """The sweep of X + a from the sweep of X, na being a's row: a merges
    the components it touches.  Also the union of their N(C)."""
    merged, reach, out = a, 0, []
    for c, nc in pairs:
        if c & na:
            merged |= c
            reach |= nc
        else:
            out.append((c, nc))
    out.append((merged, (reach | na) & ~merged))
    return out, reach


def _prefixes(g: Graph) -> Tuple[List[int], List[int], List[Graph], list]:
    """The prefixes P_i of connected G, in G's own labels: its vertices in
    BFS order from 0, the vertex set of each P_i (the first i + 1), P_i
    with G's rows masked by it, and Delta(P_i) with its new separators:
    the S in it with a not in S and S not in Delta(P_{i-1}), a being the
    vertex P_i adds, each with the components of P_i - S.  Each P_i is
    connected.  Below one listing of Delta(G), Delta(P_{i-1}) is
    {T - a : a in T in Delta(P_i)} plus the T in Delta(P_i) with a not in
    T and two full components in P_{i-1}.  For a in T, P_{i-1} - (T - a)
    = P_i - T, whose full components avoid a, and T = {a} would
    disconnect P_{i-1}.  Conversely, for S in Delta(P_{i-1}), if a
    touches two full components of S, they are full for S + a in P_i;
    else two stay full for S (Bouchitte & Todinca 2002)."""
    order = [0]
    seen = 1
    for v in order:
        for w in bits(g.adj[v] & ~seen):
            seen |= 1 << w
            order.append(w)
    within = list(accumulate((1 << v for v in order), or_))
    prefix = [Graph(g.n, [r & w for r in g.adj]) for w in within]
    levels = [([], [])] * g.n
    delta = enumerate_minimal_separators(g)
    for i in range(g.n - 1, 0, -1):
        a, na = 1 << order[i], prefix[i].adj[order[i]]
        lower = {t ^ a for t in delta if t & a}
        fresh = []
        for t in delta:
            if not (t & a or t in lower):
                pairs = prefix[i - 1].component_neighborhoods(within[i - 1] & ~t)
                if sum(nc == t for _, nc in pairs) > 1:
                    lower.add(t)
                else:
                    fresh.append((t, [c for c, _ in _joined(pairs, a, na)[0]]))
        levels[i] = delta, fresh
        delta = sorted(lower)
    return order, within, prefix, levels


def enumerate_pmcs(g: Graph) -> Tuple[List[int], List[int], Dict[int, Sweep]]:
    """The sorted PMCs and minimal separators of connected G, and each
    PMC Omega's sweep of G - Omega as component_neighborhoods orders it.

    Bouchitte-Todinca one-more-vertex listing ("Listing all potential
    maximal cliques of a graph", TCS 2002).  With a the vertex that the
    prefix P_i adds, each PMC of P_i is Omega' + a or Omega' for a PMC
    Omega' of P_{i-1}; S + a for S in Delta(P_i); or, if a is not in S
    and S not in Delta(P_{i-1}), S + (T & C) for T in Delta(P_i) and C a
    component of P_i - S.  Each PMC is kept with its sweep of P_i - Omega.
    1. Omega' + a needs no test.  P_i - (Omega' + a) = P_{i-1} - Omega'
       has Omega''s components D, and a joins N(D) iff D touches N(a).
       No N(D) was Omega', so none is Omega' + a, and pairs inside
       Omega' stay covered: Omega' + a is a PMC iff each x in
       Omega' - N(a) is in some N(D) with D touching N(a).  If not,
       Omega' is one (the listing's lemma), with a joined (_joined).
    2. Delta(P_i) comes downward from Delta(G) (_prefixes).  No minimal
       separator is a PMC, so none is tested; _pmc_sweep tests the rest.
    3. The prefixes keep G's labels and the last is G itself,
       so each sweep, sorted by least vertex, is the sweep of G - Omega.
    """
    n = g.n
    if n == 0:
        return [], [], {}
    if not g.is_connected():
        raise ValueError("PMC listing requires a connected graph")
    order, within, prefix, levels = _prefixes(g)
    sweeps: Dict[int, Sweep] = {within[0]: []}
    for i in range(1, n):
        gi, a, na = prefix[i], 1 << order[i], prefix[i].adj[order[i]]
        delta, fresh = levels[i]
        # each set met in P_i, with its sweep if it is a PMC, else None
        decided: Dict[int, Optional[Sweep]] = dict.fromkeys(delta)
        for om, pairs in sweeps.items():
            joined, reach = _joined(pairs, a, na)
            if om & ~(na | reach):
                decided[om | a], decided[om] = None, joined
            else:
                decided[om | a] = [(d, nd | a if d & na else nd) for d, nd in pairs]
        # one S's candidates at a time, each T & C once
        tries = (set(map(s.__or__, {t & c for c in comps for t in delta})) for s, comps in fresh)
        for cands in chain([{s | a for s in delta if not s & a}], tries):
            for om in cands.difference(decided):
                decided[om] = _pmc_sweep(gi, om, within[i])
        sweeps = {om: pairs for om, pairs in decided.items() if pairs is not None}
    pmcs = sorted(sweeps)
    return pmcs, levels[-1][0], {om: sorted(sweeps[om], key=lambda p: p[0] & -p[0]) for om in pmcs}


def _pmc_sweep(g: Graph, omega: int, within: int) -> Optional[Sweep]:
    """The sweep of G[within] - omega, g's rows lying inside within, if
    omega is a PMC of G[within]; else None.

    omega is a PMC iff no component of G minus omega sees all of omega,
    and every non-adjacent pair inside omega is covered by the
    neighborhood of some component.  The pair test runs per vertex: u
    passes when omega lies inside N[u] and the neighborhoods that
    contain u, so the cost is the total size of those neighborhoods.
    """
    adj = g.adj
    seen = [0] * g.n  # seen[u]: union of the N(C) that contain u
    pairs = g.component_neighborhoods(within & ~omega)
    for _, nc in pairs:
        if nc == omega:
            return None
        rest = nc
        while rest:
            low = rest & -rest
            seen[low.bit_length() - 1] |= nc
            rest ^= low
    rest = omega
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        if omega & ~(adj[u] | seen[u] | low):
            return None
        rest ^= low
    return pairs


def is_pmc(g: Graph, omega: int) -> bool:
    """Potential maximal clique test: _pmc_sweep over all of G."""
    return omega != 0 and _pmc_sweep(g, omega, g.full) is not None
