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
"""

from functools import cache
from typing import Iterable, List, Optional, Sequence, Tuple

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


def enumerate_pmcs(g: Graph) -> Tuple[List[int], List[int]]:
    """The sorted PMCs and the sorted minimal separators of connected G.

    Bouchitte-Todinca one-more-vertex listing ("Listing all potential
    maximal cliques of a graph", TCS 2002).  Vertices are added in BFS
    order, so every prefix graph G_i is connected.  With a the vertex
    that G_{i+1} adds, every PMC of G_{i+1} is one of: Omega' + a or
    Omega' for a PMC Omega' of G_i; S + a for S in Delta(G_{i+1}); or,
    when a is not in S and S is not in Delta(G_i), S + (T & C) for T in
    Delta(G_{i+1}) and C a component of G_{i+1} - S.  By the lemma
    behind the listing, Omega' + a or Omega' is a PMC of G_{i+1}, so
    Omega' is kept untested when Omega' + a fails.  A minimal separator
    is never a PMC, so S + a with a in S, and every other candidate in
    Delta(G_{i+1}), is never tested.  The S + (T & C) of one S form one
    set, and each remaining candidate is checked once with is_pmc, so
    the work follows the number of minimal separators and PMCs instead
    of 2^n.  The last prefix graph is G itself, so its Delta is
    returned alongside.
    """
    n = g.n
    if n == 0:
        return [], []
    if not g.is_connected():
        raise ValueError("PMC listing requires a connected graph")
    order = [0]
    seen = 1
    for v in order:
        for w in bits(g.adj[v] & ~seen):
            seen |= 1 << w
            order.append(w)
    pos = {v: i for i, v in enumerate(order)}
    # h is g relabeled so that the prefix graph G_i has vertices 0..i-1
    h_adj = [mask_of(pos[w] for w in bits(g.adj[v])) for v in order]

    pmcs = {1}
    seps: List[int] = []
    prev_seps = set()
    for i in range(1, n):
        low = (1 << (i + 1)) - 1
        gi = Graph(i + 1, [a & low for a in h_adj[:i + 1]])
        a = 1 << i
        seps = enumerate_minimal_separators(gi)
        sep_set = set(seps)
        # a minimal separator is never a PMC, so it is never tested
        pmc = cache(lambda om: om not in sep_set and is_pmc(gi, om))
        found = set()
        for om in pmcs:
            found.add(om | a if pmc(om | a) else om)
        for s in seps:
            if s & a:
                continue
            if pmc(s | a):
                found.add(s | a)
            if s in prev_seps:
                continue
            comps = gi.components_within(gi.full & ~s)
            cands = {s | (t & c) for t in seps for c in comps}
            found.update(om for om in cands - found if pmc(om))
        pmcs, prev_seps = found, sep_set
    return (sorted(expand_mask(p, order) for p in pmcs),
            sorted(expand_mask(s, order) for s in seps))


def is_pmc(g: Graph, omega: int) -> bool:
    """Potential maximal clique test.

    omega is a PMC iff no component of G minus omega sees all of omega,
    and every non-adjacent pair inside omega is covered by the
    neighborhood of some component.  The pair test runs per vertex: u
    passes when omega lies inside N[u] and the neighborhoods that
    contain u, so the cost is the total size of those neighborhoods.
    """
    if omega == 0:
        return False
    adj = g.adj
    seen = [0] * g.n  # seen[u]: union of the N(C) that contain u
    for _, nc in g.component_neighborhoods(g.full & ~omega):
        if nc == omega:
            return False
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
            return False
        rest ^= low
    return True
