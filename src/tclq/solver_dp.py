"""Separator dynamic program for tree-clique width.

The decision procedure answers tcl(G) <= k by processing blocks: a block
entry is a full block (S, c), a component c of G - S with N(c) = S (the
part is S union c).  An entry is a yes when either rule applies:

  base  vcc(S union c) <= k: the whole part fits in one bag.
  hub   some v in c has vcc(S union {v}) <= k and every component D of
        c - {v} yields a yes entry (N(D), D); the bag S union {v} then
        covers the junction.

Sub-entries shrink the (part size, component size) pair lexicographically,
so memoized recursion terminates, and no entry is read while it is still
open.  The memo, the entries dict, maps each answered (S, c) to its
witness, the BagTree of the rule that said yes, or to None for a no.

A root S needs no rule of its own for a component c of G - S that is
not full.  N(c) is then a minimal separator with c a full component (a
full component of S other than c lies in a component of G - N(c) that
sees all of N(c)), and (S, c) would be a yes exactly when (N(c), c) is:
the base and hub tests are monotone under subsets, and the witness of
(N(c), c) hangs below the bag S.  So every entry is keyed by its exact
neighbourhood, which comes from the sweep that found c.  Every entry has
vcc(S) <= k (S lies in a root or a hub bag), so at k <= 2 the hubs of an
entry are read off neighbourhood masks (cover.hubs_within) with no
search, and at k >= 3 one test vcc(S) <= k - 1 admits every v in c at
once, since v adds at most one class.  The sweep of a set, its
components with their neighbourhoods, reads only G, so compute_tcl
keeps one memo of sweeps for all its rounds.

Globally, tcl(G) <= k iff vcc(V) <= k or some minimal separator S with
vcc(S) <= k makes the entry (N(c), c) of each component c of G - S a
yes.  Minimal separators suffice as roots: filling every bag of a
width-<=k decomposition into a clique gives a triangulation, and a
minimal triangulation inside it has each maximal clique inside some bag,
so its width is <= k too, because vcc is monotone under subsets.  When
vcc(V) > k that triangulation is not complete, every edge of its clique
tree is a minimal separator S of G, and the triangulation's bags
restricted to N(c) union c witness each entry (N(c), c).

Every cover test above has the form vcc(s) <= k, so the recursion asks
its cover source at_most(s, k) and never for a count above k; bag
partitions come from partition(s) of the same source.  The source is a
CoverOracle, which decides at_most from bounds and at most one search
at k, or a dense CoverTable.  The oracle runs an exact vcc only for the
bags of the witness, and that search at k = vcc(bag) alone returns the
partition counting up from 1 would, so the witness is unchanged.
Nothing on the solve path is indexed by all 2^n subsets.

compute_tcl tries k = 1, 2, ... and skips a round that a core bound
rules out (the degeneracy-style lower bounds for treewidth of
Bodlaender and Koster, with vcc in place of the bag size).  Before the
round at k >= 2, vertices are peeled off while some v has
vcc(N[v] & alive) <= k; if a core C survives, tcl(G) > k.  Proof: a
decomposition of G of width <= k, cut down to G[C], still has width
<= k, since vcc only shrinks on subsets; and every decomposition of a
nonempty graph has a vertex whose closed neighbourhood lies in one bag
(once no bag lies in a neighbour's, a leaf bag holds a vertex its
parent's lacks, and all of that vertex's neighbours), so some v in C
would have peeled off.  Round 1 always runs: its search costs about
what its peel would.  A skipped round would have failed, so the first
round that succeeds is the same, and its witness reads its partitions
from vcc at a fixed k, which reads only the graph, the set and k.
"""

from typing import Dict, Iterator, List, Optional, Tuple

from .bitset import bits
from .cover import Cover, CoverOracle, check_cap, hubs_within
# unused here; bench/tests/test_bench.py asserts the tracer patches this binding
from .cover import lawler_table  # noqa: F401
from .decomposition import AugmentedTreeDecomposition, BagTree, from_bag_tree, solve_per_component
from .graph import Graph, enumerate_minimal_separators


def _root_order(separators: List[int]) -> List[int]:
    """Separators in (size, mask) order, so the first witness is stable."""
    return sorted(separators, key=lambda s: (s.bit_count(), s))


def decide_tcl_at_most_k(
    g: Graph,
    k: int,
    cover: Cover,
    entries: Optional[Dict[Tuple[int, int], Optional[BagTree]]] = None,
    *,
    separators: Optional[List[int]] = None,
    sweeps: Optional[Dict[int, List[Tuple[int, int]]]] = None,
) -> Tuple[bool, Optional[AugmentedTreeDecomposition]]:
    """Decide tcl(G) <= k for connected G; on yes, return a witness
    decomposition of width at most k.

    cover supplies at_most(s, k) and partition(s) (a CoverOracle or a
    CoverTable of G).  The optional entries dict collects the answered
    block entries for instrumentation.  separators are the root
    candidates, the minimal separators of G in (size, mask) order; when
    omitted they are enumerated here.  sweeps memoizes
    g.component_neighborhoods by the swept set; a caller that decides
    several k on one graph passes the same dict to each.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not g.is_connected():
        raise ValueError("decision procedure requires a connected graph")
    at_most = cover.at_most
    if at_most(g.full, k):
        return True, from_bag_tree(g, (g.full, []), cover.partition)
    if entries is None:
        entries = {}
    if sweeps is None:
        sweeps = {}
    adj = g.adj

    def sweep(s: int) -> List[Tuple[int, int]]:
        hit = sweeps.get(s)
        if hit is None:
            hit = sweeps[s] = g.component_neighborhoods(s)
        return hit

    def hubs(sep: int, comp: int) -> Iterator[int]:
        """The v in comp with vcc(sep + v) <= k, in increasing order;
        vcc(sep) <= k holds for every entry."""
        if k <= 2:
            return bits(hubs_within(adj, sep, comp, k))
        if at_most(sep, k - 1):
            return bits(comp)
        return (v for v in bits(comp) if at_most(sep | 1 << v, k))

    def all_yes(blocks: List[Tuple[int, int]]) -> Optional[List[BagTree]]:
        """The witnesses of the entries (N(c), c) for the (c, N(c)) in
        blocks, or None at the first no."""
        kids = []
        for comp, sep in blocks:
            key = (sep, comp)
            if key in entries:
                w = entries[key]
            else:
                w = entries[key] = answer(sep, comp)
            if w is None:
                return None
            kids.append(w)
        return kids

    def answer(sep: int, comp: int) -> Optional[BagTree]:
        part = sep | comp
        if at_most(part, k):
            return part, []
        for v in hubs(sep, comp):
            kids = all_yes(sweep(comp & ~(1 << v)))
            if kids is not None:
                return sep | 1 << v, kids
        return None

    if separators is None:
        separators = _root_order(enumerate_minimal_separators(g))
    for s in separators:
        if at_most(s, k):
            kids = all_yes(sweep(g.full & ~s))
            if kids is not None:
                return True, from_bag_tree(g, (s, kids), cover.partition)
    return False, None


def _core(g: Graph, alive: int, k: int, cover: Cover) -> int:
    """What is left of alive after peeling, one at a time, each vertex v
    with vcc(N[v] & alive) <= k; a removal rechecks v's live neighbours.

    The result is the largest subset of alive in which no vertex can be
    peeled, whatever the order, and it is nonempty only if tcl(G) > k.
    """
    adj, at_most = g.adj, cover.at_most
    pending = alive
    while pending:
        low = pending & -pending
        pending ^= low
        v = low.bit_length() - 1
        if at_most((adj[v] | low) & alive, k):
            alive ^= low
            pending |= adj[v] & alive
    return alive


def _tcl_connected(g: Graph) -> Tuple[int, AugmentedTreeDecomposition]:
    check_cap(g)
    cover = CoverOracle(g)
    separators = _root_order(enumerate_minimal_separators(g))
    # the sweep of a set reads only g, so every round shares one memo
    sweeps: Dict[int, List[Tuple[int, int]]] = {}
    k, core = 1, g.full
    while True:
        # the core at k + 1 lies inside the core at k, so each peel
        # starts from the last
        if k > 1:
            core = _core(g, core, k, cover)
        if k == 1 or not core:
            ok, atd = decide_tcl_at_most_k(g, k, cover, separators=separators,
                                           sweeps=sweeps)
            if ok:
                return k, atd
        k += 1


def compute_tcl(g: Graph) -> Tuple[int, AugmentedTreeDecomposition]:
    """Minimum k with a witness, per component (solve_per_component)."""
    return solve_per_component(g, _tcl_connected)
