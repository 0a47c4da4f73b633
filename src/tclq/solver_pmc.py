"""Block-and-PMC dynamic program for tree-clique width.

Values are computed for full blocks (S, C): S a minimal separator, C a
component of G - S with N(C) = S.  Blocks are processed by increasing
part size.  A block's value is the minimum over potential maximal
cliques Omega with S proper-subset Omega subseteq S union C of
max(vcc(Omega), values of the sub-blocks (N(D), D) for the components D
of the part minus Omega).  Every full block admits one: the maximal
clique containing S of a minimal triangulation of the realization
R(S, C), as S is no PMC of R(S, C), where C is a full component.

All vcc values are measured in G itself.  Completing S into a clique
never changes the recurrence: every admissible Omega contains S, so the
fill edges vanish from every subproblem, and charging bags by cliques of
the filled graph would undercount the real covers.

The graph's value minimizes over all minimal separators S: the root bag
S costs vcc(S), and each component C of G - S the value of the block
(N(C), C), full as N(C) is a minimal separator with C one full
component (a full component of S lies with S - N(C) in another).  When
N(C) is a proper subset of S, the root N(C) costs no more than S: C
brings the same block, and S's root decomposition restricted to any
other component of G - N(C) witnesses that block.  N(C) is a smaller
mask, so the first strict minimum is an inclusion-minimal separator.

A block's admissible Omega come from an index, not from a scan of all
PMCs.  The minimal separators inside a PMC Omega are exactly the sets
N(D) for the components D of G - Omega, and Omega - N(D) lies in one
full component C of N(D) (Bouchitte & Todinca, SICOMP 2001), so Omega
serves each block (N(D), C).  That is every block it is admissible for:
if S proper-subset Omega subseteq S union C, another full component of
S avoids Omega and is a component D of G - Omega with N(D) = S.  Each
block's list keeps catalog order, so ties go to the same Omega.  With
each Omega the index keeps the block's sub-blocks, the components of
G - Omega that see beyond S, so the DP sweeps no part again.  Every
full block has an Omega, so these sweeps alone list the blocks.  The
catalog holds them, with those of the minimal separators, so neither
the index nor the root sweeps.

Covers are asked lazily.  An Omega's floor is the largest value of its
sub-blocks.  It is skipped when the floor, or a single search showing
vcc(Omega) >= best, rules out beating the best so far; otherwise it
costs the floor when vcc(Omega) <= floor, and vcc(Omega) only above it.
The graph itself is the last block, (empty set, V), whose options are
the minimal separators with all components of G - S.  A complete or
empty graph has none, so its value is vcc(V), one bag: the only block
with no option.

Above DENSE_MAX_N vertices, nothing here is indexed by all 2^n
subsets.  The PMCs and the minimal separators come from one listing,
graph.enumerate_pmcs, which builds the PMCs from the minimal
separators and keeps their sweeps, and every vcc test and bag
partition comes from one CoverOracle, which solves only the sets the
recurrence reads.  Up to DENSE_MAX_N vertices the catalog comes from a
Lawler table and an is_pmc sweep over all subsets.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .cover import Cover, CoverOracle, check_cap, lawler_table
from .decomposition import AugmentedTreeDecomposition, BagTree, from_bag_tree, solve_per_component
from .graph import Graph, Sweep, enumerate_minimal_separators, enumerate_pmcs, is_pmc

# Largest n whose catalog comes from the dense table and subset sweep.
# `tclq solve` over all connected graphs with n <= 4 takes 0.83 of the
# listing's time this way; with n <= 5 the two routes tie.  The
# benchmark's tracer self-test reads this route's counts on C4.
DENSE_MAX_N = 4


@dataclass
class PmcCatalog:
    pmcs: List[int]
    separators: List[int]
    # component_neighborhoods(V - X) for each PMC and minimal separator X
    sweeps: Dict[int, Sweep] = field(repr=False)
    cover: Cover = field(repr=False, default=None)


def build_catalog(g: Graph) -> Tuple[PmcCatalog, Cover]:
    """All PMCs of connected G, all minimal separators, the sweeps of
    G - X for the PMCs and minimal separators X, and the cover source
    the DP asks.

    Up to DENSE_MAX_N vertices the PMCs come from an is_pmc sweep and the
    cover is a Lawler table; above it the PMCs are listed from the
    minimal separators and the cover is a lazy oracle.  No vcc value is
    computed here."""
    check_cap(g)
    if g.n <= DENSE_MAX_N:
        cover: Cover = lawler_table(g)
        pmcs = [s for s in range(1 << g.n) if is_pmc(g, s)]
        seps = enumerate_minimal_separators(g)
        sweeps = {p: g.component_neighborhoods(g.full & ~p) for p in pmcs}
    else:
        cover = CoverOracle(g)
        pmcs, seps, sweeps = enumerate_pmcs(g)
    for s in seps:
        sweeps[s] = g.component_neighborhoods(g.full & ~s)
    return PmcCatalog(pmcs, seps, sweeps, cover), cover


def block_index(g: Graph, catalog: PmcCatalog) -> Dict[Tuple[int, int], list]:
    """The full blocks (S, C) by part size, each with its admissible
    PMCs in catalog order (the index in the module docstring), read off
    the catalog's sweeps of G - Omega for the PMCs Omega alone.  With
    each PMC Omega come the sub-blocks (N(D), D) for the components D of
    the part minus Omega: the components of G - Omega that see beyond S,
    in the order of the sweep."""
    served: Dict[Tuple[int, int], list] = {}
    for omega in catalog.pmcs:
        pairs = catalog.sweeps[omega]
        for _, sep in pairs:
            # C: V - S without the components of G - Omega that see only S
            comp = g.full & ~sep
            subs = []
            for d, nd in pairs:
                if nd & ~sep:
                    subs.append((nd, d))
                else:
                    comp &= ~d
            entries = served.setdefault((sep, comp), [])
            if not entries or entries[-1][0] != omega:
                entries.append((omega, subs))
    order = sorted(served, key=lambda b: ((b[0] | b[1]).bit_count(), b[0] | b[1], b[0]))
    return {blk: served[blk] for blk in order}


def tcl_via_pmc(g: Graph, catalog: PmcCatalog) -> Tuple[int, AugmentedTreeDecomposition]:
    """Exact tcl with witness for connected G via the block recurrence."""
    if not g.is_connected():
        raise ValueError("block recurrence requires a connected graph")
    cover = catalog.cover
    served = block_index(g, catalog)
    # the graph is the last block, (empty, V), with the root separators
    root = (0, g.full)
    served[root] = [(s, [(nc, c) for c, nc in catalog.sweeps[s]])
                    for s in catalog.separators]
    val: Dict[Tuple[int, int], int] = {}
    pick: Dict[Tuple[int, int], Tuple[int, List[Tuple[int, int]]]] = {}
    for blk, entries in served.items():
        part = blk[0] | blk[1]
        size = part.bit_count()
        best: Optional[int] = None
        for omega, subs in entries:
            floor = 0
            for sub in subs:
                if (sub[0] | sub[1]).bit_count() >= size:
                    raise RuntimeError("sub-block must shrink")
                if sub not in val:
                    raise RuntimeError("sub-block value missing from the schedule")
                floor = max(floor, val[sub])
            if best is not None and (floor >= best or not cover.at_most(omega, best - 1)):
                continue
            best = floor if cover.at_most(omega, floor) else cover.value(omega)
            pick[blk] = omega, subs
        if best is None:
            # a root with no separator, a complete graph: one bag
            best = cover.value(part)
            pick[blk] = part, []
        val[blk] = best

    def block_witness(blk: Tuple[int, int]) -> BagTree:
        bag, subs = pick[blk]
        return bag, [block_witness(sub) for sub in subs]

    return val[root], from_bag_tree(g, block_witness(root), cover.partition)


def _tcl_connected(g: Graph) -> Tuple[int, AugmentedTreeDecomposition]:
    return tcl_via_pmc(g, build_catalog(g)[0])


def compute_tcl(g: Graph) -> Tuple[int, AugmentedTreeDecomposition]:
    """The block recurrence, per component (solve_per_component)."""
    return solve_per_component(g, _tcl_connected)
