"""Block-and-PMC dynamic program for tree-clique width.

Values are computed for full blocks (S, C): S a minimal separator, C a
component of G - S with N(C) = S.  Blocks are processed by increasing
part size.  A block's value is the minimum over potential maximal
cliques Omega with S proper-subset Omega subseteq S union C of
max(vcc(Omega), values of the sub-blocks (N(D), D) for the components D
of the part minus Omega); a block admitting no such Omega is an
inclusion-minimal block and costs vcc of its whole part (one bag).

All vcc values are measured in G itself.  Completing S into a clique
never changes the recurrence: every admissible Omega contains S, so the
fill edges vanish from every subproblem, and charging bags by cliques of
the filled graph would undercount the real covers.

The graph's value minimizes over inclusion-minimal separators S: the
root bag S costs vcc(S), each full component contributes its block
value, and each non-full component C contributes the value of the full
block (N(C), C).

A block's admissible Omega come from an index, not from a scan of all
PMCs.  The minimal separators inside a PMC Omega are exactly the sets
N(D) for the components D of G - Omega, and Omega - N(D) lies in one
full component C of N(D) (Bouchitte & Todinca, SICOMP 2001), so Omega
serves each block (N(D), C).  That is every block it is admissible for:
if S proper-subset Omega subseteq S union C, another full component of
S avoids Omega and is a component D of G - Omega with N(D) = S.  Each
block's list keeps catalog order, so ties go to the same Omega.

Above DENSE_MAX_N vertices, nothing here is indexed by all 2^n
subsets.  The PMCs and the minimal separators come from one listing
(graph.enumerate_pmcs and its helper), which builds the PMCs from the
minimal separators, and every vcc value and bag partition comes from one
memoized CoverOracle, which solves only the PMCs, separators and bags
the recurrence reads.  Up to DENSE_MAX_N vertices the catalog comes from
a Lawler table and an is_pmc sweep over all subsets.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .cover import Cover, CoverOracle, _check_cap, lawler_table
from .decomposition import AugmentedTreeDecomposition, BagTree, from_bag_tree, solve_per_component
from .graph import Graph, _pmcs_and_separators, enumerate_minimal_separators, is_pmc

# Largest n whose catalog comes from the dense table and subset sweep.
# `tclq solve` over all connected graphs with n <= 4 takes 0.83 of the
# listing's time this way; with n <= 5 the two routes tie.  The
# benchmark's tracer self-test reads this route's counts on C4.
DENSE_MAX_N = 4


@dataclass
class PmcCatalog:
    pmcs: List[int]
    pmc_vcc: Dict[int, int]
    separators: List[int]
    sep_vcc: Dict[int, int]
    inclusion_minimal: List[int]
    cover: Cover = field(repr=False, default=None)


def build_catalog(g: Graph) -> Tuple[PmcCatalog, Cover]:
    """All PMCs of connected G, all minimal separators, their vcc values
    from one shared cover source, and the inclusion-minimal separators.

    Up to DENSE_MAX_N vertices the PMCs come from an is_pmc sweep and the
    values from a Lawler table; above it the PMCs are listed from the
    minimal separators and the values come from a lazy oracle."""
    _check_cap(g)
    if g.n <= DENSE_MAX_N:
        cover: Cover = lawler_table(g)
        pmcs = [s for s in range(1 << g.n) if is_pmc(g, s)]
        seps = enumerate_minimal_separators(g)
    else:
        cover = CoverOracle(g)
        pmcs, seps = _pmcs_and_separators(g)
    sep_set = set(seps)
    incl_min = [s for s in seps if not any(t != s and t & ~s == 0 for t in sep_set)]
    catalog = PmcCatalog(
        pmcs=pmcs,
        pmc_vcc={p: cover.value(p) for p in pmcs},
        separators=seps,
        sep_vcc={s: cover.value(s) for s in seps},
        inclusion_minimal=incl_min,
        cover=cover,
    )
    return catalog, cover


def block_index(g: Graph, catalog: PmcCatalog) -> Dict[Tuple[int, int], List[int]]:
    """The full blocks (S, C) by part size, each with its admissible
    PMCs in catalog order (the index in the module docstring)."""
    blocks: List[Tuple[int, int]] = []
    for s in catalog.separators:
        for c, nc in g.component_neighborhoods(g.full & ~s):
            if nc == s:
                blocks.append((s, c))
    blocks.sort(key=lambda b: ((b[0] | b[1]).bit_count(), b[0] | b[1], b[0]))
    served: Dict[Tuple[int, int], List[int]] = {blk: [] for blk in blocks}
    for omega in catalog.pmcs:
        pairs = g.component_neighborhoods(g.full & ~omega)
        for _, sep in pairs:
            # C: V - S without the components of G - Omega that see only S
            comp = g.full & ~sep
            for d, nd in pairs:
                if nd & ~sep == 0:
                    comp &= ~d
            omegas = served[(sep, comp)]
            if not omegas or omegas[-1] != omega:
                omegas.append(omega)
    return served


def tcl_via_pmc(g: Graph, catalog: PmcCatalog) -> Tuple[int, AugmentedTreeDecomposition]:
    """Exact tcl with witness for connected G via the block recurrence."""
    if not g.is_connected():
        raise ValueError("block recurrence requires a connected graph")
    cover = catalog.cover
    if not catalog.separators:
        # no separator means the graph is complete or empty: one bag
        return cover.value(g.full), from_bag_tree(g, (g.full, []), cover)

    served = block_index(g, catalog)
    val: Dict[Tuple[int, int], int] = {}
    pick: Dict[Tuple[int, int], Optional[int]] = {}
    for blk, omegas in served.items():
        sep, comp = blk
        part = sep | comp
        best: Optional[int] = None
        best_omega: Optional[int] = None
        for omega in omegas:
            cost = catalog.pmc_vcc[omega]
            for d, nd in g.component_neighborhoods(part & ~omega):
                sub = (nd, d)
                if (nd | d).bit_count() >= part.bit_count():
                    raise RuntimeError("sub-block must shrink")
                if sub not in val:
                    raise RuntimeError("sub-block value missing from the schedule")
                cost = max(cost, val[sub])
            if best is None or cost < best:
                best, best_omega = cost, omega
        if best is None:
            # inclusion-minimal block: single realization bag
            best, best_omega = cover.value(part), None
        val[blk] = best
        pick[blk] = best_omega

    best_total: Optional[int] = None
    best_sep: Optional[int] = None
    for s in catalog.inclusion_minimal:
        total = catalog.sep_vcc[s]
        for c, nc in g.component_neighborhoods(g.full & ~s):
            sub = (nc, c)
            if sub not in val:
                raise RuntimeError("component block value missing")
            total = max(total, val[sub])
        if best_total is None or total < best_total:
            best_total, best_sep = total, s

    def block_witness(sep: int, comp: int) -> BagTree:
        omega = pick[(sep, comp)]
        part = sep | comp
        if omega is None:
            return part, []
        return omega, [block_witness(nd, d)
                       for d, nd in g.component_neighborhoods(part & ~omega)]

    root = (best_sep, [block_witness(nc, c)
                       for c, nc in g.component_neighborhoods(g.full & ~best_sep)])
    return best_total, from_bag_tree(g, root, cover)


def _tcl_connected(g: Graph) -> Tuple[int, AugmentedTreeDecomposition]:
    return tcl_via_pmc(g, build_catalog(g)[0])


def compute_tcl(g: Graph) -> Tuple[int, AugmentedTreeDecomposition]:
    """The block recurrence, per component (solve_per_component)."""
    return solve_per_component(g, _tcl_connected)
