"""Separator dynamic program for tree-clique width.

The decision procedure answers tcl(G) <= k by processing blocks: a block
entry is a separator S together with one component c of G - S (the part
is S union c).  An entry is a yes when any of three rules applies:

  base       vcc(S union c) <= k: the whole part fits in one bag.
  reduction  N(c) is a proper subset of S and (N(c), c) is a yes: the
             unused separator vertices retreat into a bag of their own.
  hub        some v in c has vcc(S union {v}) <= k and every component D
             of c - {v} yields a yes entry (N(D), D); the bag S union
             {v} then covers the junction.

Sub-entries shrink the (part size, component size) pair lexicographically,
so memoized recursion terminates.  Globally, tcl(G) <= k iff vcc(V) <= k
or some separator with vcc <= k makes every entry a yes.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .bitset import bits
from .cover import CoverTable, lawler_table
from .decomposition import AugmentedTreeDecomposition, sanitize, solve_per_component
from .graph import Graph


@dataclass
class BlockEntry:
    separator: int
    part: int
    size: int
    answer: Optional[bool] = None
    witness: Optional["_WNode"] = None


@dataclass
class _WNode:
    bag: int
    children: List["_WNode"]


def _to_decomposition(g: Graph, table: CoverTable, root: _WNode) -> AugmentedTreeDecomposition:
    parents: List[int] = []
    bags: List[int] = []
    covers: List[Tuple[int, ...]] = []
    stack: List[Tuple[_WNode, int]] = [(root, -1)]
    while stack:
        node, parent = stack.pop()
        idx = len(parents)
        parents.append(parent)
        bags.append(node.bag)
        covers.append(tuple(sorted(table.partition(node.bag))))
        for ch in reversed(node.children):
            stack.append((ch, idx))
    return AugmentedTreeDecomposition(tuple(parents), tuple(bags), tuple(covers))


def decide_tcl_at_most_k(
    g: Graph,
    k: int,
    table: CoverTable,
    entries: Optional[Dict[Tuple[int, int], BlockEntry]] = None,
) -> Tuple[bool, Optional[AugmentedTreeDecomposition]]:
    """Decide tcl(G) <= k for connected G; on yes, return a sanitized
    witness decomposition of width at most k.

    The optional entries dict collects the processed block entries for
    instrumentation.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not g.is_connected():
        raise ValueError("decision procedure requires a connected graph")
    values = table.values
    if values[g.full] <= k:
        atd = _to_decomposition(g, table, _WNode(g.full, []))
        if g.n:
            atd = sanitize(g, atd)
        return True, atd
    if entries is None:
        entries = {}

    def yes(sep: int, comp: int) -> Optional[_WNode]:
        key = (sep, comp)
        ent = entries.get(key)
        if ent is not None and ent.answer is not None:
            return ent.witness if ent.answer else None
        part = sep | comp
        ent = BlockEntry(sep, part, part.bit_count())
        entries[key] = ent
        if values[part] <= k:
            ent.answer, ent.witness = True, _WNode(part, [])
            return ent.witness
        nb = g.neighbors(comp)
        if nb != sep:
            w = yes(nb, comp)
            if w is not None:
                ent.answer, ent.witness = True, _WNode(sep, [w])
                return ent.witness
        for v in bits(comp):
            hub = sep | (1 << v)
            if values[hub] > k:
                continue
            subs = g.components_within(comp & ~(1 << v))
            kids = []
            for d in subs:
                w = yes(g.neighbors(d), d)
                if w is None:
                    kids = None
                    break
                kids.append(w)
            if kids is not None:
                ent.answer, ent.witness = True, _WNode(hub, kids)
                return ent.witness
        ent.answer = False
        return None

    # separators in (size, mask) order so the first witness is stable
    cands = [s for s in range(1, g.full) if values[s] <= k]
    cands.sort(key=lambda s: (s.bit_count(), s))
    for s in cands:
        comps = g.components_within(g.full & ~s)
        if len(comps) < 2:
            continue
        kids = []
        for c in comps:
            w = yes(s, c)
            if w is None:
                kids = None
                break
            kids.append(w)
        if kids is not None:
            atd = _to_decomposition(g, table, _WNode(s, kids))
            atd = sanitize(g, atd)
            return True, atd
    return False, None


def _tcl_connected(g: Graph) -> Tuple[int, AugmentedTreeDecomposition]:
    table = lawler_table(g)
    k = 1
    while True:
        ok, atd = decide_tcl_at_most_k(g, k, table)
        if ok:
            return k, atd
        k += 1


def compute_tcl(g: Graph) -> Tuple[int, AugmentedTreeDecomposition]:
    """Minimum k with a witness, per component (solve_per_component)."""
    return solve_per_component(g, _tcl_connected)
