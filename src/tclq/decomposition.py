"""Augmented tree decompositions: model, validation, width, sanitize.

A decomposition is a rooted tree (node 0 is the root, parents[0] == -1)
with a bag per node and an explicit clique collection per node covering
the bag.  Validation returns a report of violated conditions instead of
raising.  A vertex's bags form one subtree exactly when just one of
them is topmost, the root's or one whose parent lacks the vertex, so
validate counts topmost bags instead of searching the tree.  Witnesses
take one path: all three exact solvers hand their tree of bags to
from_bag_tree, which numbers it, contracts each bag that contains or
lies in its parent's, covers and validates it.  A solver's tree needs
no other rewrite.  sanitize serves foreign decompositions: it contracts
the same way, and also prunes adhesion vertices with no neighbour in
their component and splits disconnected components, then re-derives
minimum covers.  Both general solvers reach disconnected graphs through
solve_per_component.
"""

from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from .bitset import bit_list, bits, lowest_bit
from .cover import CoverOracle
from .graph import Graph, expand_mask


@dataclass(frozen=True)
class AugmentedTreeDecomposition:
    parents: Tuple[int, ...]
    bags: Tuple[int, ...]
    covers: Tuple[Tuple[int, ...], ...]

    @property
    def num_nodes(self) -> int:
        return len(self.parents)

    def children(self) -> List[List[int]]:
        out: List[List[int]] = [[] for _ in self.parents]
        for i, p in enumerate(self.parents):
            if p >= 0:
                out[p].append(i)
        return out


# A solver's witness before numbering: (bag, [child BagTree, ...]).
BagTree = Tuple[int, list]


@dataclass
class ValidityReport:
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return "valid" if self.ok else "; ".join(self.violations)


def _tree_structure_errors(d: AugmentedTreeDecomposition) -> List[str]:
    n = d.num_nodes
    errs = []
    if n == 0:
        return ["decomposition has no nodes"]
    if len(d.bags) != n or len(d.covers) != n:
        return ["bags/covers length does not match node count"]
    if d.parents[0] != -1:
        errs.append("node 0 must be the root (parent -1)")
    for i in range(1, n):
        p = d.parents[i]
        if not (0 <= p < n):
            errs.append(f"node {i} has out-of-range parent {p}")
    if errs:
        return errs
    # every node must reach the root without revisiting
    for i in range(n):
        seen = set()
        v = i
        while v != 0:
            if v in seen:
                return [f"parent links contain a cycle through node {v}"]
            seen.add(v)
            v = d.parents[v]
    return []


def validate(g: Graph, d: AugmentedTreeDecomposition) -> ValidityReport:
    """Check the decomposition conditions and report every violation.

    The width semantics is vertex covering: per bag the cliques must be
    cliques of G, be contained in the bag, and union to exactly the bag.
    A G-edge inside a bag need not lie inside one of its cliques; solver
    outputs use disjoint minimum covers.
    """
    report = ValidityReport()
    errs = _tree_structure_errors(d)
    if errs:
        report.violations.extend(errs)
        return report
    n = d.num_nodes

    union_bags = 0
    for b in d.bags:
        if b & ~g.full:
            report.violations.append(f"bag contains out-of-range vertices: {bin(b)}")
            return report
        union_bags |= b
    if union_bags != g.full:
        missing = bit_list(g.full & ~union_bags)
        report.violations.append(f"vertex coverage: vertices {missing} in no bag")

    # reach[u]: the vertices that share a bag with u; split: the
    # vertices with a second topmost bag.  An edge uv, u < v, is covered
    # when v is in reach[u], so row u's missing edges are its bits above
    # u outside reach[u].
    reach = [0] * g.n
    tops = split = 0
    for b, p in zip(d.bags, d.parents):
        for u in bits(b):
            reach[u] |= b
        top = b & ~d.bags[p] if p >= 0 else b
        split |= tops & top
        tops |= top
    for u, row in enumerate(g.adj):
        for v in bits(row & ~reach[u] & -(2 << u)):
            report.violations.append(f"edge coverage: edge ({u},{v}) in no bag")
    for v in bits(split):
        report.violations.append(f"subtree connectivity: vertex {v} bags are disconnected")

    for t in range(n):
        cover_union = 0
        for c in d.covers[t]:
            if c & ~d.bags[t]:
                report.violations.append(f"clique validity: node {t} clique leaves the bag")
            if not g.is_clique(c):
                report.violations.append(f"clique validity: node {t} set {bit_list(c)} is not a clique")
            cover_union |= c
        if cover_union != d.bags[t]:
            report.violations.append(f"cover union: node {t} cliques do not union to the bag")
    return report


def width(d: AugmentedTreeDecomposition) -> int:
    return max((len(c) for c in d.covers), default=0)


def _contract(parents: List[int], bags: List[int], kids: Dict[int, List[int]]) -> None:
    """Contract, lowest node first, each node whose bag contains or lies
    in its parent's into that parent, which keeps the union and adopts
    the node's children; kids maps each live node to its children, both
    in increasing order.  In a valid decomposition a contraction makes
    no pair comparable that was not, so one pass over the nodes
    comparable at the start, each contracted if it still is, makes the
    contractions that restarting from the lowest node would."""

    def comparable(t: int) -> bool:
        p = parents[t]
        return p >= 0 and bags[t] | bags[p] in (bags[t], bags[p])

    for c in [t for t in kids if comparable(t)]:
        if comparable(c):
            p = parents[c]
            bags[p] |= bags[c]
            moved = kids.pop(c)
            for u in moved:
                parents[u] = p
            kids[p] = sorted([u for u in kids[p] if u != c] + moved)


def _renumbered(g: Graph, parents: List[int], bags: List[int], kids: Dict[int, List[int]],
                partition: Callable[[int], Iterable[int]]) -> AugmentedTreeDecomposition:
    """The tree under node 0 renumbered breadth-first, children in (bag,
    node) order, each bag covered by partition; raises RuntimeError if
    it is not a decomposition of g."""
    order = [0]
    for t in order:
        order.extend(sorted(kids[t], key=lambda i: (bags[i], i)))
    pos = {t: i for i, t in enumerate(order)}
    out = AugmentedTreeDecomposition(
        (-1,) + tuple(pos[parents[t]] for t in order[1:]),
        tuple(bags[t] for t in order),
        tuple(tuple(sorted(partition(bags[t]))) for t in order))
    rep = validate(g, out)
    if not rep.ok:
        raise RuntimeError(f"rebuilt tree is not a decomposition: {rep}")
    return out


def from_bag_tree(g: Graph, root: BagTree,
                  partition: Callable[[int], Iterable[int]]) -> AugmentedTreeDecomposition:
    """A solver's nested (bag, children) tree as a witness: nodes
    numbered in preorder, children in list order, then contracted,
    renumbered, covered by partition and validated as sanitize does.
    A solver's tree needs none of sanitize's other rewrites."""
    parents: List[int] = []
    bags: List[int] = []
    kids: Dict[int, List[int]] = {}
    stack: List[Tuple[BagTree, int]] = [(root, -1)]
    while stack:
        (bag, children), parent = stack.pop()
        t = len(bags)
        stack.extend((ch, t) for ch in reversed(children))
        parents.append(parent)
        bags.append(bag)
        kids[t] = []
        if parent >= 0:
            kids[parent].append(t)
    _contract(parents, bags, kids)
    return _renumbered(g, parents, bags, kids, partition)


def sanitize(g: Graph, d: AugmentedTreeDecomposition) -> AugmentedTreeDecomposition:
    """Normalize a valid decomposition into a sane one.

    Applies one mass-reducing rewrite at a time until none applies, in
    this order: contract the lowest node whose bag contains or lies in
    its parent's (the parent keeps the union); prune, at the lowest
    non-root node, the adhesion vertices with no neighbor in its
    component from its whole subtree; split the lowest non-root node
    whose component is disconnected into per-piece clones of its
    subtree, bags clipped to piece plus adhesion.  Afterwards every
    bag's cover is a minimum clique partition from a fresh CoverOracle
    of g, and nodes are renumbered breadth-first.  Bags only ever
    shrink, so the width never increases.
    """
    rep = validate(g, d)
    if not rep.ok:
        raise ValueError(f"sanitize requires a valid decomposition: {rep}")

    parents: List[int] = list(d.parents)
    bags: List[int] = list(d.bags)
    # the live nodes, each with its children, both in increasing order:
    # that order picks the lowest node and numbers a split's clones
    kids: Dict[int, List[int]] = {t: [] for t in range(len(bags))}
    for t, p in enumerate(parents):
        if p >= 0:
            kids[p].append(t)

    def prune_or_split() -> bool:
        split = None
        for t in kids:
            par = parents[t]
            if par < 0:
                # the root's component is all of V: connected, no adhesion
                continue
            sub, stack, cone = [], [t], 0
            while stack:
                u = stack.pop()
                sub.append(u)
                cone |= bags[u]
                stack.extend(kids[u])
            adhesion = bags[t] & bags[par]
            comp = cone & ~adhesion
            drop = 0
            for v in bits(adhesion):
                if g.adj[v] & comp == 0:
                    drop |= 1 << v
            if drop:
                for u in sub:
                    bags[u] &= ~drop
                return True
            if split is None:
                pieces = g.components_within(comp)
                if len(pieces) > 1:
                    split = t, par, sub, adhesion, pieces
        if split is None:
            return False
        t, par, sub, adhesion, pieces = split
        kids[par].remove(t)
        for piece in pieces:
            keep = piece | adhesion
            remap: Dict[int, int] = {}
            for u in sub:
                remap[u] = new = len(bags)
                parent = par if u == t else remap[parents[u]]
                parents.append(parent)
                bags.append(bags[u] & keep)
                kids[new] = []
                kids[parent].append(new)
        for u in sub:
            del kids[u]
        return True

    steps = 0
    cap = 200 + 40 * len(bags) * max(1, g.n)
    _contract(parents, bags, kids)
    while prune_or_split():
        _contract(parents, bags, kids)
        steps += 1
        if steps > cap:
            raise RuntimeError("sanitize failed to converge")
    return _renumbered(g, parents, bags, kids, CoverOracle(g).partition)


def relabel(d: AugmentedTreeDecomposition, verts: Sequence[int]) -> AugmentedTreeDecomposition:
    """Map a decomposition over relabeled vertices back through verts."""
    bags = tuple(expand_mask(b, verts) for b in d.bags)
    covers = tuple(tuple(expand_mask(c, verts) for c in cov) for cov in d.covers)
    return AugmentedTreeDecomposition(d.parents, bags, covers)


def combine_forest(parts: List[AugmentedTreeDecomposition]) -> AugmentedTreeDecomposition:
    """Join per-component decompositions into one tree by hanging the
    later roots under the first root.  Valid because the vertex sets are
    disjoint."""
    if not parts:
        raise ValueError("combine_forest needs at least one decomposition")
    parents: List[int] = []
    bags: List[int] = []
    covers: List[Tuple[int, ...]] = []
    for d in parts:
        offset = len(parents)
        for i, p in enumerate(d.parents):
            if p == -1:
                parents.append(0 if offset else -1)
            else:
                parents.append(p + offset)
            bags.append(d.bags[i])
            covers.append(tuple(d.covers[i]))
    return AugmentedTreeDecomposition(tuple(parents), tuple(bags), tuple(covers))


def solve_per_component(
    g: Graph, solve_connected: Callable[[Graph], Tuple[int, AugmentedTreeDecomposition]],
) -> Tuple[int, AugmentedTreeDecomposition]:
    """tcl of g with a witness from a solver for connected graphs: the
    maximum over components, and the per-component trees joined into one
    in least-vertex order.

    A clique component is answered without the solver: tcl 1, one bag
    covered by one clique, which is the witness both solvers give it.
    The isolated vertices are such components; they are read off the
    adjacency rows in one pass, and only the rest is swept.  A component
    that is all of g is solved on g itself, with no relabelling."""
    if g.n == 0:
        return 0, AugmentedTreeDecomposition((-1,), (0,), ((),))

    def one_bag(comp: int) -> AugmentedTreeDecomposition:
        return AugmentedTreeDecomposition((-1,), (comp,), ((comp,),))

    parts = {v: one_bag(1 << v) for v, row in enumerate(g.adj) if not row}
    best = 1 if parts else 0
    # the union of the rows is the set of vertices with a neighbour
    for comp in g.components_within(reduce(or_, filter(None, g.adj), 0)):
        if g.is_clique(comp):
            k, atd = 1, one_bag(comp)
        elif comp == g.full:
            k, atd = solve_connected(g)
        else:
            sub, verts = g.induced_subgraph(comp)
            k, atd = solve_connected(sub)
            atd = relabel(atd, verts)
        best = max(best, k)
        parts[lowest_bit(comp)] = atd
    return best, combine_forest([parts[v] for v in sorted(parts)])
