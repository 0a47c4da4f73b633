"""Cotrees and the linear-time tree-clique width rules for cographs.

A cotree is given as an s-expression: ``(label child child ...)`` where
label 0 means disjoint union and label 1 means product (join).  Leaves
are bare atoms; a single atom by itself denotes K1.  Parsing produces a
binary cotree (k-ary nodes are folded into left-deep same-label chains),
and the per-node folds below run in one bottom-up pass each.

The folds carry (ecc, tcl), the clique cover number and the tree-clique
width.  A leaf is (1, 1); a union of A and B is (ecc(A) + ecc(B),
max(tcl(A), tcl(B))); a product is (max(ecc(A), ecc(B)),
min(max(ecc(A), tcl(B)), max(tcl(A), ecc(B)))).  ``fold_tcl`` takes
them while the expression is read, with no tree built.  That gives the
same numbers as the folds over the binary cotree.  Write x * y for the
rule of label lab applied to the values of x and y.  (lab c1 ... ck) is
binarized to (lab (... (lab c1 c2) ...) ck), whose value is
(...(c1 * c2) * ...) * ck.  The reader keeps exactly that running value
for each open node: a child is complete when it closes, which is before
its next sibling opens, and it is then folded into its parent's value.
The running value starts at the empty graph (0, 0).  tcl <= ecc at
every node, so folding a first child (e, t) into (0, 0) gives (e, t)
under either label.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .bitset import bits
from .graph import Graph

UNION = 0
PRODUCT = 1


@dataclass(frozen=True)
class Cotree:
    """Binary cotree over vertices 0..n-1.

    Nodes are 0..num_nodes-1 with node 0 the root.  kids[t] is () for a
    leaf and a (left, right) pair otherwise.  label[t] is UNION/PRODUCT
    for internal nodes and None for leaves.  leaf_vertex[t] is the
    vertex id at leaf t (leaves are numbered by first appearance in the
    expression, left to right).
    """

    kids: Tuple[Tuple[int, ...], ...]
    label: Tuple[Optional[int], ...]
    leaf_vertex: Tuple[Optional[int], ...]
    leaf_names: Tuple[str, ...]

    @property
    def num_nodes(self) -> int:
        return len(self.kids)

    @property
    def n(self) -> int:
        return len(self.leaf_names)

    def check_binary(self) -> None:
        for t, ch in enumerate(self.kids):
            if len(ch) not in (0, 2):
                raise ValueError(f"node {t} has {len(ch)} children; cotree is not binary")


class CotreeParseError(ValueError):
    pass


def _read(text: str):
    """Read one cotree expression; returns (node, ecc, tcl) of its root.

    node is a leaf name (str) or (label, [children]).  ecc and tcl are
    the folds of the module docstring, taken while the expression is
    read.  Iterative, so the nesting depth is bounded by memory, not the
    stack.  Syntax errors come first, then trailing input, then the
    first leaf name that repeats.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise CotreeParseError("empty cotree expression")
    if tokens[0] != "(":
        if tokens[0] == ")":
            raise CotreeParseError("unexpected ')'")
        if len(tokens) > 1:
            raise CotreeParseError(f"trailing input after expression: {tokens[1]!r}")
        return tokens[0], 1, 1
    # The innermost open node is (lab, kids, ecc, tcl), with ecc and tcl
    # the running fold of its children so far; the nodes enclosing it are
    # on the stack, above a sentinel with kids None that the root closes to.
    stack: List[tuple] = []
    lab, kids, ecc, tcl = None, None, 0, 0
    seen = set()
    dup = None
    it = iter(tokens)
    for tok in it:
        if tok == "(":
            stack.append((lab, kids, ecc, tcl))
            tok = next(it, None)
            if tok not in ("0", "1"):
                if tok in (None, "(", ")"):
                    raise CotreeParseError("internal node must start with a 0/1 label")
                raise CotreeParseError(f"unknown node label {tok!r} (expected 0 or 1)")
            lab, kids, ecc, tcl = int(tok), [], 0, 0
            continue
        if tok == ")":
            if len(kids) < 2:
                raise CotreeParseError(
                    f"internal node has {len(kids)} children, needs at least 2")
            node, child_ecc, child_tcl = (lab, kids), ecc, tcl
            lab, kids, ecc, tcl = stack.pop()
            if kids is None:
                tok = next(it, None)
                if tok is not None:
                    raise CotreeParseError(f"trailing input after expression: {tok!r}")
                if dup is not None:
                    raise CotreeParseError(f"duplicate leaf {dup!r}")
                return node, child_ecc, child_tcl
            kids.append(node)
        else:
            if dup is None and tok in seen:
                dup = tok
            seen.add(tok)
            kids.append(tok)
            child_ecc = child_tcl = 1
        # fold the finished child into its parent; max and min are spelled
        # out, as builtin calls here took a third of the pass
        if lab == UNION:
            ecc += child_ecc
            if child_tcl > tcl:
                tcl = child_tcl
        else:
            a = ecc if ecc > child_tcl else child_tcl
            b = tcl if tcl > child_ecc else child_ecc
            tcl = a if a < b else b
            if child_ecc > ecc:
                ecc = child_ecc
    raise CotreeParseError("missing ')'")


def fold_tcl(text: str) -> int:
    """Tree-clique width of the cograph of a cotree expression, in one pass."""
    return _read(text)[2]


def parse_and_binarize(text: str) -> Cotree:
    """Parse a cotree expression and fold k-ary nodes left-deep.

    A node (lab c1 c2 ... ck) with k > 2 becomes (lab (... (lab c1 c2)
    ...) ck).  Nodes are numbered in preorder of the binary tree, so the
    root is node 0 and a k-ary node's chain comes topmost first.
    Iterative, like the parser.
    """
    ast = _read(text)[0]
    kids: List = []
    label: List[Optional[int]] = []
    leaf_vertex: List[Optional[int]] = []
    leaf_names: List[str] = []
    # Entries are (expression, kids pair of the parent, side).  An
    # expression is a leaf name, a parsed (label, children) node, or a
    # chain node (label, children, m) standing for the fold of the first
    # m children; a parsed node is the chain over all of its children.
    # A node is numbered when it pops, in preorder.
    stack = [(ast, None, 0)]
    while stack:
        node, slot, side = stack.pop()
        if slot is not None:
            slot[side] = len(kids)
        if type(node) is str:
            kids.append(())
            label.append(None)
            leaf_vertex.append(len(leaf_names))
            leaf_names.append(node)
            continue
        lab, children, m = node if len(node) == 3 else (*node, len(node[1]))
        pair = [-1, -1]
        kids.append(pair)
        label.append(lab)
        leaf_vertex.append(None)
        stack.append((children[m - 1], pair, 1))
        stack.append((children[0] if m == 2 else (lab, children, m - 1), pair, 0))
    return Cotree(tuple(map(tuple, kids)), tuple(label), tuple(leaf_vertex),
                  tuple(leaf_names))


def _postorder(tree: Cotree) -> List[int]:
    order: List[int] = []
    stack = [0]
    while stack:
        t = stack.pop()
        order.append(t)
        stack.extend(tree.kids[t])
    order.reverse()
    return order


def cotree_to_graph(tree: Cotree) -> Graph:
    """Realize the cograph: label 0 is disjoint union, label 1 joins."""
    n = tree.n
    adj = [0] * n
    vmask = [0] * tree.num_nodes
    for t in _postorder(tree):
        if not tree.kids[t]:
            vmask[t] = 1 << tree.leaf_vertex[t]
            continue
        a, b = tree.kids[t]
        vmask[t] = vmask[a] | vmask[b]
        if tree.label[t] == PRODUCT:
            for u in bits(vmask[a]):
                adj[u] |= vmask[b]
            for u in bits(vmask[b]):
                adj[u] |= vmask[a]
    return Graph(n, adj)


def compute_ecc(tree: Cotree, visits: Optional[List[int]] = None) -> List[int]:
    """Per-node clique cover numbers of the realized subgraphs.

    Leaf: 1.  Union: left + right.  Product: max(left, right).  When
    ``visits`` is given, every evaluated node id is appended to it (each
    node exactly once).
    """
    tree.check_binary()
    vals = [0] * tree.num_nodes
    for t in _postorder(tree):
        if visits is not None:
            visits.append(t)
        if not tree.kids[t]:
            vals[t] = 1
        elif tree.label[t] == UNION:
            vals[t] = vals[tree.kids[t][0]] + vals[tree.kids[t][1]]
        else:
            vals[t] = max(vals[tree.kids[t][0]], vals[tree.kids[t][1]])
    return vals


def compute_tcl(tree: Cotree, visits: Optional[List[int]] = None) -> List[int]:
    """Per-node tree-clique width of the realized subgraphs.

    Leaf: 1.  Union: max of children.  Product of A and B:
    min(max(cover(A), tcl(B)), max(tcl(A), cover(B))).
    """
    tree.check_binary()
    ecc = compute_ecc(tree)
    vals = [0] * tree.num_nodes
    for t in _postorder(tree):
        if visits is not None:
            visits.append(t)
        if not tree.kids[t]:
            vals[t] = 1
        else:
            a, b = tree.kids[t]
            if tree.label[t] == UNION:
                vals[t] = max(vals[a], vals[b])
            else:
                vals[t] = min(max(ecc[a], vals[b]), max(vals[a], ecc[b]))
    return vals
