"""Cotrees and the linear-time tree-clique width rules for cographs.

A cotree is given as an s-expression: ``(label child child ...)`` where
label 0 means disjoint union and label 1 means product (join).  Leaves
are bare atoms; a single atom by itself denotes K1.

``fold_tcl`` is the one reader: it checks the expression and folds the
answer while it reads, keeping for each open node only its label, its
child count and the running (ecc, tcl) of its children, with no tree
built.  ``parse_and_binarize`` lets it check the text, then builds the
nested nodes with a loop that checks nothing and binarizes them (k-ary
nodes become left-deep same-label chains); the per-node folds over
that binary cotree run in one bottom-up pass each.

The folds carry (ecc, tcl), the clique cover number and the tree-clique
width.  A leaf is (1, 1); a union of A and B is (ecc(A) + ecc(B),
max(tcl(A), tcl(B))); a product is (max(ecc(A), ecc(B)),
min(max(ecc(A), tcl(B)), max(tcl(A), ecc(B)))).  ``fold_tcl`` gives
the same numbers as the folds over the binary cotree.  Write x * y for
the rule of label lab applied to the values of x and y.  (lab c1 ... ck)
is binarized to (lab (... (lab c1 c2) ...) ck), whose value is
(...(c1 * c2) * ...) * ck.  The reader keeps exactly that running value
for each open node: a child is complete when it closes, which is before
its next sibling opens, and it is then folded into its parent's value.
The running value starts at the empty graph (0, 0).  tcl <= ecc at
every node, so folding a first child (e, t) into (0, 0) gives (e, t)
under either label.  So a leaf (1, 1) folds in directly: under a union
ecc rises by 1, under a product ecc rises to at least 1, and tcl rises to
at least 1 under either.
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


def _tokens(text: str) -> List[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def fold_tcl(text: str) -> int:
    """Tree-clique width of the cograph of a cotree expression, in one pass.

    The one cotree reader: every parse error comes from here.  Iterative,
    so the nesting depth is bounded by memory, not the stack.  Syntax
    errors come first, then trailing input, then the first leaf name that
    repeats.
    """
    tokens = _tokens(text)
    if not tokens:
        raise CotreeParseError("empty cotree expression")
    if tokens[0] != "(":
        if tokens[0] == ")":
            raise CotreeParseError("unexpected ')'")
        if len(tokens) > 1:
            raise CotreeParseError(f"trailing input after expression: {tokens[1]!r}")
        return 1
    # The innermost open node is (lab, count, ecc, tcl): its label, its
    # children so far and their running fold.  The nodes enclosing it are
    # on the stack, above a sentinel with lab None that the root closes to.
    # Leaf names are only collected; repeats are looked for at the end.
    stack: List[tuple] = []
    push, pop = stack.append, stack.pop
    names: List[str] = []
    name = names.append
    lab, count, ecc, tcl = None, 0, 0, 0
    it = iter(tokens)
    for tok in it:
        if tok == "(":
            push((lab, count, ecc, tcl))
            tok = next(it, None)
            if tok == "0":
                lab = UNION
            elif tok == "1":
                lab = PRODUCT
            elif tok in (None, "(", ")"):
                raise CotreeParseError("internal node must start with a 0/1 label")
            else:
                raise CotreeParseError(f"unknown node label {tok!r} (expected 0 or 1)")
            count = ecc = tcl = 0
        elif tok == ")":
            if count < 2:
                raise CotreeParseError(
                    f"internal node has {count} children, needs at least 2")
            child_ecc, child_tcl = ecc, tcl
            lab, count, ecc, tcl = pop()
            if lab is None:
                tok = next(it, None)
                if tok is not None:
                    raise CotreeParseError(f"trailing input after expression: {tok!r}")
                if len(set(names)) != len(names):
                    seen = set()
                    for tok in names:
                        if tok in seen:
                            raise CotreeParseError(f"duplicate leaf {tok!r}")
                        seen.add(tok)
                return child_tcl
            count += 1
            # fold the finished child into its parent; max and min are
            # spelled out, as builtin calls here took a third of the pass
            if lab:  # PRODUCT
                a = ecc if ecc > child_tcl else child_tcl
                b = tcl if tcl > child_ecc else child_ecc
                tcl = a if a < b else b
                if child_ecc > ecc:
                    ecc = child_ecc
            else:
                ecc += child_ecc
                if child_tcl > tcl:
                    tcl = child_tcl
        else:
            # a leaf (1, 1) folds in directly; ecc and tcl are 0 only
            # before the first child
            name(tok)
            count += 1
            if lab:  # PRODUCT
                if not ecc:
                    ecc = tcl = 1
            else:
                ecc += 1
                if not tcl:
                    tcl = 1
    raise CotreeParseError("missing ')'")


def parse_and_binarize(text: str) -> Cotree:
    """Parse a cotree expression and fold k-ary nodes left-deep.

    ``fold_tcl`` reads the text first and raises every parse error; the
    nested (label, children) nodes are then built from the checked tokens
    by a loop that checks nothing.  A node (lab c1 c2 ... ck) with k > 2
    becomes (lab (... (lab c1 c2) ...) ck).  Nodes are numbered in
    preorder of the binary tree, so the root is node 0 and a k-ary node's
    chain comes topmost first.  Iterative, like the reader.
    """
    fold_tcl(text)
    tokens = _tokens(text)
    ast = tokens[0]
    if ast == "(":
        open_nodes: List[tuple] = []
        it = iter(tokens)
        for tok in it:
            if tok == "(":
                node = (int(next(it)), [])
                if open_nodes:
                    open_nodes[-1][1].append(node)
                open_nodes.append(node)
            elif tok == ")":
                ast = open_nodes.pop()
            else:
                open_nodes[-1][1].append(tok)
    kids: List = []
    label: List[Optional[int]] = []
    leaf_vertex: List[Optional[int]] = []
    leaf_names: List[str] = []
    # Entries are (expression, kids pair of the parent, side).  An
    # expression is a leaf name, a (label, children) node, or a chain
    # node (label, children, m) standing for the fold of the first m
    # children; a node is the chain over all of its children.  A node is
    # numbered when it pops, in preorder.
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
