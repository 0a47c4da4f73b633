"""Cotree parsing, realization, and the linear-time cover/tcl folds."""

import random

import pytest

from tclq.cograph import (
    PRODUCT,
    UNION,
    Cotree,
    CotreeParseError,
    compute_ecc,
    compute_tcl,
    cotree_to_graph,
    fold_tcl,
    parse_and_binarize,
)
from tclq.cover import vcc
from tclq.generators import gen_corpora, gen_cotree_text
from tclq.solver_dp import compute_tcl as dp_tcl

from helpers import is_p4_free

C4_TEXT = "(1 (0 a b) (0 c d))"


def _recursive_parse(text):
    """Recursive-descent parse and left-deep fold, the reference for the
    iterative parser (within the interpreter's recursion limit)."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise CotreeParseError("empty cotree expression")

    def expr(pos):
        if pos >= len(tokens):
            raise CotreeParseError("unexpected end of input")
        tok = tokens[pos]
        if tok == ")":
            raise CotreeParseError("unexpected ')'")
        if tok != "(":
            return ("leaf", tok), pos + 1
        pos += 1
        if pos >= len(tokens) or tokens[pos] in ("(", ")"):
            raise CotreeParseError("internal node must start with a 0/1 label")
        if tokens[pos] not in ("0", "1"):
            raise CotreeParseError(f"unknown node label {tokens[pos]!r} (expected 0 or 1)")
        lab, pos, children = int(tokens[pos]), pos + 1, []
        while pos < len(tokens) and tokens[pos] != ")":
            child, pos = expr(pos)
            children.append(child)
        if pos >= len(tokens):
            raise CotreeParseError("missing ')'")
        if len(children) < 2:
            raise CotreeParseError(f"internal node has {len(children)} children, needs at least 2")
        return (lab, children), pos + 1

    ast, pos = expr(0)
    if pos != len(tokens):
        raise CotreeParseError(f"trailing input after expression: {tokens[pos]!r}")
    kids, label, leaf_vertex, names = [], [], [], []

    def new_node(lab, lv):
        kids.append(())
        label.append(lab)
        leaf_vertex.append(lv)
        return len(kids) - 1

    def fold(lab, children):
        t = new_node(lab, None)
        left = build(children[0]) if len(children) == 2 else fold(lab, children[:-1])
        kids[t] = (left, build(children[-1]))
        return t

    def build(node):
        if node[0] == "leaf":
            if node[1] in names:
                raise CotreeParseError(f"duplicate leaf {node[1]!r}")
            names.append(node[1])
            return new_node(None, len(names) - 1)
        return fold(node[0], node[1])

    build(ast)
    return Cotree(tuple(kids), tuple(label), tuple(leaf_vertex), tuple(names))


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except CotreeParseError as exc:
        return str(exc)


def _tcl_by_tree(text):
    return compute_tcl(parse_and_binarize(text))[0]


def leaf_masks(tree):
    """Per-node mask of realized leaves."""
    masks = [None] * tree.num_nodes
    stack = [(0, False)]
    while stack:
        t, done = stack.pop()
        if done or not tree.kids[t]:
            if tree.kids[t]:
                masks[t] = masks[tree.kids[t][0]] | masks[tree.kids[t][1]]
            else:
                masks[t] = 1 << tree.leaf_vertex[t]
        else:
            stack.append((t, True))
            for c in tree.kids[t]:
                stack.append((c, False))
    return masks


class TestParse:
    def test_c4_shape(self):
        t = parse_and_binarize(C4_TEXT)
        t.check_binary()
        assert t.n == 4
        assert t.num_nodes == 2 * t.n - 1
        assert t.label[0] == PRODUCT
        assert t.leaf_names == ("a", "b", "c", "d")

    def test_two_isolated(self):
        g = cotree_to_graph(parse_and_binarize("(0 a b)"))
        assert g.n == 2 and g.edge_count() == 0

    def test_nested_product_k3(self):
        g = cotree_to_graph(parse_and_binarize("(1 (1 a b) c)"))
        assert g.is_complete() and g.n == 3

    def test_single_leaf(self):
        t = parse_and_binarize("x")
        assert t.n == 1 and t.num_nodes == 1
        g = cotree_to_graph(t)
        assert g.n == 1 and g.edge_count() == 0

    def test_kary_binarized_left_deep(self):
        t = parse_and_binarize("(0 a b c d)")
        t.check_binary()
        assert t.num_nodes == 7
        # (0 (0 (0 a b) c) d) in preorder: the chain topmost first
        assert t.kids == ((1, 6), (2, 5), (3, 4), (), (), (), ())
        internal = [i for i in range(t.num_nodes) if t.kids[i]]
        assert all(t.label[i] == UNION for i in internal)

    def test_malformed(self):
        for text in ["(1 a", "(1 a))", "", "(1 a) b", ")", "(1 (0 a b)"]:
            with pytest.raises(CotreeParseError):
                parse_and_binarize(text)

    def test_bad_label(self):
        with pytest.raises(CotreeParseError, match="label"):
            parse_and_binarize("(2 a b)")

    def test_few_children(self):
        with pytest.raises(CotreeParseError, match="children"):
            parse_and_binarize("(1 a)")

    def test_duplicate_leaf(self):
        with pytest.raises(CotreeParseError, match="duplicate"):
            parse_and_binarize("(0 a a)")

    @pytest.mark.parametrize("parse", [parse_and_binarize, fold_tcl])
    def test_first_error_order(self, parse):
        # syntax errors first, then trailing input, then a repeated leaf
        assert _parse_outcome(parse, "(0 a a") == "missing ')'"
        assert _parse_outcome(parse, "(0 a a) b") == "trailing input after expression: 'b'"
        assert _parse_outcome(parse, "(0 a a)") == "duplicate leaf 'a'"
        assert _parse_outcome(parse, "(1 (0 a b a) b)") == "duplicate leaf 'a'"

    def test_matches_recursive_reference(self):
        # same tree or same first error, on well-formed and damaged input
        rng = random.Random(199)

        def expr(depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice("abcdefghij")
            label = rng.choice(["0", "1", "0", "1", "2", ""])
            return f"({label} " + " ".join(expr(depth - 1) for _ in range(rng.randint(1, 4))) + ")"

        texts = ["", "(", ")", "( )", "(1", "(1 a", "(1 a b", "((1 a b))", "(1 (1 a))"]
        for _ in range(3000):
            text = expr(5)
            damage = rng.random()
            if damage < 0.1:
                text = text[:rng.randrange(len(text) + 1)]
            elif damage < 0.2:
                text += rng.choice([")", "(", " x"])
            texts.append(text)
        texts += [text for text, _ in gen_corpora(223, "cograph", count=5, n=300)]
        texts += [gen_cotree_text(rng, n) for n in (1, 2, 3, 5, 13, 100) for _ in range(40)]
        # the size the benchmark folds
        texts += [gen_cotree_text(random.Random(seed), 2000) for seed in range(3)]
        for text in texts:
            assert _parse_outcome(parse_and_binarize, text) == \
                _parse_outcome(_recursive_parse, text), text
            # the one-pass fold gives the tree's answer or its first error
            assert _parse_outcome(fold_tcl, text) == _parse_outcome(_tcl_by_tree, text), text

    def test_deep_nesting(self):
        depth = 5000
        text = "".join(f"({i % 2} v{i} " for i in range(1, depth + 1)) + "v0" + ")" * depth
        t = parse_and_binarize(text)
        assert t.n == depth + 1 and t.num_nodes == 2 * depth + 1
        assert t.kids[0] == (1, 2) and t.leaf_vertex[1] == 0
        assert compute_tcl(t)[0] == 1
        assert fold_tcl(text) == 1


class TestRealize:
    def test_c4_edges(self):
        g = cotree_to_graph(parse_and_binarize(C4_TEXT))
        # a,b,c,d are vertices 0..3; products join the two unions
        assert sorted(g.edges()) == [(0, 2), (0, 3), (1, 2), (1, 3)]

    def test_2k2(self):
        g = cotree_to_graph(parse_and_binarize("(0 (1 a b) (1 c d))"))
        assert sorted(g.edges()) == [(0, 1), (2, 3)]

    def test_generated_are_p4_free(self):
        rng = random.Random(107)
        for _ in range(20):
            text = gen_cotree_text(rng, rng.randint(1, 9))
            g = cotree_to_graph(parse_and_binarize(text))
            assert is_p4_free(g)


class TestEcc:
    def test_c4_root(self):
        t = parse_and_binarize(C4_TEXT)
        assert compute_ecc(t)[0] == 2

    def test_k3_root(self):
        assert compute_ecc(parse_and_binarize("(1 (1 a b) c)"))[0] == 1

    def test_2k3_root(self):
        t = parse_and_binarize("(0 (1 (1 a b) c) (1 (1 d e) f))")
        assert compute_ecc(t)[0] == 2

    def test_per_node_matches_vcc(self):
        rng = random.Random(109)
        for _ in range(25):
            t = parse_and_binarize(gen_cotree_text(rng, rng.randint(1, 10)))
            g = cotree_to_graph(t)
            vals = compute_ecc(t)
            for node, mask in enumerate(leaf_masks(t)):
                assert vals[node] == vcc(g, mask)[0]

    def test_visits_each_node_once(self):
        t = parse_and_binarize(C4_TEXT)
        visits = []
        compute_ecc(t, visits)
        assert sorted(visits) == list(range(t.num_nodes))


class TestTcl:
    def test_c4_root(self):
        assert compute_tcl(parse_and_binarize(C4_TEXT))[0] == 2

    def test_2k3_root(self):
        t = parse_and_binarize("(0 (1 (1 a b) c) (1 (1 d e) f))")
        assert compute_tcl(t)[0] == 1

    def test_k4_nested(self):
        t = parse_and_binarize("(1 (1 a b) (1 c d))")
        assert compute_tcl(t)[0] == 1

    def test_matches_general_solver(self):
        for text, g in gen_corpora(211, "cograph", count=40, n=9):
            t = parse_and_binarize(text)
            assert compute_tcl(t)[0] == dp_tcl(g)[0]

    def test_rebinarization_invariance(self):
        pairs = [
            ("(0 a b c d)", "(0 a (0 b (0 c d)))"),
            ("(1 a b c d)", "(1 (1 a b) (1 c d))"),
            ("(1 (0 a b c) d)", "(1 (0 a (0 b c)) d)"),
        ]
        for left, right in pairs:
            tl, tr = parse_and_binarize(left), parse_and_binarize(right)
            assert cotree_to_graph(tl) == cotree_to_graph(tr)
            assert compute_ecc(tl)[0] == compute_ecc(tr)[0]
            assert compute_tcl(tl)[0] == compute_tcl(tr)[0]

    def test_visits_each_node_once(self):
        t = parse_and_binarize("(0 (1 a b) (1 c d e))")
        visits = []
        compute_tcl(t, visits)
        assert sorted(visits) == list(range(t.num_nodes))

    def test_non_binary_rejected(self):
        from tclq.cograph import Cotree

        bad = Cotree(
            kids=((1, 2, 3), (), (), ()),
            label=(UNION, None, None, None),
            leaf_vertex=(None, 0, 1, 2),
            leaf_names=("a", "b", "c"),
        )
        with pytest.raises(ValueError, match="not binary"):
            compute_tcl(bad)
