"""Decomposition model: validation report, width, anatomy, sanitize."""

import hashlib
import itertools
import random

import pytest

from tclq import decomposition, generators, io, permutation, solver_dp, solver_pmc
from tclq.bitset import bits, mask_of
from tclq.cli import main
from tclq.cover import CoverOracle, vcc
from tclq.decomposition import (
    AugmentedTreeDecomposition,
    combine_forest,
    sanitize,
    validate,
    width,
)
from tclq.graph import Graph
from tclq.solver_dp import compute_tcl

from corpus import connected_graphs
from helpers import (
    anatomy,
    assert_good_witness,
    assert_sane,
    complete,
    count_calls,
    cycle,
    decomp,
    forbid,
    merge_siblings,
    numbered_bag_tree,
    path,
    perturb,
    raw_trees,
    reference_sanitize,
    reference_validate,
    star,
)


def c4_two_bags():
    # bags {0,1,2} and {0,2,3}, covers list the cycle edges
    return decomp(
        [-1, 0],
        [mask_of([0, 1, 2]), mask_of([0, 2, 3])],
        [
            [mask_of([0, 1]), mask_of([1, 2])],
            [mask_of([2, 3]), mask_of([3, 0])],
        ],
    )


class TestValidate:
    def test_c4_two_bags_valid(self):
        d = c4_two_bags()
        report = validate(cycle(4), d)
        assert report.ok and str(report) == "valid"
        assert width(d) == 2

    def test_missing_vertex(self):
        d = decomp(
            [-1, 0],
            [mask_of([0, 1, 2]), mask_of([0, 2])],
            [
                [mask_of([0, 1]), mask_of([1, 2])],
                [mask_of([0]), mask_of([2])],
            ],
        )
        report = validate(cycle(4), d)
        assert not report.ok
        assert any("vertex coverage" in v for v in report.violations)

    def test_non_clique_cover_set(self):
        # second cover holds {1,3}, a non-adjacent pair of C4
        d = decomp(
            [-1, 0],
            [mask_of([0, 1, 2]), mask_of([0, 1, 2, 3])],
            [
                [mask_of([0, 1]), mask_of([1, 2])],
                [mask_of([1, 3]), mask_of([0]), mask_of([2])],
            ],
        )
        report = validate(cycle(4), d)
        assert not report.ok
        assert any("not a clique" in v for v in report.violations)

    def test_edge_not_covered(self):
        d = decomp(
            [-1, 0],
            [mask_of([0, 1]), mask_of([2, 3])],
            [[mask_of([0, 1])], [mask_of([2, 3])]],
        )
        report = validate(cycle(4), d)
        assert any("edge coverage" in v for v in report.violations)

    def test_subtree_disconnected(self):
        g = path(3)
        d = decomp(
            [-1, 0, 1],
            [mask_of([0, 1]), mask_of([2]), mask_of([1, 2])],
            [[mask_of([0, 1])], [mask_of([2])], [mask_of([1, 2])]],
        )
        report = validate(g, d)
        assert any("subtree connectivity: vertex 1" in v for v in report.violations)

    def test_cover_union_short(self):
        d = decomp([-1], [mask_of([0, 1, 2])], [[mask_of([0, 1])]])
        report = validate(complete(3), d)
        assert any("cover union" in v for v in report.violations)

    def test_cover_leaves_bag(self):
        d = decomp(
            [-1, 0],
            [mask_of([0, 1, 2, 3]), mask_of([0, 1])],
            [[mask_of([0, 1]), mask_of([2, 3])], [mask_of([0, 1, 2])]],
        )
        report = validate(complete(4), d)
        assert any("leaves the bag" in v for v in report.violations)

    def test_disjoint_covers_may_miss_bag_edges(self):
        # disjoint minimum covers miss in-bag edges, and validate accepts
        d = decomp(
            [-1, 0],
            [mask_of([0, 1, 2]), mask_of([0, 2, 3])],
            [
                [mask_of([0, 1]), mask_of([2])],
                [mask_of([2, 3]), mask_of([0])],
            ],
        )
        assert validate(cycle(4), d).ok

    def test_structure_errors(self):
        no_nodes = decomp([], [], [])
        assert "no nodes" in str(validate(cycle(3), no_nodes))

        bad_root = decomp([0], [mask_of([0, 1, 2])], [[7]])
        assert any("root" in v for v in validate(complete(3), bad_root).violations)

        cyclic = decomp(
            [-1, 2, 1],
            [7, 7, 7],
            [[7], [7], [7]],
        )
        assert any("cycle" in v for v in validate(complete(3), cyclic).violations)

        out_of_range = decomp([-1, 5], [7, 7], [[7], [7]])
        assert any(
            "out-of-range" in v for v in validate(complete(3), out_of_range).violations
        )

    def test_out_of_range_bag(self):
        d = decomp([-1], [mask_of([0, 1, 5])], [[mask_of([0, 1, 5])]])
        report = validate(complete(3), d)
        assert any("out-of-range vertices" in v for v in report.violations)


def scan_edge_reports(g, d):
    """The edge-coverage reports of validate, by scanning every bag for
    every edge."""
    return [f"edge coverage: edge ({u},{v}) in no bag" for u, v in g.edges()
            if not any(((1 << u) | (1 << v)) & ~b == 0 for b in d.bags)]


class TestValidateCorrupted:
    def test_edge_reports_match_a_scan_of_every_bag(self):
        rng = random.Random(151)
        edge_reports = 0
        for _ in range(120):
            g = generators.gen_random(rng, rng.randint(4, 11), rng.choice((0.3, 0.5, 0.7)))
            d = compute_tcl(g)[1]
            bags, parents = list(d.bags), list(d.parents)
            for _ in range(rng.randint(1, 3)):
                t = rng.randrange(len(bags))
                if rng.random() < 0.7 and bags[t]:
                    bags[t] &= ~(1 << rng.choice(list(bits(bags[t]))))
                elif t:
                    parents[t] = rng.randrange(t)
            bad = AugmentedTreeDecomposition(tuple(parents), tuple(bags), d.covers)
            report = validate(g, bad).violations
            head = [v for v in report if v.startswith("vertex coverage")]
            want = scan_edge_reports(g, bad)
            edge_reports += len(want)
            assert report[:len(head) + len(want)] == head + want
            assert not any(v.startswith("edge coverage") for v in report[len(head) + len(want):])
        assert edge_reports > 0

    def test_edges_read_from_rows(self, monkeypatch):
        # validate reports the same edges in the same order without
        # listing the graph's edges
        g = cycle(6)
        d = decomp([-1, 0, 1], [mask_of([0, 1, 2]), mask_of([2, 3]), mask_of([4, 5])],
                   [[mask_of([0, 1]), mask_of([2])], [mask_of([2, 3])], [mask_of([4, 5])]])
        want = scan_edge_reports(g, d)
        monkeypatch.setattr(Graph, "edges", lambda self: pytest.fail("validate listed the edges"))
        assert validate(g, d).violations == want == [
            "edge coverage: edge (0,5) in no bag", "edge coverage: edge (3,4) in no bag"]


def random_decomposition(rng, g: Graph) -> AugmentedTreeDecomposition:
    """A tree on up to seven nodes, numbered in random order from the root
    0, with random bags and each bag split into random cover sets."""
    m = rng.randint(1, 7)
    order = [0] + rng.sample(range(1, m), m - 1)
    parents = [-1] * m
    for i in range(1, m):
        parents[order[i]] = order[rng.randrange(i)]
    bags = [rng.getrandbits(g.n) for _ in range(m)]
    covers = []
    for b in bags:
        parts = [0] * rng.randint(1, 3)
        for v in bits(b):
            parts[rng.randrange(len(parts))] |= 1 << v
        covers.append([c for c in parts if c])
    return decomp(parents, bags, covers)


class TestValidateMatchesReference:
    """validate counts topmost bags; the reference searches the tree per
    vertex.  Their reports must agree, message for message, in order."""

    def test_seeded_random(self):
        rng = random.Random("validate-reference")
        valid = split = 0
        for _ in range(1500):
            g = generators.gen_random(rng, rng.randint(1, 9), rng.choice((0.3, 0.6, 0.9)))
            kind = rng.randrange(3)
            if kind == 0:
                d = random_decomposition(rng, g)
            else:
                d = perturb(rng, g, compute_tcl(g)[1])
                if kind == 2:
                    # move a subtree or drop a vertex from a bag
                    parents, bags = list(d.parents), list(d.bags)
                    t = rng.randrange(len(bags))
                    if t and rng.random() < 0.5:
                        parents[t] = rng.randrange(len(bags))
                    elif bags[t]:
                        bags[t] &= ~(1 << rng.choice(list(bits(bags[t]))))
                    d = AugmentedTreeDecomposition(tuple(parents), tuple(bags), d.covers)
            got = validate(g, d).violations
            assert got == reference_validate(g, d).violations, (g, d)
            valid += not got
            split += any(v.startswith("subtree connectivity") for v in got)
        assert valid > 300 and split > 300, (valid, split)


class TestWidth:
    def test_c4_example(self):
        assert width(c4_two_bags()) == 2

    def test_single_k4_bag(self):
        d = decomp([-1], [0b1111], [[0b1111]])
        assert validate(complete(4), d).ok
        assert width(d) == 1

    def test_p4_edge_bags(self):
        d = decomp(
            [-1, 0, 1],
            [mask_of([0, 1]), mask_of([1, 2]), mask_of([2, 3])],
            [[mask_of([0, 1])], [mask_of([1, 2])], [mask_of([2, 3])]],
        )
        assert validate(path(4), d).ok
        assert width(d) == 1


class TestAnatomy:
    def test_root(self):
        d = c4_two_bags()
        a = anatomy(d, 0)
        assert a.adhesion == 0
        assert a.margin == d.bags[0]
        assert a.cone == 0b1111
        assert a.component == 0b1111

    def test_child(self):
        d = c4_two_bags()
        a = anatomy(d, 1)
        assert a.adhesion == mask_of([0, 2])
        assert a.margin == mask_of([3])
        assert a.cone == mask_of([0, 2, 3])
        assert a.component == mask_of([3])

    def test_margin_component_disjointness(self):
        d = c4_two_bags()
        for t in range(d.num_nodes):
            a = anatomy(d, t)
            assert a.margin == d.bags[t] & ~a.adhesion
            assert a.component & a.adhesion == 0


class TestCombineForest:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            combine_forest([])


def mixed_graph() -> Graph:
    """Five isolated vertices, K4 and two seeded random components, with
    the vertices shuffled so that the components' least vertices
    interleave."""
    rng = random.Random("isolated-mixed")
    parts = [Graph.from_edges(1, [])] * 5 + [complete(4)]
    parts += [generators.gen_random(rng, 9, 0.35, connected=True),
              generators.gen_random(rng, 11, 0.5, connected=True)]
    n = sum(h.n for h in parts)
    label = list(range(n))
    rng.shuffle(label)
    edges, base = [], 0
    for h in parts:
        edges += [(label[u + base], label[v + base]) for u, v in h.edges()]
        base += h.n
    return Graph.from_edges(n, edges)


class TestSolvePerComponent:
    # sha256 of io.serialize_decomposition over each solver's witness,
    # computed when every isolated vertex went through the component sweep
    TCD_SHA256 = {
        "pmc": "c68a8919cbb40850675ed1d2c41882c2f049a31f740077b89fa97449e5bf0a31",
        "dp": "14efd940f89f3c0a03f90207ddb7f66acb602c13898b9ac9e358ac5cdfb4854e",
    }

    @pytest.mark.parametrize("name", ["pmc", "dp"])
    def test_mixed_witness_bytes_pinned(self, name):
        g = mixed_graph()
        k, d = {"pmc": solver_pmc, "dp": solver_dp}[name].compute_tcl(g)
        text = io.serialize_decomposition(d, g.n).encode()
        assert k == 3
        assert hashlib.sha256(text).hexdigest() == self.TCD_SHA256[name]

    def test_isolated_vertices_skip_the_sweep(self, monkeypatch):
        g = Graph.from_edges(2000, [(3, 7)])
        sweep = Graph.component_neighborhoods
        swept = []

        def recording(self, s):
            swept.append(s)
            return sweep(self, s)

        monkeypatch.setattr(Graph, "component_neighborhoods", recording)
        k, d = solver_pmc.compute_tcl(g)
        assert swept == [(1 << 3) | (1 << 7)]
        assert k == 1 and d.num_nodes == 1999
        assert d.bags[:5] == (1 << 0, 1 << 1, 1 << 2, (1 << 3) | (1 << 7), 1 << 4)
        assert d.parents[:3] == (-1, 0, 0) and validate(g, d).ok

    def test_connected_graph_is_solved_as_it_is(self, monkeypatch):
        def refuse(self, s):
            raise AssertionError("a connected graph was relabelled")

        monkeypatch.setattr(Graph, "induced_subgraph", refuse)
        for g in (cycle(5), generators.gen_random(random.Random(157), 9, 0.4, connected=True)):
            seen = []

            def solve(h):
                seen.append(h)
                return solver_pmc._tcl_connected(h)

            k, d = decomposition.solve_per_component(g, solve)
            assert seen and all(h is g for h in seen)
            assert (k, d) == solver_pmc.compute_tcl(g)


class TestSanitize:
    def test_duplicate_bag_removed(self):
        g = path(4)
        d = decomp(
            [-1, 0, 1, 2],
            [mask_of([0, 1]), mask_of([1, 2]), mask_of([1, 2]), mask_of([2, 3])],
            [
                [mask_of([0, 1])],
                [mask_of([1, 2])],
                [mask_of([1, 2])],
                [mask_of([2, 3])],
            ],
        )
        out = sanitize(g, d)
        assert out.num_nodes == 3
        assert validate(g, out).ok
        assert width(out) == 1

    def test_sane_single_bag_unchanged(self):
        g = cycle(4)
        d = decomp([-1], [0b1111], [[mask_of([0, 1]), mask_of([2, 3])]])
        out = sanitize(g, d)
        assert out.num_nodes == 1
        assert out.bags == (0b1111,)
        assert width(out) == 2

    def test_leaf_subset_contracted(self):
        g = complete(4)
        d = decomp(
            [-1, 0],
            [0b1111, 0b0011],
            [[0b1111], [0b0011]],
        )
        out = sanitize(g, d)
        assert out.num_nodes == 1
        assert out.bags == (0b1111,)

    def test_rejects_invalid(self):
        g = cycle(4)
        bad = decomp([-1], [0b0111], [[mask_of([0, 1]), mask_of([2])]])
        with pytest.raises(ValueError, match="valid decomposition"):
            sanitize(g, bad)

    def test_perturbed_batch(self):
        rng = random.Random(73)
        pool = [g for g in connected_graphs(6)]
        for _ in range(40):
            g = rng.choice(pool)
            k, d = compute_tcl(g)
            messy = perturb(rng, g, d)
            assert validate(g, messy).ok
            out = sanitize(g, messy)
            assert validate(g, out).ok
            assert_sane(g, out)
            assert width(out) <= width(messy)
            # every output bag fits inside some input bag
            for b in out.bags:
                assert any(b & ~mb == 0 for mb in messy.bags)
            # idempotent up to node renumbering
            again = sanitize(g, out)
            assert sorted(again.bags) == sorted(out.bags)
            assert width(again) == width(out)

    def test_covers_come_from_the_given_source(self):
        rng = random.Random(83)
        for g in rng.sample(connected_graphs(6), 25):
            messy = perturb(rng, g, compute_tcl(g)[1])
            out = sanitize(g, messy)
            # each bag's cover is a minimum one
            for b, classes in zip(out.bags, out.covers):
                assert len(classes) == vcc(g, b)[0]

    def test_width_never_above_tcl_witness(self):
        rng = random.Random(79)
        for g in rng.sample(connected_graphs(6), 25):
            k, d = compute_tcl(g)
            out = sanitize(g, d)
            assert width(out) <= k
            assert_good_witness(g, out)


class TestSanitizeMatchesReference:
    """sanitize keeps one child map in step with its rewrites; it must
    give exactly what the pass-per-rewrite reference gives."""

    @staticmethod
    def assert_same(g, d):
        out = sanitize(g, d)
        ref = reference_sanitize(g, d)
        assert out.parents == ref.parents
        assert out.bags == ref.bags
        assert out.covers == ref.covers

    def test_seeded_corpus(self, monkeypatch):
        rng = random.Random(101)
        graphs = rng.sample(connected_graphs(6), 30)
        graphs += [generators.gen_random(rng, n, p, connected=True)
                   for n in (7, 8, 9, 10) for p in (0.3, 0.5)]
        calls = count_calls(monkeypatch, decomposition.from_bag_tree)
        witnesses = []
        for g in graphs:
            witnesses += [(g, solver_dp.compute_tcl(g)[1]), (g, solver_pmc.compute_tcl(g)[1])]
        monkeypatch.undo()
        # the solvers' bag trees exactly as they reached from_bag_tree
        assert calls
        raw = raw_trees(calls)
        for args in raw:
            self.assert_same(*args)
        for g, d in witnesses + raw:
            self.assert_same(g, d)
            messy = perturb(rng, g, d)
            self.assert_same(g, messy)
            for base in (d, messy):
                merged = merge_siblings(rng, base)
                assert validate(g, merged).ok
                self.assert_same(g, merged)
                self.assert_same(g, merge_siblings(rng, merged))

    def test_split_by_hand(self):
        # K1,3 with centre 0: the child {0, 2, 3} meets the root {0, 1} in
        # {0}, and its component {2, 3} has no edge, so it splits into
        # {0, 2} and {0, 3}
        g = star(3)
        d = decomp([-1, 0], [mask_of([0, 1]), mask_of([0, 2, 3])],
                   [[mask_of([0, 1])], [mask_of([0, 2]), mask_of([3])]])
        out = sanitize(g, d)
        assert out.parents == (-1, 0, 0)
        assert out.bags == (mask_of([0, 1]), mask_of([0, 2]), mask_of([0, 3]))
        assert out.covers == ((mask_of([0, 1]),), (mask_of([0, 2]),), (mask_of([0, 3]),))
        self.assert_same(g, d)

    def test_root_inside_its_child_contracts(self):
        # on K1,2 a root {0} with one child {0, 1, 2} is contracted before
        # any split is tried: one bag, covered by two cliques
        g = star(2)
        d = decomp([-1, 0], [mask_of([0]), mask_of([0, 1, 2])],
                   [[mask_of([0])], [mask_of([0, 1]), mask_of([2])]])
        out = sanitize(g, d)
        assert out.parents == (-1,)
        assert out.bags == (mask_of([0, 1, 2]),)
        assert width(out) == 2
        self.assert_same(g, d)

    def test_builder_makes_no_sanitize_call(self, monkeypatch):
        # nodes are numbered in preorder, children in list order
        g = path(5)
        a, b, c, e = mask_of([2]), mask_of([1, 2]), mask_of([0, 1]), mask_of([2, 3, 4])
        tree = (a, [(b, [(c, [])]), (e, [])])
        calls = count_calls(monkeypatch, decomposition.sanitize)
        d = decomposition.from_bag_tree(g, tree, CoverOracle(g).partition)
        assert not calls
        monkeypatch.undo()
        raw = numbered_bag_tree(tree, CoverOracle(g).partition)
        assert raw.parents == (-1, 0, 1, 0)
        assert raw.bags == (a, b, c, e)
        assert validate(g, raw).ok and [len(c) for c in raw.covers] == [1, 1, 1, 2]
        assert d == sanitize(g, raw)


class TestSolverTreesNeedOnlyContractions:
    """Each solver's raw bag tree is sane up to contractions: sanitize
    would neither prune nor split it, so every bag of the witness is a
    bag the solver built."""

    def test_witness_bags_are_raw_bags(self, connected_to_6, monkeypatch):
        rng = random.Random("raw-trees-contract-only")
        graphs = list(connected_to_6)
        graphs += [generators.gen_random(rng, n, p, connected=True)
                   for n in range(7, 13) for p in (0.2, 0.4, 0.6)]
        raw = count_calls(monkeypatch, decomposition.from_bag_tree)
        contracted = 0
        for solve in (solver_dp.compute_tcl, solver_pmc.compute_tcl):
            for g in graphs:
                del raw[:]
                d = solve(g)[1]
                if g.is_clique(g.full):
                    # a clique component is one bag, built by neither solver
                    assert not raw and d.bags == (g.full,)
                    continue
                assert len(raw) == 1 and raw[0][0] is g
                bags = numbered_bag_tree(raw[0][1], raw[0][2]).bags
                assert set(d.bags) <= set(bags), (solve.__module__, g)
                contracted += len(d.bags) < len(bags)
        assert contracted


class TestOneWitnessBuilder:
    """All three exact solvers build their witnesses with from_bag_tree.
    Contraction can hide a broken raw tree, so each raw tree must itself
    be a valid decomposition.  A general solver's witness must be what
    sanitize makes of its raw tree; a scanline path need not be sane, as
    sanitize would split a path {0, 1}, {0, 2}, {0, 3} of K1,3 into a
    star."""

    @staticmethod
    def check(calls, sane=True):
        assert calls
        for (g, root, partition), (_, raw) in zip(calls, raw_trees(calls)):
            assert validate(g, raw).ok, (g, raw)
            if sane:
                assert decomposition.from_bag_tree(g, root, partition) == sanitize(g, raw), g

    def test_general_solvers_connected_to_7(self, connected_to_6, monkeypatch):
        calls = count_calls(monkeypatch, decomposition.from_bag_tree)
        for g in list(connected_to_6) + connected_graphs(7):
            solver_dp.compute_tcl(g)
            solver_pmc.compute_tcl(g)
        monkeypatch.undo()
        self.check(calls)

    @pytest.mark.parametrize("n", range(8, 15))
    def test_general_solvers_seeded(self, n, monkeypatch):
        rng = random.Random(f"one-witness-builder:{n}")
        graphs = [generators.gen_random(rng, n, p, connected=True) for p in (0.2, 0.35, 0.5, 0.7)]
        calls = count_calls(monkeypatch, decomposition.from_bag_tree)
        for g in graphs:
            solver_dp.compute_tcl(g)
            solver_pmc.compute_tcl(g)
        monkeypatch.undo()
        self.check(calls)

    def test_scanline_solver_to_6(self, monkeypatch):
        calls = count_calls(monkeypatch, decomposition.from_bag_tree)
        for n in range(7):
            for pi in itertools.permutations(range(1, n + 1)):
                permutation.solve(list(pi))
        monkeypatch.undo()
        self.check(calls, sane=False)

    def test_no_solve_route_calls_sanitize(self, tmp_path, monkeypatch, capsys):
        forbid(monkeypatch, sanitize, "a solve route called sanitize")
        built = count_calls(monkeypatch, decomposition.from_bag_tree)
        col, perm = tmp_path / "g.col", tmp_path / "p.pi"
        col.write_text(io.serialize_graph(cycle(6)))
        pi = [3, 6, 1, 5, 2, 4]
        perm.write_text(io.serialize_permutation(pi))
        for source in (["--input", str(col), "--algo", "dp"],
                       ["--input", str(col), "--algo", "pmc"],
                       ["--perm", str(perm)]):
            del built[:]
            assert main(["solve", *source, "--out", str(tmp_path / "d.tcd")]) == 0
            assert len(built) == 1, source
        k = permutation.compute_tcl(pi)
        assert capsys.readouterr().out.split() == ["tcl", "2", "tcl", "2", "tcl", str(k)]

    def test_long_scanline_path(self, monkeypatch):
        # the raw path has one step per line endpoint, 1,400 here, deeper
        # than the default recursion limit of 1,000
        pi = generators.gen_permutation(random.Random("one-witness-builder:700"), 700)
        calls = count_calls(monkeypatch, decomposition.from_bag_tree)
        k, d = permutation.solve(pi)
        (_, node, _), = calls
        depth = 0
        while node:
            depth += 1
            node = node[1][0] if node[1] else None
        assert depth == 1400
        assert validate(permutation.inversion_graph(pi), d).ok and width(d) == k
