"""Independent ground truth: chromatic number, the tcl subset DP, chordality, and the reference listings."""

import random

import pytest

from tclq.bitset import mask_of
from tclq.cover import CapacityError, vcc
from tclq.generators import gen_random
from tclq.graph import Graph, enumerate_minimal_separators, is_pmc
from tclq.oracle import brute_chromatic, is_chordal, tcl_oracle
from tclq.solver_dp import compute_tcl as dp_tcl
from tclq.solver_pmc import compute_tcl as pmc_tcl

from corpus import connected_graphs
from helpers import complete, complete_bipartite, cycle, path, star
from reference import brute_minimal_separators, brute_pmcs


class TestBruteChromatic:
    def test_k3(self):
        assert brute_chromatic(complete(3)) == 3

    def test_c5(self):
        assert brute_chromatic(cycle(5)) == 3

    def test_empty_on_five(self):
        assert brute_chromatic(Graph.from_edges(5, [])) == 1

    def test_zero_vertices(self):
        assert brute_chromatic(Graph.from_edges(0, [])) == 0

    def test_bipartite(self):
        assert brute_chromatic(complete_bipartite(3, 4)) == 2

    def test_odd_even_cycles(self):
        for n in range(3, 10):
            assert brute_chromatic(cycle(n)) == (2 if n % 2 == 0 else 3)

    def test_budget(self):
        g = Graph.from_edges(11, [])
        with pytest.raises(CapacityError, match="^n=11 exceeds the oracle limit of 10 vertices$"):
            brute_chromatic(g)
        assert brute_chromatic(g, max_n=11) == 1

    def test_at_least_clique_number(self, graphs_to_6):
        for g in graphs_to_6:
            assert brute_chromatic(g) >= g.clique_number()


class TestTclOracle:
    def test_complete_graphs(self):
        for n in range(1, 7):
            assert tcl_oracle(complete(n)) == 1

    def test_c4(self):
        assert tcl_oracle(cycle(4)) == 2

    def test_c5(self):
        assert tcl_oracle(cycle(5)) == 2

    def test_paths_are_width_one(self):
        for n in range(1, 8):
            assert tcl_oracle(path(n)) == 1

    def test_empty_graph(self):
        assert tcl_oracle(Graph.from_edges(0, [])) == 0

    def test_disconnected_max(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert tcl_oracle(g) == 1
        g2 = Graph.from_edges(7, [(0, 1), (1, 2), (2, 0)] + [(3, 4), (4, 5), (5, 6), (6, 3)])
        assert tcl_oracle(g2) == 2

    def test_two_trees_width_one(self):
        from tclq.generators import gen_ktree

        rng = random.Random(23)
        for _ in range(10):
            g = gen_ktree(rng, rng.randint(3, 8), 2)
            assert tcl_oracle(g) == 1

    def test_chordal_iff_one(self, connected_to_6):
        for g in connected_to_6:
            assert (tcl_oracle(g) == 1) == is_chordal(g)

    def test_chordal_iff_one_seven(self):
        rng = random.Random(29)
        for g in rng.sample(connected_graphs(7), 200):
            assert (tcl_oracle(g) == 1) == is_chordal(g)

    def test_single_bag_upper_bound(self, connected_to_6):
        for g in connected_to_6:
            assert tcl_oracle(g) <= brute_chromatic(g.complement())

    def test_budget_cap(self):
        g = path(17)
        with pytest.raises(CapacityError, match="^n=17 exceeds the oracle limit of 16 vertices$"):
            tcl_oracle(g)
        assert tcl_oracle(g, max_n=17) == 1


class TestBrutePmcs:
    def test_c4_triples(self):
        want = sorted(
            mask_of([a, b, c])
            for a, b, c in [(0, 1, 2), (1, 2, 3), (0, 2, 3), (0, 1, 3)]
        )
        assert brute_pmcs(cycle(4)) == want

    def test_k3_whole(self):
        assert brute_pmcs(complete(3)) == [mask_of([0, 1, 2])]

    def test_p4_edges(self):
        want = sorted([mask_of([0, 1]), mask_of([1, 2]), mask_of([2, 3])])
        assert brute_pmcs(path(4)) == want

    def test_default_cap(self):
        g = path(8)
        with pytest.raises(CapacityError, match="^n=8 exceeds the brute_pmcs limit of 7 vertices$"):
            brute_pmcs(g)
        got = brute_pmcs(g, max_n=8)
        assert got == [s for s in range(1, 1 << 8) if is_pmc(g, s)]


class TestBruteMinimalSeparators:
    def test_matches_enumeration(self, graphs_to_6):
        for g in graphs_to_6:
            assert brute_minimal_separators(g) == enumerate_minimal_separators(g)

    def test_p5(self):
        g = path(5)
        assert brute_minimal_separators(g) == [1 << 1, 1 << 2, 1 << 3]


class TestIsChordal:
    def test_cycles(self):
        assert is_chordal(cycle(3))
        for n in range(4, 9):
            assert not is_chordal(cycle(n))

    def test_trees_and_cliques(self):
        assert is_chordal(path(7))
        assert is_chordal(star(6))
        assert is_chordal(complete(6))
        assert is_chordal(Graph.from_edges(0, []))

    def test_chordal_graphs_have_simplicial_elimination(self, graphs_to_6):
        # brute definition: every cycle of length >= 4 has a chord;
        # equivalently no induced cycle of length >= 4
        import itertools

        def has_induced_long_cycle(g):
            for k in range(4, g.n + 1):
                for sub in itertools.combinations(range(g.n), k):
                    h, _ = g.induced_subgraph(mask_of(sub))
                    if all(h.degree(v) == 2 for v in range(k)) and h.is_connected():
                        return True
            return False

        for g in graphs_to_6:
            assert is_chordal(g) == (not has_induced_long_cycle(g))


class TestVccAgainstOracle:
    def test_matches_complement_chromatic(self, graphs_to_6):
        for g in graphs_to_6:
            assert vcc(g, g.full)[0] == brute_chromatic(g.complement())

    def test_matches_on_eight_sample(self, graphs_8):
        rng = random.Random(31)
        for g in rng.sample(graphs_8, 150):
            assert vcc(g, g.full)[0] == brute_chromatic(g.complement())

    def test_subset_monotone(self):
        rng = random.Random(37)
        for g in connected_graphs(6):
            s = rng.randrange(1 << 6)
            sub = s & rng.randrange(1 << 6)
            assert vcc(g, sub)[0] <= vcc(g, s)[0]


class TestSolversAgreeAboveTheOldCap:
    """The oracle against both general solvers on seeded connected
    G(n, p) with n = 11-14 at three densities, and one graph at n = 16."""

    CASES = [(n, p, seed) for n in range(11, 15) for p in (0.2, 0.5, 0.8) for seed in (1, 2)]
    CASES.append((16, 0.5, 1))

    @pytest.mark.parametrize("n, p, seed", CASES)
    def test_oracle_matches_dp_and_pmc(self, n, p, seed):
        g = gen_random(random.Random(f"oracle:{n}:{p}:{seed}"), n, p, connected=True)
        assert tcl_oracle(g) == dp_tcl(g)[0] == pmc_tcl(g)[0]
