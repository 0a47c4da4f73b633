"""Graph construction, enumeration primitives, and the PMC test."""

import random

import pytest

from tclq import graph
from tclq.bitset import bit_list, bits, mask_of
from tclq.graph import (
    Graph,
    enumerate_maximal_independent_sets,
    enumerate_minimal_separators,
    enumerate_pmcs,
    expand_mask,
    is_pmc,
    maximal_cliques_within,
)
from tclq.generators import gen_random

from corpus import all_graphs, connected_graphs, graphs_up_to
from helpers import (complete, count_calls, cycle, pairwise_is_pmc, path, reference_components,
                     reference_pmcs_and_separators)
from reference import brute_minimal_separators, brute_pmcs


def brute_mis(g: Graph):
    """All maximal independent sets by filtering every subset."""
    out = []
    for s in range(1 << g.n):
        if not g.is_independent(s):
            continue
        if any(not (g.adj[v] & s) for v in bits(g.full & ~s)):
            continue
        if s == 0 and g.n > 0:
            continue
        out.append(s)
    return out


def removal(g: Graph, s: int):
    """Components of G - s by least vertex, and which are full (N(C) = s)."""
    pairs = g.component_neighborhoods(g.full & ~s)
    return [c for c, _ in pairs], [nc == s for _, nc in pairs]


def brute_min_seps(g: Graph):
    """Minimal a,b-separators: S with two or more full components."""
    out = []
    for s in range(1 << g.n):
        if sum(removal(g, s)[1]) >= 2:
            out.append(s)
    return out


class TestFromEdges:
    def test_c4(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.edge_count() == 4
        assert g.has_edge(0, 1) and g.has_edge(3, 0)
        assert not g.has_edge(0, 2) and not g.has_edge(1, 3)

    def test_empty_on_three(self):
        g = Graph.from_edges(3, [])
        assert g.n == 3 and g.edge_count() == 0

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges(4, [(0, 1), (1, 0)])
        assert g.edge_count() == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\(0,4\)"):
            Graph.from_edges(4, [(0, 4)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, [(1, 1)])

    def test_adjacency_symmetric(self, graphs_to_6):
        for g in graphs_to_6:
            for u in range(g.n):
                for v in bits(g.adj[u]):
                    assert g.has_edge(v, u)


class TestComplement:
    def test_k4_complement_empty(self):
        assert complete(4).complement().edge_count() == 0

    def test_c5_self_complementary(self):
        c5 = cycle(5)
        co = c5.complement()
        # complement of C5 is the 5-cycle 0-2-4-1-3
        assert sorted(co.edges()) == sorted(
            [(0, 2), (2, 4), (1, 4), (1, 3), (0, 3)]
        )

    def test_involution(self, graphs_to_6):
        for g in graphs_to_6:
            assert g.complement().complement() == g

    def test_edge_count_sums(self, graphs_to_6):
        for g in graphs_to_6:
            total = g.n * (g.n - 1) // 2
            assert g.edge_count() + g.complement().edge_count() == total


class TestInducedSubgraph:
    def test_c4_path(self):
        sub, verts = cycle(4).induced_subgraph(mask_of([1, 2, 3]))
        assert verts == [1, 2, 3]
        assert sorted(sub.edges()) == [(0, 1), (1, 2)]

    def test_empty_set(self):
        sub, verts = cycle(4).induced_subgraph(0)
        assert sub.n == 0 and verts == []

    def test_full_set_identity(self, graphs_to_6):
        for g in graphs_to_6:
            sub, verts = g.induced_subgraph(g.full)
            assert verts == list(range(g.n))
            assert sub == g

    def test_edges_restricted(self):
        rng = random.Random(11)
        for g in connected_graphs(5):
            s = rng.randrange(1 << g.n)
            sub, verts = g.induced_subgraph(s)
            back = {i: v for i, v in enumerate(verts)}
            for i, j in sub.edges():
                assert g.has_edge(back[i], back[j])
            inside = [(u, v) for u, v in g.edges() if (s >> u & 1) and (s >> v & 1)]
            assert len(inside) == sub.edge_count()


class TestComponentsOfRemoval:
    def test_c4_diagonal(self):
        assert removal(cycle(4), mask_of([1, 3])) == ([mask_of([0]), mask_of([2])], [True, True])

    def test_p4_inner_vertex(self):
        assert removal(path(4), 1 << 1) == ([1 << 0, mask_of([2, 3])], [True, True])

    def test_k4_pair(self):
        assert removal(complete(4), mask_of([1, 2])) == ([mask_of([0, 3])], [True])

    def test_components_partition(self, graphs_to_6):
        rng = random.Random(5)
        for g in graphs_to_6:
            s = rng.randrange(1 << g.n) if g.n else 0
            components, full = removal(g, s)
            acc = 0
            for c in components:
                assert c and not (c & s) and not (c & acc)
                acc |= c
            assert acc == g.full & ~s
            # sorted by least vertex, full flag matches definition
            mins = [c & -c for c in components]
            assert mins == sorted(mins)
            for c, f in zip(components, full):
                assert f == (g.neighbors(c) == s)


class TestComponentNeighborhoods:
    def check(self, g: Graph, s: int) -> None:
        sweep = g.component_neighborhoods(s)
        assert sweep == [(c, g.neighbors(c)) for c in g.components_within(s)]
        assert [c for c, _ in sweep] == reference_components(g, s)

    def test_every_subset_to_6(self, graphs_to_6):
        for g in graphs_to_6:
            for s in range(1 << g.n):
                self.check(g, s)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_masks(self, seed):
        rng = random.Random(f"component-neighborhoods:{seed}")
        g = gen_random(rng, rng.randint(8, 14), rng.choice([0.15, 0.3, 0.5]))
        for _ in range(200):
            self.check(g, rng.randrange(1 << g.n))

    def test_neighborhood_leaves_s(self):
        # C = {0}, and N(C) = {1} lies outside s
        assert path(3).component_neighborhoods(0b101) == [(0b001, 0b010), (0b100, 0b010)]


class TestCompleteSet:
    def test_c4_chord(self):
        g = cycle(4).complete_set(mask_of([1, 3]))
        assert g.has_edge(1, 3)
        assert g.edge_count() == 5

    def test_singleton_identity(self):
        g = cycle(4)
        assert g.complete_set(1 << 2) == g

    def test_fill_empty_triangle(self):
        g = Graph.from_edges(3, []).complete_set(mask_of([0, 1, 2]))
        assert g.is_complete()

    def test_only_adds_inside(self, graphs_to_6):
        rng = random.Random(7)
        for g in graphs_to_6:
            s = rng.randrange(1 << g.n) if g.n else 0
            h = g.complete_set(s)
            assert h.is_clique(s)
            for u, v in h.edges():
                assert g.has_edge(u, v) or ((s >> u & 1) and (s >> v & 1))


class TestMaximalIndependentSets:
    def test_k3(self):
        assert enumerate_maximal_independent_sets(complete(3)) == [1, 2, 4]

    def test_c5_pairs(self):
        out = enumerate_maximal_independent_sets(cycle(5))
        assert len(out) == 5
        assert all(s.bit_count() == 2 for s in out)

    def test_p4(self):
        out = enumerate_maximal_independent_sets(path(4))
        assert sorted(out) == sorted([mask_of([0, 2]), mask_of([0, 3]), mask_of([1, 3])])

    def test_matches_brute_small(self, graphs_to_6):
        for g in graphs_to_6:
            assert enumerate_maximal_independent_sets(g) == brute_mis(g)

    def test_matches_brute_seven(self):
        for g in connected_graphs(7):
            assert enumerate_maximal_independent_sets(g) == brute_mis(g)

    def test_matches_brute_eight_sample(self, graphs_8):
        rng = random.Random(13)
        for g in rng.sample(graphs_8, 300):
            assert enumerate_maximal_independent_sets(g) == brute_mis(g)

    def test_moon_moser_bound(self, graphs_to_6):
        for g in graphs_up_to(7):
            count = len(enumerate_maximal_independent_sets(g))
            assert count <= 3 ** ((g.n + 2) // 3)

    def test_no_duplicates_sorted(self, graphs_to_6):
        for g in graphs_to_6:
            out = enumerate_maximal_independent_sets(g)
            assert out == sorted(set(out))


class TestMinimalSeparators:
    def test_p4(self):
        assert enumerate_minimal_separators(path(4)) == [1 << 1, 1 << 2]

    def test_c4(self):
        want = sorted([mask_of([0, 2]), mask_of([1, 3])])
        assert enumerate_minimal_separators(cycle(4)) == want

    def test_k4_none(self):
        assert enumerate_minimal_separators(complete(4)) == []

    def test_matches_brute_small(self, graphs_to_6):
        for g in graphs_to_6:
            assert enumerate_minimal_separators(g) == brute_min_seps(g)

    def test_matches_brute_seven(self):
        for g in all_graphs(7):
            assert enumerate_minimal_separators(g) == brute_min_seps(g)

    def test_matches_brute_eight_sample(self, graphs_8):
        rng = random.Random(17)
        for g in rng.sample(graphs_8, 300):
            assert enumerate_minimal_separators(g) == brute_min_seps(g)

    def test_sweeps_each_set_once(self, monkeypatch):
        real = Graph.component_neighborhoods
        swept = []

        def recording(self, s):
            swept.append(s)
            return real(self, s)

        monkeypatch.setattr(Graph, "component_neighborhoods", recording)
        listed = 0
        for g in graphs_up_to(7):
            swept.clear()
            seps = enumerate_minimal_separators(g)
            # is_connected sweeps all of V, which the listing never does
            listing = [s for s in swept if s != g.full]
            assert seps == brute_minimal_separators(g), g
            if g.n and g.is_connected():
                assert len(listing) == len(set(listing)), g
                listed += len(listing)
        assert listed

    def test_disconnected_has_empty_separator(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        seps = enumerate_minimal_separators(g)
        assert seps[0] == 0


class TestIsPmc:
    def test_c4_triple(self):
        assert is_pmc(cycle(4), mask_of([1, 2, 3]))

    def test_c4_diagonal_rejected(self):
        assert not is_pmc(cycle(4), mask_of([1, 3]))

    def test_k3_whole(self):
        assert is_pmc(complete(3), mask_of([0, 1, 2]))

    def test_sweep_matches_triangulations_small(self, graphs_to_6):
        for g in graphs_to_6:
            if g.n == 0:
                continue
            sweep = [s for s in range(1, 1 << g.n) if is_pmc(g, s)]
            assert sweep == brute_pmcs(g)

    def test_sweep_matches_triangulations_seven(self):
        for g in connected_graphs(7):
            sweep = [s for s in range(1, 1 << g.n) if is_pmc(g, s)]
            assert sweep == brute_pmcs(g)

    def test_sweep_matches_triangulations_eight_sample(self, graphs_8):
        rng = random.Random(19)
        for g in rng.sample(graphs_8, 60):
            sweep = [s for s in range(1, 1 << g.n) if is_pmc(g, s)]
            assert sweep == brute_pmcs(g, max_n=8)

    def test_matches_pairwise_definition(self, graphs_to_6):
        for g in graphs_to_6:
            for s in range(1 << g.n):
                assert is_pmc(g, s) == pairwise_is_pmc(g, s), (g, s)

    def test_maximal_cliques_are_pmcs(self, connected_to_6):
        # every maximal clique of G survives in the trivial triangulation
        # of anything chordal, and is a PMC whenever it is one of some
        # minimal triangulation; here check the weaker standard fact that
        # a maximal clique with no full component is a PMC.
        for g in connected_to_6:
            for c in maximal_cliques_within(g, g.full):
                if not any(removal(g, c)[1]):
                    assert is_pmc(g, c)


def pmc_sweep(g: Graph):
    return [s for s in range(1, 1 << g.n) if is_pmc(g, s)]


def assert_listing_matches(g: Graph):
    # the listing's last prefix graph is G, so its Delta is Delta(G)
    pmcs, seps, _ = enumerate_pmcs(g)
    assert pmcs == pmc_sweep(g), g
    assert seps == enumerate_minimal_separators(g), g


class TestEnumeratePmcs:
    def test_trivial(self):
        assert enumerate_pmcs(Graph.from_edges(0, [])) == ([], [], {})
        assert enumerate_pmcs(Graph.from_edges(1, [])) == ([1], [], {1: []})

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            enumerate_pmcs(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_matches_sweep_connected_to_7(self):
        for n in range(1, 8):
            for g in connected_graphs(n):
                assert_listing_matches(g)

    @pytest.mark.parametrize("n", [8, 9, 10, 11])
    def test_matches_sweep_seeded_random(self, n):
        rng = random.Random(f"pmc-listing:{n}")
        for p in (0.15, 0.3, 0.5, 0.7, 0.85):
            for _ in range(10):
                g = gen_random(rng, n, p, connected=True)
                assert_listing_matches(g)


class TestListingMatchesReference:
    """The listing against the one that tests every candidate."""

    def test_connected_to_8(self):
        for n in range(1, 9):
            for g in connected_graphs(n):
                assert enumerate_pmcs(g)[:2] == reference_pmcs_and_separators(g), g

    @pytest.mark.parametrize("n", range(9, 19))
    def test_seeded_random(self, n):
        rng = random.Random(f"pmc-listing-reference:{n}")
        for p in (0.1, 0.2, 0.35, 0.5, 0.7, 0.85):
            g = gen_random(rng, n, p, connected=True)
            assert enumerate_pmcs(g)[:2] == reference_pmcs_and_separators(g), g

    def test_fewer_is_pmc_calls_and_none_on_a_separator(self, monkeypatch):
        # the listing's PMC test is _pmc_sweep, and is_pmc calls it too;
        # no test on a minimal separator of P_i, nor on Omega' + a for a
        # PMC Omega' of P_{i-1}
        g = gen_random(random.Random("pmc-listing-calls"), 14, 0.4, connected=True)
        calls = count_calls(monkeypatch, graph._pmc_sweep)
        ours = enumerate_pmcs(g)[:2]
        ours_calls = list(calls)
        calls.clear()
        assert reference_pmcs_and_separators(g) == ours
        assert len(ours_calls) < len(calls)
        order, within, _, _ = graph._prefixes(g)
        step = {w: i for i, w in enumerate(within)}
        seps, grown = {}, {}
        for _, omega, rest in ours_calls:
            i = step[rest]
            if i not in seps:
                sub, verts = g.induced_subgraph(rest)
                seps[i] = {expand_mask(s, verts) for s in enumerate_minimal_separators(sub)}
                sub, verts = g.induced_subgraph(within[i - 1])
                grown[i] = {expand_mask(p, verts) | 1 << order[i]
                            for p in reference_pmcs_and_separators(sub)[0]}
            assert omega not in seps[i], (i, omega)
            assert omega not in grown[i], (i, omega)
        assert len(seps) > 1


def assert_listing_invariants(g: Graph):
    """Each PMC's carried sweep is the sweep of G - Omega, and the
    downward Delta of each prefix graph is its own listing, with the
    separators it adds and their components."""
    pmcs, _, sweeps = enumerate_pmcs(g)
    assert list(sweeps) == pmcs, g
    for omega in pmcs:
        assert sweeps[omega] == g.component_neighborhoods(g.full & ~omega), (g, omega)
    order, within, _, levels = graph._prefixes(g)
    assert levels[-1][0] == enumerate_minimal_separators(g), g
    below = set()
    for i, (delta, fresh) in enumerate(levels):
        sub, verts = g.induced_subgraph(within[i])
        want = sorted(expand_mask(s, verts) for s in enumerate_minimal_separators(sub))
        assert delta == want, (g, i)
        a = 1 << order[i]
        assert [s for s, _ in fresh] == [s for s in delta if not s & a and s not in below], (g, i)
        for s, comps in fresh:
            assert sorted(comps) == sorted(g.components_within(within[i] & ~s)), (g, i, s)
        below = set(delta)


class TestListingInvariants:
    def test_connected_to_7(self):
        for n in range(1, 8):
            for g in connected_graphs(n):
                assert_listing_invariants(g)

    @pytest.mark.parametrize("n", range(9, 19))
    def test_seeded_random(self, n):
        # the graphs of TestListingMatchesReference
        rng = random.Random(f"pmc-listing-reference:{n}")
        for p in (0.1, 0.2, 0.35, 0.5, 0.7, 0.85):
            assert_listing_invariants(gen_random(rng, n, p, connected=True))


class TestMaximalCliques:
    def test_empty_sub(self):
        assert maximal_cliques_within(cycle(4), 0) == [0]

    def test_matches_brute(self, graphs_to_6):
        for g in graphs_to_6:
            got = maximal_cliques_within(g, g.full)
            want = brute_mis(g.complement())
            assert got == want

    def test_clique_number(self):
        assert complete(5).clique_number() == 5
        assert cycle(5).clique_number() == 2
        assert Graph.from_edges(0, []).clique_number() == 0


class TestBitset:
    def test_round_trip(self):
        xs = [0, 3, 17, 40]
        assert bit_list(mask_of(xs)) == xs

    def test_bits_order(self):
        assert list(bits(0b101001)) == [0, 3, 5]
