"""End-to-end acceptance gate.

One test per acceptance criterion, each a single pass/fail line under
``pytest -v``.  The tests cross-validate the independent implementations
against each other and against the brute-force oracle, exhaustively on
small corpora and on seeded random instances above that.  The whole file
runs in about a minute; the four-way cover sweep dominates.
"""

import itertools
import random
import time

from tclq.bitset import bits
from tclq.cograph import compute_ecc, parse_and_binarize
from tclq.cograph import compute_tcl as cotree_tcl
from tclq.cover import (ie_chromatic_with_construction, ie_count_covers, ie_count_partitions,
                        lawler_table)
from tclq.decomposition import sanitize, validate, width
from tclq.generators import gen_corpora, gen_permutation, gen_random, gen_reduction_H
from tclq.oracle import brute_chromatic, is_chordal, tcl_oracle
from tclq.permutation import compute_tcl as perm_tcl
from tclq.permutation import inversion_graph
from tclq.permutation import solve as perm_solve
from tclq.solver_dp import compute_tcl as dp_tcl
from tclq.solver_dp import decide_tcl_at_most_k as dp_decide
from tclq.solver_pmc import compute_tcl as pmc_tcl

from helpers import assert_good_witness, assert_sane, complete, perturb

DENSITIES = [0.2, 0.35, 0.5, 0.65, 0.8]


def test_solver_agreement_exhaustive_and_random(connected_to_6):
    """Separator DP, PMC DP and the oracle return the same width, and
    both solver witnesses validate exactly at it."""
    rng = random.Random(101)
    corpus = list(connected_to_6)
    for n in (7, 8, 9, 10):
        for _ in range(125):
            corpus.append(gen_random(rng, n, rng.choice(DENSITIES), connected=True))
    for g in corpus:
        k, wd = dp_tcl(g)
        kp, wp = pmc_tcl(g)
        assert k == kp == tcl_oracle(g)
        assert_good_witness(g, wd, expected_width=k)
        assert_good_witness(g, wp, expected_width=k)


def test_cover_number_agreement_four_ways(graphs_to_6, graphs_7, graphs_8):
    """Lawler table, cover counting, partition counting and brute-force
    coloring of the complement all give the same vcc."""
    rng = random.Random(202)
    corpus = [*graphs_to_6, *graphs_7, *graphs_8]
    corpus += [gen_random(rng, 12, rng.choice(DENSITIES)) for _ in range(200)]
    for g in corpus:
        co = g.complement()
        chi = brute_chromatic(co, max_n=12)
        assert lawler_table(g).values[g.full] == chi
        if g.n == 0:
            assert chi == 0
            continue
        for count in (ie_count_covers, ie_count_partitions):
            assert next(k for k in range(1, g.n + 1) if count(co, k) > 0) == chi


def test_constructed_coloring_proper_and_optimal():
    """The construction, chi and every merge decided by counting, emits a
    proper coloring with exactly the chromatic number of colors."""
    rng = random.Random(303)
    for _ in range(500):
        n = rng.randint(4, 12)
        g = gen_random(rng, n, rng.choice(DENSITIES))
        k, coloring = ie_chromatic_with_construction(g)
        assert k == brute_chromatic(g, max_n=12)
        assert len(coloring) == g.n
        assert set(coloring) == set(range(k))
        for u in range(g.n):
            for v in bits(g.adj[u]):
                if v > u:
                    assert coloring[u] != coloring[v]


def test_reduction_graph_width_equals_chromatic_number(connected_to_6):
    """Attaching an independent apex row to G yields a graph whose width
    is exactly chi(G), for every connected G on <= 6 vertices needing at
    least 3 colors."""
    checked = 0
    for g in connected_to_6:
        chi = brute_chromatic(g)
        if chi < 3:
            continue
        h = gen_reduction_H(g, g.n + 1)
        assert dp_tcl(h)[0] == chi
        checked += 1
    assert checked == 115  # connected graphs on n <= 6 with chi >= 3
    assert tcl_oracle(gen_reduction_H(complete(3), 4)) == 3


def test_cotree_fold_matches_general_solver_single_pass():
    """The cotree fold agrees with the separator DP on the realized graph
    and touches every node exactly once per pass."""
    trees = []
    for n in range(2, 11):
        trees.extend(gen_corpora(500 + n, "cograph", n=n, count=34))
    assert len(trees) >= 300
    for text, g in trees:
        t = parse_and_binarize(text)
        ecc_visits, tcl_visits = [], []
        compute_ecc(t, ecc_visits)
        assert cotree_tcl(t, tcl_visits)[0] == dp_tcl(g)[0]
        assert sorted(ecc_visits) == list(range(t.num_nodes))
        assert sorted(tcl_visits) == list(range(t.num_nodes))


def test_scanline_solver_matches_general_solver():
    """The scanline solver agrees with the separator DP on the inversion
    graph, and its witness is a valid decomposition of width tcl."""
    rng = random.Random(606)
    perms = [list(p) for n in range(1, 8) for p in itertools.permutations(range(1, n + 1))]
    perms += [gen_permutation(rng, 9) for _ in range(200)]
    for pi in perms:
        k, w = perm_solve(pi)
        g = inversion_graph(pi)
        assert k == perm_tcl(pi) == dp_tcl(g)[0]
        assert validate(g, w).ok
        assert width(w) == k


def test_width_one_exactly_for_chordal_graphs(graphs_to_6, graphs_7, graphs_8):
    """Width 1 characterizes chordal graphs, checked per component
    against an independent maximum-cardinality-search test."""
    for g in itertools.chain(graphs_to_6, graphs_7, graphs_8):
        if g.n == 0:
            assert is_chordal(g) and dp_tcl(g)[0] == 0
            continue
        one = True
        for comp in g.components_within(g.full):
            if comp.bit_count() == 1:
                continue
            sub, _ = g.induced_subgraph(comp)
            if not dp_decide(sub, 1, lawler_table(sub))[0]:
                one = False
                break
        assert one == is_chordal(g)


def test_witness_cliques_and_sanitize_properties(connected_to_6):
    """Every emitted decomposition holds each maximal clique inside some
    bag; sanitizing a perturbed decomposition keeps validity, restores
    sanity, never grows the width, only shrinks bags, and is idempotent."""
    emitted = []
    for g in connected_to_6:
        k, wd = dp_tcl(g)
        kp, wp = pmc_tcl(g)
        emitted.append((g, wd, k))
        emitted.append((g, wp, kp))
    for pi in itertools.permutations(range(1, 6)):
        k, w = perm_solve(list(pi))
        emitted.append((inversion_graph(pi), w, k))
    for g, d, k in emitted:
        assert_good_witness(g, d, expected_width=k)

    rng = random.Random(808)
    for _ in range(200):
        n = rng.randint(2, 9)
        g = gen_random(rng, n, rng.choice([0.3, 0.5, 0.7]), connected=True)
        messy = perturb(rng, g, dp_tcl(g)[1])
        s = sanitize(g, messy)
        assert validate(g, s).ok
        assert_sane(g, s)
        assert width(s) <= width(messy)
        for bag in s.bags:
            assert any(bag & ~b == 0 for b in messy.bags)
        assert sanitize(g, s) == s


def test_large_instances_within_wall_clock_budget():
    """Full subset table at n = 18 and the PMC solver at n = 14 both
    finish far inside a ten minute ceiling."""
    rng = random.Random(909)
    g18 = gen_random(rng, 18, 0.4)
    start = time.monotonic()
    table = lawler_table(g18)
    assert time.monotonic() - start < 600.0
    assert table.values[g18.full] >= 1

    g14 = gen_random(rng, 14, 0.4, connected=True)
    start = time.monotonic()
    k, w = pmc_tcl(g14)
    assert time.monotonic() - start < 600.0
    assert_good_witness(g14, w, expected_width=k)
