"""Clique cover tables, inclusion-exclusion counting, constructive coloring."""

import itertools
import random

import pytest

from tclq.bitset import bits, mask_of
from tclq.cover import (
    TABLE_MAX_N,
    CapacityError,
    CoverOracle,
    ie_chromatic_with_construction,
    ie_count_covers,
    ie_count_partitions,
    lawler_table,
    vcc,
)
from tclq.graph import Graph, enumerate_maximal_independent_sets
from tclq.oracle import brute_chromatic

from corpus import connected_graphs, graphs_up_to
from helpers import complete, cycle, empty, path, star


def nonempty_independent_sets(g: Graph):
    return [s for s in range(1, 1 << g.n) if g.is_independent(s)]


def brute_c_k(g: Graph, k: int) -> int:
    mis = enumerate_maximal_independent_sets(g)
    count = 0
    for combo in itertools.combinations(mis, k):
        u = 0
        for s in combo:
            u |= s
        if u == g.full:
            count += 1
    return count


def brute_p_k(g: Graph, k: int) -> int:
    sets = nonempty_independent_sets(g)
    count = 0
    for combo in itertools.product(sets, repeat=k):
        u = 0
        for s in combo:
            u |= s
        if u == g.full:
            count += 1
    return count


class TestLawlerTable:
    def test_c4(self):
        assert lawler_table(cycle(4)).values[0b1111] == 2

    def test_k4(self):
        t = lawler_table(complete(4))
        assert t.values[0b1111] == 1
        for s in range(1, 16):
            assert t.values[s] == 1

    def test_c5(self):
        assert lawler_table(cycle(5)).values[(1 << 5) - 1] == 3

    def test_base_case(self, graphs_to_6):
        for g in graphs_to_6:
            assert lawler_table(g).values[0] == 0

    def test_bounded_by_size(self, graphs_to_6):
        for g in graphs_to_6:
            t = lawler_table(g)
            for s in range(1 << g.n):
                assert 0 <= t.values[s] <= s.bit_count()

    def test_monotone_under_inclusion(self):
        rng = random.Random(41)
        for g in rng.sample(connected_graphs(6), 30):
            t = lawler_table(g)
            for s in range(1 << g.n):
                for v in bits(s):
                    assert t.values[s & ~(1 << v)] <= t.values[s]

    def test_matches_brute_chromatic_of_complement(self, graphs_to_6):
        for g in graphs_to_6:
            t = lawler_table(g)
            co = g.complement()
            for s in range(1 << g.n):
                sub, _ = co.induced_subgraph(s)
                assert t.values[s] == brute_chromatic(sub)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            lawler_table(Graph.from_edges(65, []))


class TestPartitionReconstruction:
    def check_partition(self, g, s, parts, expect):
        assert len(parts) == expect
        acc = 0
        for d in parts:
            assert d and not (d & acc)
            assert g.is_clique(d)
            acc |= d
        assert acc == s

    def test_lawler_choice_path(self, graphs_to_6):
        rng = random.Random(53)
        for g in graphs_to_6:
            t = lawler_table(g)
            for s in ([g.full] if g.n < 3 else [g.full, rng.randrange(1 << g.n)]):
                self.check_partition(g, s, t.partition(s), t.values[s])

    def test_oracle_matches_table(self, graphs_to_6):
        rng = random.Random(61)
        for g in graphs_to_6:
            t = lawler_table(g)
            oracle = CoverOracle(g)
            for s in [g.full, rng.randrange(1 << g.n), g.full]:
                assert oracle.value(s) == t.values[s]
                self.check_partition(g, s, oracle.partition(s), t.values[s])
            assert len(oracle.memo) <= 2


class TestCountCovers:
    def test_k2(self):
        assert ie_count_covers(complete(2), 1) == 0
        assert ie_count_covers(complete(2), 2) == 1

    def test_single_vertex(self):
        assert ie_count_covers(complete(1), 1) == 1

    def test_k3(self):
        assert ie_count_covers(complete(3), 3) == 1

    def test_negative_k(self):
        with pytest.raises(ValueError):
            ie_count_covers(complete(2), -1)

    def test_matches_brute(self):
        for g in graphs_up_to(5):
            mis_count = len(enumerate_maximal_independent_sets(g))
            for k in range(0, min(mis_count, 4) + 1):
                assert ie_count_covers(g, k) == brute_c_k(g, k), (g, k)

    def test_chromatic_threshold(self, graphs_to_6):
        for g in graphs_to_6:
            if g.n == 0:
                continue
            chi = brute_chromatic(g)
            assert ie_count_covers(g, chi) > 0
            if chi > 1:
                assert ie_count_covers(g, chi - 1) == 0

    def test_positive_through_mis_count(self):
        # once some k-cover exists, supersets keep covering, so c_k stays
        # positive all the way up to |M|; beyond |M| no k distinct sets
        # exist and the count is zero.  (The count itself is not monotone
        # near the top: for 2K2 the four MIS give c_3=4 but c_4=1.)
        for g in graphs_up_to(6):
            mis_count = len(enumerate_maximal_independent_sets(g))
            started = False
            for k in range(1, mis_count + 1):
                if ie_count_covers(g, k) > 0:
                    started = True
                elif started:
                    raise AssertionError((g, k))
            assert ie_count_covers(g, mis_count + 1) == 0


class TestCountPartitions:
    def test_single_vertex(self):
        assert ie_count_partitions(complete(1), 1) == 1

    def test_k2(self):
        assert ie_count_partitions(complete(2), 1) == 0
        assert ie_count_partitions(complete(2), 2) == 2

    def test_empty_pair(self):
        assert ie_count_partitions(empty(2), 1) == 1

    def test_matches_brute(self):
        for g in graphs_up_to(4):
            for k in range(0, 5):
                assert ie_count_partitions(g, k) == brute_p_k(g, k), (g, k)

    def test_positive_iff_colorable(self, graphs_to_6):
        for g in graphs_to_6:
            if g.n == 0:
                continue
            chi = brute_chromatic(g)
            for k in range(1, g.n + 1):
                assert (ie_count_partitions(g, k) > 0) == (k >= chi)

    def test_threshold_agreement(self, graphs_to_6):
        # the two counters and the subset table all locate chi together
        for g in graphs_to_6:
            if g.n == 0:
                continue
            t = lawler_table(g.complement())
            chi = t.values[g.full]
            cover_chi = next(k for k in range(1, g.n + 1) if ie_count_covers(g, k) > 0)
            part_chi = next(k for k in range(1, g.n + 1) if ie_count_partitions(g, k) > 0)
            assert chi == cover_chi == part_chi


class TestConstructiveColoring:
    def check(self, g, k, coloring):
        """coloring[v] is a color index; proper, exactly k colors used."""
        assert len(coloring) == g.n
        assert set(coloring) == set(range(k))
        for u, v in g.edges():
            assert coloring[u] != coloring[v]

    def test_k3(self):
        k, coloring = ie_chromatic_with_construction(complete(3))
        assert k == 3
        self.check(complete(3), k, coloring)

    def test_c5(self):
        k, coloring = ie_chromatic_with_construction(cycle(5))
        assert k == 3
        self.check(cycle(5), k, coloring)

    def test_empty_four(self):
        k, coloring = ie_chromatic_with_construction(empty(4))
        assert k == 1
        assert coloring == [0, 0, 0, 0]

    def test_zero_vertices(self):
        assert ie_chromatic_with_construction(empty(0)) == (0, [])

    def test_exact_and_proper_small(self, graphs_to_6):
        for g in graphs_to_6:
            if g.n == 0:
                continue
            k, coloring = ie_chromatic_with_construction(g)
            assert k == brute_chromatic(g)
            self.check(g, k, coloring)

    def test_exact_and_proper_random(self):
        rng = random.Random(61)
        from tclq.generators import gen_random

        for _ in range(25):
            g = gen_random(rng, rng.randint(4, 10), rng.choice([0.25, 0.5, 0.75]))
            k, coloring = ie_chromatic_with_construction(g)
            assert k == brute_chromatic(g)
            self.check(g, k, coloring)


class TestVcc:
    def test_c4(self):
        count, parts = vcc(cycle(4), 0b1111)
        assert count == 2
        # two opposite edges of the cycle
        assert all(p.bit_count() == 2 and cycle(4).is_clique(p) for p in parts)
        assert parts[0] | parts[1] == 0b1111

    def test_k4(self):
        assert vcc(complete(4), 0b1111)[0] == 1

    def test_star(self):
        assert vcc(star(3), (1 << 4) - 1)[0] == 3

    def test_partition_structure(self, graphs_to_6):
        rng = random.Random(67)
        for g in graphs_to_6:
            s = rng.randrange(1 << g.n) if g.n else 0
            count, parts = vcc(g, s)
            assert len(parts) == count
            acc = 0
            for p in parts:
                assert p and not (p & acc) and g.is_clique(p)
                acc |= p
            assert acc == s

    def test_matches_table(self, graphs_to_6):
        rng = random.Random(71)
        for g in graphs_to_6:
            t = lawler_table(g)
            s = rng.randrange(1 << g.n) if g.n else 0
            assert vcc(g, s)[0] == t.values[s]


class TestCapacity:
    def test_table_ops_refuse_above_the_table_limit(self):
        assert TABLE_MAX_N >= 18
        big = Graph.from_edges(TABLE_MAX_N + 1, [])
        for build in (lawler_table, ie_chromatic_with_construction,
                      lambda g: ie_count_covers(g, 1), lambda g: ie_count_partitions(g, 1)):
            with pytest.raises(CapacityError, match="subset-table limit"):
                build(big)

    def test_counting_ops_reject_oversized(self):
        big = Graph.from_edges(65, [])
        with pytest.raises(CapacityError):
            ie_count_covers(big, 1)
        with pytest.raises(CapacityError):
            ie_count_partitions(big, 1)
        with pytest.raises(CapacityError):
            ie_chromatic_with_construction(big)
