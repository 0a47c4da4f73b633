"""Clique cover tables, inclusion-exclusion counting, constructive coloring."""

import itertools
import math
import random

import pytest

from tclq import cover
from tclq.bitset import bit_list, bits
from tclq.cover import (
    TABLE_MAX_N,
    CapacityError,
    CoverOracle,
    ie_chromatic_with_construction,
    ie_count_covers,
    ie_count_partitions,
    lawler_cover,
    lawler_table,
    vcc,
)
from tclq.generators import gen_random
from tclq.graph import Graph, enumerate_maximal_independent_sets, maximal_cliques_within
from tclq.oracle import brute_chromatic

from corpus import connected_graphs, graphs_up_to
from helpers import (complete, complete_split, count_calls, cycle, empty, forbid, grotzsch,
                     kneser, star)


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
            assert len(oracle.known) <= 2


class TestLawlerCover:
    """The top-down route gives the table's value and partition at V."""

    def check(self, g):
        t = lawler_table(g)
        assert lawler_cover(g) == (t.values[g.full], t.partition(g.full))

    def test_matches_table_to_6(self, graphs_to_6):
        for g in graphs_to_6:
            self.check(g)

    def test_matches_table_7(self, graphs_7):
        for g in graphs_7:
            self.check(g)

    @pytest.mark.parametrize("n", range(8, 17))
    def test_matches_table_seeded(self, n):
        rng = random.Random(1000 + n)
        for p in (0.2, 0.5, 0.8):
            self.check(gen_random(rng, n, p))

    def test_ties_pick_the_smallest_clique(self, graphs_to_6):
        # at each set on the walk, the clique removed is the smallest mask
        # among the maximal cliques through the lowest vertex that leave
        # a rest of least vcc, with vcc from backtracking
        rng = random.Random(89)
        graphs = [g for g in graphs_to_6 if g.n >= 4]
        graphs += [gen_random(rng, 9, p) for p in (0.3, 0.5, 0.7) for _ in range(5)]
        for g in graphs:
            k, parts = lawler_cover(g)
            s = g.full
            for d in parts:
                v = (s & -s).bit_length() - 1
                options = [c | 1 << v for c in maximal_cliques_within(g, s & g.adj[v])]
                rest = [vcc(g, s & ~c)[0] for c in options]
                assert d == options[rest.index(min(rest))], (g, s)
                s &= ~d
            assert len(parts) == k

    def test_solves_each_set_once_and_few_sets(self, monkeypatch):
        solved = []
        step = cover._lawler_step

        def counting_step(g, s, value):
            solved.append(s)
            return step(g, s, value)

        monkeypatch.setattr(cover, "_lawler_step", counting_step)
        lawler_cover(gen_random(random.Random(3), 13, 0.5))
        assert len(solved) == len(set(solved)) < 1 << 10


def reference_independent_count_table(g: Graph):
    """The lowest-bit recurrence, one entry at a time."""
    ind = [0] * (1 << g.n)
    ind[0] = 1
    for t in range(1, 1 << g.n):
        v = (t & -t).bit_length() - 1
        ind[t] = ind[t & ~(1 << v)] + ind[t & ~g.nbr_closed(v)]
    return ind


def reference_mis_count_table(g: Graph):
    """The zeta transform of the maximal independent sets, in place."""
    zeta = [0] * (1 << g.n)
    for m in enumerate_maximal_independent_sets(g):
        zeta[m] = 1
    for i in range(g.n):
        for t in range(1 << g.n):
            if t >> i & 1:
                zeta[t] += zeta[t & ~(1 << i)]
    return zeta


def reference_count_partitions(g: Graph, k: int) -> int:
    """The direct signed subset sum over the uncovered set X."""
    ind = reference_independent_count_table(g)
    total = 0
    for x in range(1 << g.n):
        term = (ind[g.full & ~x] - 1) ** k
        total += -term if x.bit_count() & 1 else term
    return total


def reference_count_covers(g: Graph, k: int) -> int:
    zeta = reference_mis_count_table(g)
    total = 0
    for x in range(1 << g.n):
        term = math.comb(zeta[g.full & ~x], k)
        total += -term if x.bit_count() & 1 else term
    return total


def _lanes(t: int, m: int):
    """The 2^m lanes of a packed table, lane 0 first; nothing lies above."""
    width = cover.LANE
    assert t >> (width << m) == 0
    return [t >> (width * r) & ((1 << width) - 1) for r in range(1 << m)]


def _packed(values):
    """The packed table whose lanes are values."""
    return sum(x << (cover.LANE * r) for r, x in enumerate(values))


def reference_signed_histogram(values, n):
    hist = {}
    for t, a in enumerate(values):
        hist[a] = hist.get(a, 0) + (-1) ** (n - t.bit_count())
    return {a: c for a, c in hist.items() if c}


class TestIeKernels:
    """The packed tables and the histogram sums against the
    one-entry-at-a-time loops, for every k in 0..n+1."""

    def check(self, g):
        assert _lanes(cover._independent_count_table(g), g.n) == \
            reference_independent_count_table(g)
        assert _lanes(cover._maximal_independent_count_table(g), g.n) == \
            reference_mis_count_table(g)
        for k in range(g.n + 2):
            assert ie_count_partitions(g, k) == reference_count_partitions(g, k), (g, k)
            assert ie_count_covers(g, k) == reference_count_covers(g, k), (g, k)

    def test_all_graphs_to_6(self, graphs_to_6):
        assert {g.n for g in graphs_to_6} == set(range(7))
        for g in graphs_to_6:
            self.check(g)

    @pytest.mark.parametrize("n", range(7, 13))
    def test_seeded(self, n):
        rng = random.Random(500 + n)
        for p in (0.2, 0.5, 0.8):
            self.check(gen_random(rng, n, p))

    @staticmethod
    def random_tables():
        """Seeded tables with m <= 12 and lanes up to 2^TABLE_MAX_N; some
        end in zero lanes."""
        rng = random.Random(29)
        for m in range(13):
            for _ in range(3):
                values = [rng.randrange((1 << TABLE_MAX_N) + 1) for _ in range(1 << m)]
                zeros = rng.randrange(1 << m) if rng.random() < 0.3 else 0
                values[len(values) - zeros:] = [0] * zeros
                yield m, rng, values

    def test_gather(self):
        for m, rng, values in self.random_tables():
            for keep in (0, (1 << m) - 1, rng.randrange(1 << m), ~rng.randrange(1 << m)):
                assert _lanes(cover._gather(_packed(values), keep, m), m) == \
                    [values[r & keep] for r in range(1 << m)], (m, keep)

    def test_drop_bit_every_b(self):
        for m, _, values in self.random_tables():
            for b in range(m):
                assert _lanes(cover._drop_bit(_packed(values), b), m - 1) == \
                    [x for r, x in enumerate(values) if not r >> b & 1], (m, b)

    def test_signed_histogram(self):
        for m, _, values in self.random_tables():
            assert cover._signed_histogram(_packed(values), m) == \
                reference_signed_histogram(values, m)


class TestLaneHeadroom:
    """At TABLE_MAX_N the edgeless graph's lane V holds 2^20, the largest
    value any lane holds."""

    def test_edgeless_counts(self):
        g = empty(TABLE_MAX_N)
        assert ie_count_partitions(g, 1) == 1
        assert ie_count_partitions(g, 2) == 3**TABLE_MAX_N - 2

    def test_edgeless_construction(self):
        assert ie_chromatic_with_construction(empty(TABLE_MAX_N)) == (1, [0] * TABLE_MAX_N)


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


def reference_construction(g: Graph):
    """The constructive coloring with one ie_count_partitions per trial,
    on the trial graph rebuilt from its edge list: take the first
    non-adjacent pair (i, j), keep the edge ij if chi stays k, else
    merge j into i and renumber the vertices above j down by one."""
    if g.n == 0:
        return 0, []
    k = next(c for c in range(1, g.n + 1) if ie_count_partitions(g, c) > 0)
    groups = [[v] for v in range(g.n)]
    h = g
    while True:
        pair = next(((i, j) for i, j in itertools.combinations(range(h.n), 2)
                     if not h.has_edge(i, j)), None)
        if pair is None:
            break
        i, j = pair
        trial = Graph.from_edges(h.n, h.edges() + [(i, j)])
        if ie_count_partitions(trial, k) > 0:
            h = trial
            continue
        groups[i] += groups.pop(j)
        name = [i if v == j else v - (v > j) for v in range(h.n)]
        h = Graph.from_edges(h.n - 1, {tuple(sorted((name[u], name[v])))
                                       for u, v in h.edges() if name[u] != name[v]})
    assert h.n == k
    coloring = [0] * g.n
    for color, grp in enumerate(groups):
        for v in grp:
            coloring[v] = color
    return k, coloring


class TestPivotConstruction:
    """The construction on pivot tables, with a witness partition and its
    Kempe swaps deciding the trials they can, makes the same decisions as
    the per-trial count on rebuilt graphs, and builds one table per call."""

    def test_matches_reference_to_6(self, graphs_to_6):
        # plus graphs with many merges; E14 + K6, the complement of K14
        # joined to 6 independent vertices, merges 19 into 0 at k = 6, and a
        # search refuting that trial would run through every coloring of
        # the isolated 1..13
        for g in list(graphs_to_6) + [grotzsch(), kneser(6, 2), complete_split(14, 6)]:
            for h in (g, g.complement()):
                assert ie_chromatic_with_construction(h) == reference_construction(h), h

    @pytest.mark.parametrize("n", range(7, 16))
    def test_matches_reference_seeded(self, n):
        rng = random.Random(700 + n)
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            g = gen_random(rng, n, p)
            assert ie_chromatic_with_construction(g) == reference_construction(g), (n, p)

    def test_one_table_and_no_partition_count(self, monkeypatch):
        rng = random.Random(17)
        graphs = [cycle(7), complete(5), empty(6), star(5)]
        graphs += [gen_random(rng, 11, p).complement() for p in (0.3, 0.5, 0.7)]
        want = [ie_chromatic_with_construction(g) for g in graphs]
        forbid(monkeypatch, ie_count_partitions,
               "the construction called ie_count_partitions")
        tables = count_calls(monkeypatch, cover._independent_count_table)
        for g, expected in zip(graphs, want):
            del tables[:]
            assert ie_chromatic_with_construction(g) == expected
            assert tables == [(g,)]



def count_trials(g: Graph, coloring) -> int:
    """The add-or-merge trials of the construction that ends in coloring:
    each first non-adjacent pair of the working graph merges when its
    vertices end in one color class, and takes the edge otherwise."""
    adj = list(g.adj)
    alive = g.full
    trials = 0
    while True:
        pair = next(((i, j) for i, j in itertools.combinations(bit_list(alive), 2)
                     if not adj[i] >> j & 1), None)
        if pair is None:
            return trials
        trials += 1
        i, j = pair
        if coloring[i] == coloring[j]:
            alive &= ~(1 << j)
            adj[i] |= adj[j]
            for v in bits(adj[j]):
                adj[v] |= 1 << i
        else:
            adj[i] |= 1 << j
            adj[j] |= 1 << i


class TestWitness:
    """The witness, a partition of the working graph's complement rows
    into cliques, and the trials it spares the construction."""

    def test_proper_at_chi_and_none_below(self, graphs_to_6):
        # a partition of V into cliques of the complement rows is a
        # coloring of h, as the construction reads it
        for g in graphs_to_6:
            for h in (g, g.complement()):
                chi = brute_chromatic(h)
                non = [h.full & ~(row | 1 << v) for v, row in enumerate(h.adj)]
                classes = cover._partition_within(non, h.full, chi)
                assert len(classes) == chi and sum(classes) == h.full, h
                assert all(h.is_independent(c) for c in classes), h
                if chi:
                    assert cover._partition_within(non, h.full, chi - 1) is None, h

    def test_kempe_swap_keeps_a_coloring(self, graphs_to_6):
        # for each non-adjacent pair sharing a class of the first
        # partition, a swap moves j out and leaves a coloring of h + ij
        for g in graphs_to_6:
            for h in (g, g.complement()):
                non = [h.full & ~(row | 1 << v) for v, row in enumerate(h.adj)]
                first = cover._partition_within(non, h.full, brute_chromatic(h))
                for i, j in itertools.combinations(range(h.n), 2):
                    home = next(c for c, cls in enumerate(first) if cls >> i & 1)
                    if not non[i] >> j & 1 or not first[home] >> j & 1:
                        continue
                    trial = Graph.from_edges(h.n, h.edges() + [(i, j)])
                    rows = list(non)
                    rows[i] &= ~(1 << j)
                    rows[j] &= ~(1 << i)
                    classes = list(first)
                    if cover._kempe_apart(rows, classes, home, i, j):
                        assert sum(classes) == h.full and classes[home] >> i & 1, h
                        assert all(trial.is_independent(c) for c in classes), (h, i, j)
                    else:
                        assert classes == first

    def test_first_fit_is_a_coloring_or_none(self, graphs_to_6):
        found = 0
        for g in graphs_to_6:
            for h in (g, g.complement()):
                non = [h.full & ~(row | 1 << v) for v, row in enumerate(h.adj)]
                for k in range(1, h.n + 1):
                    classes = cover._first_fit(non, h.full, k)
                    if classes is not None:
                        found += 1
                        assert len(classes) <= k and sum(classes) == h.full, h
                        assert all(h.is_independent(c) for c in classes), (h, k)
                    else:
                        assert k < h.n, h
        assert found

    def test_missing_witness_is_an_error(self, monkeypatch):
        monkeypatch.setattr(cover, "_first_fit", lambda adj, s, k: None)
        monkeypatch.setattr(cover, "_partition_within", lambda adj, s, k: None)
        with pytest.raises(RuntimeError, match="coloring"):
            ie_chromatic_with_construction(cycle(5))

    # the construction on the complement of gen_random(random.Random(9),
    # 13, 0.5) makes 24 trials; 8 merge and 16 keep the edge, and the
    # witness decides 14 of those, 7 after a Kempe swap
    COUNTED = 10

    def test_counted_trials_pinned(self, monkeypatch):
        g = gen_random(random.Random(9), 13, 0.5).complement()
        counted = count_calls(monkeypatch, cover._odd_half_sum)
        k, coloring = ie_chromatic_with_construction(g)
        assert len(counted) == self.COUNTED
        assert (k, count_trials(g, coloring)) == (5, 24)
        # every merge is counted
        assert g.n - k <= self.COUNTED < count_trials(g, coloring)


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


def index_order_partition(adj, verts, k):
    """The index-order backtracker: each vertex of verts, in order, into
    the first class that takes it, opening one new class at a time."""
    classes = [0] * k

    def bt(i, used):
        if i == len(verts):
            return True
        v = verts[i]
        for c in range(used + 1 if used < k else k):
            if classes[c] & ~adj[v]:
                continue
            classes[c] |= 1 << v
            if bt(i + 1, max(used, c + 1)):
                return True
            classes[c] &= ~(1 << v)
        return False

    return [c for c in classes if c] if bt(0, 0) else None


class TestTwoCliques:
    """For k <= 2 the co-bipartite test stands in for the backtracker and
    must give its answer and its classes, in its order."""

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_matches_backtracker(self, graphs_to_6, k):
        for g in graphs_to_6:
            for s in range(1 << g.n):
                want = index_order_partition(g.adj, bit_list(s), k)
                for got in (cover._two_cliques(g.adj, s, k),
                            cover._partition_within(g.adj, s, k)):
                    assert (got is None) == (want is None), (g, s, k)
                    assert got == want, (g, s, k)
                assert CoverOracle(g).at_most(s, k) == (want is not None)

    def test_oracle_builds_no_vertex_list(self, monkeypatch):
        # the complements of C8 and C7 have vcc 2 and 3 and a greedy lower
        # bound of 2, so k = 2 takes a search; k = 0 and 1 fall below it
        graphs = [cycle(8).complement(), cycle(7).complement()]
        forbid(monkeypatch, cover.bit_list, "at_most listed the vertices at k <= 2")
        searched = count_calls(monkeypatch, cover._two_cliques)
        answers = [[CoverOracle(g).at_most(g.full, k) for k in (0, 1, 2)] for g in graphs]
        assert answers == [[False, False, True], [False, False, False]]
        assert len(searched) == 2


class TestHubsWithin:
    """hubs_within reads the v with vcc(s + v) <= k off masks, for k <= 2
    and every s with vcc(s) <= k."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_threshold_queries(self, connected_to_6, k):
        for g in connected_to_6:
            oracle = CoverOracle(g)
            for s in range(1 << g.n):
                if not oracle.at_most(s, k):
                    continue
                rest = g.full & ~s
                fits = sum(1 << v for v in bits(rest) if oracle.at_most(s | 1 << v, k))
                for c in range(rest + 1):
                    if c & ~rest == 0:
                        assert cover.hubs_within(g.adj, s, c, k) == c & fits, (g, s, c, k)

    def test_set_above_k_is_an_error(self):
        # C5 is its own complement, an odd cycle: vcc 3
        with pytest.raises(RuntimeError):
            cover.hubs_within(cycle(5).adj, cycle(5).full, 0, 2)
        # {0, 2} is no clique in the path 0-1-2
        p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(RuntimeError):
            cover.hubs_within(p3.adj, 0b101, 0b010, 1)


class TestAtMost:
    """at_most(s, k) decides vcc(s) <= k and leaves every partition as
    vcc gives it, whatever order the threshold and exact queries come in."""

    def graphs(self, graphs_to_6):
        rng = random.Random(113)
        return list(graphs_to_6) + [gen_random(rng, n, p)
                                    for n in range(8, 13) for p in (0.3, 0.6)]

    def check(self, g, source, exact_first, rng):
        for s in range(1 << g.n):
            want, classes = vcc(g, s)
            ks = list(range(s.bit_count() + 2))
            rng.shuffle(ks)
            if exact_first:
                assert source.value(s) == want
            assert [source.at_most(s, k) for k in ks] == [want <= k for k in ks], (g, s)
            assert source.value(s) == want
            if isinstance(source, CoverOracle):
                assert list(source.partition(s)) == classes

    @pytest.mark.parametrize("exact_first", [False, True])
    def test_oracle(self, graphs_to_6, exact_first):
        rng = random.Random(127)
        for g in self.graphs(graphs_to_6):
            self.check(g, CoverOracle(g), exact_first, rng)

    @pytest.mark.parametrize("exact_first", [False, True])
    def test_table(self, graphs_to_6, exact_first):
        rng = random.Random(131)
        for g in self.graphs(graphs_to_6):
            self.check(g, lawler_table(g), exact_first, rng)

    def test_first_partition_is_first_at_its_own_size(self, graphs_to_6):
        # what lets the oracle keep a threshold search's partition: the
        # first partition at k, of c classes, is also the first at c
        rng = random.Random(139)
        graphs = list(graphs_to_6) + [gen_random(rng, n, p)
                                      for n in range(8, 12) for p in (0.3, 0.6)]
        for g in graphs:
            for s in range(1 << g.n):
                for k in range(s.bit_count() + 1):
                    c = cover._partition_within(g.adj, s, k)
                    if c is not None:
                        assert cover._partition_within(g.adj, s, len(c)) == c, (g, s, k)

    def test_exact_after_one_query(self, graphs_to_6):
        # a partition kept from a search above vcc is not taken as exact
        rng = random.Random(149)
        for g in self.graphs(graphs_to_6):
            for k in range(g.n + 1):
                oracle = CoverOracle(g)
                for s in rng.sample(range(1 << g.n), min(64, 1 << g.n)):
                    want, classes = vcc(g, s)
                    assert oracle.at_most(s, k) == (want <= k)
                    assert list(oracle.partition(s)) == classes, (g, s, k)
                    assert oracle.value(s) == want

    def test_one_search_per_query(self, monkeypatch):
        # a threshold query searches at k alone, and only inside [lo, hi)
        searched = []
        search = cover._partition_within

        def counting(adj, verts, k):
            searched.append(k)
            return search(adj, verts, k)

        monkeypatch.setattr(cover, "_partition_within", counting)
        g = cycle(7)
        oracle = CoverOracle(g)
        assert [oracle.at_most(g.full, k) for k in (2, 3, 4, 3, 2, 7)] == \
            [False, False, True, False, False, True]
        # lo = 3 from {0, 2, 4}: k = 2 needs no search, k = 3 and 4 one each
        assert searched == [3, 4]
        # the k = 4 partition has lo = 4 classes, so value reuses it
        assert oracle.value(g.full) == 4 and searched == [3, 4]

    def test_start_at_any_lower_bound(self, graphs_to_6):
        rng = random.Random(137)
        for g in self.graphs(graphs_to_6):
            for s in rng.sample(range(1 << g.n), min(16, 1 << g.n)):
                want = vcc(g, s)
                for start in range(want[0] + 1):
                    assert vcc(g, s, start) == want


class TestCapacity:
    def test_table_ops_refuse_above_the_table_limit(self):
        assert TABLE_MAX_N >= 18
        big = Graph.from_edges(TABLE_MAX_N + 1, [])
        for build in (lawler_table, lawler_cover, ie_chromatic_with_construction,
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
