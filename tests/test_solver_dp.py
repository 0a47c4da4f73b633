"""Separator dynamic program: decision, optimization, block instrumentation."""

import hashlib
import random
import sys

import pytest

from tclq import cover, io, solver_dp
from tclq.bitset import bits, mask_of
from tclq.cover import CapacityError, CoverOracle, lawler_table
from tclq.decomposition import validate, width
from tclq.generators import gen_random
from tclq.graph import Graph, enumerate_minimal_separators
from tclq.oracle import tcl_oracle
from tclq.solver_dp import compute_tcl, decide_tcl_at_most_k
from tclq.solver_pmc import compute_tcl as pmc_tcl

from corpus import connected_graphs
from helpers import (
    assert_good_witness,
    complete,
    count_calls,
    cycle,
    forbid_subset_tables,
    path,
    solve_cli,
)


def bag_union(tree) -> int:
    """The union of the bags of a (bag, children) tree."""
    bag, kids = tree
    for kid in kids:
        bag |= bag_union(kid)
    return bag


def decide(g, k, entries=None):
    return decide_tcl_at_most_k(g, k, lawler_table(g), entries)


class TestDecide:
    def test_k4_one(self):
        ok, d = decide(complete(4), 1)
        assert ok
        assert_good_witness(complete(4), d, expected_width=1)

    def test_c5(self):
        ok, d = decide(cycle(5), 1)
        assert not ok and d is None
        ok, d = decide(cycle(5), 2)
        assert ok
        assert validate(cycle(5), d).ok and width(d) <= 2

    def test_c4_two(self):
        ok, d = decide(cycle(4), 2)
        assert ok
        assert_good_witness(cycle(4), d)
        assert width(d) <= 2

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            decide(cycle(4), 0)

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            decide(g, 1)

    def test_true_at_large_k(self, connected_to_6):
        for g in connected_to_6:
            ok, d = decide(g, max(1, g.n))
            assert ok
            assert validate(g, d).ok

    def test_monotone(self, connected_to_6):
        for g in connected_to_6:
            table = lawler_table(g)
            prev = False
            for k in range(1, g.n + 2):
                ok, _ = decide_tcl_at_most_k(g, k, table)
                assert not (prev and not ok), f"monotonicity broke at k={k} on {g}"
                prev = ok

    def test_oracle_and_table_agree(self, connected_to_6):
        for g in connected_to_6:
            table, oracle = lawler_table(g), CoverOracle(g)
            for k in range(1, g.n + 2):
                ok, d = decide_tcl_at_most_k(g, k, oracle)
                assert ok == decide_tcl_at_most_k(g, k, table)[0], f"k={k} on {g}"
                if ok:
                    assert validate(g, d).ok and width(d) <= k

    def test_deterministic_witness(self):
        rng = random.Random(89)
        for g in rng.sample(connected_graphs(6), 15):
            k = compute_tcl(g)[0]
            _, d1 = decide(g, k)
            _, d2 = decide(g, k)
            assert d1 == d2


class TestComputeTcl:
    def test_path_tree(self):
        k, d = compute_tcl(path(4))
        assert k == 1
        assert_good_witness(path(4), d, expected_width=1)

    def test_two_triangles(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        k, d = compute_tcl(g)
        assert k == 1
        assert_good_witness(g, d, expected_width=1)

    def test_c5(self):
        k, d = compute_tcl(cycle(5))
        assert k == 2
        assert_good_witness(cycle(5), d, expected_width=2)

    def test_empty_graph(self):
        k, d = compute_tcl(Graph.from_edges(0, []))
        assert k == 0

    def test_matches_oracle_small(self):
        for n in range(1, 6):
            for g in connected_graphs(n):
                k, d = compute_tcl(g)
                assert k == tcl_oracle(g)
                assert_good_witness(g, d, expected_width=k)

    def test_witness_width_is_tight(self, connected_to_6):
        # a strictly narrower witness would contradict minimality of k
        for g in connected_to_6:
            k, d = compute_tcl(g)
            assert width(d) == k

    def test_disconnected_mix(self):
        g = Graph.from_edges(9, [(0, 1), (1, 2), (2, 3), (3, 0)] + [(4, 5)] +
                             [(6, 7), (7, 8), (8, 6)])
        k, d = compute_tcl(g)
        assert k == 2
        assert_good_witness(g, d, expected_width=2)

    def test_separators_enumerated_once_per_component(self, monkeypatch):
        real = solver_dp.enumerate_minimal_separators
        calls = []

        def counting(g):
            calls.append(g.n)
            return real(g)

        monkeypatch.setattr(solver_dp, "enumerate_minimal_separators", counting)
        # C6 plus a disjoint C5: tcl 2 each, so k = 1 fails and k = 2 holds
        g = Graph.from_edges(11, [(i, (i + 1) % 6) for i in range(6)] +
                             [(6 + i, 6 + (i + 1) % 5) for i in range(5)])
        assert compute_tcl(g)[0] == 2
        assert sorted(calls) == [5, 6]

    def test_capacity(self):
        with pytest.raises(CapacityError):
            compute_tcl(path(65))


class TestSharedWork:
    """Each piece of a solve's work is done once: hubs come from masks,
    sweeps are shared by the rounds, and every entry reads N(c) from the
    sweep that found c."""

    def test_each_set_swept_once_across_rounds(self, monkeypatch):
        real = Graph.component_neighborhoods
        swept = []

        def recording(self, s):
            if sys._getframe(1).f_globals["__name__"] == solver_dp.__name__:
                swept.append(s)
            return real(self, s)

        monkeypatch.setattr(Graph, "component_neighborhoods", recording)
        rounds = count_calls(monkeypatch, decide_tcl_at_most_k)
        g = gen_random(random.Random("dp-shared-sweeps:12"), 12, 0.4, connected=True)
        k, d = compute_tcl(g)
        assert_good_witness(g, d, expected_width=k)
        assert len(rounds) >= 2 and swept
        assert len(swept) == len(set(swept))

    def test_no_neighbourhood_queries(self, monkeypatch):
        def refuse(self, s):
            raise AssertionError("the DP asked Graph.neighbors")

        monkeypatch.setattr(Graph, "neighbors", refuse)
        # at k = 1 the root {0, 6} of this graph has the component
        # {1, 4}, which is not full, as
        # test_non_full_root_component_takes_its_full_entry shows
        g = Graph.from_edges(7, [(0, 3), (0, 5), (0, 6), (1, 4), (1, 6), (2, 5), (2, 6),
                                 (3, 6), (4, 6)])
        graphs = [g] + [gen_random(random.Random(f"dp-no-neighbors:{p}"), 11, p, connected=True)
                        for p in (0.3, 0.5, 0.7)]
        for h in graphs:
            for k in (1, 2, 3):
                decide_tcl_at_most_k(h, k, CoverOracle(h))
        for h in graphs:
            compute_tcl(h)


class TestCoreBound:
    """A vertex v with vcc(N[v]) <= k peels off; a nonempty core at k
    means tcl > k, and the round at k is skipped."""

    def test_never_above_tcl(self, connected_to_6):
        reached = 0
        for g in connected_to_6 + connected_graphs(7):
            k = pmc_tcl(g)[0]
            oracle = CoverOracle(g)
            assert solver_dp._core(g, g.full, k, oracle) == 0, g
            if k > 1 and solver_dp._core(g, g.full, k - 1, oracle):
                reached += 1
        assert reached > 0

    def test_skips_a_round_it_rules_out(self, monkeypatch):
        g = gen_random(random.Random(610), 7, 0.5, connected=True)
        assert solver_dp._core(g, g.full, 2, CoverOracle(g)) != 0
        rounds = count_calls(monkeypatch, decide_tcl_at_most_k)
        k, d = compute_tcl(g)
        assert k == 3 == pmc_tcl(g)[0]
        assert_good_witness(g, d, expected_width=3)
        assert [args[1] for args in rounds] == [1, 3]

    def test_largest_set_that_peels_nothing(self, connected_to_6):
        # whatever the peel order, the core is the union of the sets in
        # which no vertex peels off
        for g in connected_to_6:
            oracle = CoverOracle(g)
            for k in (1, 2, 3):
                stuck = 0
                for x in range(1 << g.n):
                    if not any(oracle.at_most((g.adj[v] | 1 << v) & x, k) for v in bits(x)):
                        stuck |= x
                assert solver_dp._core(g, g.full, k, oracle) == stuck, (g, k)


class TestThresholdQueries:
    def test_exact_vcc_only_for_bags_read(self, monkeypatch):
        # the DP asks at_most for its tests, so an exact vcc runs only
        # for a set whose partition a witness bag reads
        solved, read = [], set()
        real_vcc, real_partition = cover.vcc, CoverOracle.partition

        def counting_vcc(g, s, start=1):
            solved.append(s)
            return real_vcc(g, s, start)

        def recording_partition(self, s):
            read.add(s)
            return real_partition(self, s)

        monkeypatch.setattr(cover, "vcc", counting_vcc)
        monkeypatch.setattr(CoverOracle, "partition", recording_partition)
        g = gen_random(random.Random("dp-threshold:14"), 14, 0.6, connected=True)
        k, d = compute_tcl(g)
        assert_good_witness(g, d, expected_width=k)
        assert solved and len(solved) <= len(read)

    # sha256 of io.serialize_decomposition over compute_tcl, for eight
    # seeded G(n, p) per n, computed on the separator DP before it asked
    # at_most instead of the exact vcc: the witnesses are unchanged
    TCD_SHA256 = {
        8: "6a4c45740695fbc132be4c5942ccbf2f5a9716fa072f7b7dd89046ead7b76189",
        9: "69c58ecd72d4246883d507b6c5bbefaebabc457c3203d1962570977417613de1",
        10: "2df5b4eeb76281b4310f8961bc74ebfbb2e88325246c06e9a46f6f4e4233aafd",
        11: "0595347df5948cc1eb33b85142b1b45daf8e95bf74489ffa626c5feef5c15972",
        12: "7a5ef8bfb14da69c1d01230c84a202e32b4acf93ccd423bcd354298871645e17",
        13: "902d467f37f766030c52bb962b6c38377600f8988147208d766b9b833bc22e5f",
        14: "295341dc4a6e098fc293f9c474a5a9434d641ef62e1af3202d1af8d034160a46",
    }

    @pytest.mark.parametrize("n", range(8, 15))
    def test_witness_bytes_pinned(self, n):
        rng = random.Random(f"dp-tcd-pin:{n}")
        h = hashlib.sha256()
        for p in (0.2, 0.4, 0.6, 0.8) * 2:
            g = gen_random(rng, n, p)
            h.update(io.serialize_decomposition(compute_tcl(g)[1], g.n).encode())
        assert h.hexdigest() == self.TCD_SHA256[n]


class TestDpRouteBuildsNoSubsetTable:
    @pytest.mark.parametrize("n", [12, 13, 14])
    def test_matches_pmc(self, n, monkeypatch, tmp_path, capsys):
        rng = random.Random(f"dp-no-subset-table:{n}")
        graphs = [gen_random(rng, n, p, connected=True) for p in (0.2, 0.4, 0.7)]
        want = [pmc_tcl(g)[0] for g in graphs]
        forbid_subset_tables(monkeypatch)
        got = [solve_cli(g, tmp_path, capsys, "--algo", "dp") for g in graphs]
        assert got == want

    def test_n18(self, monkeypatch, tmp_path, capsys):
        g = gen_random(random.Random("dp-no-subset-table:18"), 18, 0.4, connected=True)
        want = pmc_tcl(g)[0]
        forbid_subset_tables(monkeypatch)
        assert solve_cli(g, tmp_path, capsys, "--algo", "dp") == want


class TestBlockInstrumentation:
    def test_entry_shape(self):
        rng = random.Random(97)
        for g in rng.sample(connected_graphs(6), 30):
            table = lawler_table(g)
            for k in (1, 2):
                if table.values[g.full] <= k:
                    continue
                entries = {}
                decide_tcl_at_most_k(g, k, table, entries)
                for (sep, comp), ent in entries.items():
                    assert sep & comp == 0
                    assert ent is None or bag_union(ent) == sep | comp
                    assert table.values[sep] <= k
                    assert g.is_connected(comp)
                    assert g.neighbors(comp) == sep

    def test_separator_characterization(self):
        # semantic form: the decision says tcl <= k exactly when the
        # oracle's elimination-ordering DP does, for every k up to n
        rng = random.Random(101)
        for g in rng.sample(connected_graphs(6), 30):
            table = lawler_table(g)
            truth = tcl_oracle(g)
            for k in range(1, g.n + 1):
                ok, _ = decide_tcl_at_most_k(g, k, table)
                assert ok == (truth <= k)

    def test_non_full_root_component_takes_its_full_entry(self):
        # the minimal separator {0, 6} has the component {1, 4}, which
        # sees only 6; the root {0, 6} answers it by the full entry
        # ({6}, {1, 4}), a yes by the base rule, and keeps no entry
        # ({0, 6}, {1, 4})
        g = Graph.from_edges(7, [(0, 3), (0, 5), (0, 6), (1, 4), (1, 6), (2, 5), (2, 6),
                                 (3, 6), (4, 6)])
        root, comp = mask_of([0, 6]), mask_of([1, 4])
        assert root in enumerate_minimal_separators(g)
        assert (comp, mask_of([6])) in g.component_neighborhoods(g.full & ~root)
        entries = {}
        ok, _ = decide_tcl_at_most_k(g, 1, lawler_table(g), entries)
        assert not ok
        assert entries[(mask_of([6]), comp)] == (mask_of([1, 4, 6]), [])
        assert (root, comp) not in entries

    def test_yes_entries_have_witness(self):
        g = cycle(6)
        table = lawler_table(g)
        entries = {}
        ok, _ = decide_tcl_at_most_k(g, 2, table, entries)
        assert ok
        assert any(w is not None for w in entries.values())
        for (sep, comp), w in entries.items():
            # a yes holds its witness, whose bags cover exactly the part
            assert g.neighbors(comp) == sep
            assert w is None or bag_union(w) == sep | comp
