"""Block-and-PMC dynamic program and its catalog."""

import hashlib
import random

import pytest

from tclq import cover, io
from tclq.bitset import mask_of
from tclq.cover import CapacityError
from tclq.decomposition import validate, width
from tclq.generators import gen_random
from tclq.graph import Graph, is_pmc
from tclq.oracle import tcl_oracle
from tclq.solver_dp import compute_tcl as dp_tcl
from tclq.solver_pmc import block_index, build_catalog, compute_tcl, tcl_via_pmc

from corpus import connected_graphs
from helpers import (assert_good_witness, complete, count_calls, cycle, forbid_subset_tables, path,
                     reference_tcl_via_pmc, solve_cli)


class TestBuildCatalog:
    def test_c4(self):
        catalog, table = build_catalog(cycle(4))
        triples = sorted(
            mask_of(t) for t in [(0, 1, 2), (1, 2, 3), (0, 2, 3), (0, 1, 3)]
        )
        assert catalog.pmcs == triples
        assert all(catalog.cover.value(p) == 2 for p in catalog.pmcs)
        seps = sorted([mask_of([0, 2]), mask_of([1, 3])])
        assert catalog.separators == seps
        assert all(catalog.cover.value(s) == 2 for s in seps)

    def test_k3(self):
        catalog, _ = build_catalog(complete(3))
        assert catalog.pmcs == [mask_of([0, 1, 2])]
        assert catalog.separators == []

    def test_p4(self):
        catalog, _ = build_catalog(path(4))
        assert catalog.pmcs == sorted(
            [mask_of([0, 1]), mask_of([1, 2]), mask_of([2, 3])]
        )
        assert catalog.separators == [1 << 1, 1 << 2]

    def test_marks_match_direct_test(self, connected_to_6):
        for g in connected_to_6:
            catalog, _ = build_catalog(g)
            assert catalog.pmcs == [s for s in range(1, 1 << g.n) if is_pmc(g, s)]

    def test_root_components_are_indexed_blocks(self, connected_to_6):
        # every component C of G - S, S a minimal separator, is a full
        # component of N(C), so the root finds each (N(C), C) indexed;
        # and S is inclusion-minimal exactly when all are full, the root
        # rule of reference_tcl_via_pmc
        rng = random.Random("pmc-root-blocks")
        seeded = [gen_random(rng, n, p, connected=True)
                  for n in range(8, 17) for p in (0.15, 0.3, 0.5)]
        non_full = 0
        for g in list(connected_to_6) + seeded:
            catalog, _ = build_catalog(g)
            index = block_index(g, catalog)
            for s in catalog.separators:
                for c, nc in catalog.sweeps[s]:
                    assert (nc, c) in index, (g, s, c)
                    non_full += nc != s
                minimal = not any(t & ~s == 0 for t in catalog.separators if t != s)
                assert minimal == all(nc == s for _, nc in catalog.sweeps[s]), (g, s)
        assert non_full

    def test_sweeps_of_pmcs_and_root_separators(self, connected_to_6):
        # one record per set, PMCs and separators being disjoint
        rng = random.Random("pmc-catalog-sweeps")
        seeded = [gen_random(rng, n, p, connected=True)
                  for n in range(8, 15) for p in (0.15, 0.3, 0.5)]
        for g in list(connected_to_6) + seeded:
            catalog, _ = build_catalog(g)
            assert sorted(catalog.sweeps) == sorted(catalog.pmcs + catalog.separators)
            for x, pairs in catalog.sweeps.items():
                assert pairs == g.component_neighborhoods(g.full & ~x), (g, x)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            build_catalog(Graph.from_edges(65, []))


def assert_index_matches_scan(g: Graph) -> None:
    """block_index against the full blocks and the admissibility scan
    S proper-subset Omega subseteq S union C over the whole catalog."""
    catalog, _ = build_catalog(g)
    index = block_index(g, catalog)
    blocks = set()
    for s in catalog.separators:
        blocks.update((s, c) for c, nc in g.component_neighborhoods(g.full & ~s) if nc == s)
    assert set(index) == blocks
    for (sep, comp), entries in index.items():
        part = sep | comp
        assert [om for om, _ in entries] == [
            om for om in catalog.pmcs if om != sep and sep & ~om == 0 and om & ~part == 0]
        for omega, subs in entries:
            assert subs == [(nd, d) for d, nd in g.component_neighborhoods(part & ~omega)]


class TestBlockIndex:
    def test_connected_to_6(self, connected_to_6):
        for g in connected_to_6:
            assert_index_matches_scan(g)

    @pytest.mark.parametrize("n", range(8, 15))
    def test_seeded_random(self, n):
        rng = random.Random(f"pmc-block-index:{n}")
        for p in (0.15, 0.3, 0.5, 0.7):
            assert_index_matches_scan(gen_random(rng, n, p, connected=True))

    def test_dp_sweeps_no_set_the_catalog_swept(self, monkeypatch):
        g = gen_random(random.Random("pmc-block-index:sweeps"), 13, 0.3, connected=True)
        catalog, _ = build_catalog(g)
        want = tcl_via_pmc(g, catalog)
        swept = []
        sweep = Graph.component_neighborhoods

        def recording(self, s):
            swept.append(s)
            return sweep(self, s)

        monkeypatch.setattr(Graph, "component_neighborhoods", recording)
        block_index(g, catalog)
        assert swept == []
        assert tcl_via_pmc(g, catalog) == want
        assert catalog.separators
        assert not {g.full & ~x for x in catalog.sweeps} & set(swept)

    def test_blocks_by_part_size(self):
        g = gen_random(random.Random("pmc-block-index:order"), 12, 0.3, connected=True)
        # by part size, then part, then S
        keys = [((s | c).bit_count(), s | c, s) for s, c in block_index(g, build_catalog(g)[0])]
        assert keys == sorted(keys)


class TestTclViaPmc:
    def run(self, g):
        catalog, _ = build_catalog(g)
        return tcl_via_pmc(g, catalog)

    def test_c4(self):
        k, d = self.run(cycle(4))
        assert k == 2
        assert_good_witness(cycle(4), d, expected_width=2)

    def test_p4(self):
        k, d = self.run(path(4))
        assert k == 1
        assert_good_witness(path(4), d, expected_width=1)

    def test_k4_short_circuit(self):
        k, d = self.run(complete(4))
        assert k == 1
        assert d.num_nodes == 1 and d.bags == (0b1111,)

    @pytest.mark.parametrize("n", range(7))
    def test_complete_graph_is_one_bag(self, n):
        # complete(0) is the empty graph: value 0, one empty bag
        g = complete(n)
        k, d = self.run(g)
        assert k == min(n, 1)
        assert d.parents == (-1,) and d.bags == (g.full,)

    def test_matches_oracle_and_dp(self, connected_to_6):
        for g in connected_to_6:
            k, d = self.run(g)
            assert k == tcl_oracle(g)
            assert k == dp_tcl(g)[0]
            assert_good_witness(g, d, expected_width=k)

    def test_matches_dp_on_seven_sample(self):
        rng = random.Random(103)
        for g in rng.sample(connected_graphs(7), 150):
            assert self.run(g)[0] == dp_tcl(g)[0]

    def test_witness_width_tight(self, connected_to_6):
        for g in connected_to_6:
            k, d = self.run(g)
            assert width(d) == k


class TestMatchesEagerDp:
    """tcl_via_pmc against the DP that solves every vcc up front and
    roots at the inclusion-minimal separators alone."""

    def test_connected_to_7(self, connected_to_6):
        for g in list(connected_to_6) + connected_graphs(7):
            assert tcl_via_pmc(g, build_catalog(g)[0]) == reference_tcl_via_pmc(g), g

    @pytest.mark.parametrize("n", range(8, 17))
    def test_seeded_random(self, n):
        rng = random.Random(f"pmc-eager-dp:{n}")
        for p in (0.15, 0.3, 0.5, 0.7, 0.8, 0.9):
            g = gen_random(rng, n, p, connected=True)
            assert tcl_via_pmc(g, build_catalog(g)[0]) == reference_tcl_via_pmc(g), g

    def test_dense_solves_fewer_covers_than_the_catalog_holds(self, monkeypatch):
        g = gen_random(random.Random("pmc-lazy-covers"), 16, 0.7, connected=True)
        want = reference_tcl_via_pmc(g)
        catalog, _ = build_catalog(g)
        calls = count_calls(monkeypatch, cover.vcc)
        assert tcl_via_pmc(g, catalog) == want
        assert len(calls) < len(catalog.pmcs) + len(catalog.separators)


class TestComputeTcl:
    def test_disconnected(self):
        g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 0)] + [(3, 4), (4, 5), (5, 6), (6, 3)])
        k, d = compute_tcl(g)
        assert k == 2
        assert_good_witness(g, d, expected_width=2)

    def test_empty(self):
        k, _ = compute_tcl(Graph.from_edges(0, []))
        assert k == 0

    def test_isolated_vertices(self):
        g = Graph.from_edges(3, [])
        k, d = compute_tcl(g)
        assert k == 1
        assert validate(g, d).ok


class TestDefaultRouteBuildsNoSubsetTable:
    def test_n20(self, monkeypatch, tmp_path, capsys):
        g = gen_random(random.Random("no-subset-table:20"), 20, 0.25, connected=True)
        forbid_subset_tables(monkeypatch)
        solve_cli(g, tmp_path, capsys)

    @pytest.mark.parametrize("n", [12, 13, 14])
    def test_matches_dp(self, n, monkeypatch, tmp_path, capsys):
        rng = random.Random(f"no-subset-table:{n}")
        graphs = [gen_random(rng, n, p, connected=True) for p in (0.2, 0.4, 0.7)]
        want = [dp_tcl(g)[0] for g in graphs]
        forbid_subset_tables(monkeypatch)
        assert [solve_cli(g, tmp_path, capsys) for g in graphs] == want


class TestWitnessBytes:
    # sha256 of io.serialize_decomposition over compute_tcl, for eight
    # seeded G(n, p) per n, computed on the PMC route before it listed
    # each block's PMCs from an index instead of scanning the catalog
    TCD_SHA256 = {
        8: "ea88071e8709fbb2c1f5f98fd805cbb9258471d010e0a336e67caa422c656610",
        9: "a5643542230d6f8de0d92dcf8cc1bf0bafc396d103f34ba053a44d0539cacea3",
        10: "0683851ffe2ed4206a5a58460c8d37d974bfeb9afd8ae98ef06731709a8097ff",
        11: "f868a6391d5fd0e862c33403d2723da031a91bb9f2b941a5a3b6df15568241ea",
        12: "79b854c40618fd60960a44769d727966c45977988305503390add7110c8684a1",
        13: "7ec35637e5612c6dded4e82e5d283b56a46f6c949f668405529ac18920f227bc",
        14: "230798df53d526c1f45c4111825608bf3dc004701ff9e9ccba87b74c27346d33",
    }

    @pytest.mark.parametrize("n", range(8, 15))
    def test_witness_bytes_pinned(self, n):
        rng = random.Random(f"pmc-tcd-pin:{n}")
        h = hashlib.sha256()
        for p in (0.2, 0.4, 0.6, 0.8) * 2:
            g = gen_random(rng, n, p)
            h.update(io.serialize_decomposition(compute_tcl(g)[1], g.n).encode())
        assert h.hexdigest() == self.TCD_SHA256[n]
