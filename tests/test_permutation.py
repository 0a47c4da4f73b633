"""Permutation diagrams, scanlines, and the scanline solver."""

import hashlib
import itertools
import random
import tracemalloc
from collections import Counter

import pytest

from tclq import permutation
from tclq.bitset import bits, mask_of
from tclq.cover import vcc
from tclq.decomposition import validate, width
from tclq.generators import gen_permutation
from tclq.io import serialize_decomposition
from tclq.permutation import _cover_piles, compute_tcl, diagram, inversion_graph, solve
from tclq.solver_dp import compute_tcl as dp_tcl


class TestInversionGraph:
    def test_identity(self):
        assert inversion_graph([1, 2, 3]).edge_count() == 0

    def test_swap(self):
        g = inversion_graph([2, 1])
        assert g.n == 2 and g.has_edge(0, 1)

    def test_c4(self):
        g = inversion_graph([3, 4, 1, 2])
        assert sorted(g.edges()) == [(0, 2), (0, 3), (1, 2), (1, 3)]

    def test_reversal_clique(self):
        for n in range(1, 7):
            g = inversion_graph(list(range(n, 0, -1)))
            assert g.is_complete()

    def test_not_a_permutation(self):
        for pi in ([1, 1], [0, 1], [2, 3], [1, 2, 4]):
            with pytest.raises(ValueError, match="not a permutation"):
                inversion_graph(pi)

    def test_edge_rule_brute(self):
        rng = random.Random(113)
        for _ in range(10):
            pi = gen_permutation(rng, rng.randint(1, 8))
            d = diagram(pi)
            g = inversion_graph(pi)
            for i in range(d.n):
                for j in range(i + 1, d.n):
                    want = (i - j) * (d.pi_inverse[i] - d.pi_inverse[j]) < 0
                    assert g.has_edge(i, j) == want


class TestCoverOfLineSet:
    """_cover_piles, the witness partition: a minimum clique partition of
    a line set."""

    def test_reversal_all_lines(self):
        d = diagram([4, 3, 2, 1])
        assert _cover_piles(d, (1 << 4) - 1) == [0b1111]

    def test_identity_all_lines(self):
        d = diagram([1, 2, 3])
        assert len(_cover_piles(d, 0b111)) == 3

    def test_crossing_pair(self):
        d = diagram([3, 4, 1, 2])
        assert _cover_piles(d, mask_of([0, 2])) == [mask_of([0, 2])]

    def test_empty_set(self):
        assert _cover_piles(diagram([2, 1]), 0) == []

    def test_matches_vcc(self):
        rng = random.Random(131)
        for _ in range(30):
            pi = gen_permutation(rng, rng.randint(1, 9))
            d = diagram(pi)
            g = inversion_graph(pi)
            lines = rng.randrange(1 << d.n)
            piles = _cover_piles(d, lines)
            assert len(piles) == vcc(g, lines)[0]
            assert sorted(v for p in piles for v in bits(p)) == list(bits(lines))
            assert all(g.is_clique(p) for p in piles)


class TestDecide:
    """tcl <= k read off ``solve``, with the witness checked at k."""

    def test_c4(self):
        k, d = solve([3, 4, 1, 2])
        assert k == 2
        assert validate(inversion_graph([3, 4, 1, 2]), d).ok and width(d) == 2

    def test_reversal_k1(self):
        k, d = solve([4, 3, 2, 1])
        assert k == 1
        assert validate(inversion_graph([4, 3, 2, 1]), d).ok and width(d) == 1

    def test_identity_k1(self):
        k, d = solve([1, 2, 3, 4])
        assert k == 1
        assert validate(inversion_graph([1, 2, 3, 4]), d).ok

    def test_empty_permutation(self):
        k, d = solve([])
        assert k == 0 and d.num_nodes == 1

    def test_witness_bags_are_candidate_components(self):
        rng = random.Random(157)
        for _ in range(25):
            pi = gen_permutation(rng, rng.randint(1, 8))
            _check_witness(pi, *solve(pi))


class TestComputeTcl:
    def test_c4(self):
        assert compute_tcl([3, 4, 1, 2]) == 2

    def test_swap(self):
        assert compute_tcl([2, 1]) == 1

    def test_empty(self):
        assert compute_tcl([]) == 0

    def test_exhaustive_small(self):
        for n in range(1, 6):
            for pi in itertools.permutations(range(1, n + 1)):
                g = inversion_graph(pi)
                assert compute_tcl(list(pi)) == dp_tcl(g)[0]

    def test_random_seven(self):
        rng = random.Random(163)
        for _ in range(40):
            pi = gen_permutation(rng, 7)
            assert compute_tcl(pi) == dp_tcl(inversion_graph(pi))[0]


# The eager per-k scanline solver: every crossing set from its definition,
# every k-small scanline and every arc built before a breadth-first
# search, and k raised one step at a time.  It is the value reference for
# the bottleneck DP.  A scanline is a pair (top, bottom) of gap indices.

def _crossing_lines(d, t, b):
    """Lines with exactly one endpoint on each side of the scanline (t, b)."""
    return sum(1 << v for v in range(d.n) if (v + 1 <= t) != (d.pi_inverse[v] <= b))


def _cover(d, lines):
    return len(_cover_piles(d, lines))


def _reference_graph(d, k):
    nodes = [(t, b) for t in range(d.n + 1) for b in range(d.n + 1)
             if _cover(d, _crossing_lines(d, t, b)) <= k]
    node_set = set(nodes)
    cross = {s: _crossing_lines(d, *s) for s in nodes}
    succ = {}
    for s in nodes:
        top, bottom = s
        targets = [(t, bottom) for t in range(top + 1, d.n + 1)]
        targets += [(top, b) for b in range(bottom + 1, d.n + 1)]
        succ[s] = tuple(t for t in targets
                        if t in node_set and _cover(d, cross[s] | cross[t]) <= k)
    return nodes, succ


def _reachable(d, succ):
    start, goal = (0, 0), (d.n, d.n)
    seen = {start}
    queue = [start]
    for s in queue:
        for t in succ[s]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return goal in seen


def _reference_tcl(pi):
    d = diagram(pi)
    if d.n == 0:
        return 0
    k = 1
    while not _reachable(d, _reference_graph(d, k)[1]):
        k += 1
    return k


def _unit_step_components(d):
    cross = {(t, b): _crossing_lines(d, t, b)
             for t in range(d.n + 1) for b in range(d.n + 1)}
    return {m | cross[t + dt, b + db] for (t, b), m in cross.items()
            for dt, db in ((1, 0), (0, 1)) if (t + dt, b + db) in cross}


def _check_witness(pi, k, d):
    """The witness of ``solve`` is a valid path decomposition of width
    tcl whose bags are unit-step candidate components, none of them
    contained in a neighbour."""
    assert validate(inversion_graph(pi), d).ok, pi
    assert width(d) == k, pi
    assert d.parents == tuple(range(-1, d.num_nodes - 1)), pi
    if pi:
        steps = _unit_step_components(diagram(pi))
        assert all(bag in steps for bag in d.bags), pi
    for a, b in zip(d.bags, d.bags[1:]):
        assert a & ~b and b & ~a, pi


def _seeded_permutations(seed, count, lo, hi):
    rng = random.Random(seed)
    return [gen_permutation(rng, rng.randint(lo, hi)) for _ in range(count)]


class TestGridSolverMatchesReference:
    def _check(self, pi):
        k, d = solve(pi)
        assert k == _reference_tcl(pi) == compute_tcl(pi), pi
        _check_witness(pi, k, d)

    def test_exhaustive_up_to_seven(self):
        for n in range(8):
            for pi in itertools.permutations(range(1, n + 1)):
                self._check(list(pi))

    def test_seeded_eight_to_twenty_five(self):
        for pi in _seeded_permutations(167, 30, 8, 25):
            self._check(pi)


class TestScanlineGrid:
    def test_bottleneck_matches_definition(self):
        # every entry: its own crossing set's cover, or the better of its
        # unit-step predecessors' values if that is larger; the bottleneck
        # keeps the last entry and, per row, where the top step attains it
        for pi in [[]] + _seeded_permutations(181, 20, 1, 15):
            d = diagram(pi)
            best = list(permutation._rows(d))
            for t in range(d.n + 1):
                for b in range(d.n + 1):
                    preds = [best[t - 1][b]] if t else []
                    preds += [best[t][b - 1]] if b else []
                    cover = _cover(d, _crossing_lines(d, t, b))
                    want = max(cover, min(preds)) if preds else cover
                    assert best[t][b] == want, (pi, t, b)
            tops = [bytes(best[t - 1][b] <= best[t][b] for b in range(d.n + 1))
                    for t in range(1, d.n + 1)]
            assert permutation._bottleneck(d) == (best[-1][-1], tops), pi

    def test_bottleneck_keeps_one_byte_an_entry(self):
        # the whole table of ints took about 1.3 MB here
        d = diagram(gen_permutation(random.Random(3), 400))
        tracemalloc.start()
        try:
            permutation._bottleneck(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 18, peak

    def test_cover_piles_once_per_line_set(self, monkeypatch):
        calls = Counter()
        piles = permutation._cover_piles

        def counting(d, lines):
            calls[lines] += 1
            return piles(d, lines)

        monkeypatch.setattr(permutation, "_cover_piles", counting)
        for pi in _seeded_permutations(191, 10, 10, 25):
            calls.clear()
            solve(pi)
            assert calls and max(calls.values()) == 1

    def test_solve_empty(self):
        k, d = solve([])
        assert k == 0 and d.num_nodes == 1 and d.bags == (0,)

    def test_solve_rejects_a_broken_witness(self, monkeypatch):
        witness = permutation._witness

        def drop_lines_three_and_four(d, best):
            steps, node = [], witness(d, best)
            while node:
                steps.append(node[0])
                node = node[1][0] if node[1] else None
            path = []
            for bag in reversed(steps):
                if not bag & mask_of([2, 3]):
                    path = [(bag, path)]
            return path[0]

        monkeypatch.setattr(permutation, "_witness", drop_lines_three_and_four)
        # two crossing pairs: the path's steps cover {0, 1}, then {2, 3},
        # so dropping the steps that meet lines 3 and 4 leaves 2 and 3 out
        with pytest.raises(RuntimeError, match=r"vertices \[2, 3\] in no bag"):
            solve([2, 1, 4, 3])

    def test_witness_bytes_pinned(self):
        # the digest was computed when the witness became the DP's own path
        h = hashlib.sha256()
        rng = random.Random(199)
        for n in range(1, 31):
            pi = gen_permutation(rng, n)
            h.update(serialize_decomposition(solve(pi)[1], n).encode())
        assert h.hexdigest() == "0e4c001c3010c726795bd299b9d0c508189e184f66e5c92896b3b9f2e17e826b"

    def test_witness_bytes_pinned_to_two_hundred(self):
        # computed with the crossing-set grid, before the scanline sweeps
        h = hashlib.sha256()
        rng = random.Random(211)
        for n in range(40, 201, 20):
            pi = gen_permutation(rng, n)
            h.update(serialize_decomposition(solve(pi)[1], n).encode())
        assert h.hexdigest() == "ab97bbb6d6dfc9bb85c9893f186bc8c5f7690d7a7baddef5495f36509bd6782a"

    def test_solve_holds_no_table_of_line_sets(self):
        # the crossing-set grid and its pile memo peaked at 15.6 MB here
        pi = gen_permutation(random.Random(1), 150)
        tracemalloc.start()
        try:
            solve(pi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
