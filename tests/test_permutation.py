"""Permutation diagrams, scanlines, and the reachability decision."""

import itertools
import random
from collections import Counter

import pytest

from tclq import permutation
from tclq.bitset import mask_of
from tclq.cover import vcc
from tclq.decomposition import AugmentedTreeDecomposition, validate, width
from tclq.generators import gen_permutation
from tclq.io import serialize_decomposition
from tclq.permutation import (
    Scanline,
    ScanlineGrid,
    build_scanline_graph,
    compute_tcl,
    cover_of_line_set,
    crossing_lines,
    decide_tcl_at_most_k,
    diagram,
    inversion_graph,
    k_small_scanlines,
    solve,
)
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


class TestCrossingLines:
    def test_left_scanline_empty(self):
        for pi in ([2, 1], [3, 4, 1, 2], [1, 2, 3]):
            assert crossing_lines(diagram(pi), Scanline(0, 0)) == 0

    def test_swap_middle(self):
        assert crossing_lines(diagram([2, 1]), Scanline(1, 1)) == 0b11

    def test_identity_middle(self):
        assert crossing_lines(diagram([1, 2]), Scanline(1, 1)) == 0

    def test_right_scanline_empty(self):
        rng = random.Random(127)
        for _ in range(5):
            pi = gen_permutation(rng, 6)
            d = diagram(pi)
            assert crossing_lines(d, Scanline(6, 6)) == 0


class TestCoverOfLineSet:
    def test_reversal_all_lines(self):
        d = diagram([4, 3, 2, 1])
        assert cover_of_line_set(d, (1 << 4) - 1) == 1

    def test_identity_all_lines(self):
        d = diagram([1, 2, 3])
        assert cover_of_line_set(d, 0b111) == 3

    def test_crossing_pair(self):
        d = diagram([3, 4, 1, 2])
        assert cover_of_line_set(d, mask_of([0, 2])) == 1

    def test_empty_set(self):
        assert cover_of_line_set(diagram([2, 1]), 0) == 0

    def test_matches_vcc(self):
        rng = random.Random(131)
        for _ in range(30):
            pi = gen_permutation(rng, rng.randint(1, 9))
            d = diagram(pi)
            g = inversion_graph(pi)
            lines = rng.randrange(1 << d.n)
            assert cover_of_line_set(d, lines) == vcc(g, lines)[0]


class TestKSmallScanlines:
    def test_reversal_k1_all(self):
        for n in (2, 3, 4):
            d = diagram(list(range(n, 0, -1)))
            assert len(k_small_scanlines(d, 1)) == (n + 1) ** 2

    def test_identity_k1(self):
        # crossing set of (t,b) on the identity is the |t-b| lines
        # strictly between the gaps, an independent set, so vcc <= 1
        # means |t-b| <= 1: ten scanlines on three lines
        d = diagram([1, 2, 3])
        got = k_small_scanlines(d, 1)
        assert len(got) == 10
        assert got == [s for s in got if abs(s.top - s.bottom) <= 1]

    def test_k_equals_n_all(self):
        rng = random.Random(137)
        for _ in range(5):
            n = rng.randint(1, 7)
            d = diagram(gen_permutation(rng, n))
            assert len(k_small_scanlines(d, n)) == (n + 1) ** 2

    def test_k_below_one(self):
        with pytest.raises(ValueError):
            k_small_scanlines(diagram([1]), 0)

    def test_definition(self):
        rng = random.Random(139)
        for _ in range(10):
            d = diagram(gen_permutation(rng, rng.randint(1, 7)))
            k = rng.randint(1, 3)
            got = set(k_small_scanlines(d, k))
            for t in range(d.n + 1):
                for b in range(d.n + 1):
                    s = Scanline(t, b)
                    small = cover_of_line_set(d, crossing_lines(d, s)) <= k
                    assert (s in got) == small


class TestScanlineGraph:
    def test_acyclic_and_bounded(self):
        rng = random.Random(149)
        for _ in range(10):
            n = rng.randint(1, 7)
            d = diagram(gen_permutation(rng, n))
            k = rng.randint(1, 3)
            w = build_scanline_graph(d, k)
            assert len(w.nodes) <= (n + 1) ** 2
            for s, t in w.arc_set():
                # arcs strictly advance one coordinate and keep the other
                assert (s.top == t.top and s.bottom < t.bottom) or (
                    s.bottom == t.bottom and s.top < t.top
                )

    def test_endpoints_present(self):
        d = diagram([3, 4, 1, 2])
        w = build_scanline_graph(d, 1)
        assert Scanline(0, 0) in w.succ
        assert Scanline(4, 4) in set(w.nodes)

    def test_arcs_monotone_in_k(self):
        rng = random.Random(151)
        for _ in range(10):
            d = diagram(gen_permutation(rng, rng.randint(1, 7)))
            prev = build_scanline_graph(d, 1).arc_set()
            for k in (2, 3):
                cur = build_scanline_graph(d, k).arc_set()
                assert prev <= cur
                prev = cur


class TestDecide:
    def test_c4(self):
        ok, d = decide_tcl_at_most_k([3, 4, 1, 2], 2)
        assert ok
        g = inversion_graph([3, 4, 1, 2])
        assert validate(g, d).ok and width(d) <= 2
        assert not decide_tcl_at_most_k([3, 4, 1, 2], 1)[0]

    def test_reversal_k1(self):
        ok, d = decide_tcl_at_most_k([4, 3, 2, 1], 1)
        assert ok
        g = inversion_graph([4, 3, 2, 1])
        assert validate(g, d).ok and width(d) <= 1

    def test_identity_k1(self):
        ok, d = decide_tcl_at_most_k([1, 2, 3, 4], 1)
        assert ok
        assert validate(inversion_graph([1, 2, 3, 4]), d).ok

    def test_empty_permutation(self):
        ok, d = decide_tcl_at_most_k([], 1)
        assert ok and d.num_nodes == 1

    def test_k_below_one(self):
        with pytest.raises(ValueError):
            decide_tcl_at_most_k([2, 1], 0)

    def test_witness_bags_are_candidate_components(self):
        rng = random.Random(157)
        for _ in range(25):
            n = rng.randint(1, 8)
            pi = gen_permutation(rng, n)
            g = inversion_graph(pi)
            k = rng.randint(1, 3)
            ok, d = decide_tcl_at_most_k(pi, k)
            if not ok:
                assert d is None
                continue
            assert validate(g, d).ok
            assert width(d) <= k
            # the witness is a path decomposition
            for i, p in enumerate(d.parents):
                assert p == i - 1


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
# every k-small scanline and every arc built before the search, and k
# raised one step at a time.  It is the reference for the grid solver.

def _reference_graph(d, k):
    nodes = [Scanline(t, b) for t in range(d.n + 1) for b in range(d.n + 1)
             if cover_of_line_set(d, crossing_lines(d, Scanline(t, b))) <= k]
    node_set = set(nodes)
    cross = {s: crossing_lines(d, s) for s in nodes}
    succ = {}
    for s in nodes:
        targets = [Scanline(t, s.bottom) for t in range(s.top + 1, d.n + 1)]
        targets += [Scanline(s.top, b) for b in range(s.bottom + 1, d.n + 1)]
        succ[s] = tuple(t for t in targets
                        if t in node_set and cover_of_line_set(d, cross[s] | cross[t]) <= k)
    return nodes, succ


def _bfs_witness(d, succ):
    """The path decomposition along the breadth-first path through succ."""
    start, goal = Scanline(0, 0), Scanline(d.n, d.n)
    if start == goal:
        return AugmentedTreeDecomposition((-1,), (0,), ((),))
    parent = {start: None}
    queue = [start]
    head = 0
    while head < len(queue) and goal not in parent:
        s = queue[head]
        head += 1
        for t in succ[s]:
            if t not in parent:
                parent[t] = s
                queue.append(t)
    if goal not in parent:
        return None
    path = [goal]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    bags = tuple(crossing_lines(d, a) | crossing_lines(d, b) for a, b in zip(path, path[1:]))
    covers = tuple(tuple(sorted(permutation._cover_piles(d, bag))) for bag in bags)
    return AugmentedTreeDecomposition(tuple(range(-1, len(bags) - 1)), bags, covers)


def _reference_decide(pi, k):
    d = diagram(pi)
    return _bfs_witness(d, _reference_graph(d, k)[1])


def _reference_solve(pi):
    if not pi:
        return 0, _reference_decide(pi, 1)
    k = 1
    while _reference_decide(pi, k) is None:
        k += 1
    return k, _reference_decide(pi, k)


def _seeded_permutations(seed, count, lo, hi):
    rng = random.Random(seed)
    return [gen_permutation(rng, rng.randint(lo, hi)) for _ in range(count)]


class TestGridSolverMatchesReference:
    def _check(self, pi):
        want_k, want_d = _reference_solve(pi)
        k, d = solve(pi)
        assert k == want_k == compute_tcl(pi), pi
        assert serialize_decomposition(d, len(pi)) == serialize_decomposition(want_d, len(pi)), pi

    def test_exhaustive_up_to_seven(self):
        for n in range(8):
            for pi in itertools.permutations(range(1, n + 1)):
                self._check(list(pi))

    def test_seeded_eight_to_twenty_five(self):
        for pi in _seeded_permutations(167, 30, 8, 25):
            self._check(pi)

    def test_decide_agrees_with_bfs_over_scanline_graph(self):
        for pi in _seeded_permutations(173, 30, 1, 12):
            d = diagram(pi)
            tcl = compute_tcl(pi)
            for k in range(1, tcl + 2):
                ok, got = decide_tcl_at_most_k(pi, k)
                want = _bfs_witness(d, build_scanline_graph(d, k).succ)
                assert ok == (want is not None) == (k >= tcl), (pi, k)
                if ok:
                    assert serialize_decomposition(got, d.n) == serialize_decomposition(want, d.n)

    def test_scanline_graph_matches_eager_build(self):
        for pi in _seeded_permutations(179, 20, 1, 9):
            d = diagram(pi)
            for k in range(1, 4):
                nodes, succ = _reference_graph(d, k)
                w = build_scanline_graph(d, k)
                assert list(w.nodes) == nodes == k_small_scanlines(d, k)
                assert w.succ == succ


class TestScanlineGrid:
    def test_crossing_sets_match_definition(self):
        for pi in [[]] + _seeded_permutations(181, 20, 1, 15):
            d = diagram(pi)
            grid = ScanlineGrid(d)
            for t in range(d.n + 1):
                for b in range(d.n + 1):
                    assert grid.cross[t][b] == crossing_lines(d, Scanline(t, b))

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
