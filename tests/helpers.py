"""Shared builders and checkers for the test suite."""

import sys
from itertools import combinations
from typing import List, Optional

import pytest

from tclq import cover, io
from tclq.bitset import bits, mask_of
from tclq.cli import main
from tclq.decomposition import AugmentedTreeDecomposition, anatomy, validate, width
from tclq.graph import Graph, maximal_cliques_within


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, list(combinations(range(n), 2)))


def empty(n: int) -> Graph:
    return Graph.from_edges(n, [])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i + 1) for i in range(leaves)])


def decomp(parents, bags, covers) -> AugmentedTreeDecomposition:
    return AugmentedTreeDecomposition(
        tuple(parents), tuple(bags), tuple(tuple(c) for c in covers)
    )


def perturb(rng, g: Graph, d: AugmentedTreeDecomposition) -> AugmentedTreeDecomposition:
    """Inflate a valid decomposition while keeping it valid.

    Applies a few random validity-preserving rewrites that break the
    sanity conditions sanitize restores: duplicate a node as its own
    child, hang a subset-bag leaf below a node, or fatten a tree edge
    with a union-bag middle node.
    """
    from tclq.cover import vcc

    parents = list(d.parents)
    bags = list(d.bags)
    covers = [list(c) for c in d.covers]
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            t = rng.randrange(len(bags))
            parents.append(t)
            bags.append(bags[t])
            covers.append(list(covers[t]))
        elif kind == 1:
            t = rng.randrange(len(bags))
            if bags[t] == 0:
                continue
            verts = [v for v in bits(bags[t])]
            sub = mask_of(rng.sample(verts, rng.randint(1, len(verts))))
            parents.append(t)
            bags.append(sub)
            covers.append(vcc(g, sub)[1])
        else:
            choices = [i for i in range(len(bags)) if parents[i] >= 0]
            if not choices:
                continue
            c = rng.choice(choices)
            p = parents[c]
            mid = len(bags)
            parents.append(p)
            bags.append(bags[p] | bags[c])
            covers.append(list(covers[p]) + list(covers[c]))
            parents[c] = mid
    return decomp(parents, bags, covers)


def assert_good_witness(g: Graph, d: AugmentedTreeDecomposition,
                        expected_width: Optional[int] = None) -> None:
    """Full validity + clique-containment check for a solver output."""
    report = validate(g, d)
    assert report.ok, f"witness invalid: {report}"
    if expected_width is not None:
        assert width(d) == expected_width, (width(d), expected_width)
    # every maximal clique of g lies inside some bag
    for w in maximal_cliques_within(g, g.full):
        assert any(w & ~bag == 0 for bag in d.bags), f"maximal clique {w:b} not in any bag"


def assert_sane(g: Graph, d: AugmentedTreeDecomposition) -> None:
    """Sanity conditions: nonempty margins, connected cone/component,
    every adhesion vertex has a neighbor in the component."""
    for t in range(d.num_nodes):
        a = anatomy(d, t)
        assert a.margin != 0, f"node {t} has empty margin"
        if a.component:
            assert g.is_connected(a.component), f"node {t} component disconnected"
        if a.cone:
            assert g.is_connected(a.cone) or a.component == 0
        for v in bits(a.adhesion):
            assert g.adj[v] & a.component, f"adhesion vertex {v} isolated from component {t}"


def reference_components(g: Graph, s: int) -> List[int]:
    """Components of G[s] by a plain vertex-at-a-time search, ordered by
    least vertex: the definition the graph kernels are checked against."""
    out: List[int] = []
    left = [v for v in range(g.n) if s >> v & 1]
    while left:
        comp, stack = {left[0]}, [left[0]]
        while stack:
            u = stack.pop()
            for w in left:
                if w not in comp and g.has_edge(u, w):
                    comp.add(w)
                    stack.append(w)
        out.append(mask_of(comp))
        left = [v for v in left if v not in comp]
    return out


def pairwise_is_pmc(g: Graph, omega: int) -> bool:
    """The PMC test by its definition: omega is nonempty, no component
    of G - omega has neighborhood omega, and each non-adjacent pair in
    omega lies in the neighborhood of some component."""
    if omega == 0:
        return False
    hoods = [mask_of(v for v in range(g.n) if g.adj[v] & c and not c >> v & 1)
             for c in reference_components(g, g.full & ~omega)]
    if omega in hoods:
        return False
    for u, v in combinations([w for w in range(g.n) if omega >> w & 1], 2):
        pair = (1 << u) | (1 << v)
        if not g.has_edge(u, v) and not any(pair & ~h == 0 for h in hoods):
            return False
    return True


def is_p4_free(g: Graph) -> bool:
    """Brute-force cograph recognition for small n.

    P4 is the only 4-vertex graph with degree sequence (1,1,2,2), so the
    degree check inside each 4-subset suffices.
    """
    for quad in combinations(range(g.n), 4):
        sub = mask_of(quad)
        counts = sorted((g.adj[v] & sub).bit_count() for v in quad)
        if counts == [1, 1, 2, 2]:
            return False
    return True


def _rebind(monkeypatch, fn, replacement) -> None:
    """Replace fn with replacement at every tclq binding."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "tclq" or name.startswith("tclq.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, replacement)


def forbid(monkeypatch, fn, message: str) -> None:
    """Make fn fail the test at every tclq binding."""

    def refuse(*args, **kwargs):
        pytest.fail(message)

    _rebind(monkeypatch, fn, refuse)


def count_calls(monkeypatch, fn) -> list:
    """Wrap fn at every tclq binding; the returned list gains the
    arguments of each call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    _rebind(monkeypatch, fn, counting)
    return calls


def forbid_subset_tables(monkeypatch) -> None:
    """Make the subset-table builder fail at every tclq binding."""
    forbid(monkeypatch, cover.lawler_table, "the solve route built a subset table")


def solve_cli(g: Graph, tmp_path, capsys, *options: str) -> int:
    """Run `tclq solve --out` on g, check the witness with validate and
    its width, and return the printed tcl."""
    col = tmp_path / "g.col"
    col.write_text(io.serialize_graph(g))
    out = tmp_path / "d.tcd"
    assert main(["solve", "--input", str(col), "--out", str(out), *options]) == 0
    k = int(capsys.readouterr().out.split()[1])
    d, n = io.parse_decomposition(out.read_text())
    assert n == g.n and validate(g, d).ok and width(d) == k
    return k
