"""Shared builders and checkers for the test suite."""

import sys
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional

import pytest

from tclq import cover, graph, io
from tclq.bitset import bits, mask_of
from tclq.cli import main
from tclq.cover import CoverOracle
from tclq.decomposition import (AugmentedTreeDecomposition, ValidityReport, _tree_structure_errors,
                                from_bag_tree, validate, width)
from tclq.graph import Graph, enumerate_minimal_separators, expand_mask, maximal_cliques_within
from tclq.solver_pmc import build_catalog


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


def grotzsch() -> Graph:
    """The Mycielskian of C5: 11 vertices, triangle-free, chi 4."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, v) for i in range(5) for v in ((i + 1) % 5, (i - 1) % 5)]
    edges += [(5 + i, 10) for i in range(5)]
    return Graph.from_edges(11, edges)


def kneser(n: int, k: int) -> Graph:
    """K(n, k): the k-subsets of n points, adjacent when disjoint; chi
    n - 2k + 2."""
    sets = list(combinations(range(n), k))
    return Graph.from_edges(len(sets), [(a, b) for a, b in combinations(range(len(sets)), 2)
                                        if not set(sets[a]) & set(sets[b])])


def complete_split(a: int, b: int) -> Graph:
    """K_a joined to b independent vertices, the clique first."""
    return Graph.from_edges(a + b, [(u, v) for u, v in combinations(range(a + b), 2) if u < a])


def decomp(parents, bags, covers) -> AugmentedTreeDecomposition:
    return AugmentedTreeDecomposition(
        tuple(parents), tuple(bags), tuple(tuple(c) for c in covers)
    )


def numbered_bag_tree(root, partition) -> AugmentedTreeDecomposition:
    """A solver's nested (bag, children) tree as it stands: nodes
    numbered in preorder, children in list order, each bag covered by
    partition."""
    parents: List[int] = []
    bags: List[int] = []
    stack = [(root, -1)]
    while stack:
        (bag, children), parent = stack.pop()
        stack.extend((ch, len(bags)) for ch in reversed(children))
        parents.append(parent)
        bags.append(bag)
    return decomp(parents, bags, [sorted(partition(b)) for b in bags])


def raw_trees(calls: list) -> list:
    """(g, numbered tree) for each from_bag_tree call in calls, as
    captured by count_calls."""
    return [(g, numbered_bag_tree(root, partition)) for g, root, partition in calls]


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


def merge_siblings(rng, d: AugmentedTreeDecomposition) -> AugmentedTreeDecomposition:
    """Fold two sibling nodes into one while keeping the decomposition
    valid: the merged node's bag and cover are the unions, and the
    second sibling's children move to it.  Its component is then the
    two siblings' components side by side, which no edge joins when
    their adhesions lie in the parent.  Returns d when no node has two
    children."""
    kids = d.children()
    parents_with_pairs = [t for t in range(d.num_nodes) if len(kids[t]) >= 2]
    if not parents_with_pairs:
        return d
    a, b = rng.sample(kids[rng.choice(parents_with_pairs)], 2)
    parents = list(d.parents)
    bags = list(d.bags)
    covers = [list(c) for c in d.covers]
    bags[a] |= bags[b]
    covers[a] += covers[b]
    for t in kids[b]:
        parents[t] = a
    keep = [t for t in range(d.num_nodes) if t != b]
    pos = {t: i for i, t in enumerate(keep)}
    return decomp([-1 if parents[t] < 0 else pos[parents[t]] for t in keep],
                  [bags[t] for t in keep], [covers[t] for t in keep])


def reference_validate(g: Graph, d: AugmentedTreeDecomposition) -> ValidityReport:
    """validate with a search of the tree per vertex: a vertex's bags must
    be reachable from its first bag through bags that hold it.  The
    differential tests hold tclq.decomposition.validate to it."""
    report = ValidityReport()
    errs = _tree_structure_errors(d)
    if errs:
        report.violations.extend(errs)
        return report
    n = d.num_nodes

    union_bags = 0
    for b in d.bags:
        if b & ~g.full:
            report.violations.append(f"bag contains out-of-range vertices: {bin(b)}")
            return report
        union_bags |= b
    if union_bags != g.full:
        missing = [v for v in range(g.n) if not union_bags >> v & 1]
        report.violations.append(f"vertex coverage: vertices {missing} in no bag")

    reach = [0] * g.n
    for b in d.bags:
        for u in bits(b):
            reach[u] |= b
    for (u, v) in g.edges():
        if not reach[u] >> v & 1:
            report.violations.append(f"edge coverage: edge ({u},{v}) in no bag")

    kids = d.children()
    for v in range(g.n):
        nodes = [t for t in range(n) if d.bags[t] >> v & 1]
        if not nodes:
            continue
        want = set(nodes)
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            t = stack.pop()
            nbrs = kids[t] + ([d.parents[t]] if d.parents[t] >= 0 else [])
            for u in nbrs:
                if u in want and u not in seen:
                    seen.add(u)
                    stack.append(u)
        if seen != want:
            report.violations.append(f"subtree connectivity: vertex {v} bags are disconnected")

    for t in range(n):
        cover_union = 0
        for c in d.covers[t]:
            if c & ~d.bags[t]:
                report.violations.append(f"clique validity: node {t} clique leaves the bag")
            if not g.is_clique(c):
                report.violations.append(
                    f"clique validity: node {t} set {list(bits(c))} is not a clique")
            cover_union |= c
        if cover_union != d.bags[t]:
            report.violations.append(f"cover union: node {t} cliques do not union to the bag")
    return report


def reference_sanitize(g: Graph, d: AugmentedTreeDecomposition) -> AugmentedTreeDecomposition:
    """sanitize with a liveness flag per node and a child scan per
    subtree: the same three rewrites, each a separate pass over the
    nodes, tried as contraction, then prune, then split.  The
    differential tests hold tclq.decomposition.sanitize to it."""
    rep = validate(g, d)
    if not rep.ok:
        raise ValueError(f"sanitize requires a valid decomposition: {rep}")

    parents: List[int] = list(d.parents)
    bags: List[int] = list(d.bags)
    alive: List[bool] = [True] * len(bags)

    def subtree(t: int) -> List[int]:
        kids: Dict[int, List[int]] = {}
        for i, p in enumerate(parents):
            if alive[i] and p >= 0:
                kids.setdefault(p, []).append(i)
        out = []
        stack = [t]
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(kids.get(u, []))
        return out

    def contract_once() -> bool:
        for c in range(len(bags)):
            if not alive[c] or parents[c] < 0:
                continue
            p = parents[c]
            if bags[c] | bags[p] in (bags[c], bags[p]):
                bags[p] = bags[c] | bags[p]
                for i in range(len(bags)):
                    if alive[i] and parents[i] == c:
                        parents[i] = p
                alive[c] = False
                return True
        return False

    def split_once() -> bool:
        for t in range(len(bags)):
            if not alive[t] or parents[t] < 0:
                continue
            sub = subtree(t)
            cone = 0
            for u in sub:
                cone |= bags[u]
            par = parents[t]
            adhesion = bags[t] & bags[par]
            pieces = g.components_within(cone & ~adhesion)
            if len(pieces) <= 1:
                continue
            for piece in pieces:
                keep = piece | adhesion
                remap = {}
                for u in sub:
                    remap[u] = len(bags)
                    parents.append(par if u == t else remap[parents[u]])
                    bags.append(bags[u] & keep)
                    alive.append(True)
            for u in sub:
                alive[u] = False
            return True
        return False

    def prune_once() -> bool:
        for t in range(len(bags)):
            if not alive[t] or parents[t] < 0:
                continue
            sub = subtree(t)
            cone = 0
            for u in sub:
                cone |= bags[u]
            adhesion = bags[t] & bags[parents[t]]
            comp = cone & ~adhesion
            drop = 0
            for v in bits(adhesion):
                if g.adj[v] & comp == 0:
                    drop |= 1 << v
            if not drop:
                continue
            for u in sub:
                bags[u] &= ~drop
            return True
        return False

    steps = 0
    cap = 200 + 40 * len(bags) * max(1, g.n)
    while contract_once() or prune_once() or split_once():
        steps += 1
        if steps > cap:
            raise RuntimeError("sanitize failed to converge")

    roots = [i for i in range(len(bags)) if alive[i] and parents[i] == -1]
    if len(roots) != 1:
        raise RuntimeError("sanitize lost the root")
    order = [roots[0]]
    pos = {roots[0]: 0}
    queue = [roots[0]]
    while queue:
        t = queue.pop(0)
        live = [i for i, p in enumerate(parents) if alive[i] and p == t]
        for c in sorted(live, key=lambda i: (bags[i], i)):
            pos[c] = len(order)
            order.append(c)
            queue.append(c)
    new_parents = tuple(-1 if parents[t] < 0 else pos[parents[t]] for t in order)
    new_bags = tuple(bags[t] for t in order)
    oracle = CoverOracle(g)
    new_covers = tuple(tuple(sorted(oracle.partition(b))) for b in new_bags)
    out = AugmentedTreeDecomposition(new_parents, new_bags, new_covers)
    rep = validate(g, out)
    if not rep.ok:
        raise RuntimeError(f"sanitize broke the decomposition: {rep}")
    return out


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


@dataclass(frozen=True)
class NodeAnatomy:
    adhesion: int
    margin: int
    cone: int
    component: int


def anatomy(d: AugmentedTreeDecomposition, t: int) -> NodeAnatomy:
    """Node t's adhesion (its bag's meet with its parent's), margin (the
    rest of its bag), cone (the union of its subtree's bags) and
    component (the cone less the adhesion)."""
    parent = d.parents[t]
    adhesion = d.bags[t] & d.bags[parent] if parent >= 0 else 0
    cone = 0
    stack = [t]
    kids = d.children()
    while stack:
        u = stack.pop()
        cone |= d.bags[u]
        stack.extend(kids[u])
    return NodeAnatomy(adhesion, d.bags[t] & ~adhesion, cone, cone & ~adhesion)


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


def reference_pmcs_and_separators(g: Graph):
    """The one-more-vertex PMC listing that tests every candidate: both
    Omega' + a and Omega', S + a also when a lies in S, and each
    S + (T & C) once per (T, C) through a memo, minimal separators
    included.  It calls is_pmc through tclq.graph, so a patched binding
    sees its calls.  The tests hold graph.enumerate_pmcs to it."""
    n = g.n
    if n == 0:
        return [], []
    order = [0]
    seen = 1
    for v in order:
        for w in bits(g.adj[v] & ~seen):
            seen |= 1 << w
            order.append(w)
    pos = {v: i for i, v in enumerate(order)}
    h_adj = [mask_of(pos[w] for w in bits(g.adj[v])) for v in order]
    pmcs = {1}
    seps: List[int] = []
    prev_seps = set()
    for i in range(1, n):
        low = (1 << (i + 1)) - 1
        gi = Graph(i + 1, [a & low for a in h_adj[:i + 1]])
        a = 1 << i
        seps = enumerate_minimal_separators(gi)
        tested: Dict[int, bool] = {}

        def pmc(omega: int) -> bool:
            if omega not in tested:
                tested[omega] = graph.is_pmc(gi, omega)
            return tested[omega]

        found = set()
        for om in pmcs:
            if pmc(om | a):
                found.add(om | a)
            elif pmc(om):
                found.add(om)
        for s in seps:
            if pmc(s | a):
                found.add(s | a)
            if s & a or s in prev_seps:
                continue
            comps = gi.components_within(gi.full & ~s)
            for t in seps:
                for c in comps:
                    if pmc(s | (t & c)):
                        found.add(s | (t & c))
        pmcs, prev_seps = found, set(seps)
    return (sorted(expand_mask(p, order) for p in pmcs),
            sorted(expand_mask(s, order) for s in seps))


def reference_tcl_via_pmc(g: Graph):
    """The PMC block DP that solves vcc of every PMC and separator up
    front and sweeps each part - Omega again: each full block takes the
    first strict minimum of max(vcc(Omega), its sub-block values) over
    its admissible PMCs in catalog order, and the root the same over the
    inclusion-minimal separators, those whose components are all full.
    The tests hold solver_pmc.tcl_via_pmc, whose root ranges over all
    minimal separators, to it, value and witness."""
    catalog, cov = build_catalog(g)
    if not catalog.separators:
        return cov.value(g.full), from_bag_tree(g, (g.full, []), cov.partition)
    pmc_vcc = {p: cov.value(p) for p in catalog.pmcs}
    sep_vcc = {s: cov.value(s) for s in catalog.separators}
    blocks = [(s, c) for s in catalog.separators
              for c, nc in g.component_neighborhoods(g.full & ~s) if nc == s]
    blocks.sort(key=lambda b: ((b[0] | b[1]).bit_count(), b[0] | b[1], b[0]))
    val: Dict = {}
    pick: Dict = {}
    for sep, comp in blocks:
        part = sep | comp
        best = best_omega = None
        for omega in catalog.pmcs:
            if omega == sep or sep & ~omega or omega & ~part:
                continue
            cost = pmc_vcc[omega]
            for d, nd in g.component_neighborhoods(part & ~omega):
                cost = max(cost, val[(nd, d)])
            if best is None or cost < best:
                best, best_omega = cost, omega
        if best is None:
            best = cov.value(part)
        val[(sep, comp)] = best
        pick[(sep, comp)] = best_omega
    best_total = best_sep = None
    for s in catalog.separators:
        pairs = g.component_neighborhoods(g.full & ~s)
        if any(nc != s for _, nc in pairs):
            continue
        total = sep_vcc[s]
        for c, nc in pairs:
            total = max(total, val[(nc, c)])
        if best_total is None or total < best_total:
            best_total, best_sep = total, s

    def witness(sep: int, comp: int):
        omega = pick[(sep, comp)]
        part = sep | comp
        if omega is None:
            return part, []
        return omega, [witness(nd, d) for d, nd in g.component_neighborhoods(part & ~omega)]

    root = (best_sep, [witness(nc, c) for c, nc in g.component_neighborhoods(g.full & ~best_sep)])
    return best_total, from_bag_tree(g, root, cov.partition)


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
