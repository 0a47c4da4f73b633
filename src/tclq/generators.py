"""Instance generators: the hardness reduction and seeded test corpora."""

import random
from itertools import combinations
from typing import List

from .cograph import cotree_to_graph, parse_and_binarize
from .graph import Graph
from .permutation import inversion_graph


def gen_reduction_H(g: Graph, apexes: int) -> Graph:
    """Complement of g plus an independent set of apex vertices joined to it.

    With apexes = 4 this is the NP-hardness gadget; with apexes = n+1
    the inapproximability variant.  The apex count must be at least 4.
    """
    if apexes < 4:
        raise ValueError(f"apex count must be at least 4, got {apexes}")
    comp = g.complement()
    n = g.n
    adj = [comp.adj[v] for v in range(n)]
    base = (1 << n) - 1
    apex_mask = ((1 << apexes) - 1) << n
    for v in range(n):
        adj[v] |= apex_mask
    adj.extend([base] * apexes)
    return Graph(n + apexes, adj)


# Draws gen_random(connected=True) makes before it gives up.  Over 300
# seeds each of n = 12-14 and p = 0.2, 0.4, 0.7, none needed more than 15.
CONNECTED_DRAWS = 1000


def gen_random(rng: random.Random, n: int, p: float = 0.5,
               connected: bool = False) -> Graph:
    """Erdos-Renyi G(n, p); with connected=True, resample until connected,
    for at most CONNECTED_DRAWS draws before raising ValueError."""
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    if connected and p == 0 and n >= 2:
        raise ValueError(f"G({n}, 0) is never connected; a connected graph needs p > 0")
    for _ in range(CONNECTED_DRAWS):
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
        g = Graph.from_edges(n, edges)
        if not connected or g.is_connected():
            return g
    raise ValueError(f"no connected G({n}, {p}) in {CONNECTED_DRAWS} draws; "
                     "a larger p is needed")


def gen_ktree(rng: random.Random, n: int, k: int) -> Graph:
    """k-tree by iterative simplicial additions; chordal by construction."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    base = min(n, k + 1)
    adj = [0] * n
    for u in range(base):
        for v in range(u + 1, base):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    cliques = [frozenset(c) for c in combinations(range(base), min(k, base))]
    for v in range(base, n):
        attach = cliques[rng.randrange(len(cliques))]
        for u in attach:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        for u in attach:
            cliques.append((attach - {u}) | {v})
    return Graph(n, adj)


def gen_permutation(rng: random.Random, n: int) -> List[int]:
    if n < 1:
        raise ValueError("need n >= 1")
    pi = list(range(1, n + 1))
    rng.shuffle(pi)
    return pi


def gen_cotree_text(rng: random.Random, n: int) -> str:
    """Random cotree expression on leaves v1..vn; nodes may be k-ary."""
    if n < 1:
        raise ValueError("need n >= 1")
    names = [f"v{i}" for i in range(1, n + 1)]

    def grow(items: List[str]) -> str:
        if len(items) == 1:
            return items[0]
        parts_count = rng.randint(2, min(len(items), 4))
        cut = sorted(rng.sample(range(1, len(items)), parts_count - 1))
        bounds = [0] + cut + [len(items)]
        label = rng.randint(0, 1)
        children = [grow(items[a:b]) for a, b in zip(bounds, bounds[1:])]
        return "(" + " ".join([str(label)] + children) + ")"

    rng.shuffle(names)
    return grow(names)


def gen_corpora(seed: int, family: str, **params) -> List:
    """Deterministic instance lists per (seed, family).

    ktree/random/reduction yield Graphs; cograph yields (text, Graph)
    pairs; permutation yields (pi, Graph) pairs.  count selects the list
    length (default 1).
    """
    rng = random.Random(seed)
    count = params.pop("count", 1)
    out: List = []
    for _ in range(count):
        if family == "ktree":
            out.append(gen_ktree(rng, params["n"], params.get("k", 2)))
        elif family == "random":
            out.append(gen_random(rng, params["n"], params.get("p", 0.5),
                                  params.get("connected", False)))
        elif family == "cograph":
            text = gen_cotree_text(rng, params["n"])
            out.append((text, cotree_to_graph(parse_and_binarize(text))))
        elif family == "permutation":
            pi = gen_permutation(rng, params["n"])
            out.append((pi, inversion_graph(pi)))
        elif family == "reduction":
            base = gen_random(rng, params["n"], params.get("p", 0.5), connected=True)
            apexes = params.get("apexes")
            out.append(gen_reduction_H(base, base.n + 1 if apexes is None else apexes))
        else:
            raise ValueError(f"unknown family {family!r}")
    return out
