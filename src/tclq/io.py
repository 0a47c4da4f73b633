"""Text formats: DIMACS-like graph files, decomposition files, permutations.

Vertices are 1-indexed in files and 0-indexed in memory; the shift is
owned by this module.  All parse errors carry the offending line number.
"""

from typing import Callable, List, Optional, Tuple

from .bitset import bits, mask_of
from .decomposition import AugmentedTreeDecomposition
from .graph import Graph


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_graph(text: str, check_n: Optional[Callable[[int], None]] = None) -> Graph:
    """DIMACS-like: `c` comments, one `p edge <n> <m>`, then `e <u> <v>` lines.

    m must equal the number of distinct edges.  check_n, if given, gets
    the declared n before anything of that size is allocated, and raises
    to refuse the graph.
    """
    n = None
    declared_m = 0
    edges = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", lineno)
            if len(fields) != 4 or fields[1] != "edge":
                raise ParseError("expected `p edge <n> <m>`", lineno)
            try:
                n, declared_m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError("non-numeric problem line", lineno)
            if n < 0 or declared_m < 0:
                raise ParseError("negative count in problem line", lineno)
            if check_n is not None:
                check_n(n)
        elif fields[0] == "e":
            if n is None:
                raise ParseError("edge before problem line", lineno)
            if len(fields) != 3:
                raise ParseError("expected `e <u> <v>`", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError("non-numeric edge endpoint", lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"endpoint out of range 1..{n}", lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            edges.add((min(u, v) - 1, max(u, v) - 1))
        else:
            raise ParseError(f"unknown line type {fields[0]!r}", lineno)
    if n is None:
        raise ParseError("missing problem line", 1)
    if len(edges) != declared_m:
        raise ParseError(f"problem line declares {declared_m} edges, found {len(edges)}", 1)
    return Graph.from_edges(n, sorted(edges))


def serialize_graph(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.edge_count()}"]
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def parse_decomposition(text: str, check_n: Optional[Callable[[int], None]] = None
                        ) -> Tuple[AugmentedTreeDecomposition, int]:
    """Format: `tcd <width> <num_nodes> <n>` header, `b <id> <v...>` bags,
    `c <id> <v...>` cliques, `t <i> <j>` tree edges, `#` comments.

    Node ids are 1-indexed; node 1 is the root.  Returns (decomposition,
    n); the header width must match the cover lines.  check_n, if given,
    gets the header n before any bag or cover line becomes a mask, and
    raises to refuse the decomposition.
    """
    header = None
    header_line = 1
    bags = {}
    covers = {}
    tree_edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0] == "#":
            continue
        kind = fields[0]
        try:
            nums = [int(f) for f in fields[1:]]
        except ValueError:
            raise ParseError("non-numeric field", lineno)
        if kind == "tcd":
            if header is not None:
                raise ParseError("duplicate header", lineno)
            if len(nums) != 3:
                raise ParseError("expected `tcd <width> <num_nodes> <n>`", lineno)
            header = nums
            header_line = lineno
            if nums[1] < 1 or nums[2] < 0 or nums[0] < 0:
                raise ParseError("bad header counts", lineno)
            if check_n is not None:
                check_n(nums[2])
            continue
        if header is None:
            raise ParseError("content before tcd header", lineno)
        width, num_nodes, n = header
        if kind in ("b", "c"):
            if not nums:
                raise ParseError(f"`{kind}` line needs a node id", lineno)
            node, verts = nums[0], nums[1:]
            if not (1 <= node <= num_nodes):
                raise ParseError(f"node id {node} out of range 1..{num_nodes}", lineno)
            if any(not (1 <= v <= n) for v in verts):
                raise ParseError(f"vertex out of range 1..{n}", lineno)
            mask = mask_of(v - 1 for v in verts)
            if kind == "b":
                if node in bags:
                    raise ParseError(f"duplicate bag for node {node}", lineno)
                bags[node] = mask
            else:
                covers.setdefault(node, []).append(mask)
        elif kind == "t":
            if len(nums) != 2:
                raise ParseError("expected `t <i> <j>`", lineno)
            i, j = nums
            if not (1 <= i <= num_nodes and 1 <= j <= num_nodes) or i == j:
                raise ParseError("bad tree edge", lineno)
            tree_edges.append((i, j))
        else:
            raise ParseError(f"unknown line type {kind!r}", lineno)
    if header is None:
        raise ParseError("missing tcd header", 1)
    width, num_nodes, n = header
    for node in range(1, num_nodes + 1):
        if node not in bags:
            raise ParseError(f"node {node} has no bag line", header_line)
    # orient the tree away from node 1
    nbrs = {t: [] for t in range(1, num_nodes + 1)}
    for i, j in tree_edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    parents = [-2] * num_nodes
    parents[0] = -1
    order = [1]
    for t in order:
        for u in nbrs[t]:
            if parents[u - 1] == -2:
                parents[u - 1] = t - 1
                order.append(u)
    if len(order) != num_nodes or len(tree_edges) != num_nodes - 1:
        raise ParseError("tree edges do not form a tree on all nodes", header_line)
    cover_tuples = tuple(tuple(covers.get(t, [])) for t in range(1, num_nodes + 1))
    actual_width = max((len(cs) for cs in cover_tuples), default=0)
    if actual_width != width:
        raise ParseError(f"header width {width} but cover lines give {actual_width}", header_line)
    bag_tuple = tuple(bags[t] for t in range(1, num_nodes + 1))
    return AugmentedTreeDecomposition(tuple(parents), bag_tuple, cover_tuples), n


def _vertex_fields(mask: int) -> List[str]:
    """The 1-indexed vertices of mask, in increasing order, as strings.

    A one-vertex mask is read from its bit length: stepping `bits` over
    it would build several ints of the mask's full width, up to the
    whole vertex count for the bag of an isolated vertex.
    """
    top = mask.bit_length()
    if mask and mask == 1 << (top - 1):
        return [str(top)]
    return [str(v + 1) for v in bits(mask)]


def serialize_decomposition(d: AugmentedTreeDecomposition, n: int) -> str:
    width = max((len(cs) for cs in d.covers), default=0)
    lines = [f"tcd {width} {d.num_nodes} {n}"]
    for t, bag in enumerate(d.bags):
        lines.append(" ".join(["b", str(t + 1)] + _vertex_fields(bag)))
    for t, cs in enumerate(d.covers):
        for cl in cs:
            lines.append(" ".join(["c", str(t + 1)] + _vertex_fields(cl)))
    for t, p in enumerate(d.parents):
        if p >= 0:
            lines.append(f"t {p + 1} {t + 1}")
    return "\n".join(lines) + "\n"


def parse_permutation(text: str) -> List[int]:
    """One line of space-separated integers; blank and `#` lines ignored."""
    values = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if values is not None:
            raise ParseError("more than one data line", lineno)
        try:
            values = [int(f) for f in fields]
        except ValueError:
            raise ParseError("non-numeric entry", lineno)
    if values is None:
        raise ParseError("no permutation line found", 1)
    return values


def serialize_permutation(pi) -> str:
    return " ".join(str(v) for v in pi) + "\n"
