"""Clique-cover machinery.

vcc(G[S]) is the minimum number of disjoint cliques covering S
(equivalently the chromatic number of the complement graph restricted
to S).  Lawler's remove-one-clique recurrence gives it two ways: the
dense CoverTable of every subset (lawler_table), and lawler_cover, which
takes the same step top-down from V and solves only the sets it reads.
An inclusion-exclusion engine counts covers/partitions by independent
sets; its signed sums over all 2^n subsets run over a histogram of a
table's distinct values.  Each of its subset tables is one
non-negative int of 2^n lanes of 32 bits, lane T at bits 32T to
32T + 31, so a table step is a few whole-int operations.  A masked
gather (lane r takes lane r & M) copies, for each bit q that M lacks,
the lanes without q onto those with q, through a mask of the lanes
without q that each call builds by doubling one period; no mask or
table outlives a call.  No lane exceeds 2^TABLE_MAX_N, so a sum of
tables carries nothing between lanes.  The count doubles as a
chromatic-number routine with a constructive coloring mode.  One table
gives chi, and every add-or-merge trial of the construction is counted
on tables cut from it, by dropping the lanes of a vertex that leaves,
unless a witness decides it: a k-coloring of the working graph, kept as
clique classes of its complement rows, that colors the pair apart or
does so after one Kempe swap.  A witness comes from a greedy pass, or,
where that fails, from the clique-partition search below, which runs
only up front and after a counted trial keeps its edge, so it always
has a coloring to find.  These operations refuse a graph above
TABLE_MAX_N vertices before allocating anything.  The CoverOracle is the
sparse counterpart for the solvers: it solves only the sets a caller
asks for, one at a time, by backtracking, and keeps one record per set:
a lower bound and the last partition found, exact once they agree.  Both
cover sources also answer at_most(s, k), vcc(G[s]) <= k; the oracle
does so from that record and at most one search at k.
Every search, a threshold query's and each step of an exact vcc, goes
through one entry, _partition_within(adj, s, k).  It reads nothing but
the graph, s and k, so the exact solve may start at any lower bound and
still returns the partition that counting up from 1 finds.  At k <= 2
the search is no backtracking: s splits into two cliques exactly when
the complement of G[s] is bipartite, and a breadth-first 2-coloring of
that complement, each component's lowest vertex in the first class,
gives the classes the backtracker would, in its order.  The same
layering tells, with no search, which v keep s + v within two cliques
(hubs_within): v must see all of one side of each complement component.
"""

import math
import struct
import sys
from collections import Counter
from itertools import count
from typing import Callable, Dict, List, Optional, Tuple, Union

from .bitset import bit_list, bits, lowest_bit
from .graph import Graph, enumerate_maximal_independent_sets, maximal_cliques_within

CAP = 64
# Largest n for a table over all 2^n subsets.  lawler_table takes about
# 40 MB at n = 20, and sixteen times more for every four vertices.  An
# inclusion-exclusion table is one int of 2^n lanes of LANE bits, each a
# native unsigned int ("I"): 4 MB at n = 20.  A lane holds at most
# 2^TABLE_MAX_N (the edgeless graph's count at V), so a histogram key,
# 2 a + 1 at most, stays below 2^(TABLE_MAX_N + 2), and the sum of two
# lanes never carries into the next.
TABLE_MAX_N = 20
LANE_BYTES = 4
LANE = 8 * LANE_BYTES
if struct.calcsize("I") != LANE_BYTES or TABLE_MAX_N + 2 >= LANE:
    raise RuntimeError(f"subset-table lanes of {LANE} bits need a {LANE_BYTES}-byte "
                       f"unsigned int and TABLE_MAX_N below {LANE - 2}")


class CapacityError(Exception):
    """The one refusal of an input past a size limit: a component above
    CAP, a subset table above TABLE_MAX_N, or a limit of the command line
    or the oracle.  The command line exits 3 on it."""


def check_cap(g: Graph) -> None:
    if g.n > CAP:
        raise CapacityError(f"n={g.n} exceeds the component limit of {CAP} vertices")


def check_table_size(n: int) -> None:
    """Refuse a subset table over n vertices before any of it is allocated."""
    if n > TABLE_MAX_N:
        raise CapacityError(
            f"n={n} exceeds the subset-table limit of {TABLE_MAX_N} vertices")


class CoverTable:
    """Dense subset table of clique cover numbers with reconstruction.

    choice[S] is the clique removed at S's optimum.
    """

    __slots__ = ("g", "values", "choice")

    def __init__(self, g: Graph, values: List[int], choice: List[int]):
        self.g = g
        self.values = values
        self.choice = choice

    def value(self, s: int) -> int:
        return self.values[s]

    def at_most(self, s: int, k: int) -> bool:
        return self.values[s] <= k

    def partition(self, s: int) -> List[int]:
        """Disjoint cliques covering s, exactly values[s] of them."""
        return _choice_walk(self.choice, s)


def _choice_walk(choice: Union[List[int], Dict[int, int]], s: int) -> List[int]:
    """The cliques removed from s, one choice[...] at a time, until it
    is empty."""
    parts = []
    while s:
        d = choice[s]
        parts.append(d)
        s &= ~d
    return parts


def _lawler_step(g: Graph, s: int, value: Callable[[int], int]) -> Tuple[int, int]:
    """(vcc(G[s]), the clique removed at s's optimum) for nonempty s, given
    value(t) = vcc(G[t]) for the sets t the step reads.

    The clique is the first strict minimum over the maximal cliques D of
    G[s] through the lowest vertex of s, in increasing mask order.
    """
    v = lowest_bit(s)
    vbit = 1 << v
    best = None
    best_d = 0
    for d in maximal_cliques_within(g, s & g.adj[v]):
        dd = d | vbit
        cand = value(s & ~dd)
        if best is None or cand < best:
            best, best_d = cand, dd
    return best + 1, best_d


def lawler_table(g: Graph) -> CoverTable:
    """vcc(G[S]) for every S by the remove-one-clique recurrence.

    values[S] = 1 + min over maximal cliques D of G[S] containing the
    lowest vertex of S, of values[S without D].  Restricting to cliques
    through one fixed vertex preserves the optimum: every partition has a
    class containing that vertex, and the class extends to a maximal
    clique without breaking the rest.  Ties pick the lexicographically
    smallest clique mask so outputs are reproducible.
    """
    check_table_size(g.n)
    size = 1 << g.n
    values = [0] * size
    choice = [0] * size
    for s in range(1, size):
        values[s], choice[s] = _lawler_step(g, s, values.__getitem__)
    return CoverTable(g, values, choice)


def lawler_cover(g: Graph) -> Tuple[int, List[int]]:
    """lawler_table(g).values[V] and .partition(V), without the table.

    The recurrence runs top-down from V with a memo, so only the sets it
    reads below V are solved: on G(13, 0.5) 10 to 150 sets, not 2^13.
    Each set gets the step lawler_table takes, and the recurrence's
    values are exact vcc on any set, so the value and the choice walk are
    the table's.  The table's vertex limit applies, so both cover routes
    refuse the same graphs.
    """
    check_table_size(g.n)
    values = {0: 0}
    choice: Dict[int, int] = {}

    def value(t: int) -> int:
        if t not in values:
            values[t], choice[t] = _lawler_step(g, t, value)
        return values[t]

    return value(g.full), _choice_walk(choice, g.full)


def _independent_lower_bound(adj: List[int], s: int) -> int:
    """The size of an independent set of G[s], taken lowest vertex first:
    a lower bound on vcc(G[s]), since each clique holds at most one of
    its vertices."""
    count = 0
    while s:
        low = s & -s
        s &= ~(adj[low.bit_length() - 1] | low)
        count += 1
    return count


class CoverOracle:
    """vcc and a minimum clique partition of single sets, on request.

    known[s] = [lo, classes]: lo starts at a greedy independent set and
    rises past each failed search at one k; classes is the partition of
    the last successful search, or None.  A search's first partition at
    k, of c classes, is its first at every k' in [c, k] too: the branches
    before it, minus those opening over k' classes, failed at k.  So the
    record is exact, and classes is vcc's partition, once |classes| = lo.
    """

    __slots__ = ("g", "known")

    def __init__(self, g: Graph):
        self.g = g
        self.known: Dict[int, list] = {}

    def _record(self, s: int) -> list:
        rec = self.known.get(s)
        if rec is None:
            rec = self.known[s] = [_independent_lower_bound(self.g.adj, s), None]
        return rec

    def value(self, s: int) -> int:
        return len(self.partition(s))

    def at_most(self, s: int, k: int) -> bool:
        """vcc(s) <= k, with at most one search, at k."""
        rec = self._record(s)
        lo, classes = rec
        if k < lo:
            return False
        if k >= (s.bit_count() if classes is None else len(classes)):
            return True
        found = _partition_within(self.g.adj, s, k)
        if found is None:
            rec[0] = k + 1
            return False
        rec[1] = tuple(found)
        return True

    def partition(self, s: int) -> Tuple[int, ...]:
        """Disjoint cliques covering s, exactly vcc(s) of them."""
        rec = self._record(s)
        lo, classes = rec
        if classes is None or len(classes) > lo:
            rec[0], found = vcc(self.g, s, lo)
            classes = rec[1] = tuple(found)
        return classes


# Anything with value(s), at_most(s, k) and partition(s) over the same graph.
Cover = Union[CoverOracle, CoverTable]


def _low_lanes(q: int, m: int) -> int:
    """All the bits of the lanes whose index lacks bit q, over 2^m lanes
    (q < m): 2^q lanes of ones, repeated every 2^(q+1) lanes, built by
    doubling one period."""
    span = LANE << q
    mask = (1 << span) - 1
    span <<= 1
    while span < LANE << m:
        mask |= mask << span
        span <<= 1
    return mask


def _gather(table: int, keep: int, m: int) -> int:
    """The table over 2^m lanes whose lane r is the table's lane r & keep:
    one bit q that keep lacks at a time, every lane with q takes the lane
    without it."""
    for q in bits(~keep & ((1 << m) - 1)):
        low = table & _low_lanes(q, m)
        table = low | low << (LANE << q)
    return table


def _maximal_independent_count_table(g: Graph) -> int:
    """Lane T: the number of maximal independent sets of G inside T."""
    lanes = bytearray(LANE_BYTES << g.n)
    for mis in enumerate_maximal_independent_sets(g):
        lanes[LANE_BYTES * mis] = 1
    zeta = int.from_bytes(lanes, "little")
    # the zeta transform, one vertex per pass: each set with q adds the
    # same set without it
    for q in range(g.n):
        zeta += (zeta & _low_lanes(q, g.n)) << (LANE << q)
    return zeta


def _independent_count_table(g: Graph) -> int:
    """Lane T: the number of independent sets (including empty) inside T."""
    adj = g.adj
    ind = 1
    for v in range(g.n):
        # lane r + v for r below v: the sets avoiding v, plus v with each
        # independent set of r outside v's neighbourhood
        ind |= (ind + _gather(ind, ~adj[v], v)) << (LANE << v)
    return ind


def _signed_histogram(table: int, n: int) -> Dict[int, int]:
    """{a: sum of (-1)^(n - |T|) over the subsets T whose lane holds a},
    for a table over the 2^n subsets of n vertices; zero sums dropped.

    The inclusion-exclusion sum over X of (-1)^|X| f(table[V - X]) is
    then the sum of c * f(a) over the items (a, c).  One pass over the
    lanes, in any order, counts the keys 2 a + [|T| odd]; a key is below
    2^(TABLE_MAX_N + 2).
    """
    # odd marks the lanes of odd |T| over the vertices so far, even the
    # others; each vertex above 0 doubles both, and the last needs odd alone
    odd, even = 1 << LANE, 1
    for v in range(1, n):
        span = LANE << v
        odd, even = odd | even << span, even | odd << span if v + 1 < n else 0
    keys = table << 1 | (odd if n else 0)
    del odd, even
    hist: Dict[int, int] = {}
    for key, c in Counter(memoryview(keys.to_bytes(LANE_BYTES << n, sys.byteorder))
                          .cast("I")).items():
        a = key >> 1
        hist[a] = hist.get(a, 0) + (c if key & 1 == n & 1 else -c)
    return {a: c for a, c in hist.items() if c}


def ie_count_covers(g: Graph, k: int) -> int:
    """Number of k-subsets of distinct maximal independent sets whose
    union is V; chi(G) is the smallest k making this positive.

    Inclusion-exclusion over the vertices X left uncovered: the sum of
    (-1)^|X| comb(number of maximal independent sets inside V - X, k).
    """
    check_table_size(g.n)
    if k < 0:
        raise ValueError("k must be nonnegative")
    hist = _signed_histogram(_maximal_independent_count_table(g), g.n)
    return sum(c * math.comb(a, k) for a, c in hist.items())


def ie_count_partitions(g: Graph, k: int) -> int:
    """Number of ordered k-tuples of nonempty independent sets covering V.

    Positive exactly when chi(G) <= k; the solver paths only consume the
    positivity, which is what the subset-parity sum decides.
    """
    check_table_size(g.n)
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _ie_partition_sum(_signed_histogram(_independent_count_table(g), g.n), k)


def _ie_partition_sum(hist: Dict[int, int], k: int) -> int:
    """The signed subset sum behind ie_count_partitions: the sum over X
    of (-1)^|X| (ind[V - X] - 1)^k, given the signed histogram of the
    independent-set counts ind."""
    return sum(c * (a - 1)**k for a, c in hist.items())


def _drop_bit(table: int, b: int) -> int:
    """The lanes of table whose index lacks bit b, in order: the table of
    the same sets with the vertex of bit b left out of the graph."""
    chunk = LANE_BYTES << b  # the bytes of 2^b lanes
    pair = 2 * chunk
    size = -(-table.bit_length() // (8 * pair)) * pair
    data = table.to_bytes(size, "little")
    if b <= 1:
        # a chunk is one native item, of 4 or 8 bytes: keep every second
        kept = memoryview(data).cast("I" if b == 0 else "Q")[::2]
    else:
        kept = b"".join([data[i:i + chunk] for i in range(0, size, pair)])
    return int.from_bytes(kept, "little")


def _odd_half_sum(base: int, outside: int, m: int, c: int) -> int:
    """A trial's signed sum at c over the sets that hold the pivot: for
    each subset R of the m vertices above the pivot, R plus the pivot
    has base[R] + base[R & outside] independent sets, where outside
    drops the pivot's neighbours.  The sets without the pivot are base's."""
    return _ie_partition_sum(_signed_histogram(base + _gather(base, outside, m), m), c)


def _kempe_apart(non: List[int], classes: List[int], home: int, i: int, j: int) -> bool:
    """Move j out of the class home it shares with i, by one Kempe swap
    that leaves i there: for some other class, the component of j in
    the graph that non complements, on the two classes without i, has
    no neighbour of i, and its vertices swap classes.  The classes stay
    cliques of non, whose rows already lack the edge ij."""
    for c, cls in enumerate(classes):
        if c == home:
            continue
        pair = classes[home] & ~(1 << i) | cls
        comp = todo = 1 << j
        while todo:
            low = todo & -todo
            new = pair & ~non[low.bit_length() - 1] & ~comp
            comp |= new
            todo = (todo ^ low) | new
        if not comp & cls & ~non[i]:
            classes[home] ^= comp
            classes[c] ^= comp
            return True
    return False


def _first_fit(non: List[int], s: int, k: int) -> Optional[List[int]]:
    """s split into at most k cliques of the rows non by one greedy pass,
    or None if it finds none.  Each vertex v, in increasing order, joins
    the first class that takes it; if none does, a class holding just
    one vertex u outside v's row takes v once a Kempe swap moves u out."""
    classes: List[int] = []
    for v in bits(s):
        c = next((c for c, cls in enumerate(classes) if not cls & ~non[v]), len(classes))
        if c == len(classes) < k:
            classes.append(0)
        if c < k:
            classes[c] |= 1 << v
            continue
        for c, cls in enumerate(classes):
            u = cls & ~non[v]
            if u & (u - 1) == 0:
                classes[c] |= 1 << v
                if _kempe_apart(non, classes, c, v, u.bit_length() - 1):
                    break
                classes[c] = cls
        else:
            return None
    return classes


def ie_chromatic_with_construction(g: Graph) -> Tuple[int, List[int]]:
    """chi(G) by counting, plus a proper coloring with exactly chi colors.

    k is the least c whose partition count is positive, read off the
    signed histograms of the two halves of G's independent-set table,
    the sets without vertex 0 and those with it.  The construction
    then repeatedly takes the lexicographically first non-adjacent pair
    (i, j) of the working graph h and adds the edge; if h + ij is still
    k-colorable the edge stays, otherwise every k-coloring of h gives i
    and j one color and the two vertices merge.  When h becomes
    complete, its vertices are the color classes.

    h keeps G's labels: non[v] holds v's non-neighbours and alive the
    vertices not merged away, so a k-coloring of h is a partition of
    alive into k cliques of the rows non.  A witness, such a partition,
    decides the trials it can without a count: if it puts i and j in
    different classes, or a Kempe swap (_kempe_apart) moves j out of
    i's, it colors h + ij too, so the edge stays.  Every other trial,
    each merge among them, is counted.  A merge keeps the witness (i and
    j shared a class); a counted trial that keeps the edge drops it.
    The next trial builds one, as the first trial does, by a greedy pass
    (_first_fit) or, if that fails, by the search _partition_within,
    which then has a partition to find.

    The counts read one table built from G, because of two facts.  The
    pivot i is the lowest vertex with an alive non-neighbour, so every
    alive vertex below it is adjacent to all others, and a trial is
    decided on h without them, at k minus their number.  A trial changes
    only edges at the pivot (an added edge ij, or a merge that drops j
    and gives i its neighbours), so the table base of the alive vertices
    above i, in order, is never recomputed: a merge keeps its lanes
    without j's bit, and a pivot step those without the lowest bit.  The
    table with i has base as its lanes without i and base[R] + base[R &
    ~N(i)] as those with i, so the trial's signed sum is the sum over
    that odd half, for N(i) with j, minus the sum over base, which is
    kept until base changes; at pivot 0 it comes from the first half.
    """
    check_table_size(g.n)
    n = g.n
    if n == 0:
        return 0, []
    table = _independent_count_table(g)
    base = _drop_bit(table, 0)  # independent-set counts of h - {0..i}
    # G's signed histogram: the lanes with 0, as sets of the vertices above
    # it, minus base's, both signed over n - 1 vertices
    hist = _signed_histogram(_drop_bit(table >> LANE, 0), n - 1)
    del table
    half = _signed_histogram(base, n - 1)
    for a, c in half.items():
        hist[a] = hist.get(a, 0) - c
    k = next((c for c in range(1, n) if _ie_partition_sum(hist, c) > 0), n)
    even = _ie_partition_sum(half, k)  # base's signed sum at k - below
    del hist, half
    non = [g.full & ~(row | 1 << v) for v, row in enumerate(g.adj)]
    alive = g.full
    classes = None  # the witness, once a trial needs one
    groups = [1 << v for v in range(n)]
    for i in range(n):
        if not alive >> i & 1:
            continue
        if i:
            base, even = _drop_bit(base, 0), None
        below = (alive & ((1 << i) - 1)).bit_count()
        # each alive vertex below i is adjacent to all others, so i's alive
        # non-neighbours lie above it
        while non[i] & alive:
            if classes is None:
                classes = _first_fit(non, alive, k) or _partition_within(non, alive, k)
                if classes is None:
                    raise RuntimeError(f"no {k}-coloring of a graph the count found "
                                       f"{k}-colorable")
            j = lowest_bit(non[i] & alive)
            non[i] &= ~(1 << j)
            non[j] &= ~(1 << i)
            home = next(c for c, cls in enumerate(classes) if cls >> i & 1)
            if not classes[home] >> j & 1 or _kempe_apart(non, classes, home, i, j):
                continue
            above = bit_list(alive & -(2 << i))  # base's vertices, in order
            outside = sum(1 << r for r, v in enumerate(above) if non[i] >> v & 1)
            if even is None:
                even = _ie_partition_sum(_signed_histogram(base, len(above)), k - below)
            # the odd half's sum minus even is the count at k - below of
            # h + ij without the vertices below i; chi can only stay or
            # grow by one under an edge addition
            if _odd_half_sum(base, outside, len(above), k - below) <= even:
                alive &= ~(1 << j)
                groups[i] |= groups[j]
                classes[home] &= ~(1 << j)
                for v in bits(non[i] & ~non[j]):
                    non[v] &= ~(1 << i)
                non[i] &= non[j]
                base = _drop_bit(base, above.index(j))
                even = None
            else:
                classes = None

    if alive.bit_count() != k:
        raise RuntimeError("complete merge graph must have chi vertices")
    coloring = [0] * n
    for c, v in enumerate(bits(alive)):
        for u in bits(groups[v]):
            coloring[u] = c
    return k, coloring


def _complement_layers(adj: List[int], s: int) -> Optional[List[Tuple[int, int]]]:
    """(A_K, B_K) for each component K of the complement of G[s], in
    order of lowest vertex, or None if s is not co-bipartite.

    A breadth-first sweep of K from its lowest vertex puts the even
    layers in A_K and the odd ones in B_K; B_K is empty exactly when K
    is one vertex, adjacent to the rest of s.  A complement edge joins
    two vertices of one layer or of consecutive layers, so A_K and B_K
    are cliques exactly when no layer holds a non-edge.
    """
    out = []
    rest = s
    while rest:
        first = frontier = rest & -rest
        # side takes each layer, then side and other swap, so each holds
        # every second layer; A_K is the one holding the lowest vertex
        side = other = 0
        while frontier:
            rest ^= frontier
            side |= frontier
            reached = 0
            todo = frontier
            while todo:
                low = todo & -todo
                todo ^= low
                non = ~adj[low.bit_length() - 1]
                if frontier & non != low:
                    return None
                reached |= non
            frontier = reached & rest
            side, other = other, side
        out.append((other, side) if other & first else (side, other))
    return out


def _two_cliques(adj: List[int], s: int, k: int) -> Optional[List[int]]:
    """The backtracker's partition of s for k <= 2, with no search: s
    splits into two cliques exactly when the complement of G[s] is
    bipartite.

    The classes are the unions of the A_K and of the B_K of
    _complement_layers.  That is the backtracker's first solution: the
    lowest vertex of a complement component has no non-neighbour before
    it, so class 0 takes it, and the rest of the component follows by
    parity.
    """
    layers = _complement_layers(adj, s)
    if layers is None:
        return None
    a = b = 0
    for x, y in layers:
        a |= x
        b |= y
    classes = [a, b] if b else [a] if a else []
    return classes if len(classes) <= k else None


def _common_closed(adj: List[int], s: int) -> int:
    """The vertices in or adjacent to every vertex of s (all of them for
    s empty)."""
    common = -1
    while s:
        low = s & -s
        common &= adj[low.bit_length() - 1] | low
        s ^= low
    return common


def hubs_within(adj: List[int], s: int, c: int, k: int) -> int:
    """The v in c (disjoint from s) with vcc(s + v) <= k, as a mask, for
    k in (1, 2) and s with vcc(s) <= k; RuntimeError if vcc(s) > k.

    No search runs: at k = 1, s + v is a clique when v is adjacent to
    all of s.  At k = 2, v joins each complement component K of G[s]
    through its non-neighbours there, so s + v stays co-bipartite when,
    for every K, those lie on one side: v is adjacent to all of A_K or
    to all of B_K.
    """
    if k == 1:
        common = _common_closed(adj, s)
        if s & ~common:
            raise RuntimeError("hub test at k = 1 on a set that is no clique")
        return c & common
    layers = _complement_layers(adj, s)
    if layers is None:
        raise RuntimeError("hub test at k = 2 on a set that is not co-bipartite")
    for x, y in layers:
        if y:
            c &= _common_closed(adj, x) | _common_closed(adj, y)
    return c


def _partition_within(adj: List[int], s: int, k: int) -> Optional[List[int]]:
    """The first partition of s into at most k cliques that the
    backtracker finds, or None if there is none.

    Vertices go in increasing order, each into the first class that
    takes it, opening one new class at a time.  The search reads nothing
    but (adj, s, k), so a search at a fixed k returns the same partition
    whatever searches ran before it.  k <= 2 is left to _two_cliques,
    so only k >= 3 lists the vertices of s.
    """
    if k <= 2:
        return _two_cliques(adj, s, k)
    verts = bit_list(s)
    m = len(verts)
    classes = [0] * k

    def bt(i: int, used: int) -> bool:
        if i == m:
            return True
        v = verts[i]
        vbit = 1 << v
        cap = used + 1 if used < k else k
        for c in range(cap):
            if classes[c] & ~adj[v]:
                continue
            classes[c] |= vbit
            if bt(i + 1, max(used, c + 1)):
                return True
            classes[c] &= ~vbit
        return False

    return [c for c in classes if c] if bt(0, 0) else None


def vcc(g: Graph, s: int, start: int = 1) -> Tuple[int, List[int]]:
    """Minimum disjoint clique partition of s, by direct backtracking.

    Independent of the subset table on purpose: it serves as the
    second route for cross-checks, and the CoverOracle solves its sets
    with it.  The search runs at k = start, start + 1, ... until one
    succeeds, which it does by k = |s|, so start must be a lower bound
    on the answer; every start up to the answer gives the same result.
    Returns (count, class masks).
    """
    if not s:
        return 0, []
    for k in count(start):
        classes = _partition_within(g.adj, s, k)
        if classes is not None:
            return k, classes
