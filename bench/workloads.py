"""Seeded instance sets for the benchmark workloads.

Every instance comes from ``tclq.generators``; the workload seed picks
the instances and nothing else.  ``build`` writes the instance files into
a directory and returns the operations, each one ``tclq`` command line
plus what the correctness gate needs to check its output.

``random`` and ``random-dp`` draw from the same stream, so for one seed
they run the same graphs and differ only in ``--algo``.
"""

import hashlib
import os
import random
from dataclasses import dataclass
from typing import List, Optional

WORKLOADS = ("random", "random-dp", "structured", "cover")

# Instances for random and random-dp, per n and per density.  The counts
# keep p50_s and tail_s inside one group of similar times, away from a
# jump between groups.  The auto route's time follows n, and most graphs
# have n = 13.  The DP's time follows p as well: its median falls among
# the n = 13, p = 0.4 graphs and its tail among the n = 13, p = 0.7 ones,
# with fewer than ten slower graphs above them.
RANDOM_DENSITIES = (0.2, 0.4, 0.7)
RANDOM_COUNTS = {12: (3, 3, 3), 13: (6, 10, 10), 14: (1, 2, 3)}

# structured, (n, count) per family.  The counts place the order
# statistics in steady strata: most ops are cheap cotree folds, so p50_s
# falls inside the n = 2000 folds, and the .col graphs, which take the
# general route, are the slowest 15, so tail_s falls among them.  The
# --perm solves sit in between.  At n = 30 one takes from 0.08 to 0.25 s,
# with the answer and beyond it, and twelve of them moved wall_s by a
# third from seed to seed; at n = 20 the answer is almost always 3.
STRUCT_COL = {"ktree": ((13, 5),), "cograph": ((13, 5),), "permutation": ((13, 5),)}
STRUCT_PERM = ((20, 12),)
STRUCT_COTREE = ((500, 6), (1000, 6), (1500, 6), (2000, 20))

# cover: G(n, 0.5), each graph run with the Lawler and the ie method.
# Times vary by a third between graphs of one size, and Lawler and ie
# overlap, so all graphs share one n and there are many of them.
COVER_COUNTS = {13: 40}


@dataclass(frozen=True)
class Op:
    """One timed ``tclq`` invocation.

    ``ref`` names the independent route the gate checks the answer
    against (see check.py); ``ref_file`` is the input that route reads.
    ``graph`` is the .col file a written ``out`` decomposition is
    verified against.  ``name`` keys the answer in pinned.json.
    """

    name: str
    argv: List[str]
    ref: str
    ref_file: str
    graph: Optional[str] = None
    out: Optional[str] = None


def pin_group(workload: str) -> str:
    """Instance stream, and key of the answers in pinned.json."""
    return "random" if workload == "random-dp" else workload


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _random_ops(rng: random.Random, d: str, algo: str) -> List[Op]:
    from tclq import generators, io

    ops = []
    ref = "solver_dp" if algo == "auto" else "solver_pmc"
    for n, counts in RANDOM_COUNTS.items():
        for p, count in zip(RANDOM_DENSITIES, counts):
            for i in range(count):
                g = generators.gen_corpora(rng.randrange(2**32), "random", n=n, p=p,
                                           connected=True)[0]
                name = f"g-n{n}-p{p}-{i}"
                col = _write(os.path.join(d, name + ".col"), io.serialize_graph(g))
                out = os.path.join(d, name + ".tcd")
                argv = ["solve", "--input", col, "--out", out]
                if algo != "auto":
                    argv += ["--algo", algo]
                ops.append(Op(name, argv, ref, col, graph=col, out=out))
    return ops


def _connected(rng: random.Random, family: str, n: int, **params):
    """First connected instance of the family, so the general route sees
    one n-vertex component rather than a few small ones."""
    from tclq import generators

    while True:
        inst = generators.gen_corpora(rng.randrange(2**32), family, n=n, **params)[0]
        if (inst if family == "ktree" else inst[1]).is_connected():
            return inst


def _structured_ops(rng: random.Random, d: str) -> List[Op]:
    from tclq import generators, io

    ops = []
    for family, sizes in STRUCT_COL.items():
        for n, count in sizes:
            for i in range(count):
                name = f"{family}-col-n{n}-{i}"
                if family == "ktree":
                    g = _connected(rng, "ktree", n, k=2 + i % 3)
                    ref, ref_file = "ktree", None
                elif family == "cograph":
                    text, g = _connected(rng, "cograph", n)
                    ref, ref_file = "cotree_fold", _write(os.path.join(d, name + ".ct"),
                                                          text + "\n")
                else:
                    pi, g = _connected(rng, "permutation", n)
                    ref, ref_file = "permutation", _write(os.path.join(d, name + ".pi"),
                                                          io.serialize_permutation(pi))
                col = _write(os.path.join(d, name + ".col"), io.serialize_graph(g))
                out = os.path.join(d, name + ".tcd")
                ops.append(Op(name, ["solve", "--input", col, "--out", out], ref,
                              ref_file or col, graph=col, out=out))
    for n, count in STRUCT_PERM:
        for i in range(count):
            pi, g = generators.gen_corpora(rng.randrange(2**32), "permutation", n=n)[0]
            name = f"perm-n{n}-{i}"
            pif = _write(os.path.join(d, name + ".pi"), io.serialize_permutation(pi))
            col = _write(os.path.join(d, name + ".col"), io.serialize_graph(g))
            out = os.path.join(d, name + ".tcd")
            ops.append(Op(name, ["solve", "--perm", pif, "--out", out], "chordality",
                          col, graph=col, out=out))
    for n, count in STRUCT_COTREE:
        for i in range(count):
            text = generators.gen_cotree_text(random.Random(rng.randrange(2**32)), n)
            name = f"cotree-n{n}-{i}"
            ct = _write(os.path.join(d, name + ".ct"), text + "\n")
            ops.append(Op(name, ["solve", "--cograph", ct], "cotree_fold", ct))
    return ops


def _cover_ops(rng: random.Random, d: str) -> List[Op]:
    from tclq import generators, io

    ops = []
    for n, count in COVER_COUNTS.items():
        for i in range(count):
            g = generators.gen_corpora(rng.randrange(2**32), "random", n=n, p=0.5)[0]
            name = f"g-n{n}-{i}"
            col = _write(os.path.join(d, name + ".col"), io.serialize_graph(g))
            ops.append(Op(name + "-lawler", ["cover", "--input", col], "vcc", col))
            ops.append(Op(name + "-ie", ["cover", "--input", col, "--method", "ie"],
                          "vcc", col))
    return ops


def build(workload: str, seed: int, d: str) -> List[Op]:
    """Write the instance files of (workload, seed) into d; return the ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(d, exist_ok=True)
    rng = random.Random(f"tclq-bench:{pin_group(workload)}:{seed}")
    if workload == "random":
        return _random_ops(rng, d, "auto")
    if workload == "random-dp":
        return _random_ops(rng, d, "dp")
    if workload == "structured":
        return _structured_ops(rng, d)
    return _cover_ops(rng, d)


def fingerprint(d: str) -> str:
    """sha256 over the names and bytes of the instance files in d."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(d)):
        if name.endswith(".tcd"):
            continue
        h.update(name.encode() + b"\0")
        with open(os.path.join(d, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()
