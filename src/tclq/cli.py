"""Command line interface.

Subcommands: solve, cover, verify, gen.  Exit codes: 0 success / valid /
YES, 1 invalid decomposition or NO, 2 usage or parse error, 3 an input
past a size limit (CapacityError) or too large to hold in memory.
"""

import argparse
import functools
import random
import sys
from typing import Optional

from . import cograph, generators, io, permutation, solver_dp, solver_pmc
from .bitset import bits
from .cover import CapacityError, check_table_size, ie_chromatic_with_construction, lawler_cover
# unused here; bench/tests/test_bench.py asserts the tracer patches this binding
from .cover import lawler_table  # noqa: F401
from .decomposition import validate, width
from .oracle import tcl_oracle


class UsageError(ValueError):
    pass


# Largest declared n that solve --input and verify read.  Each isolated
# vertex's bag is a mask as wide as its index, so an edgeless graph takes
# memory quadratic in n; 64,000 vertices solve in about a second.
INPUT_MAX_N = 65536


def check_input_size(n: int) -> None:
    """Refuse a declared n above INPUT_MAX_N before the graph is built."""
    if n > INPUT_MAX_N:
        raise CapacityError(f"n={n} exceeds the input limit of {INPUT_MAX_N} vertices")


# Largest permutation solve --perm takes.  Time sets it: the DP makes
# (n+1)^2 steps in Python, and n = 4096 takes about 17-21 s.  Memory
# does not: the walk keeps one byte an entry, 90 MB at the peak there.
PERM_MAX_N = 4096


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _solve(args) -> int:
    sources = [s for s in (args.input, args.cograph, args.perm) if s is not None]
    if len(sources) != 1:
        raise UsageError("solve needs exactly one of --input/--cograph/--perm")
    if args.k is not None and args.k < 1:
        raise UsageError("--k must be at least 1")

    if args.cograph is not None:
        if args.algo != "auto":
            raise UsageError("--algo applies to --input graphs only")
        if args.out is not None:
            raise UsageError("the cograph solver emits values, not decompositions")
        return _report(args, cograph.fold_tcl(_read(args.cograph)), None, None)

    if args.perm is not None:
        if args.algo != "auto":
            raise UsageError("--algo applies to --input graphs only")
        pi = io.parse_permutation(_read(args.perm))
        if len(pi) > PERM_MAX_N:
            raise CapacityError(f"n={len(pi)} exceeds the permutation limit of {PERM_MAX_N} lines")
        k, witness = permutation.solve(pi)
        return _report(args, k, witness, len(pi))

    g = io.parse_graph(_read(args.input), check_n=check_input_size)
    algo = args.algo if args.algo != "auto" else "pmc"
    if algo == "oracle":
        if args.out is not None:
            raise UsageError("the oracle emits values, not decompositions")
        k = tcl_oracle(g)  # refuses n above its default cap
        witness = None
    elif algo == "dp":
        k, witness = solver_dp.compute_tcl(g)
    else:
        k, witness = solver_pmc.compute_tcl(g)
    return _report(args, k, witness, g.n)


def _report(args, k: int, witness, n: Optional[int]) -> int:
    if args.k is not None:
        ok = k <= args.k
        if ok and witness is not None and args.out is not None:
            _write(args.out, io.serialize_decomposition(witness, n))
        print("YES" if ok else "NO")
        return 0 if ok else 1
    if witness is not None and args.out is not None:
        _write(args.out, io.serialize_decomposition(witness, n))
    print(f"tcl {k}")
    return 0


def _cover(args) -> int:
    g = io.parse_graph(_read(args.input), check_n=check_table_size)
    if args.method == "ie":
        k, coloring = ie_chromatic_with_construction(g.complement())
        classes = [0] * k
        for v, color in enumerate(coloring):
            classes[color] |= 1 << v
        parts = sorted(classes)
    else:
        k, parts = lawler_cover(g)
    print(f"vcc {k}")
    for cl in parts:
        print("clique " + " ".join(str(v + 1) for v in bits(cl)))
    return 0


class _OtherVertexCount(Exception):
    pass


def _verify(args) -> int:
    g = io.parse_graph(_read(args.graph), check_n=check_input_size)

    def check_n(n: int) -> None:
        if n != g.n:
            raise _OtherVertexCount(n)

    try:
        d, _ = io.parse_decomposition(_read(args.decomposition), check_n=check_n)
    except _OtherVertexCount as exc:
        print(f"invalid: decomposition is over {exc.args[0]} vertices, graph has {g.n}")
        return 1
    report = validate(g, d)
    if report.ok:
        print(f"valid: width {width(d)}")
        return 0
    for violation in report.violations:
        print(f"invalid: {violation}")
    return 1


def _gen(args) -> int:
    # the permutation and cograph families are drawn from the stream
    # gen_corpora uses, without the graph it pairs them with
    rng = random.Random(args.seed)
    if args.family == "cograph":
        text = generators.gen_cotree_text(rng, args.n) + "\n"
    elif args.family == "permutation":
        text = io.serialize_permutation(generators.gen_permutation(rng, args.n))
    else:
        params = {"n": args.n, "count": 1}
        if args.k is not None:
            params["k"] = args.k
        if args.p is not None:
            params["p"] = args.p
        if args.apexes is not None:
            params["apexes"] = args.apexes
        if args.connected:
            params["connected"] = True
        text = io.serialize_graph(generators.gen_corpora(args.seed, args.family, **params)[0])
    _write(args.out, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tclq", description="Tree-clique width toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute tcl, or decide tcl <= k")
    p.add_argument("--input", help="graph file (DIMACS-like)")
    p.add_argument("--cograph", help="cotree file")
    p.add_argument("--perm", help="permutation file")
    p.add_argument("--algo", choices=["dp", "pmc", "oracle", "auto"], default="auto")
    p.add_argument("--k", type=int, default=None, help="decision mode: answer YES/NO")
    p.add_argument("--out", help="write the decomposition here")
    p.set_defaults(func=_solve)

    p = sub.add_parser("cover", help="minimum clique cover of the vertex set")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=["lawler", "ie"], default="lawler")
    p.set_defaults(func=_cover)

    p = sub.add_parser("verify", help="validate a decomposition against a graph")
    p.add_argument("graph")
    p.add_argument("decomposition")
    p.set_defaults(func=_verify)

    p = sub.add_parser("gen", help="generate a test instance")
    p.add_argument("--family", required=True,
                   choices=["ktree", "cograph", "permutation", "reduction", "random"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="ktree parameter")
    p.add_argument("--p", type=float, default=None, help="edge probability")
    p.add_argument("--apexes", type=int, default=None, help="reduction apex count")
    p.add_argument("--connected", action="store_true")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_gen)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every main call shares: building it costs more than
    most parses."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MemoryError, OverflowError) as exc:  # e.g. a huge declared n
        print(f"error: input too large to hold in memory ({type(exc).__name__})", file=sys.stderr)
        return 3
    except (UsageError, io.ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
