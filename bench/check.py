"""Correctness gate behind fail_rate.

Every answer is checked against a reference from an independent route,
and against pinned.json for the default seed.  Every written .tcd is
re-checked with ``tclq verify``, and its width must equal the answer.
Nothing here runs inside the timed region.

References, by ``Op.ref``:

  solver_dp / solver_pmc  the other general solver on the same graph
  ktree                   1: k-trees are chordal
  cotree_fold             a fold over the unbinarized cotree written here,
                          independent of tclq's parser and binarizer
  permutation             the scanline solver on the permutation
  chordality              for --perm runs, which have no second exact
                          route at n = 20: the answer is 1 exactly
                          when the graph is chordal (tclq.oracle)
  vcc                     cover.vcc backtracking; the printed cliques
                          must also be cliques that partition V
"""

import contextlib
import hashlib
import io as _io
import os
from typing import Dict, List, Optional


def run_cli(argv: List[str]):
    """tclq.cli.main(argv) in process: (exit code, stdout, error text)."""
    from tclq import cli

    out, err = _io.StringIO(), _io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback is an operation failure, not a crash
        return 1, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue().strip()


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _fold(text: str):
    """(vcc, tcl) of a cotree s-expression, folded left to right."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def node():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok != "(":
            return 1, 1
        label = tokens[pos]
        pos += 1
        kids = []
        while tokens[pos] != ")":
            kids.append(node())
        pos += 1
        ecc, tcl = kids[0]
        for e2, t2 in kids[1:]:
            if label == "0":
                ecc, tcl = ecc + e2, max(tcl, t2)
            else:
                ecc, tcl = max(ecc, e2), min(max(ecc, t2), max(tcl, e2))
        return ecc, tcl

    return node()[1]


def reference(op):
    """The answer of op by its independent route; for ``chordality``,
    whether the graph is chordal."""
    from tclq import cover, io, oracle, permutation, solver_dp, solver_pmc

    if op.ref == "ktree":
        return 1
    if op.ref == "cotree_fold":
        return _fold(_read(op.ref_file))
    if op.ref == "permutation":
        return permutation.compute_tcl(io.parse_permutation(_read(op.ref_file)))
    g = io.parse_graph(_read(op.ref_file))
    if op.ref == "solver_dp":
        return solver_dp.compute_tcl(g)[0]
    if op.ref == "solver_pmc":
        return solver_pmc.compute_tcl(g)[0]
    if op.ref == "vcc":
        return cover.vcc(g, g.full)[0]
    if op.ref == "chordality":
        return oracle.is_chordal(g)
    raise ValueError(f"unknown reference {op.ref!r}")


def _parse_answer(op, stdout: str):
    """(answer, printed cliques) from the op's stdout; raises ValueError."""
    lines = stdout.split("\n")
    if lines[-1] == "":
        lines.pop()
    head = "vcc" if op.argv[0] == "cover" else "tcl"
    first = lines[0].split() if lines else []
    if len(first) != 2 or first[0] != head:
        raise ValueError(f"expected '{head} <k>', got {stdout[:60]!r}")
    cliques = []
    for line in lines[1:]:
        fields = line.split()
        if head != "vcc" or not fields or fields[0] != "clique":
            raise ValueError(f"unexpected output line {line[:60]!r}")
        cliques.append([int(v) - 1 for v in fields[1:]])
    return int(first[1]), cliques


def _partition_errors(op, k: int, cliques) -> List[str]:
    from tclq import io

    g = io.parse_graph(_read(op.ref_file))
    seen = 0
    errors = []
    if len(cliques) != k:
        errors.append(f"{len(cliques)} cliques printed for vcc {k}")
    for cl in cliques:
        if not cl or min(cl) < 0 or max(cl) >= g.n:
            errors.append(f"printed class {cl} is not a nonempty set of vertices")
            continue
        mask = 0
        for v in cl:
            mask |= 1 << v
        if not g.is_clique(mask):
            errors.append(f"printed class {cl} is not a clique")
        if mask & seen:
            errors.append(f"printed class {cl} overlaps another")
        seen |= mask
    if seen != g.full:
        errors.append("printed cliques do not cover V")
    return errors


class Gate:
    """Checks executions of a fixed op list; caches references and verifies."""

    def __init__(self, pinned: Optional[Dict[str, int]] = None):
        self.pinned = pinned
        self._refs: Dict[str, object] = {}
        self._verified: Dict[tuple, str] = {}

    def _verify(self, op, tcd: bytes, answer: int) -> Optional[str]:
        key = (op.graph, hashlib.sha256(tcd).hexdigest())
        if key not in self._verified:
            path = op.out + ".check"
            with open(path, "wb") as fh:
                fh.write(tcd)
            code, stdout, err = run_cli(["verify", op.graph, path])
            os.remove(path)
            self._verified[key] = stdout.strip() if code == 0 else f"{stdout.strip()} {err}"
        verdict = self._verified[key]
        if verdict != f"valid: width {answer}":
            return f"tclq verify: {verdict!r}, expected 'valid: width {answer}'"
        return None

    def errors(self, op, code: int, stdout: str, error: str,
               tcd: Optional[bytes]) -> List[str]:
        """Why one execution of op failed; empty when it passed."""
        if error or code != 0:
            return [f"exit {code}: {error}"]
        try:
            answer, cliques = _parse_answer(op, stdout)
        except ValueError as exc:
            return [str(exc)]
        errors = []
        if op.name not in self._refs:
            try:
                self._refs[op.name] = reference(op)
            except Exception as exc:  # a broken reference route fails the op
                self._refs[op.name] = exc
        ref = self._refs[op.name]
        if isinstance(ref, Exception):
            errors.append(f"reference ({op.ref}) raised {type(ref).__name__}: {ref}")
        elif op.ref == "chordality":
            if (answer == 1) != ref:
                errors.append(f"answer {answer} but the graph is "
                              f"{'' if ref else 'not '}chordal")
        elif answer != ref:
            errors.append(f"answer {answer}, reference ({op.ref}) {ref}")
        if self.pinned is not None:
            if op.name not in self.pinned:
                errors.append("no pinned answer")
            elif answer != self.pinned[op.name]:
                errors.append(f"answer {answer}, pinned {self.pinned[op.name]}")
        if op.ref == "vcc":
            errors += _partition_errors(op, answer, cliques)
        if op.out is not None:
            if tcd is None:
                errors.append("no decomposition written")
            else:
                err = self._verify(op, tcd, answer)
                if err:
                    errors.append(err)
        return errors
