"""Seeded byte-level fuzzing of the input formats through the command line.

Each mutant of a small valid .col, .tcd, .ct or .pi file (a few bytes
deleted, duplicated or replaced) must end in a documented exit code,
never an uncaught exception.
"""

import random
import re

import pytest

from tclq.cli import main

COL = b"c fuzz seed\np edge 6 7\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\ne 1 3\ne 5 6\n"
CT = b"(1 (0 v1 v2) (1 v3 (0 v4 v5)) v6)\n"
PI = b"# six lines\n2 5 1 6 3 4\n"

MUTANTS = 150
MAX_N = 64
# what a replaced byte becomes: the formats' own characters, and a few
# that no format uses, among them bytes that are not UTF-8
ALPHABET = b"0123456789 \n\t-+.#()cepbt" + b"\x00\xff\xc3x"


def mutate(data: bytes, rng: random.Random) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        if not out:
            out.append(rng.choice(ALPHABET))
            continue
        pos = rng.randrange(len(out))
        edit = rng.choice(("delete", "duplicate", "replace"))
        if edit == "delete":
            del out[pos]
        elif edit == "duplicate":
            out.insert(pos, out[pos])
        else:
            out[pos] = rng.choice(ALPHABET)
    return bytes(out)


def declared_n(kind: str, data: bytes) -> int:
    """The largest vertex count a mutant declares: the n of each `p`
    line of a .col or `tcd` header of a .tcd.  A .ct or .pi declares
    none, and three edits add at most a few leaves or entries."""
    if kind not in ("col", "tcd"):
        return 0
    field, at = ("p", 2) if kind == "col" else ("tcd", 3)
    ns = [0]
    for line in data.decode("utf-8", "replace").splitlines():
        fields = line.split()
        if fields and fields[0] == field and len(fields) > at:
            ns.append(int(fields[at]) if re.fullmatch(r"[+-]?\d+", fields[at]) else 0)
    return max(ns)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    d = tmp_path_factory.mktemp("valid")
    col, tcd = d / "g.col", d / "g.tcd"
    col.write_bytes(COL)
    assert main(["solve", "--input", str(col), "--out", str(tcd)]) == 0
    return {"col": str(col), "tcd": str(tcd)}


def commands(kind: str, path: str, valid, out: str):
    if kind == "col":
        return [["solve", "--input", path],
                ["solve", "--input", path, "--algo", "dp", "--k", "2", "--out", out],
                ["cover", "--input", path],
                ["cover", "--input", path, "--method", "ie"],
                ["verify", path, valid["tcd"]]]
    if kind == "tcd":
        return [["verify", valid["col"], path]]
    if kind == "ct":
        return [["solve", "--cograph", path], ["solve", "--cograph", path, "--k", "1"]]
    return [["solve", "--perm", path, "--out", out], ["solve", "--perm", path, "--k", "1"]]


@pytest.mark.parametrize("kind", ["col", "tcd", "ct", "pi"])
def test_mutants_exit_with_a_documented_code(kind, valid, tmp_path, capsys):
    if kind == "tcd":
        with open(valid["tcd"], "rb") as fh:
            seed = fh.read()
    else:
        seed = {"col": COL, "ct": CT, "pi": PI}[kind]
    rng = random.Random(f"fuzz:{kind}")
    path, out = str(tmp_path / f"mutant.{kind}"), str(tmp_path / "out.tcd")
    ran = 0
    for _ in range(MUTANTS):
        data = mutate(seed, rng)
        if declared_n(kind, data) > MAX_N:
            continue
        with open(path, "wb") as fh:
            fh.write(data)
        for argv in commands(kind, path, valid, out):
            try:
                code = main(argv)
            except Exception as exc:  # report which mutant raised
                pytest.fail(f"{argv[0]} on {data!r} raised {exc!r}")
            assert code in (0, 1, 2, 3), (argv, data, code)
        ran += 1
    capsys.readouterr()
    assert ran >= MUTANTS // 2
