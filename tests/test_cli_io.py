"""File formats, generators, and the command line surface."""

import hashlib
import random
import subprocess
import sys
import tracemalloc

import pytest

from tclq import cli, io, permutation, solver_dp, solver_pmc
from tclq.bitset import bits, mask_of
from tclq.cli import main
from tclq.cograph import cotree_to_graph, parse_and_binarize
from tclq.decomposition import validate, width
from tclq.cover import CapacityError, vcc
from tclq.generators import (
    CONNECTED_DRAWS,
    gen_corpora,
    gen_permutation,
    gen_random,
    gen_reduction_H,
)
from tclq.graph import Graph
from tclq.io import (
    ParseError,
    parse_decomposition,
    parse_graph,
    parse_permutation,
    serialize_decomposition,
    serialize_graph,
    serialize_permutation,
)
from tclq.oracle import is_chordal, tcl_oracle
from tclq.permutation import inversion_graph
from tclq.solver_dp import compute_tcl as dp_tcl

from corpus import connected_graphs
from helpers import (complete, count_calls, cycle, forbid, forbid_subset_tables,
                     is_p4_free, path)

C4_COL = "c a four-cycle\np edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n"


class TestGraphFormat:
    def test_parse_c4(self):
        g = parse_graph(C4_COL)
        assert g == cycle(4)

    def test_check_n_sees_the_declared_n_first(self):
        seen = []
        assert parse_graph(C4_COL, check_n=seen.append) == cycle(4)
        assert seen == [4]

        def refuse(n):
            raise OverflowError(n)

        # the refusal comes before the edge lines are read
        with pytest.raises(OverflowError):
            parse_graph("p edge 3 1\ne 1 9\n", check_n=refuse)

    def test_round_trip(self):
        rng = random.Random(167)
        for g in rng.sample(connected_graphs(6), 30) + [Graph.from_edges(0, [])]:
            assert parse_graph(serialize_graph(g)) == g

    def test_duplicate_edges_in_file(self):
        text = "p edge 3 1\ne 1 2\ne 2 1\n"
        assert parse_graph(text).edge_count() == 1

    @pytest.mark.parametrize(
        "text,line,msg",
        [
            ("p edge 2 0\np edge 2 0\n", 2, "duplicate problem"),
            ("p edge x 0\n", 1, "non-numeric"),
            ("p edge 2\n", 1, "expected `p edge"),
            ("p edge -1 0\n", 1, "negative"),
            ("e 1 2\n", 1, "before problem line"),
            ("p edge 3 1\ne 1\n", 2, "expected `e"),
            ("p edge 3 1\ne 1 q\n", 2, "non-numeric edge"),
            ("p edge 3 1\ne 1 4\n", 2, "out of range"),
            ("p edge 3 1\ne 2 2\n", 2, "self-loop"),
            ("p edge 3 0\nq 1 2\n", 2, "unknown line type"),
            ("c nothing\n", 1, "missing problem line"),
            ("p edge 3 2\ne 1 2\n", 1, "declares 2 edges, found 1"),
        ],
    )
    def test_parse_errors(self, text, line, msg):
        with pytest.raises(ParseError, match=msg) as err:
            parse_graph(text)
        assert err.value.line == line


class TestDecompositionFormat:
    def witness(self, g):
        return dp_tcl(g)[1]

    def test_round_trip(self):
        rng = random.Random(173)
        for g in rng.sample(connected_graphs(6), 25):
            d = self.witness(g)
            text = serialize_decomposition(d, g.n)
            back, n = parse_decomposition(text)
            assert n == g.n
            assert back == d

    def test_parse_example(self):
        text = (
            "# two bags over C4\n"
            "tcd 2 2 4\n"
            "b 1 1 2 3\n"
            "b 2 1 3 4\n"
            "c 1 1 2\n"
            "c 1 3\n"
            "c 2 3 4\n"
            "c 2 1\n"
            "t 1 2\n"
        )
        d, n = parse_decomposition(text)
        assert n == 4 and d.num_nodes == 2
        assert validate(cycle(4), d).ok
        assert width(d) == 2

    @pytest.mark.parametrize(
        "text,msg",
        [
            ("tcd 1 1 1\ntcd 1 1 1\nb 1 1\nc 1 1\n", "duplicate header"),
            ("tcd 1 1\n", "expected `tcd"),
            ("b 1 1\n", "content before tcd header"),
            ("tcd 1 0 1\n", "bad header counts"),
            ("tcd 1 1 1\nb 2 1\nc 1 1\n", "node id 2 out of range"),
            ("tcd 1 1 1\nb 1 2\nc 1 1\n", "vertex out of range"),
            ("tcd 1 1 1\nb 1 1\nb 1 1\nc 1 1\n", "duplicate bag"),
            ("tcd 1 2 2\nb 1 1\nb 2 2\nc 1 1\nc 2 2\nt 1 1\n", "bad tree edge"),
            ("tcd 1 2 2\nb 1 1\nb 2 2\nc 1 1\nc 2 2\n", "do not form a tree"),
            ("tcd 1 1 1\nc 1 1\n", "no bag line"),
            ("tcd 2 1 1\nb 1 1\nc 1 1\n", "header width 2 but cover lines give 1"),
            ("tcd 1 1 1\nb 1 1\nz 1\n", "unknown line type"),
            ("tcd 1 1 1\nb 1 x\n", "non-numeric"),
            ("", "missing tcd header"),
        ],
    )
    def test_parse_errors(self, text, msg):
        with pytest.raises(ParseError, match=msg):
            parse_decomposition(text)

    def test_check_n_sees_the_header_n_first(self):
        seen = []
        d, n = parse_decomposition("tcd 1 1 2\nb 1 1 2\nc 1 1 2\n", check_n=seen.append)
        assert n == 2 and seen == [2]

        def refuse(n):
            raise OverflowError(n)

        # the refusal comes before the bag line is read
        with pytest.raises(OverflowError):
            parse_decomposition("tcd 1 1 2\nb 1 9\n", check_n=refuse)

    def test_one_vertex_masks_print_as_every_mask_did(self, monkeypatch):
        # a few components among some 4,000 isolated vertices
        n = 4003
        edges = [(10, 11), (11, 12), (12, 13), (13, 10), (12, 10), (2000, 2001),
                 (2001, 2002), (n - 2, n - 1)]
        g = Graph.from_edges(n, edges)
        d = solver_pmc.compute_tcl(g)[1]
        masks = list(d.bags) + [cl for cs in d.covers for cl in cs]
        assert sum(m.bit_count() == 1 for m in masks) > 2 * (n - 10)
        lines = [f"tcd {width(d)} {d.num_nodes} {n}"]
        for kind, groups in (("b", [[bag] for bag in d.bags]), ("c", d.covers)):
            for t, group in enumerate(groups):
                lines += [" ".join([kind, str(t + 1)] + [str(v + 1) for v in bits(m)])
                          for m in group]
        lines += [f"t {p + 1} {t + 1}" for t, p in enumerate(d.parents) if p >= 0]
        calls = count_calls(monkeypatch, io.bits)
        assert serialize_decomposition(d, n) == "\n".join(lines) + "\n"
        # `bits` steps only over the masks of two or more vertices
        assert len(calls) == sum(m.bit_count() != 1 for m in masks)

    def test_line_numbers_reported(self):
        bad = "tcd 1 1 1\nb 1 1\nc 1 1\nz\n"
        with pytest.raises(ParseError) as err:
            parse_decomposition(bad)
        assert err.value.line == 4


class TestPermutationFormat:
    def test_basic(self):
        assert parse_permutation("# comment\n\n3 4 1 2\n") == [3, 4, 1, 2]

    def test_round_trip(self):
        assert parse_permutation(serialize_permutation([2, 1, 3])) == [2, 1, 3]

    def test_two_data_lines(self):
        with pytest.raises(ParseError, match="more than one"):
            parse_permutation("1 2\n2 1\n")

    def test_non_numeric(self):
        with pytest.raises(ParseError, match="non-numeric"):
            parse_permutation("1 two\n")

    def test_empty(self):
        with pytest.raises(ParseError, match="no permutation"):
            parse_permutation("# nothing\n")


class TestReduction:
    def test_k3_four_apexes_shape(self):
        h = gen_reduction_H(complete(3), 4)
        assert h.n == 7
        assert h.edge_count() == 12
        # apexes pairwise non-adjacent, each adjacent to all base vertices
        for a in range(3, 7):
            assert h.adj[a] == 0b111

    def test_k3_four_apexes_value(self):
        assert tcl_oracle(gen_reduction_H(complete(3), 4)) == 3

    def test_k4_five_apexes_value(self):
        h = gen_reduction_H(complete(4), 5)
        assert tcl_oracle(h) == 4

    def test_too_few_apexes(self):
        with pytest.raises(ValueError, match="apex count"):
            gen_reduction_H(complete(3), 3)

    @pytest.mark.parametrize("apexes", ["0", "3"])
    def test_too_few_apexes_exit_two(self, apexes, capsys):
        # 0 is a count, not a missing option: it must not become n + 1
        argv = ["gen", "--family", "reduction", "--seed", "1", "--n", "4", "--apexes", apexes]
        assert main(argv) == 2
        assert "apex count must be at least 4" in capsys.readouterr().err


class TestGenCorpora:
    def test_ktree_chordal(self):
        (g,) = gen_corpora(1, "ktree", n=8, k=2)
        assert is_chordal(g)
        assert tcl_oracle(g) == 1

    def test_permutation_pair(self):
        (pair,) = gen_corpora(1, "permutation", n=6)
        pi, g = pair
        assert sorted(pi) == list(range(1, 7))
        assert inversion_graph(pi) == g

    def test_cograph_pair(self):
        (pair,) = gen_corpora(1, "cograph", n=8)
        text, g = pair
        assert cotree_to_graph(parse_and_binarize(text)) == g
        assert is_p4_free(g)

    def test_deterministic(self):
        a = gen_corpora(7, "random", count=3, n=9, p=0.4)
        b = gen_corpora(7, "random", count=3, n=9, p=0.4)
        assert a == b

    def test_connected_flag(self):
        for g in gen_corpora(11, "random", count=10, n=8, p=0.2, connected=True):
            assert g.is_connected()

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            gen_corpora(1, "grid", n=4)


@pytest.fixture
def c4_file(tmp_path):
    p = tmp_path / "c4.col"
    p.write_text(C4_COL)
    return str(p)


class TestCliSolve:
    def test_default_pmc(self, c4_file, capsys):
        assert main(["solve", "--input", c4_file]) == 0
        assert capsys.readouterr().out == "tcl 2\n"

    def test_all_algos_agree(self, c4_file, capsys):
        for algo in ("dp", "pmc", "oracle", "auto"):
            assert main(["solve", "--input", c4_file, "--algo", algo]) == 0
            assert capsys.readouterr().out == "tcl 2\n"

    def test_witness_out(self, c4_file, tmp_path, capsys):
        out = tmp_path / "d.tcd"
        assert main(["solve", "--input", c4_file, "--algo", "dp", "--out", str(out)]) == 0
        d, n = parse_decomposition(out.read_text())
        assert n == 4
        assert validate(cycle(4), d).ok
        assert width(d) == 2

    def test_decision_yes_no(self, c4_file, capsys):
        assert main(["solve", "--input", c4_file, "--k", "2"]) == 0
        assert capsys.readouterr().out == "YES\n"
        assert main(["solve", "--input", c4_file, "--k", "1"]) == 1
        assert capsys.readouterr().out == "NO\n"

    def test_decision_writes_witness(self, c4_file, tmp_path, capsys):
        out = tmp_path / "d.tcd"
        assert main(["solve", "--input", c4_file, "--k", "3", "--out", str(out)]) == 0
        d, _ = parse_decomposition(out.read_text())
        assert validate(cycle(4), d).ok

    def test_bad_k(self, c4_file, capsys):
        assert main(["solve", "--input", c4_file, "--k", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_source_conflicts(self, c4_file, tmp_path, capsys):
        perm = tmp_path / "p.pi"
        perm.write_text("2 1\n")
        assert main(["solve", "--input", c4_file, "--perm", str(perm)]) == 2
        assert main(["solve"]) == 2

    def test_oracle_rejects_out(self, c4_file, tmp_path, capsys):
        code = main(["solve", "--input", c4_file, "--algo", "oracle",
                     "--out", str(tmp_path / "x.tcd")])
        assert code == 2

    def test_oracle_refuses_above_its_cap(self, tmp_path, capsys):
        g = tmp_path / "p17.col"
        g.write_text(serialize_graph(path(17)))
        assert main(["solve", "--input", str(g), "--algo", "oracle"]) == 3
        assert capsys.readouterr().err == "error: n=17 exceeds the oracle limit of 16 vertices\n"

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.col"
        bad.write_text("p edge 2 5\n")
        assert main(["solve", "--input", str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", "--input", str(tmp_path / "nope.col")]) == 2

    @pytest.mark.parametrize("command", [["solve", "--input", "{g}"], ["verify", "{g}", "{g}"]])
    def test_unindexable_n_exits_3(self, command, tmp_path, capsys):
        # [0] * n raises OverflowError for an n beyond the index range
        huge = tmp_path / "huge.col"
        huge.write_text("p edge 100000000000000000000 0\n")
        assert main([arg.format(g=huge) for arg in command]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unallocatable_n_exits_3(self, tmp_path):
        # under a 2 GB address-space limit, [0] * n raises MemoryError
        resource = pytest.importorskip("resource")
        big = tmp_path / "big.col"
        big.write_text("p edge 100000000000 0\n")
        limit = 2_000_000_000
        proc = subprocess.run(
            [sys.executable, "-c",
             "import resource, sys; from tclq.cli import main; "
             f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
             "sys.exit(main(sys.argv[1:]))",
             "solve", "--input", str(big)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("algo", ["dp", "pmc"])
    def test_clique_components_skip_the_solver(self, algo, tmp_path, capsys, monkeypatch):
        # isolated vertices and a triangle: one bag and one clique each,
        # hung under the first component's bag, and no connected solver
        n = 4000
        col = tmp_path / "g.col"
        col.write_text(f"p edge {n} 3\ne 2 3\ne 3 4\ne 2 4\n")
        forbid(monkeypatch, solver_dp._tcl_connected, "solved a clique component")
        forbid(monkeypatch, solver_pmc._tcl_connected, "solved a clique component")
        out = tmp_path / "d.tcd"
        assert main(["solve", "--input", str(col), "--algo", algo, "--out", str(out)]) == 0
        assert capsys.readouterr().out == "tcl 1\n"
        nodes = n - 2
        want = [f"tcd 1 {nodes} {n}", "b 1 1", "b 2 2 3 4"]
        want += [f"b {t} {t + 2}" for t in range(3, nodes + 1)]
        want += ["c 1 1", "c 2 2 3 4"] + [f"c {t} {t + 2}" for t in range(3, nodes + 1)]
        want += [f"t 1 {t}" for t in range(2, nodes + 1)]
        assert out.read_text() == "\n".join(want) + "\n"


class TestCliCograph:
    def test_solve(self, tmp_path, capsys):
        ct = tmp_path / "c4.ct"
        ct.write_text("(1 (0 a b) (0 c d))\n")
        assert main(["solve", "--cograph", str(ct)]) == 0
        assert capsys.readouterr().out == "tcl 2\n"

    def test_decision(self, tmp_path, capsys):
        ct = tmp_path / "c4.ct"
        ct.write_text("(1 (0 a b) (0 c d))\n")
        assert main(["solve", "--cograph", str(ct), "--k", "1"]) == 1
        assert capsys.readouterr().out == "NO\n"

    def test_rejects_out_and_algo(self, tmp_path, capsys):
        ct = tmp_path / "k2.ct"
        ct.write_text("(1 a b)\n")
        assert main(["solve", "--cograph", str(ct), "--out", str(tmp_path / "x")]) == 2
        assert main(["solve", "--cograph", str(ct), "--algo", "dp"]) == 2

    def test_malformed(self, tmp_path, capsys):
        ct = tmp_path / "bad.ct"
        ct.write_text("(1 a\n")
        assert main(["solve", "--cograph", str(ct)]) == 2

    def test_deep_caterpillar(self, tmp_path, capsys):
        # (1 v1 (0 v2 (1 v3 ... core))): on the leaf core v0 a threshold
        # graph, so chordal; on a C4 core each level keeps tcl at C4's 2
        depth = 100_000
        ct = tmp_path / "deep.ct"
        for core, k in (("v0", 1), ("(1 (0 a b) (0 c d))", 2)):
            ct.write_text("".join(f"({i % 2} v{i} " for i in range(1, depth + 1))
                          + core + ")" * depth + "\n")
            assert main(["solve", "--cograph", str(ct)]) == 0
            assert capsys.readouterr().out == f"tcl {k}\n"
            assert main(["solve", "--cograph", str(ct), "--k", str(k)]) == 0
            assert capsys.readouterr().out == "YES\n"
        assert main(["solve", "--cograph", str(ct), "--k", str(k - 1)]) == 1
        assert capsys.readouterr().out == "NO\n"


class TestCliPermutation:
    def test_solve(self, tmp_path, capsys):
        pi = tmp_path / "c4.pi"
        pi.write_text("3 4 1 2\n")
        assert main(["solve", "--perm", str(pi)]) == 0
        assert capsys.readouterr().out == "tcl 2\n"

    def test_decision_and_witness(self, tmp_path, capsys):
        pi = tmp_path / "c4.pi"
        pi.write_text("3 4 1 2\n")
        out = tmp_path / "d.tcd"
        assert main(["solve", "--perm", str(pi), "--k", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().out == "YES\n"
        d, n = parse_decomposition(out.read_text())
        assert validate(inversion_graph([3, 4, 1, 2]), d).ok
        assert width(d) <= 2
        assert main(["solve", "--perm", str(pi), "--k", "1"]) == 1
        assert capsys.readouterr().out == "NO\n"

    def test_not_a_permutation(self, tmp_path, capsys):
        pi = tmp_path / "bad.pi"
        pi.write_text("1 1 2\n")
        assert main(["solve", "--perm", str(pi)]) == 2

    def test_above_the_line_limit_exits_3(self, tmp_path, capsys, monkeypatch):
        forbid(monkeypatch, permutation.solve, "an oversized permutation reached the solver")
        pif = tmp_path / "big.pi"
        pif.write_text(serialize_permutation(list(range(4097, 0, -1))))
        assert main(["solve", "--perm", str(pif)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n=4097 exceeds the permutation limit of 4096 lines\n"

    def test_line_limit_is_inclusive(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "PERM_MAX_N", 4)
        pif = tmp_path / "p.pi"
        pif.write_text("4 3 2 1\n")
        assert main(["solve", "--perm", str(pif)]) == 0
        pif.write_text("5 4 3 2 1\n")
        assert main(["solve", "--perm", str(pif)]) == 3

    def test_n40_round_trip_and_decision(self, tmp_path, capsys):
        rng = random.Random(197)
        for _ in range(2):
            pi = gen_permutation(rng, 40)
            pif, col, out = tmp_path / "p.pi", tmp_path / "g.col", tmp_path / "d.tcd"
            pif.write_text(serialize_permutation(pi))
            col.write_text(serialize_graph(inversion_graph(pi)))
            assert main(["solve", "--perm", str(pif), "--out", str(out)]) == 0
            k = int(capsys.readouterr().out.split()[1])
            assert k >= 2
            assert main(["verify", str(col), str(out)]) == 0
            assert capsys.readouterr().out == f"valid: width {k}\n"
            assert main(["solve", "--perm", str(pif), "--k", str(k - 1)]) == 1
            assert capsys.readouterr().out == "NO\n"
            assert main(["solve", "--perm", str(pif), "--k", str(k), "--out", str(out)]) == 0
            assert capsys.readouterr().out == "YES\n"
            assert main(["verify", str(col), str(out)]) == 0
            assert capsys.readouterr().out == f"valid: width {k}\n"


class TestCliCover:
    def parse_cover(self, out):
        lines = out.strip().splitlines()
        k = int(lines[0].split()[1])
        cliques = [[int(x) - 1 for x in ln.split()[1:]] for ln in lines[1:]]
        return k, cliques

    def check_cover_output(self, g, out):
        k, cliques = self.parse_cover(out)
        assert len(cliques) == k
        seen = set()
        for cl in cliques:
            assert g.is_clique(mask_of(cl))
            for v in cl:
                assert v not in seen
                seen.add(v)
        assert seen == set(range(g.n))
        return k

    def test_methods_agree(self, c4_file, capsys):
        values = []
        for method in ("lawler", "ie"):
            assert main(["cover", "--input", c4_file, "--method", method]) == 0
            values.append(self.check_cover_output(cycle(4), capsys.readouterr().out))
        assert values == [2, 2]

    def test_removed_method_rejected(self, c4_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cover", "--input", c4_file, "--method", "fast"])
        assert exc.value.code == 2

    def test_capacity_exit(self, tmp_path, capsys):
        big = tmp_path / "big.col"
        big.write_text("p edge 65 0\n")
        assert main(["cover", "--input", str(big)]) == 3

    @pytest.mark.parametrize("method, expected", [
        ("lawler", "vcc 2\nclique 1 2\nclique 3 4\n"),
        ("ie", "vcc 2\nclique 2 3\nclique 1 4\n"),
    ])
    def test_c4_output(self, method, expected, c4_file, capsys):
        # Lawler breaks the tie at vertex 1 towards the smaller clique {1, 2}
        assert main(["cover", "--input", c4_file, "--method", method]) == 0
        assert capsys.readouterr().out == expected

    # sha256 of `tclq cover --method ie` stdout on `tclq gen --family random
    # --seed s --n 13 --p 0.5`, as the construction with one partition
    # count per trial printed it
    IE_STDOUT_SHA256 = {
        1: "7504776ac0762bba4b49a82955ab0790564ddb7b73903c845591665fcc9bb122",
        2: "bae751a65fe8f9ed150919d909f55d662b59231283439d002a81b5d0a2d9ee03",
        3: "f4fee0f29a5afa5e494f16f91bf739a756d98aa69e6354d5885229d8fa723134",
        4: "1a9d8e6d2dfb95481836d33115013436b36881d9205147b30a8759448593f694",
        5: "4b5dccf4e08dc2560352c366f18d14cdcca304107d8a609b754f076aa2adcb2c",
        6: "67ad539e686bf844d494ac923ef86393127f2b0bf8114397f1a682314d9f6e04",
        7: "77f4d81f1d356a25706803d11b0131e522e0775fafea520bdac64b86d81cb5d2",
        8: "cd84115bafdc58c79e450ff161603bd8b6d4252239b52a36405738865a02ac4f",
        9: "2424fe5028e7865331b97a0363104e74e5ba4f71a06dc8d4e18448fee91787c4",
        10: "fccd1386530a629ae2626f772cfe7efbf8701751a3e1f741197ee1e01d3e34e8",
    }

    # the same at n = 16 on a sparse and a dense shape, keyed by (p, seed)
    IE_STDOUT_SHA256_N16 = {
        (0.2, 1): "7519ff66f9a2c5bbb9dd875b3487d34c256791df221c5301db0617374c0144b1",
        (0.2, 2): "e3f9f3eebf6128bc1caa3798d76ebea901bba7bc97e91e9396f0ad678dce144f",
        (0.8, 1): "2f2b1c59ccd7e1a24cb2138e5639b578abe4db526360ae8017a1a3bbb8580ed4",
        (0.8, 2): "93c5e8baaa04d08643a272866f85ea3e39d2d2e163bc3e939330a181aaec33c6",
    }

    # the same at p = 0.5 towards TABLE_MAX_N = 20, keyed by (n, seed),
    # as the construction on list tables printed it
    IE_STDOUT_SHA256_LARGE = {
        (18, 1): "25aea26313870312b4db31f56f06b8d8b2c3e6a5426d83140376520fdb0cae91",
        (18, 2): "409b2c3169ba0f7adcb942c684f4d8ba7d5c4d3573d1aa7a5617e30096624688",
        (20, 1): "a56022021d2a6a3ea2b22a4a6584a854418b80860d6bc2cb656b19a69a31d313",
        (20, 2): "852ad18031711a01b15cf5eebecf272f60e61b708cda1e9763f45699980f66bb",
    }

    def ie_stdout_sha256(self, seed, n, p, tmp_path, capsys):
        col = str(tmp_path / "g.col")
        assert main(["gen", "--family", "random", "--seed", str(seed), "--n", str(n),
                     "--p", str(p), "--out", col]) == 0
        assert main(["cover", "--input", col, "--method", "ie"]) == 0
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    @pytest.mark.parametrize("seed", sorted(IE_STDOUT_SHA256))
    def test_ie_stdout_pinned(self, seed, tmp_path, capsys):
        assert self.ie_stdout_sha256(seed, 13, 0.5, tmp_path, capsys) == \
            self.IE_STDOUT_SHA256[seed]

    @pytest.mark.parametrize("p, seed", sorted(IE_STDOUT_SHA256_N16))
    def test_ie_stdout_pinned_n16(self, p, seed, tmp_path, capsys):
        assert self.ie_stdout_sha256(seed, 16, p, tmp_path, capsys) == \
            self.IE_STDOUT_SHA256_N16[p, seed]

    @pytest.mark.parametrize("n, seed", sorted(IE_STDOUT_SHA256_LARGE))
    def test_ie_stdout_pinned_large(self, n, seed, tmp_path, capsys):
        assert self.ie_stdout_sha256(seed, n, 0.5, tmp_path, capsys) == \
            self.IE_STDOUT_SHA256_LARGE[n, seed]

    def test_ie_k20(self, tmp_path, capsys):
        # the complement is edgeless: its table's lane V holds 2^20
        col = tmp_path / "k20.col"
        col.write_text(io.serialize_graph(complete(20)))
        assert main(["cover", "--input", str(col), "--method", "ie"]) == 0
        assert capsys.readouterr().out == \
            "vcc 1\nclique " + " ".join(str(v) for v in range(1, 21)) + "\n"

    @pytest.mark.parametrize("method", ["lawler", "ie"])
    def test_zero_vertices(self, method, tmp_path, capsys):
        col = tmp_path / "n0.col"
        col.write_text("p edge 0 0\n")
        assert main(["cover", "--input", str(col), "--method", method]) == 0
        assert capsys.readouterr().out == "vcc 0\n"

    @pytest.mark.parametrize("n, p", [(18, 0.5), (20, 0.7)])
    def test_lawler_builds_no_subset_table(self, n, p, tmp_path, capsys, monkeypatch):
        forbid_subset_tables(monkeypatch)
        g = gen_random(random.Random(n), n, p)
        col = tmp_path / "g.col"
        col.write_text(serialize_graph(g))
        assert main(["cover", "--input", str(col)]) == 0
        assert self.check_cover_output(g, capsys.readouterr().out) == vcc(g, g.full)[0]

    @pytest.mark.parametrize("method", ["lawler", "ie"])
    def test_declared_n_refused_before_building_the_graph(self, method, tmp_path, capsys):
        # a graph of 10^8 vertices would take gigabytes before any table
        big = tmp_path / "edgeless1e8.col"
        big.write_text("p edge 100000000 0\n")
        tracemalloc.start()
        try:
            code = main(["cover", "--input", str(big), "--method", method])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "subset-table limit" in capsys.readouterr().err
        assert peak < 1 << 20

    @pytest.mark.parametrize("method", ["lawler", "ie"])
    def test_table_limit_exit_before_allocating(self, method, tmp_path, capsys):
        # a table for 30 vertices would take gigabytes; the refusal must not
        big = tmp_path / "edgeless30.col"
        big.write_text("p edge 30 0\n")
        tracemalloc.start()
        try:
            code = main(["cover", "--input", str(big), "--method", method])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "subset-table limit" in capsys.readouterr().err
        assert peak < 1 << 20


class TestCliVerify:
    def test_valid(self, c4_file, tmp_path, capsys):
        out = tmp_path / "d.tcd"
        main(["solve", "--input", c4_file, "--algo", "dp", "--out", str(out)])
        capsys.readouterr()
        assert main(["verify", c4_file, str(out)]) == 0
        assert capsys.readouterr().out == "valid: width 2\n"

    def test_invalid_names_edge(self, c4_file, tmp_path, capsys):
        bad = tmp_path / "bad.tcd"
        bad.write_text(
            "tcd 1 2 4\nb 1 1 2\nb 2 3 4\nc 1 1 2\nc 2 3 4\nt 1 2\n"
        )
        assert main(["verify", c4_file, str(bad)]) == 1
        out = capsys.readouterr().out
        assert "edge coverage" in out and "invalid" in out

    def test_vertex_count_mismatch(self, c4_file, tmp_path, capsys):
        other = tmp_path / "k1.tcd"
        other.write_text("tcd 1 1 1\nb 1 1\nc 1 1\n")
        assert main(["verify", c4_file, str(other)]) == 1
        assert "over 1 vertices" in capsys.readouterr().out

    def test_huge_header_n_refused_before_any_mask(self, tmp_path, capsys, monkeypatch):
        def refuse(vertices):
            pytest.fail("verify built a mask over the header's n")

        monkeypatch.setattr(io, "mask_of", refuse)
        col, tcd = tmp_path / "k2.col", tmp_path / "huge.tcd"
        col.write_text("p edge 2 1\ne 1 2\n")
        tcd.write_text("tcd 1 1 100000000000\nb 1 100000000000\n")
        assert main(["verify", str(col), str(tcd)]) == 1
        assert capsys.readouterr().out == (
            "invalid: decomposition is over 100000000000 vertices, graph has 2\n")

    def test_declared_n_above_the_input_limit_refused(self, tmp_path, capsys):
        # an edgeless graph of 10^6 vertices would take tens of GB of masks
        big = tmp_path / "edgeless1e6.col"
        big.write_text("p edge 1000000 0\n")
        for argv in (["solve", "--input", str(big)], ["verify", str(big), str(big)]):
            tracemalloc.start()
            try:
                code = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            captured = capsys.readouterr()
            assert code == 3 and captured.out == ""
            assert captured.err == "error: n=1000000 exceeds the input limit of 65536 vertices\n"
            assert peak < 1 << 20

    def test_input_limit_boundary(self):
        assert io.parse_graph(f"p edge {cli.INPUT_MAX_N} 0\n",
                              check_n=cli.check_input_size).n == 65536
        with pytest.raises(CapacityError):
            io.parse_graph("p edge 65537 0\n", check_n=cli.check_input_size)

    def test_malformed_header(self, c4_file, tmp_path, capsys):
        bad = tmp_path / "bad.tcd"
        bad.write_text("tcd 1 1\n")
        assert main(["verify", c4_file, str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err


# Every size limit of the command line, one row each: the input file,
# the command ({f} names the file) and the one stderr line it must print.
_COMPONENT = "n=65 exceeds the component limit of 64 vertices"
_INPUT = "n=65537 exceeds the input limit of 65536 vertices"
_TABLE = "n=21 exceeds the subset-table limit of 20 vertices"
REFUSALS = [
    pytest.param(serialize_graph(path(65)), ["solve", "--input", "{f}", "--algo", algo],
                 _COMPONENT, id=f"component-{algo}")
    for algo in ("dp", "pmc", "auto")
] + [
    pytest.param("p edge 65537 0\n", ["solve", "--input", "{f}"], _INPUT, id="input-solve"),
    pytest.param("p edge 65537 0\n", ["verify", "{f}", "{f}"], _INPUT, id="input-verify"),
    pytest.param(serialize_permutation(range(4097, 0, -1)), ["solve", "--perm", "{f}"],
                 "n=4097 exceeds the permutation limit of 4096 lines", id="permutation"),
] + [
    pytest.param(serialize_graph(path(21)), ["cover", "--input", "{f}", "--method", method],
                 _TABLE, id=f"subset-table-{method}")
    for method in ("lawler", "ie")
] + [
    pytest.param(serialize_graph(path(17)), ["solve", "--input", "{f}", "--algo", "oracle"],
                 "n=17 exceeds the oracle limit of 16 vertices", id="oracle"),
]


class TestRefusals:
    @pytest.mark.parametrize("text, argv, message", REFUSALS)
    def test_exit_3_and_one_error_line(self, text, argv, message, tmp_path, capsys):
        f = tmp_path / "input"
        f.write_text(text)
        assert main([arg.format(f=f) for arg in argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestCliGen:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.col", tmp_path / "b.col"
        for target in (a, b):
            main(["gen", "--family", "random", "--seed", "5", "--n", "9",
                  "--p", "0.4", "--out", str(target)])
        assert a.read_text() == b.read_text()

    def test_ktree_output(self, tmp_path, capsys):
        out = tmp_path / "kt.col"
        assert main(["gen", "--family", "ktree", "--seed", "2", "--n", "8",
                     "--k", "2", "--out", str(out)]) == 0
        g = parse_graph(out.read_text())
        assert is_chordal(g)

    def test_cograph_output(self, tmp_path):
        out = tmp_path / "t.ct"
        main(["gen", "--family", "cograph", "--seed", "3", "--n", "7", "--out", str(out)])
        g = cotree_to_graph(parse_and_binarize(out.read_text()))
        assert g.n == 7 and is_p4_free(g)

    def test_permutation_output(self, tmp_path):
        out = tmp_path / "p.pi"
        main(["gen", "--family", "permutation", "--seed", "4", "--n", "6",
              "--out", str(out)])
        pi = parse_permutation(out.read_text())
        assert sorted(pi) == list(range(1, 7))

    @pytest.mark.parametrize("family", ["permutation", "cograph"])
    def test_draws_what_gen_corpora_draws(self, family, tmp_path):
        out = tmp_path / "inst"
        for seed in range(1, 6):
            for n in (1, 7, 40):
                assert main(["gen", "--family", family, "--seed", str(seed), "--n", str(n),
                             "--out", str(out)]) == 0
                inst = gen_corpora(seed, family, n=n)[0][0]
                want = serialize_permutation(inst) if family == "permutation" else inst + "\n"
                assert out.read_text() == want, (seed, n)

    @pytest.mark.parametrize("family", ["permutation", "cograph"])
    def test_builds_no_graph(self, family, monkeypatch, capsys):
        forbid(monkeypatch, inversion_graph, "gen built the inversion graph")
        forbid(monkeypatch, cotree_to_graph, "gen built the cograph")
        assert main(["gen", "--family", family, "--seed", "1", "--n", "40"]) == 0

    def test_reduction_output(self, tmp_path):
        out = tmp_path / "h.col"
        main(["gen", "--family", "reduction", "--seed", "6", "--n", "4",
              "--apexes", "4", "--out", str(out)])
        g = parse_graph(out.read_text())
        assert g.n == 8

    def test_stdout_default(self, capsys):
        assert main(["gen", "--family", "permutation", "--seed", "8", "--n", "5"]) == 0
        pi = parse_permutation(capsys.readouterr().out)
        assert sorted(pi) == [1, 2, 3, 4, 5]

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--family", "grid", "--seed", "1", "--n", "4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_permutation_needs_a_line(self, n, tmp_path, capsys):
        out = tmp_path / "p.pi"
        assert main(["gen", "--family", "permutation", "--seed", "1", "--n", n,
                     "--out", str(out)]) == 2
        assert "need n >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--family", "random", "--n", "2", "--p", "0", "--connected"],
        ["--family", "reduction", "--n", "5", "--p", "0"],
    ])
    def test_connected_needs_edges(self, argv, tmp_path, capsys):
        # G(n, 0) with n >= 2 is never connected, so resampling cannot end
        out = tmp_path / "g.col"
        assert main(["gen", "--seed", "1", *argv, "--out", str(out)]) == 2
        assert "never connected" in capsys.readouterr().err
        assert not out.exists()

    def test_connected_gives_up_on_tiny_p(self, tmp_path, capsys):
        # G(30, 0.001) is almost never connected: the draw cap ends it
        out = tmp_path / "g.col"
        assert main(["gen", "--family", "random", "--seed", "1", "--n", "30", "--p", "0.001",
                     "--connected", "--out", str(out)]) == 2
        assert f"in {CONNECTED_DRAWS} draws" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("p", ["2", "-0.1", "nan"])
    def test_random_edge_probability_in_unit_interval(self, p, tmp_path, capsys):
        out = tmp_path / "g.col"
        assert main(["gen", "--family", "random", "--seed", "1", "--n", "5", "--p", p,
                     "--out", str(out)]) == 2
        assert "edge probability" in capsys.readouterr().err
        assert not out.exists()


class TestParserReuse:
    """main builds its parser on the first call and reuses it."""

    def test_usage_errors_exit_2_on_every_call(self, c4_file, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["cover", "--input", c4_file, "--method", "fast"])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err
            with pytest.raises(SystemExit) as exc:
                main(["frobnicate"])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err
            assert main(["solve", "--input", c4_file, "--k", "0"]) == 2
            assert "--k must be at least 1" in capsys.readouterr().err

    def test_options_do_not_carry_over(self, c4_file, capsys):
        assert main(["cover", "--input", c4_file, "--method", "ie"]) == 0
        assert main(["cover", "--input", c4_file]) == 0
        assert capsys.readouterr().out == ("vcc 2\nclique 2 3\nclique 1 4\n"
                                           "vcc 2\nclique 1 2\nclique 3 4\n")

    def test_built_once(self, c4_file, capsys, monkeypatch):
        cli._parser.cache_clear()
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        for argv in (["solve", "--input", c4_file], ["cover", "--input", c4_file]):
            assert main(argv) == 0
        with pytest.raises(SystemExit):
            main(["gen"])
        assert built == [1]


class TestConsoleScript:
    def test_entry_point(self, tmp_path):
        col = tmp_path / "c4.col"
        col.write_text(C4_COL)
        proc = subprocess.run(
            [sys.executable, "-m", "tclq.cli", "solve", "--input", str(col)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "tcl 2\n"

    def test_no_decision_exit_code(self, tmp_path):
        col = tmp_path / "c4.col"
        col.write_text(C4_COL)
        proc = subprocess.run(
            [sys.executable, "-m", "tclq.cli", "solve", "--input", str(col), "--k", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == "NO\n"
