"""Self-tests of the benchmark: instance determinism, the correctness
gate, the tracer, the statistics and the host speed scaling.  Small
inputs only; run with

    python3 -m pytest -q bench/tests
"""

import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

C4 = "p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n"


def _c4_op(tmp_path):
    col = tmp_path / "c4.col"
    col.write_text(C4)
    out = str(tmp_path / "c4.tcd")
    return Op("c4", ["solve", "--input", str(col), "--out", out], "solver_dp",
              str(col), graph=str(col), out=out)


def _execute(op):
    code, stdout, error = check.run_cli(op.argv)
    with open(op.out, "rb") as fh:
        return code, stdout, error, fh.read()


def test_same_seed_regenerates_identical_files(tmp_path):
    for workload in ("random", "cover", "structured"):
        a, b, c = (str(tmp_path / f"{workload}-{x}") for x in "abc")
        ops_a = workloads.build(workload, 7, a)
        ops_b = workloads.build(workload, 7, b)
        workloads.build(workload, 8, c)
        assert [o.name for o in ops_a] == [o.name for o in ops_b]
        assert sorted(os.listdir(a)) == sorted(os.listdir(b))
        for name in os.listdir(a):
            with open(os.path.join(a, name), "rb") as fa, \
                    open(os.path.join(b, name), "rb") as fb:
                assert fa.read() == fb.read(), name
        assert workloads.fingerprint(a) == workloads.fingerprint(b)
        assert workloads.fingerprint(a) != workloads.fingerprint(c)


def test_random_and_random_dp_share_instances(tmp_path):
    workloads.build("random", 3, str(tmp_path / "a"))
    workloads.build("random-dp", 3, str(tmp_path / "b"))
    assert workloads.fingerprint(str(tmp_path / "a")) == \
        workloads.fingerprint(str(tmp_path / "b"))


def test_correct_execution_passes(tmp_path):
    op = _c4_op(tmp_path)
    code, stdout, error, tcd = _execute(op)
    assert stdout == "tcl 2\n"
    assert check.Gate({"c4": 2}).errors(op, code, stdout, error, tcd) == []


def test_corrupted_tcd_is_a_failure(tmp_path):
    op = _c4_op(tmp_path)
    code, stdout, error, tcd = _execute(op)
    lines = tcd.decode().split("\n")
    first_bag = next(i for i, line in enumerate(lines) if line.startswith("b "))
    lines[first_bag] = " ".join(lines[first_bag].split()[:-1])  # drop a vertex
    errors = check.Gate().errors(op, code, stdout, error, "\n".join(lines).encode())
    assert errors and "verify" in errors[0]
    assert check.Gate().errors(op, code, stdout, error, None) == ["no decomposition written"]


def test_wrong_pinned_answer_is_a_failure(tmp_path):
    op = _c4_op(tmp_path)
    code, stdout, error, tcd = _execute(op)
    errors = check.Gate({"c4": 3}).errors(op, code, stdout, error, tcd)
    assert errors == ["answer 2, pinned 3"]
    assert check.Gate({}).errors(op, code, stdout, error, tcd) == ["no pinned answer"]


def test_wrong_answer_is_a_failure(tmp_path):
    op = _c4_op(tmp_path)
    code, _, error, tcd = _execute(op)
    errors = check.Gate().errors(op, code, "tcl 1\n", error, tcd)
    assert "answer 1, reference (solver_dp) 2" in errors
    assert check.Gate().errors(op, 1, "", "boom", tcd) == ["exit 1: boom"]


def test_cover_output_must_partition_v(tmp_path):
    col = tmp_path / "c4.col"
    col.write_text(C4)
    op = Op("c4", ["cover", "--input", str(col)], "vcc", str(col))
    code, stdout, error = check.run_cli(op.argv)
    assert check.Gate().errors(op, code, stdout, error, None) == []
    bad = "vcc 2\nclique 1 2\nclique 2 3\n"
    errors = check.Gate().errors(op, 0, bad, "", None)
    assert any("overlaps" in e for e in errors)
    assert any("do not cover" in e for e in errors)


def test_cotree_fold_reference_matches_tclq():
    from tclq import cograph, generators

    rng = random.Random(5)
    for n in (1, 2, 5, 12, 40):
        text = generators.gen_cotree_text(rng, n)
        expected = cograph.compute_tcl(cograph.parse_and_binarize(text))[0]
        assert check._fold(text) == expected


def test_tracer_patches_every_binding_and_restores(tmp_path):
    from tclq import cli, cover, solver_dp, solver_pmc

    original = cover.lawler_table
    op = _c4_op(tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert solver_pmc.lawler_table is not original
        assert solver_dp.lawler_table is cover.lawler_table is cli.lawler_table
        code, stdout, _ = check.run_cli(op.argv)
    assert code == 0 and stdout == "tcl 2\n"
    assert solver_pmc.lawler_table is original and cli.lawler_table is original
    assert tracer.counts["cover.tables"] == 1
    assert tracer.counts["cover.table_entries"] == 16
    assert tracer.counts["graph.is_pmc_calls"] == 16
    assert tracer.counts["solver_pmc.pmcs"] == 4  # the four triangles of C4's two fills
    assert abs(sum(tracer.self_s.values()) - tracer.covered_s) < 1e-9


def test_tracer_counts_block_entries_through_entries(tmp_path):
    # two four-cycles sharing vertex 1: at k = 1 the cut vertex is a
    # candidate separator, so the decision fills block entries
    col = tmp_path / "c4c4.col"
    col.write_text("p edge 7 8\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n"
                   "e 1 5\ne 5 6\ne 6 7\ne 7 1\n")
    tracer = tracing.Tracer()
    with tracer.installed():
        code, stdout, _ = check.run_cli(["solve", "--input", str(col), "--algo", "dp"])
    assert code == 0 and stdout == "tcl 2\n"
    assert tracer.counts["solver_dp.decide_calls"] == 2  # k = 1 fails, k = 2 holds
    assert tracer.counts["solver_dp.block_entries"] > 0


def test_removed_function_reads_zero(tmp_path, monkeypatch):
    from tclq import cover

    monkeypatch.delattr(cover, "ie_count_partitions")
    tracer = tracing.Tracer()
    with tracer.installed():
        code, _, _ = check.run_cli(_c4_op(tmp_path).argv)
    assert code == 0
    assert tracer.counts["cover.ie_partition_calls"] == 0


def test_end_to_end_statistics():
    ops = [Op(f"o{i}", [], "ktree", "") for i in range(20)]
    samples = [[(float(i + 1), None), (float(i + 1) * 3, None), (float(i + 1), None)]
               for i in range(20)]
    metrics, detail = run.end_to_end(ops, samples, 0.5, 10.0)
    assert metrics["wall_s"][0] == sum(range(1, 21))
    assert metrics["p50_s"][0] == 10.5
    assert metrics["tail_s"][0] == 10.0  # ten per-op values lie above it
    assert detail["tail_percentile"] == 50.0 and detail["tail_samples"] == 20


def test_host_speed_scales_to_reference_seconds():
    speed = run.HostSpeed()
    for _ in range(3):
        speed.sample()
    assert len(speed.samples) == 1  # at most one kernel run per REF_EVERY_S
    speed.samples = [0.004, 0.010, 0.012]
    assert speed.scale() == run.REF_S / 0.010


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ops = [Op(f"o{i}", [], "ktree", "") for i in range(12)]
    samples = [[(0.1, None)] for _ in ops]
    traced = [[(0.2, tracing.Tracer())] for _ in ops]
    e2e, _ = run.end_to_end(ops, samples, 0.5, 10.0)
    layers = run.per_layer(samples, traced)
    for declared, measured in ((spec["end_to_end"], e2e), (spec["per_layer"], layers)):
        assert {m["name"]: m["unit"] for m in declared} == \
            {name: unit for name, (_, unit) in measured.items()}
    assert abs(layers["cli.other_s"][0] - layers["trace.op_s"][0]) < 1e-9
    assert abs(layers["trace.overhead_s"][0] - 12 * 0.1) < 1e-9


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cover",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
