"""tclq benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload random --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a fresh worker
process (this script again, with --worker), which drives
``tclq.cli.main(argv)`` in process, one operation at a time, in a closed
loop.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics
under --trace 1.  The line before it is {"detail": {...}}: instance-set
fingerprint, host speed, the times before scaling, tail percentile and
sample count, fail_rate, the first failures, and the per-operation
answers.  See README.md.

Times are reference seconds: measured seconds scaled by the host's speed
during the run, as measured by a fixed kernel (``reference_kernel``).
"""

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import check
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
SETUP_REPS = 7
WORKER_TIMEOUT_S = 170

# The host is shared: its speed drifts by up to 2x over seconds to
# minutes, and whole runs land in slow or fast spells.  A fixed kernel
# that runs no tclq code is timed between operations, at most once every
# REF_EVERY_S, and every time metric is scaled by REF_S over its median in
# the run.  A change to tclq moves the operations and not the kernel.
REF_S = 0.005
REF_EVERY_S = 0.1
REF_BITS = 13


def reference_kernel() -> float:
    """Seconds for one fixed subset DP over 2^REF_BITS entries.

    Pure Python in the style of the cover table (bit tricks, list
    indexing, a min over submasks), so a slow spell of the host slows it
    as it slows the solvers.
    """
    size = 1 << REF_BITS
    adj = [(i * 2654435761 >> 7) & (size - 1) for i in range(REF_BITS)]
    values = [0] * size
    t0 = time.perf_counter()
    for s in range(1, size):
        v = (s & -s).bit_length() - 1
        d = s & adj[v]
        best = values[s & ~(d | 1 << v)]
        while d:
            d &= d - 1
            c = values[s & ~(d | 1 << v)]
            if c < best:
                best = c
        values[s] = best + 1
    return time.perf_counter() - t0


class HostSpeed:
    """Reference kernel timings, taken at most every REF_EVERY_S."""

    def __init__(self):
        self.samples = []
        self._last = float("-inf")

    def sample(self) -> None:
        if time.perf_counter() - self._last >= REF_EVERY_S:
            self.samples.append(reference_kernel())
            self._last = time.perf_counter()

    def scale(self) -> float:
        """Reference seconds per measured second in this run."""
        return REF_S / statistics.median(self.samples)


def _purge_tclq() -> None:
    for name in [m for m in sys.modules if m == "tclq" or m.startswith("tclq.")]:
        del sys.modules[name]


def setup(workload: str, seed: int, work: str, speed: HostSpeed):
    """Import tclq, generate and write the instances, SETUP_REPS times.

    Returns (median seconds, ops of the last repetition, its directory).
    Each repetition imports tclq afresh and writes into a fresh directory.
    """
    times = []
    for rep in range(SETUP_REPS):
        speed.sample()
        d = os.path.join(work, f"rep{rep}")
        t0 = time.perf_counter()
        _purge_tclq()
        import tclq.cli  # noqa: F401  (timed: import is part of set-up)
        ops = workloads.build(workload, seed, d)
        times.append(time.perf_counter() - t0)
        if rep:
            shutil.rmtree(os.path.join(work, f"rep{rep - 1}"))
    return statistics.median(times), ops, d


def _execute(op, traced: bool):
    """Run op once; (seconds, tracer or None, code, stdout, error, tcd bytes)."""
    if op.out is not None and os.path.exists(op.out):
        os.remove(op.out)
    tracer = tracing.Tracer() if traced else None
    # Start each execution with no garbage left by the ones before it, as
    # a fresh `tclq` process would, so that where the collector runs
    # inside the operation does not depend on what ran before it.
    gc.collect()
    with tracer.installed() if traced else contextlib.nullcontext():
        t0 = time.perf_counter()
        code, stdout, error = check.run_cli(op.argv)
        dt = time.perf_counter() - t0
    tcd = None
    if op.out is not None and os.path.exists(op.out):
        with open(op.out, "rb") as fh:
            tcd = fh.read()
    return dt, tracer, code, stdout, error, tcd


def measure(ops, seconds: float, trace: bool, speed: HostSpeed):
    """Closed loop over ops for `seconds` seconds, one execution at a time.

    One untimed warm-up execution per distinct command shape comes first.
    Then passes over ops repeat until the time is up; the first pass
    always completes.  With trace, each execution is an untraced run
    followed by a traced one.  Between executions, outside their timing,
    ``speed`` samples the reference kernel.

    Returns per-op (seconds, tracer) lists, untraced and traced, every
    execution's output, and the peak RSS of the loop in MB.
    """
    shapes = {}
    for op in ops:
        shapes.setdefault(tuple(a for a in op.argv if not os.path.isabs(a)), op)
    for op in shapes.values():
        _execute(op, False)
    samples = [[] for _ in ops]
    traced = [[] for _ in ops]
    results = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(ops) or time.perf_counter() < deadline:
        k = i % len(ops)
        for t in ((False, True) if trace else (False,)):
            dt, tracer, code, stdout, error, tcd = _execute(ops[k], t)
            (traced if t else samples)[k].append((dt, tracer))
            results.append((k, code, stdout, error, tcd))
            speed.sample()
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return samples, traced, results, peak_rss_mb


def end_to_end(ops, samples, setup_s: float, peak_rss_mb: float):
    medians = [statistics.median(dt for dt, _ in s) for s in samples]
    per_op = sorted(medians)
    n = len(per_op)
    # the highest percentile with at least ten samples beyond it
    rank = max(n - 10, 1)
    metrics = {
        "wall_s": (sum(per_op), "s"),
        "gmean_s": (math.exp(sum(math.log(v) for v in per_op) / n), "s"),
        "p50_s": (statistics.median(per_op), "s"),
        "tail_s": (per_op[rank - 1], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    detail = {"tail_percentile": round(100.0 * rank / n, 2), "tail_samples": n,
              "per_op_s": {op.name: round(m, 6) for op, m in zip(ops, medians)}}
    return metrics, detail


def per_layer(samples, traced):
    def mean(xs):
        return sum(xs) / len(xs)

    totals = {f"{layer}_s": 0.0 for layer in tracing.TIME_LAYERS}
    totals.update({name: 0 for name in tracing.COUNTS})
    hits = calls = 0.0
    other = op_s = untraced = 0.0
    for plain, runs in zip(samples, traced):
        for layer in tracing.TIME_LAYERS:
            totals[f"{layer}_s"] += mean([t.self_s[layer] for _, t in runs])
        for name in tracing.COUNTS:
            totals[name] += mean([t.counts[name] for _, t in runs])
        hits += mean([t.counts["graph.pmc_hits"] for _, t in runs])
        calls += mean([t.counts["graph.is_pmc_calls"] for _, t in runs])
        other += mean([dt - t.covered_s for dt, t in runs])
        op_s += mean([dt for dt, _ in runs])
        untraced += mean([dt for dt, _ in plain])
    metrics = {}
    for name, value in totals.items():
        metrics[name] = (value, "s" if name.endswith("_s") else "count")
    metrics["graph.pmc_hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
    metrics["cli.other_s"] = (other, "s")
    metrics["trace.op_s"] = (op_s, "s")
    metrics["trace.untraced_op_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (op_s - untraced, "s")
    return metrics


def load_pinned(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
        return json.load(fh)[workloads.pin_group(workload)]


def worker(args) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    speed = HostSpeed()
    try:
        setup_s, ops, d = setup(args.workload, args.seed, work, speed)
        fp = workloads.fingerprint(d)
        gate = check.Gate(load_pinned(args.workload, args.seed))
        samples, traced, results, rss = measure(ops, args.seconds, bool(args.trace),
                                                speed)
        failures = []
        answers = {}
        for k, code, stdout, error, tcd in results:
            errs = gate.errors(ops[k], code, stdout, error, tcd)
            if errs:
                failures.append(f"{ops[k].name}: {'; '.join(errs)}")
            answers.setdefault(ops[k].name, stdout.split("\n")[0])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(os.path.dirname(work))
    if args.trace:
        metrics, detail = per_layer(samples, traced), {}
    else:
        metrics, detail = end_to_end(ops, samples, setup_s, rss)
    scale = speed.scale()
    detail["measured_s"] = {k: v for k, (v, u) in metrics.items() if u == "s"}
    metrics = {k: (v * scale if u == "s" else v, u) for k, (v, u) in metrics.items()}
    detail.update({
        "reference_kernel_s": statistics.median(speed.samples),
        "reference_samples": len(speed.samples), "scale": scale,
        "workload": args.workload, "seed": args.seed, "fingerprint": fp,
        "operations": len(ops), "executions": len(results),
        "fail_rate": len(failures) / len(results), "failures": failures[:10],
        "answers": answers,
    })
    return {
        "detail": detail,
        "result": {
            "correct": not failures,
            "attempted": len(results),
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.worker:
        print(json.dumps(worker(args)))
        return 0
    if not os.path.isfile(os.path.join(ROOT, "src", "tclq", "cli.py")):
        print("error: tclq sources not found under src/; run from a full checkout",
              file=sys.stderr)
        return 2
    cmd = [sys.executable, os.path.abspath(__file__), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    out = json.loads(lines[-1])
    print(json.dumps({"detail": out["detail"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
