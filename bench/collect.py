"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/collect.py --workloads random cover --seeds 1-10 --out runs.json

For every workload and seed it runs ``bench/run.py`` once (sequentially,
so runs never share the machine's cores) and records the result line and
the detail line.  The summary gives, per end-to-end metric, the median,
the quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().split("\n")
    return {"seed": seed, "elapsed_s": elapsed, "detail": json.loads(lines[-2])["detail"],
            "result": json.loads(lines[-1])}


def summarize(runs, bounds) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        entry = {"median": med, "unit": runs[0]["result"]["metrics"][name]["unit"]}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
        if name in bounds:
            entry["bound"] = bounds[name]
        out[name] = entry
    out["elapsed_s_max"] = max(r["elapsed_s"] for r in runs)
    out["failed"] = sum(r["result"]["failed"] for r in runs)
    out["attempted"] = sum(r["result"]["attempted"] for r in runs)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="1-10", help="a range 1-10 or a list 1,4,7")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--out", required=True, help="JSON file for the runs and summary")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds, args.trace) for seed in _seeds(args.seeds)]
        summary = summarize(runs, bounds)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        print(f"{workload}: failed {summary['failed']}/{summary['attempted']}, "
              f"longest run {summary['elapsed_s_max']:.1f} s")
        for name, e in summary.items():
            if isinstance(e, dict) and e.get("spread") is not None:
                flag = ""
                if "bound" in e and name != "setup_s" and e["spread"] > e["bound"] / 3:
                    flag = "  above bound/3"
                print(f"  {name:24s} median {e['median']:.5g} {e['unit']:5s} "
                      f"spread {e['spread']:.3f}{flag}")
        sys.stdout.flush()
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
