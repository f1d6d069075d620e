#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/steadiness.py --workload tsvc-search --seeds 1-10
    python3 perfbench/steadiness.py --workload serve-replay --seeds 1-5 --trace 1

Each run uses the command and `run_seconds` in BENCHMARK.json. For every
metric it prints the median, the first and third quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread
(Q3 - Q1) / median next to the metric's bound. With `--repeat` it runs
the first seed once more, and once traced, and checks that the output
digest is the same every time (determinism guard). `--json PATH` saves
every run's result line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_from(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    digest = next((l.split()[-1] for l in lines if l.strip().startswith("output digest")), None)
    return result, digest


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--repeat", action="store_true")
    ap.add_argument("--json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    table = bench["per_layer" if args.trace else "end_to_end"]
    values = {m["name"]: [] for m in table}
    results = []
    for seed in seeds_from(args.seeds):
        result, digest = run(bench, args.workload, seed, args.trace)
        results.append({"seed": seed, "digest": digest, "result": result})
        flag = "" if result["correct"] else "  NOT CORRECT"
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} digest {digest}{flag}",
              flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    print(f"\n{args.workload}: {len(results)} runs")
    print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for m in table:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = m.get("bound")
        mark = "" if bound is None or spread <= bound / 3 else "  > bound/3"
        bound_s = f"{bound:>6}" if bound is not None else "     -"
        print(f"  {m['name']:<28} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.4f} {bound_s}{mark}")

    ok = True
    if args.repeat:
        first = results[0]
        again, digest = run(bench, args.workload, first["seed"], args.trace)
        traced, traced_digest = run(bench, args.workload, first["seed"], 1)
        same = first["digest"] == digest == traced_digest
        ok = same and again["correct"] and traced["correct"]
        print(f"\ndeterminism: seed {first['seed']} digests {first['digest']} {digest} (traced {traced_digest}): "
              + ("identical" if same else "DIFFERENT"))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)
    sys.exit(0 if ok and all(r["result"]["correct"] for r in results) else 1)


if __name__ == "__main__":
    main()
