#!/usr/bin/env python3
"""Steadiness mode: run one workload of the benchmark several times,
each with its own seed, and print every end-to-end metric's run-to-run
spread against the bound BENCHMARK.json fixes for it.

The spread is the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median. A metric is
"steady" below a third of its bound; setup_s is reported but has no
spread requirement.

    python3 perfledger/steady.py --workload serve_mixed --runs 10 --seed0 1

Run from the repository root. Exits 1 if a run fails or a spread other
than setup_s exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()

    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for i in range(args.runs):
        seed = args.seed0 + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        start = time.time()
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        wall = time.time() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}", file=sys.stderr)
            return 1
        row = []
        for name in values:
            v = result["metrics"][name]["value"]
            values[name].append(v)
            row.append(f"{name}={v:.6g}")
        print(f"seed {seed} ({wall:.1f} s): " + " ".join(row), flush=True)

    worst = 0
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<14} {'median':>14} {'spread':>8} {'bound':>6}  verdict")
    for m in bench["end_to_end"]:
        vs = values[m["name"]]
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = m["bound"]
        if m["name"] == "setup_s":
            verdict = "(not required)"
        elif spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound, not steady"
        else:
            verdict = "TOO WIDE"
            worst = 1
        print(f"{m['name']:<14} {med:>14.6g} {spread:>8.4f} {bound:>6}  {verdict}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
