"""Steadiness of the benchmark: run each workload many times, each run in
its own process with its own seed, and print the median and quartiles of
every end-to-end metric.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads verify_files --first-seed 11

Runs go round the workloads in turn, so a slow drift of the machine reaches
every workload alike.  The spread is (Q3 - Q1) / median, with the quartiles
of ``statistics.quantiles(values, n=4)``; it is compared with the metric's
bound in BENCHMARK.json and with a third of that bound, the target.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    names = args.workloads.split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    results: dict[str, list[dict]] = {name: [] for name in names}
    for i in range(args.runs):
        seed = args.first_seed + i
        for name in names:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            results[name].append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} {values}\n  {proc.stderr.strip().splitlines()[-1]}", file=sys.stderr)

    print(f"{'workload':<14}{'metric':<13}{'median':>11}{'q1':>11}{'q3':>11}{'spread':>8}{'bound':>7}  verdict")
    ok = True
    for name in names:
        runs = results[name]
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1 or not all(r["correct"] for r in runs):
            print(f"{name}: failed shares {sorted(shares)}, correct {[r['correct'] for r in runs]}")
            ok = False
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            bound = bounds[metric]["bound"]
            verdict = "steady" if spread < bound / 3 else "within bound" if spread < bound else "TOO WIDE"
            if metric == "setup_s":
                verdict += " (not gated)"
            elif spread >= bound:
                ok = False
            print(f"{name:<14}{metric:<13}{med:>11.5g}{q1:>11.5g}{q3:>11.5g}{spread:>8.3f}{bound:>7}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
