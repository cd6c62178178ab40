#!/usr/bin/env python3
"""Steadiness runner: two interleaved sets of ten runs of one workload on the
same build, run i of each set with seed i (1-10).

    python3 perfbench/steady.py --workload t91_cold

The sets alternate run by run, so drift on the host spreads over both. For
every end-to-end metric it prints each set's median and quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median against the
metric's bound in BENCHMARK.json, and how far the second set's median moved
from the first's in the worse direction. Exits 1 when a run fails or a
spread or shift exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        print("run failed: seed %d exit %d" % (seed, proc.returncode))
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    values = [{m["name"]: [] for m in metrics} for _ in range(SETS)]
    ok = True
    for seed in SEEDS:
        for s in range(SETS):
            result = run_once(args.workload, seed, bench["run_seconds"])
            if result is None:
                ok = False
                continue
            line = []
            for m in metrics:
                v = result["metrics"][m["name"]]["value"]
                values[s][m["name"]].append(v)
                line.append("%s=%.6g" % (m["name"], v))
            print("set %d seed %d: %s" % (s, seed, " ".join(line)), flush=True)

    print("\n%-24s %4s %12s %12s %12s %8s %8s %8s" %
          ("metric", "set", "median", "q1", "q3", "spread", "shift", "bound"))
    for m in metrics:
        name, bound = m["name"], m["bound"]
        medians = []
        for s in range(SETS):
            vals = values[s][name]
            if len(vals) < 2:
                ok = False
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            medians.append(med)
            spread = (q3 - q1) / med if med else 0.0
            shift = 0.0
            if s == 1 and len(medians) == 2:
                worse = medians[1] - medians[0] if m["better"] == "lower" \
                    else medians[0] - medians[1]
                shift = worse / medians[0] if medians[0] else 0.0
            flag = ""
            if spread > bound:
                flag, ok = " SPREAD>BOUND", False
            elif spread > bound / 3:
                flag = " spread>bound/3"
            if shift > bound:
                flag, ok = flag + " SHIFT>BOUND", False
            print("%-24s %4d %12.6g %12.6g %12.6g %8.4f %8.4f %8.3f%s" %
                  (name, s, med, q1, q3, spread, shift, bound, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
