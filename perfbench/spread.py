#!/usr/bin/env python3
"""Runs one workload on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload replay_sync --seeds 1-10

Each run is untraced and lasts BENCHMARK.json's run_seconds.  For every
end-to-end metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the quartile distance as a share
of the median, next to the bound BENCHMARK.json gives the metric.  Runs are
made one after the other through perfbench/run.py, from the checkout root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit("seed %d: run failed (exit %d)" % (seed, done.returncode))
        result = json.loads(lines[-1])
        runs.append({"seed": seed, **result})
        print("seed %d correct=%s attempted=%d failed=%d" %
              (seed, result["correct"], result["attempted"], result["failed"]), flush=True)
    print("%-30s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "iqr/med", "bound"))
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        print("%-30s %14.6g %14.6g %14.6g %8.3f %6s" %
              (name, med, q1, q3, share, "-" if bound is None else bound))
    failed_share = {r["failed"] / r["attempted"] for r in runs}
    print("failed/attempted shares:", sorted(failed_share))


if __name__ == "__main__":
    main()
