#!/usr/bin/env python3
"""Record one trajectory point: every workload over ten seeds.

    python3 perfbench/trajectory.py --out perfbench/trajectory/<name>.json

Runs `perfbench/run.py` untraced once per seed and workload, then writes,
per workload and end-to-end metric, the median, the quartiles
(statistics.quantiles, n=4) and the spread (interquartile distance over
the median). The per-seed values and the first run's host fingerprint are
kept too. Exits non-zero if any run failed a check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seeds = list(range(1, 11))
    names = [w["name"] for w in spec["workloads"]]
    point = {"seeds": seeds, "run_seconds": spec["run_seconds"],
             "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in seeds:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 name, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False}
            host = json.loads(lines[-2])["host"] if len(lines) > 1 else {}
            ok &= done.returncode == 0 and result.get("correct", False)
            runs.append({"seed": seed, "exit": done.returncode,
                         "result": result, "host": host})
            print("%s seed %d: exit %d" % (name, seed, done.returncode),
                  file=sys.stderr, flush=True)
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs
                      if m["name"] in r["result"].get("metrics", {})]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            metrics[m["name"]] = {"unit": m["unit"], "median": median,
                                  "q1": q1, "q3": q3, "spread": spread,
                                  "values": values}
            print("  %-16s median %12.6g spread %.3f (bound %.2f)" % (
                m["name"], median, spread, m["bound"]), file=sys.stderr)
        point["workloads"][name] = {
            "metrics": metrics,
            "host": runs[0]["host"],
            "disturbed_runs": [r["seed"] for r in runs
                               if r["host"].get("disturbed")],
            "failed_runs": [r["seed"] for r in runs
                            if r["exit"] != 0
                            or not r["result"].get("correct")]}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(point, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
