#!/usr/bin/env python3
"""Repeat bench/run.py over seeds and record medians in BENCH_<tag>.json.

Usage (from the repository root):

    python3 bench/record.py [--tag seed]

For each workload in BENCHMARK.json this makes one untraced run per seed
(seeds 1..10) and one traced run with the default seed.  For every end-to-end metric it
prints the median, the quartiles and their distance as a share of the
median (the spread), next to the bound in BENCHMARK.json.  With --tag it
writes the rows to bench/BENCH_<tag>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n"
                         f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def git_rev():
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", help="write bench/BENCH_<tag>.json")
    args = parser.parse_args()
    seconds = config["run_seconds"]
    rows = {}
    worst = (0.0, "")
    for workload in (w["name"] for w in config["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        row = {"k": len(runs), "seeds": list(SEEDS),
               "attempted": [r["attempted"] for r in runs],
               "failed": [r["failed"] for r in runs], "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            worst = max(worst, (spread / bound, f"{workload} {name}"))
            row["end_to_end"][name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": median,
                "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                "values": values}
            print(f"{workload:<7} {name:<12} median {median:12.6g}  "
                  f"spread {spread:7.4f}  bound {bound}  values "
                  + " ".join(f"{v:.4g}" for v in values), flush=True)
        traced = run_once(workload, 0, seconds, 1)
        row["per_layer"] = {name: m["value"]
                            for name, m in traced["metrics"].items()}
        rows[workload] = row
    print(f"largest spread / bound: {worst[0]:.3f} ({worst[1]})")
    if args.tag:
        out = {"tag": args.tag, "rev": git_rev(), "run_seconds": seconds,
               "python": sys.version.split()[0], "workloads": rows}
        path = BENCH / f"BENCH_{args.tag}.json"
        path.write_text(json.dumps(out, indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
