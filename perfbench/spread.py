#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end metric's
median, quartiles and spread (IQR / median), the statistic BENCHMARK.json's
bounds are checked against.

    python3 perfbench/spread.py [--seeds 1-10] [--workloads sweep,serve_cold]
                                [--out perfbench/results.json]

Run from the repository root. The command and run length come from
BENCHMARK.json; with --out, the machine (nproc, rustc -V, date), every
figure and, for the server load, the share of requests each cache tier
answered are written as JSON.
"""

import argparse
import datetime
import json
import os
import re
import statistics
import subprocess
import sys

# The tier counts a server run prints on stderr, e.g. "(mem=4 disk=0 ...)".
TIERS = re.compile(r"\b(mem|disk|miss|warm|coalesced)=(\d+)\b")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    figures = {}
    tiers = {}
    for workload in workloads:
        values = {}
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {result}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for tier, count in TIERS.findall(out.stderr):
                counts = tiers.setdefault(workload, {})
                counts[tier] = counts.get(tier, 0) + int(count)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                flush=True)
        figures[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]["bound"]
            figures[workload][name] = {
                "unit": bounds[name]["unit"], "better": bounds[name]["better"],
                "bound": bound, "median": med, "q1": q1, "q3": q3,
                "spread": round(spread, 4), "runs": len(vals),
            }
            flag = "" if name == "setup_s" or spread <= bound / 3 else (
                "  > bound/3" if spread <= bound else "  > BOUND")
            print(f"  {workload:<13} {name:<15} median {med:<12.5g} "
                  f"q1 {q1:<12.5g} q3 {q3:<12.5g} spread {spread:.3f} "
                  f"(bound {bound}){flag}", flush=True)

    if args.out:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True)
        record = {
            "machine": {
                "nproc": os.cpu_count(),
                "rustc": rustc.stdout.strip(),
                "date": datetime.date.today().isoformat(),
            },
            "seeds": seeds,
            "run_seconds": bench["run_seconds"],
            "workloads": figures,
            "tier_shares": {
                workload: {
                    tier: round(count / sum(counts.values()), 4)
                    for tier, count in counts.items()
                }
                for workload, counts in tiers.items()
            },
        }
        with open(args.out, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
