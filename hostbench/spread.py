#!/usr/bin/env python3
"""Print the run-to-run spread of the benchmark's end-to-end metrics.

Run from the repository root:

    python3 hostbench/spread.py [--workloads a,b] [--seeds 10] [--sets 1]

Runs `BENCHMARK.json`'s command once per seed (seeds 1..N) for each
workload, `--sets` times over. For every end-to-end metric it prints the
median of each set, the spread (the distance between the first and third
quartile from `statistics.quantiles(values, n=4)`, as a share of the
median) and the metric's bound. With two sets it also prints how much
worse the second median is than the first, and any seed whose
`sim.digest` differs between the sets. It also prints the same figures
for the unscaled `raw_items_per_s` of each run's summary line. It judges
nothing: it exits 1 only if a run fails or reports `correct: false`.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit code {done.returncode}")
    digest = re.search(r"sim\.digest=(\d+)", done.stdout)
    raw = re.search(r"raw_items_per_s=([0-9.e+-]+)", done.stdout)
    result = json.loads(lines[-1])
    result["metrics"]["raw_items_per_s"] = {"value": float(raw.group(1)), "unit": "1/s"}
    return result, digest.group(1) if digest else None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=[1, 2])
    opts = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = opts.workloads.split(",") if opts.workloads else [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        sets = []
        for _ in range(opts.sets):
            runs = [run_once(spec, workload, seed) for seed in range(1, opts.seeds + 1)]
            for seed, (result, _) in enumerate(runs, 1):
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: incorrect result {result}")
                    ok = False
            sets.append(runs)
        if opts.sets == 2:
            for seed, (a, b) in enumerate(zip(sets[0], sets[1]), 1):
                if a[1] != b[1]:
                    print(f"{workload} seed {seed}: sim.digest {a[1]} then {b[1]}")
        raw = {"name": "raw_items_per_s", "better": "higher", "bound": float("nan")}
        for metric in spec["end_to_end"] + [raw]:
            name = metric["name"]
            medians = []
            row = f"{workload:11} {name:12}"
            for runs in sets:
                values = [r["metrics"][name]["value"] for r, _ in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                medians.append(med)
                row += f" median {med:12.6g} spread {(q3 - q1) / med:6.3f}"
            row += f"  bound {metric['bound']:.3f}"
            if len(medians) == 2:
                change = (medians[1] - medians[0]) / medians[0]
                worse = -change if metric["better"] == "higher" else change
                row += f"  second worse by {worse:+.3f}"
            print(row, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
