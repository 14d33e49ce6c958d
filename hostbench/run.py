#!/usr/bin/env python3
"""Build and run the host-time benchmark of the ReRAM simulator.

Run from the repository root:

    python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 hostbench/run.py --workload all [--seed <n>] [--seconds <s>] [--trace <0|1>]

The first form builds `hostbench/` (release, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`) and replaces itself with the
benchmark binary, whose last line of standard output is the JSON result.
The second runs every workload in turn and prints each metric with its
unit, then one JSON object keyed by workload. Traced runs write their spans
to `$CARGO_TARGET_DIR/traces/`.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["xbar_train", "bank_noisy", "serve_mix", "plan_sweep"]


def build():
    """Build the benchmark; return the binary's path and its environment."""
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    env["HOSTBENCH_TRACE_DIR"] = os.path.join(target, "traces")
    manifest = os.path.join(HERE, "Cargo.toml")
    built = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if built.returncode != 0:
        sys.exit("hostbench: build failed")
    return os.path.join(target, "release", "reram-hostbench"), env


def workload_arg(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag == "--workload":
            return value
    return None


def run_all(binary, env, argv):
    results = {}
    for workload in WORKLOADS:
        args = list(argv)
        args[args.index("--workload") + 1] = workload
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True, env=env)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"hostbench: {workload} failed with exit code {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        results[workload] = result
        print(f"== {workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:32} {metric['value']:>20.6g} {metric['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main():
    argv = sys.argv[1:]
    workload = workload_arg(argv)
    if workload is None:
        sys.exit(__doc__)
    binary, env = build()
    if workload == "all":
        return run_all(binary, env, argv)
    os.execve(binary, [binary] + argv, env)


if __name__ == "__main__":
    sys.exit(main())
