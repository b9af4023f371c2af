#!/usr/bin/env python3
"""Builds and runs the repository benchmark described in BENCHMARK.json.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Run from the repository root. The benchmark package in perfbench/ is built
in release mode into $CARGO_TARGET_DIR (default: .bench_build), then the
chosen workload runs for --seconds. BENCHMARK.json is the only list of
metrics: this script passes the declared names (end_to_end with --trace 0,
per_layer with --trace 1) to the benchmark, which prints a value for each,
and adds the declared units. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. With
--trace 1 the spans of the last traced repetition are written to
$CARGO_TARGET_DIR/trace/<workload>-seed<n>.tsv.

Exit code 0 only when the build, the run and the checks all pass.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def main():
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", choices=["0", "1"], default="0")
    args = p.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return fail("build failed")

    declared = spec["per_layer" if args.trace == "1" else "end_to_end"]
    cmd = [
        os.path.join(target, "release", "hypertee-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--metrics", ",".join(m["name"] for m in declared),
    ]
    if args.trace == "1":
        out = os.path.join(target, "trace", f"{args.workload}-seed{args.seed}.tsv")
        cmd += ["--trace-out", out]
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        values = result.pop("values")
    except (IndexError, ValueError, KeyError):
        print("\n".join(lines))
        return fail(f"run failed with exit code {run.returncode} and no result")
    print("\n".join(lines[:-1]))
    names = [m["name"] for m in declared]
    if run.returncode != 0 or not result["correct"] or sorted(values) != sorted(names):
        print(json.dumps(dict(result, correct=False, metrics={})))
        return fail(f"run failed (exit code {run.returncode}) or does not carry "
                    "exactly the declared metrics")
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in declared}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
