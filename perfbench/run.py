#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload cold_scale --seed 1 --seconds 15 --trace 0

Run from the repository root. Every run configures and builds the
benchmark program (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/; only the first run compiles everything. Build output goes to standard error.
Standard output is the program's report; its last line is the one-line JSON
result, checked here against the metric lists in BENCHMARK.json. Exits
non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD, "perfbench")
# A run measures for --seconds and then finishes its last pass; it must end
# well inside three minutes.
RUN_TIMEOUT_S = 170


def jobs():
    return str(max(1, min(4, len(os.sched_getaffinity(0)))))


def build():
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", "perfbench",
              "-j", jobs()]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Returns an error message, or None when the result line is valid."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, " \
               "unit mismatch %s" % (missing, extra, units)
    if result["attempted"] < 1:
        return "no operation attempted"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", type=int, choices=(0, 1), default=0,
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()

    if not build():
        return 1
    out_dir = os.path.join(BUILD, "runs")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--smoke", str(args.smoke), "--out-dir", out_dir]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    error = ("benchmark exited with code %d" % proc.returncode
             if proc.returncode else check_result(lines[-1], args.trace))
    if error:
        sys.stderr.write(proc.stdout)
        print("perfbench: " + error, file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    print("run_wall_s %.3f" % (time.monotonic() - started))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
