#!/usr/bin/env python3
"""Build and run the mdes-opt end-to-end benchmark.

  python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --unit-tests

WORKLOAD is sched-bulk, serve-small or compile-cold (see perfbench/NOTES.md).

Run from the repository root. mdbench (perfbench/*.cpp) is built from
source, together with the libraries under src/, into $CARGO_TARGET_DIR
(default .bench_build) and run with the given arguments. Its report lines
are printed, then one JSON result line whose metric names are checked
against BENCHMARK.json: the end_to_end metrics for --trace 0, the
per_layer metrics for --trace 1. The exit code is non-zero when the build
fails, an output check fails, or the metric set is not the declared one.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room for set-up and teardown.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build mdbench and its unit tests."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no mdes-opt sources under {ROOT}/src; nothing to benchmark")
        return False
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # Concurrent runs in one checkout share the build tree.
    with open(os.path.join(build_dir, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for cmd in steps:
            # Build chatter goes to stderr: stdout carries the result.
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                log("build failed: " + " ".join(cmd))
                return False
    return True


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(args, build_dir):
    work_dir = os.path.join(os.getcwd(), ".bench_work")
    cmd = [os.path.join(build_dir, "mdbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if not lines:
        log(f"mdbench exited {proc.returncode} without a result")
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError) as e:
        log(f"malformed result line ({e}): {lines[-1]}")
        return 1
    want = declared_metrics(args.trace)
    if got != want:
        log("metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(want) - set(got))}, extra "
            f"{sorted(set(got) - set(want))}, unit changes "
            f"{sorted(k for k in got if k in want and got[k] != want[k])}")
        return 1
    print(lines[-1], flush=True)
    return proc.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload",
                   choices=["sched-bulk", "serve-small", "compile-cold"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--unit-tests", action="store_true",
                   help="build and run the metric-code unit tests")
    args = p.parse_args()
    if not args.unit_tests and not args.workload:
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    if not build(build_dir):
        return 2
    if args.unit_tests:
        return subprocess.run(
            [os.path.join(build_dir, "mdbench_unit")]).returncode
    return run(args, build_dir)


if __name__ == "__main__":
    sys.exit(main())
