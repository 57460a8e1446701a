#!/usr/bin/env python3
"""Builds the irbench harness from this checkout's sources and runs one workload.

    python3 irbench/run.py --workload oltp_mix --seed 1 --seconds 10 --trace 0

The harness is built with CMake into $CARGO_TARGET_DIR/irbench (default
.bench_build/irbench under the checkout root); build output goes to standard
error. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics, where metrics holds exactly the
metrics BENCHMARK.json lists for the mode: end_to_end with --trace 0,
per_layer with --trace 1. Traced runs also write a Chrome trace and the
per-layer JSON to irbench-out/ beside the build directory.

Exit codes: 0 when the run passed its output checks, 1 when a check failed
or the harness gave no result, 2 when the build or the arguments failed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def log(msg):
    print("irbench: " + msg, file=sys.stderr, flush=True)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(bdir):
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the program's sources (src/) are not in this checkout")
        return None
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", "irbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build failed: %s" % e)
            return None
        if done.returncode != 0:
            log("build failed: %s" % " ".join(cmd))
            return None
    return os.path.join(bdir, "irbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log("cannot read BENCHMARK.json: %s" % e)
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload %r" % args.workload)
        return 2

    bdir = os.path.join(build_root(), "irbench")
    binary = build(bdir)
    if binary is None:
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(build_root(), "irbench-out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              cwd=ROOT, check=False)
    except subprocess.TimeoutExpired:
        log("the run did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("the harness printed no result (exit code %d)" % proc.returncode)
        return 1

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    measured = result["metrics"]
    missing = [n for n in wanted if n not in measured]
    if missing:
        log("metrics missing from the run: %s" % ", ".join(missing))
        return 1
    extra = {n: v for n, v in measured.items() if n not in wanted}
    if extra:
        log("also measured: %s" % json.dumps(extra))
    result["metrics"] = {n: measured[n] for n in wanted}
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
