#!/usr/bin/env bash
# Builds and runs the engine-side concurrency bench: serial-mode baseline
# (one database X lock held to commit, so transactions run one at a time)
# vs the lock manager, connection sweep over the tracked network stack with
# rtt=0 and realtime I/O stalls. Leaves BENCH_concurrency.json in the repo
# root (or $1 if given); exits non-zero if the 8-connection speedup misses
# the 3x acceptance floor, any leg records a tracking gap, or the serial
# leg records a deadlock. Usage: tools/run_bench_concurrency.sh [out.json]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-$repo/BENCH_concurrency.json}"

cmake -B "$repo/build" -S "$repo" >/dev/null
cmake --build "$repo/build" --target bench_concurrency -j >/dev/null

"$repo/build/bench/bench_concurrency" --out="$out"
