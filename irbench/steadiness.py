#!/usr/bin/env python3
"""Runs each irbench workload N times and reports how steady its metrics are.

    python3 irbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads oltp_mix,serve_tcp] [--seconds S]
        [--save FILE] [--compare FILE]

Each run is one `python3 irbench/run.py` with its own seed (first-seed,
first-seed + 1, ...). For every workload and metric the script prints the
median, the quartiles (statistics.quantiles, n=4), the spread (Q3 - Q1) as a
share of the median, the largest deviation of a single run from the median
as a share of the median, and the metric's bound from BENCHMARK.json. A
spread above a third of the bound is flagged "wide", above the bound "OVER".
setup_s is exempt from the spread rule: it is a single cold set-up per run.

--save writes every run's result as JSON; --compare reads such a file (an
earlier set of runs) and adds, per metric, how far this set's median moved
against the earlier one, in the metric's worse direction, and whether the
share of failed operations is the same in both sets.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, check=False)
    lines = done.stdout.decode(errors="replace").strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), done.returncode))
    return json.loads(lines[-1])


def worse_shift(old, new, better):
    """How much worse `new` is than `old`, as a share of `old` (<= 0: not worse)."""
    if old == 0:
        return 0.0
    return (old - new) / old if better == "higher" else (new - old) / old


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--save", default="")
    ap.add_argument("--compare", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    results = {}
    for w in workloads:
        results[w] = []
        for i in range(args.runs):
            seed = args.first_seed + i
            results[w].append(run_once(w, seed, seconds))
            print("%s seed %d done" % (w, seed), file=sys.stderr, flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)

    worst = 0.0
    for w in workloads:
        runs = results[w]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print("\n== %s: %d runs, %d of %d operations failed ==" %
              (w, len(runs), failed, attempted))
        if w in earlier:
            old_f = sum(r["failed"] for r in earlier[w])
            old_a = sum(r["attempted"] for r in earlier[w])
            same = old_f * attempted == failed * old_a
            print("failed share vs earlier set: %s" % ("same" if same else "DIFFERENT"))
        print("%-36s %12s %12s %12s %7s %7s %6s %s" %
              ("metric", "median", "q1", "q3", "spread", "maxdev", "bound",
               "vs earlier"))
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            maxdev = max(abs(v - med) for v in vals) / med if med else 0.0
            bound = m["bound"]
            flag = ""
            if m["name"] != "setup_s":
                worst = max(worst, spread / bound)
                flag = "OVER" if spread > bound else ("wide" if spread > bound / 3 else "")
            shift = ""
            if w in earlier:
                old = statistics.median(
                    r["metrics"][m["name"]]["value"] for r in earlier[w])
                s = worse_shift(old, med, m["better"])
                shift = "%+.3f%s" % (s, " OVER" if s > bound else "")
            print("%-36s %12.5g %12.5g %12.5g %7.3f %7.3f %6.3f %s %s" %
                  (m["name"], med, q1, q3, spread, maxdev, bound, shift, flag))
    print("\nlargest spread / bound (setup_s exempt): %.3f" % worst)


if __name__ == "__main__":
    main()
