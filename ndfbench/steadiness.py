#!/usr/bin/env python3
"""Steadiness report: run each workload k times and summarise each metric.

    python3 ndfbench/steadiness.py [--runs 10] [--sets 1] [--workloads a,b]
                                   [--seconds S] [--trace 0|1] [--same-seeds]

Run from the root of a checkout. Each run is `ndfbench/run.py` with its own
seed (set s, run i gets seed 1 + s*runs + i; --same-seeds gives every set
the same seeds). For each workload, set and metric it prints the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread, the distance
between the quartiles as a share of the median. For end-to-end metrics it
also prints the bound from BENCHMARK.json, flags a spread wider than it and
notes one wider than a third of it, and, with two or more sets, flags a
later set's median that is worse than the first's by more than the bound.
Runs that repeat a (workload, seed) must print the same results digest.
Exits non-zero if any run fails, any check fails, or a flag is raised.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited "
                         f"{proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    digest = re.search(r"^digest \S+ seed=\d+ (\w+)$", proc.stderr, re.M)
    return result, digest.group(1) if digest else None


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else 0.0


def worse_by(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    if not first:
        return 0.0
    change = (later - first) / first
    return -change if better == "higher" else change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--same-seeds", action="store_true")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 (quartiles need two values)")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    declared = {m["name"]: m for m in spec["end_to_end"]}

    flags = 0
    digests = {}
    for workload in workloads:
        medians = []  # per set: {metric: median}
        for s in range(args.sets):
            values = {}
            for i in range(args.runs):
                seed = 1 + i + (0 if args.same_seeds else s * args.runs)
                result, digest = run_once(workload, seed, seconds, args.trace)
                if not result["correct"] or result["failed"]:
                    print(f"FLAG {workload} seed {seed}: {result['failed']} "
                          f"of {result['attempted']} checks failed")
                    flags += 1
                if digest and digests.setdefault((workload, seed),
                                                 digest) != digest:
                    print(f"FLAG {workload} seed {seed}: digest changed")
                    flags += 1
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            print(f"\n{workload} set {s + 1} ({args.runs} runs, "
                  f"{seconds:g} s each)")
            print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} "
                  f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
            medians.append({})
            for name, vals in values.items():
                med, q1, q3, sp = spread(vals)
                medians[-1][name] = med
                bound = declared.get(name, {}).get("bound")
                note = ""
                if bound is not None:
                    if sp > bound:
                        note = "  FLAG spread > bound"
                        flags += 1
                    elif sp > bound / 3:
                        note = "  above the bound/3 target"
                print(f"  {name:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{sp:8.2%} {bound if bound is not None else '':>6}"
                      f"{note}")
        for s in range(1, len(medians)):
            for name, m in declared.items():
                if name not in medians[0]:
                    continue  # per-layer runs carry no bounds
                w = worse_by(medians[0][name], medians[s][name], m["better"])
                note = "FLAG" if w > m["bound"] else "ok"
                if note == "FLAG":
                    flags += 1
                print(f"  set {s + 1} vs set 1: {name} worse by {w:+.2%} "
                      f"(bound {m['bound']:.0%}) {note}")
    print(f"\n{flags} flag(s)")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
