#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 ndfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
library and the ndf_bench program (Release) under $CARGO_TARGET_DIR/cmake,
or .bench_build/cmake when that is unset; later runs only rebuild what
changed. The program's output is passed through, except its last line:
the metric values by name, which run.py prints as the JSON result with the
units BENCHMARK.json declares (see to_result). Traced runs
write their spans to .bench_out/. Exits non-zero, without a result, when
the build or the run fails.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim-stress", "sim-kernels", "serve-stream", "native")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds ndf_bench; returns the binary's path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "cmake")
    os.makedirs(build_dir, exist_ok=True)
    # Build output goes to stderr: stdout's last line is the result.
    out = sys.stderr
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, check=True)
        subprocess.run(["cmake", "--build", build_dir, "--target", "ndf_bench",
                        "-j", str(min(os.cpu_count() or 1, 4))],
                       stdout=out, check=True)
    return os.path.join(build_dir, "ndf_bench")


def declared_metrics(trace):
    """(name, unit) pairs of the metric group BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer" if trace else "end_to_end"]
    return [(m["name"], m["unit"]) for m in group]


def to_result(raw, trace):
    """Turns ndf_bench's values-by-name line into the benchmark result.

    Every declared metric gets its declared unit. An end-to-end metric must
    be measured; a per-layer metric the workload does not reach is 0. A name
    that BENCHMARK.json does not declare is an error.
    """
    values = dict(raw["metrics"])
    metrics = {}
    for name, unit in declared_metrics(trace):
        if name not in values and not trace:
            raise ValueError(f"end-to-end metric {name} was not measured")
        metrics[name] = {"value": values.pop(name, 0.0), "unit": unit}
    if values:
        raise ValueError(f"metrics not declared in BENCHMARK.json: "
                         f"{sorted(values)}")
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           "--out-dir=" + os.path.join(ROOT, ".bench_out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"run.py: ndf_bench exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = to_result(json.loads(lines[-1]), args.trace == 1)
    except (IndexError, KeyError, ValueError) as e:
        print(f"run.py: unusable ndf_bench output: {e}", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1] + [json.dumps(result)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
