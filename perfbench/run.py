#!/usr/bin/env python3
"""Builds and runs the confllvm perf benchmark.

    python3 perfbench/run.py --workload exec-guest|compile-sweep|serve-edit \
        --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark binary is built from source
(perfbench/CMakeLists.txt compiles ../src and the shared workload tables)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset. Build output goes to stderr; the last stdout line is the result:
{"correct": ..., "attempted": N, "failed": N, "metrics": {...}}, holding
every end-to-end (--trace 0) or per-layer (--trace 1) metric that
BENCHMARK.json lists.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("exec-guest", "compile-sweep", "serve-edit")
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j4"],
                   stdout=sys.stderr, check=True)


def complete_metrics(metrics, trace):
    """Returns the result's metrics as BENCHMARK.json lists them for the mode
    (end_to_end untraced, per_layer traced), or raises ValueError. Every
    workload prints every metric: a per-layer metric of a layer the
    workload does not drive reads 0, while a missing end-to-end metric, a
    metric the manifest does not list or one in another unit is an error."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        specs = json.load(f)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in specs}
    for name, m in metrics.items():
        if units.get(name) != m["unit"]:
            raise ValueError(
                f"metric {name} [{m['unit']}] is not in BENCHMARK.json")
    out = {}
    for name, unit in units.items():
        if name in metrics:
            out[name] = metrics[name]
        elif trace:
            out[name] = {"value": 0, "unit": unit}
        else:
            raise ValueError(f"end-to-end metric {name} was not measured")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("src/driver/pipeline.h", "bench/workloads.h",
                   "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found next to perfbench/; "
                  "run from a full source checkout", file=sys.stderr)
            return 2

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, "run")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--expected", os.path.join(HERE, "expected.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: benchmark exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    try:
        result["metrics"] = complete_metrics(result["metrics"], args.trace)
    except ValueError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1] + [json.dumps(result)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
