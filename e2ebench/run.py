#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 e2ebench/run.py --workload ws-grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Configures and builds the
benchmark (e2ebench/CMakeLists.txt, which compiles the library from src/)
under $CARGO_TARGET_DIR or .bench_build, then runs the e2e_bench program.
Build and e2e_bench logs go to stderr; stdout carries e2e_bench's report,
whose last line is the JSON result.  Exits non-zero, printing no result,
when the build fails, e2e_bench fails, or the result does not carry
exactly the metrics BENCHMARK.json declares for the mode.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ws-grid", "distill-eval", "fleet-obs")
# A benchmark run may take 180 s once built; the first one also builds.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures once, then builds e2e_bench (a no-op when up to date)."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "e2e_bench",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   stdout=sys.stderr, check=True)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for the mode, if it is present."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "e2ebench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "e2e_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(build_dir, "out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: e2e_bench timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"e2ebench: e2e_bench exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("e2ebench: malformed result line", file=sys.stderr)
        return 1
    expected = declared_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        print("e2ebench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ expected)}", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
