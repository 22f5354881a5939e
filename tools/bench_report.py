#!/usr/bin/env python3
"""Distills bench_micro's google-benchmark JSON into BENCH_kernels.json.

Usage: bench_report.py [--allow-debug] <raw-benchmark.json> <out.json>

Pairs each fast kernel benchmark (BM_Matmul/128, BM_Conv2dForward, ...) with
its *Naive twin.
Per-repetition samples (run with --benchmark_repetitions=N and WITHOUT
--benchmark_report_aggregates_only) give real p50/p95 wall times rather than
a median-of-3; speedup ratios come from the p50s.  The context block embeds
`git describe` and the kernel backend (the runtime-dispatch choice bench_micro
records via AddCustomContext, falling back to MHB_KERNELS) so
tools/mhb_diff.py can refuse to compare apples to oranges.  Acceptance
targets from the kernel-layer issues (>= 3x on BM_Matmul/128, >= 2x on
BM_Conv2dForward) are annotated so the committed file documents whether the
reference machine met them.

A raw file produced by a *debug* bench_micro build is refused (exit 3)
unless --allow-debug is given: unoptimized-kernel timings would poison a
committed baseline.  The build type of our own translation units is what
matters, so bench_micro's `mhb_build_type` context entry (stamped from
NDEBUG) takes precedence; the benchmark *library's* `library_build_type`
is only the fallback signal for raw files that predate the stamp — a
debug libbenchmark adds timing-loop overhead (and is recorded in the
report context) but does not deoptimize the kernels under test.
"""
import json
import os
import subprocess
import sys

TARGETS = {
    "BM_Matmul/128": 3.0,
    "BM_Conv2dForward": 2.0,
}


def percentile(sorted_samples, q):
    """Linear-interpolated quantile of a pre-sorted, non-empty list."""
    if len(sorted_samples) == 1:
        return sorted_samples[0]
    pos = q * (len(sorted_samples) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_samples) - 1)
    frac = pos - lo
    return sorted_samples[lo] * (1 - frac) + sorted_samples[hi] * frac


def git_describe():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def main() -> int:
    argv = sys.argv[1:]
    allow_debug = "--allow-debug" in argv
    argv = [a for a in argv if a != "--allow-debug"]
    if len(argv) != 2:
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    raw_path, out_path = argv
    with open(raw_path) as f:
        raw = json.load(f)

    lib_build_type = raw["context"].get("library_build_type")
    build_type = raw["context"].get("mhb_build_type", lib_build_type)
    if build_type == "debug" and not allow_debug:
        print(
            "bench_report: raw file comes from a debug build; refusing to "
            "write a baseline from debug timings "
            "(pass --allow-debug to override)",
            file=sys.stderr,
        )
        return 3

    # One sample per repetition.  Aggregate rows (mean/median/stddev, present
    # when google-benchmark emits them alongside repetitions) are skipped;
    # a run without repetitions yields a single "iteration" row per name.
    samples = {}
    items_per_second = {}
    for b in raw["benchmarks"]:
        if b.get("run_type") == "aggregate" or "aggregate_name" in b:
            continue
        name = b["run_name"]
        samples.setdefault(name, []).append(b["real_time"])
        if b.get("items_per_second"):
            items_per_second.setdefault(name, []).append(
                b["items_per_second"])

    stats = {}
    repetitions = 0
    for name, xs in samples.items():
        xs.sort()
        repetitions = max(repetitions, len(xs))
        gflops_samples = sorted(items_per_second.get(name, []))
        gflops = (
            percentile(gflops_samples, 0.50) / 1e9 if gflops_samples else None
        )
        stats[name] = {
            "wall_ns": round(percentile(xs, 0.50)),
            "p95_wall_ns": round(percentile(xs, 0.95)),
            "gflops": round(gflops, 2) if gflops else None,
        }

    num_cpus = raw["context"].get("num_cpus")
    backend = raw["context"].get(
        "mhb_kernel_backend", os.environ.get("MHB_KERNELS", "fast"))
    report = {
        "context": {
            "host": raw["context"].get("host_name"),
            "num_cpus": num_cpus,
            "mhz_per_cpu": raw["context"].get("mhz_per_cpu"),
            "date": raw["context"].get("date"),
            "build_type": build_type,
            "benchmark_lib_build_type": lib_build_type,
            "load_avg": raw["context"].get("load_avg"),
            "git_describe": git_describe(),
            "kernel_backend": backend,
            "repetitions": repetitions,
            "statistic": "p50 (p95 recorded per benchmark)",
        },
        "kernels": {},
    }
    for name, fast in sorted(stats.items()):
        base = name.replace("BM_", "", 1)
        if "Naive" in name:
            continue
        entry = {"fast": fast}
        naive_name = (
            name.replace("/", "Naive/", 1) if "/" in name else name + "Naive"
        )
        naive = stats.get(naive_name)
        if naive is not None:
            entry["naive"] = naive
            entry["speedup"] = round(naive["wall_ns"] / fast["wall_ns"], 2)
        if name in TARGETS:
            entry["target_speedup"] = TARGETS[name]
            if "speedup" in entry:
                entry["meets_target"] = entry["speedup"] >= TARGETS[name]
        report["kernels"][base] = entry

    with open(out_path, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    for base, entry in report["kernels"].items():
        ratio = entry.get("speedup")
        mark = ""
        if "target_speedup" in entry:
            mark = " (target %.1fx: %s)" % (
                entry["target_speedup"],
                "met" if entry.get("meets_target") else "MISSED",
            )
        if ratio is not None:
            print(f"bench_report: {base}: {ratio}x vs naive{mark}")
    print(f"bench_report: wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
