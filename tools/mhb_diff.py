#!/usr/bin/env python3
"""Run-to-run regression differ for mhbench telemetry.

Usage: mhb_diff.py [options] BASELINE CANDIDATE

BASELINE and CANDIDATE are either two run directories (a directory holding
manifest.json [+ profile.json], or a --manifest-dir output holding exactly
one such run), two manifest.json paths, or two BENCH_*.json kernel reports
from tools/bench_report.py.  The mode is detected from file content
("kernels" -> bench report, "counters" -> run manifest).

What is compared, and against which gate:

  run mode
    counters            symmetric relative tolerance (--counter-rtol,
                        default 0: deterministic counters must match).
                        pool_tasks is skipped (worker-count dependent).
    histograms          p50/p95/p99; latency-named histograms use the
                        latency ratio gate, the rest use --counter-rtol.
    metrics             keys containing "acc" fail only when the candidate
                        is LOWER by more than --metric-rtol; everything
                        else is symmetric at --metric-rtol.
    profile.json        per-op count/gemm_flops at --counter-rtol,
                        per-op wall_us at the latency ratio gate.
                        heap_allocs is skipped (pool-warmup dependent).

  bench mode
    per-kernel fast/naive speedup (each BENCH entry carries its own
    ratio): the candidate's speedup may shrink by at most the latency
    ratio (machine-normalized, so two different hosts can be compared).
    --absolute additionally
    gates raw fast wall_ns.  Reports refuse to compare across kernel
    backends (MHB_KERNELS / runtime dispatch).

Latency-style values (matched by name: wall/time/idle/_us/_ms/_ns) pass
while candidate <= baseline * --latency-ratio (default 1.3); they never
fail for being faster.

Exit status: 0 = no regression, 1 = regression found, 2 = usage/IO error.

Threshold overrides: --thresholds FILE points at a JSON object mapping a
key (counter, histogram, metric, op, or kernel name) to {"ratio": R} or
{"rtol": T}, replacing the default gate for that key.  Keys may be
fnmatch-style wildcards ("client_wall_us*" also covers the per-tier
"client_wall_us@mem16g.p50" variants); exact keys win over patterns.
"""
import argparse
import fnmatch
import json
import pathlib
import re
import sys

LATENCY_RE = re.compile(r"wall|time|idle|_us$|_ms$|_ns$")
SKIP_COUNTERS = {"pool_tasks"}
SKIP_PROFILE_FIELDS = {"heap_allocs", "scratch_peak_bytes"}


class Differ:
    def __init__(self, args):
        self.latency_ratio = args.latency_ratio
        self.counter_rtol = args.counter_rtol
        self.metric_rtol = args.metric_rtol
        self.overrides = {}
        if args.thresholds:
            with open(args.thresholds) as f:
                self.overrides = json.load(f)
        self.failures = []
        self.checked = 0

    def override(self, key):
        hit = self.overrides.get(key)
        if hit is not None:
            return hit
        for pattern in sorted(self.overrides):
            if fnmatch.fnmatchcase(key, pattern):
                return self.overrides[pattern]
        return {}

    def check_latency(self, key, base, cand):
        """Pass while cand <= base * ratio; faster never fails."""
        self.checked += 1
        ratio = self.override(key).get("ratio", self.latency_ratio)
        if base > 0 and cand > base * ratio:
            self.failures.append(
                f"{key}: {cand:g} exceeds {base:g} x {ratio:g} "
                f"(ratio {cand / base:.2f})")

    def check_rtol(self, key, base, cand, rtol, directional=None):
        """Symmetric |delta| <= rtol * |base|; directional='lower' fails
        only when the candidate is lower (accuracy-style metrics)."""
        self.checked += 1
        rtol = self.override(key).get("rtol", rtol)
        delta = cand - base
        if directional == "lower" and delta >= 0:
            return
        tol = rtol * max(abs(base), 1e-12)
        if abs(delta) > tol:
            self.failures.append(
                f"{key}: {base:g} -> {cand:g} (delta {delta:g}, "
                f"tol {tol:g})")

    def dispatch(self, key, base, cand, rtol):
        if LATENCY_RE.search(key):
            self.check_latency(key, base, cand)
        else:
            self.check_rtol(key, base, cand, rtol)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def resolve_run(path):
    """Returns (manifest dict, profile dict or None) for a run argument."""
    p = pathlib.Path(path)
    if p.is_file():
        doc = load_json(p)
        profile = None
        sibling = p.parent / "profile.json"
        if p.name == "manifest.json" and sibling.is_file():
            profile = load_json(sibling)
        return doc, profile
    if p.is_dir():
        if (p / "manifest.json").is_file():
            run_dir = p
        else:
            runs = [d for d in p.iterdir()
                    if (d / "manifest.json").is_file()]
            if len(runs) != 1:
                raise FileNotFoundError(
                    f"{path}: expected one run dir with manifest.json, "
                    f"found {len(runs)}")
            run_dir = runs[0]
        manifest = load_json(run_dir / "manifest.json")
        profile = None
        if (run_dir / "profile.json").is_file():
            profile = load_json(run_dir / "profile.json")
        return manifest, profile
    raise FileNotFoundError(path)


def diff_runs(differ, base, cand):
    base_manifest, base_profile = base
    cand_manifest, cand_profile = cand

    for name, bval in base_manifest.get("counters", {}).items():
        if name in SKIP_COUNTERS:
            continue
        cval = cand_manifest.get("counters", {}).get(name)
        if cval is None:
            differ.failures.append(f"counter {name}: missing in candidate")
            continue
        differ.dispatch(name, bval, cval, differ.counter_rtol)

    for name, bh in base_manifest.get("histograms", {}).items():
        ch = cand_manifest.get("histograms", {}).get(name)
        if ch is None:
            differ.failures.append(f"histogram {name}: missing in candidate")
            continue
        for q in ("p50", "p95", "p99"):
            differ.dispatch(f"{name}.{q}", bh[q], ch[q],
                            differ.counter_rtol)

    for name, bval in base_manifest.get("metrics", {}).items():
        cval = cand_manifest.get("metrics", {}).get(name)
        if cval is None:
            differ.failures.append(f"metric {name}: missing in candidate")
            continue
        if "acc" in name:
            differ.check_rtol(name, bval, cval, differ.metric_rtol,
                              directional="lower")
        else:
            differ.dispatch(name, bval, cval, differ.metric_rtol)

    if base_profile is not None and cand_profile is not None:
        cand_ops = cand_profile.get("op_totals", {})
        for op, bstats in base_profile.get("op_totals", {}).items():
            cstats = cand_ops.get(op)
            if cstats is None:
                differ.failures.append(f"op {op}: missing in candidate")
                continue
            for field, bval in bstats.items():
                if field in SKIP_PROFILE_FIELDS:
                    continue
                cval = cstats.get(field, 0)
                differ.dispatch(f"{op}.{field}", bval, cval,
                                differ.counter_rtol)


def diff_bench(differ, base, cand, absolute):
    bctx, cctx = base.get("context", {}), cand.get("context", {})
    bback, cback = bctx.get("kernel_backend"), cctx.get("kernel_backend")
    if bback and cback and bback != cback:
        print(f"mhb_diff: kernel backend mismatch "
              f"({bback} vs {cback}); refusing to compare", file=sys.stderr)
        return 2

    for kernel, bentry in base.get("kernels", {}).items():
        centry = cand.get("kernels", {}).get(kernel)
        if centry is None:
            differ.failures.append(f"kernel {kernel}: missing in candidate")
            continue
        # Machine-normalized gate: the fast/naive speedup divides out the
        # host's absolute speed, so it transfers across machines.
        bspeed, cspeed = bentry.get("speedup"), centry.get("speedup")
        if bspeed and cspeed:
            differ.checked += 1
            ratio = differ.override(kernel).get("ratio",
                                                differ.latency_ratio)
            if cspeed < bspeed / ratio:
                differ.failures.append(
                    f"kernel {kernel}: speedup {bspeed:g}x -> {cspeed:g}x "
                    f"(below {bspeed:g}/{ratio:g})")
        if absolute:
            differ.check_latency(f"kernel {kernel}.fast.wall_ns",
                                 bentry["fast"]["wall_ns"],
                                 centry["fast"]["wall_ns"])
    return None


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Compare two mhbench runs or kernel bench reports.")
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--latency-ratio", type=float, default=1.3,
                        help="max allowed candidate/baseline latency ratio")
    parser.add_argument("--counter-rtol", type=float, default=0.0,
                        help="relative tolerance for deterministic counters")
    parser.add_argument("--metric-rtol", type=float, default=0.05,
                        help="relative tolerance for final metrics")
    parser.add_argument("--thresholds",
                        help="JSON file with per-key gate overrides")
    parser.add_argument("--absolute", action="store_true",
                        help="bench mode: also gate absolute wall times")
    args = parser.parse_args()

    differ = Differ(args)
    try:
        base_probe = (load_json(args.baseline)
                      if pathlib.Path(args.baseline).is_file() else None)
        if base_probe is not None and "kernels" in base_probe:
            cand_probe = load_json(args.candidate)
            rc = diff_bench(differ, base_probe, cand_probe, args.absolute)
            if rc is not None:
                return rc
        else:
            diff_runs(differ, resolve_run(args.baseline),
                      resolve_run(args.candidate))
    except (OSError, KeyError, ValueError) as e:
        print(f"mhb_diff: {e!r}", file=sys.stderr)
        return 2

    if differ.checked == 0:
        print("mhb_diff: nothing comparable found", file=sys.stderr)
        return 2
    for failure in differ.failures:
        print(f"mhb_diff: REGRESSION {failure}")
    print(f"mhb_diff: {differ.checked} comparisons, "
          f"{len(differ.failures)} regressions")
    return 1 if differ.failures else 0


if __name__ == "__main__":
    sys.exit(main())
