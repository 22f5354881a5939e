#!/usr/bin/env python3
"""Tests for tools/bench_report.py and the bench mode of tools/mhb_diff.py.

Covers the fast/naive pairing, real conv GFLOP/s, the debug-library
refusal, and mhb_diff's per-entry speedup gating.
"""
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
BENCH_REPORT = ROOT / "tools" / "bench_report.py"
MHB_DIFF = ROOT / "tools" / "mhb_diff.py"


def run_bench(b_name, ns, gflops=None, reps=3):
    """Synthetic per-repetition google-benchmark rows for one benchmark."""
    rows = []
    for i in range(reps):
        row = {
            "run_name": b_name,
            "run_type": "iteration",
            "real_time": ns + i,  # monotone jitter: p50 = ns + 1 for reps=3
            "time_unit": "ns",
        }
        if gflops is not None:
            row["items_per_second"] = gflops * 1e9
        rows.append(row)
    return rows


def raw_json(num_cpus=2, build_type="release", backend="avx2",
             mhb_build_type=None):
    benchmarks = []
    # f32 fast vs naive at two sizes.
    benchmarks += run_bench("BM_Matmul/128", 1000, gflops=4.0)
    benchmarks += run_bench("BM_MatmulNaive/128", 4000, gflops=1.0)
    benchmarks += run_bench("BM_Matmul/256", 8000, gflops=4.0)
    benchmarks += run_bench("BM_MatmulNaive/256", 32000, gflops=1.0)
    benchmarks += run_bench("BM_Conv2dForward", 50000, gflops=2.5)
    benchmarks += run_bench("BM_Conv2dForwardNaive", 150000, gflops=0.8)
    benchmarks += run_bench("BM_Conv2dBackward", 90000, gflops=2.6)
    benchmarks += run_bench("BM_Conv2dBackwardNaive", 270000, gflops=0.9)
    context = {
        "host_name": "testhost",
        "num_cpus": num_cpus,
        "mhz_per_cpu": 2000,
        "date": "2026-01-01T00:00:00+00:00",
        "library_build_type": build_type,
        "mhb_kernel_backend": backend,
    }
    if mhb_build_type is not None:
        context["mhb_build_type"] = mhb_build_type
    return {"context": context, "benchmarks": benchmarks}


def run_report(tmp, raw, *flags):
    raw_path = os.path.join(tmp, "raw.json")
    out_path = os.path.join(tmp, "out.json")
    with open(raw_path, "w") as f:
        json.dump(raw, f)
    proc = subprocess.run(
        [sys.executable, str(BENCH_REPORT), *flags, raw_path, out_path],
        capture_output=True, text=True)
    report = None
    if os.path.exists(out_path):
        with open(out_path) as f:
            report = json.load(f)
    return proc, report


class BenchReportTest(unittest.TestCase):
    def test_pairing_and_annotations(self):
        with tempfile.TemporaryDirectory() as tmp:
            proc, report = run_report(tmp, raw_json(num_cpus=2))
            self.assertEqual(proc.returncode, 0, proc.stderr)
            kernels = report["kernels"]

            # Naive pairing, with real conv GFLOP/s.
            self.assertAlmostEqual(
                kernels["Matmul/128"]["speedup"], 4.0, places=1)
            self.assertTrue(kernels["Matmul/128"]["meets_target"])
            self.assertIsNotNone(kernels["Conv2dForward"]["fast"]["gflops"])
            self.assertIsNotNone(kernels["Conv2dBackward"]["fast"]["gflops"])
            self.assertAlmostEqual(
                kernels["Conv2dForward"]["speedup"], 3.0, places=1)

            self.assertAlmostEqual(
                kernels["Matmul/256"]["speedup"], 4.0, places=1)
            self.assertNotIn("target_speedup", kernels["Matmul/256"])
            # Every entry is a fast kernel; naive twins are folded in.
            self.assertEqual(
                sorted(kernels),
                ["Conv2dBackward", "Conv2dForward", "Matmul/128",
                 "Matmul/256"])

            # Backend comes from the benchmark's own context, not env.
            self.assertEqual(report["context"]["kernel_backend"], "avx2")
            self.assertEqual(report["context"]["num_cpus"], 2)

    def test_debug_build_refused_without_override(self):
        with tempfile.TemporaryDirectory() as tmp:
            proc, report = run_report(tmp, raw_json(build_type="debug"))
            self.assertEqual(proc.returncode, 3)
            self.assertIsNone(report)
            self.assertIn("debug", proc.stderr)

            proc, report = run_report(
                tmp, raw_json(build_type="debug"), "--allow-debug")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertEqual(
                report["context"]["benchmark_lib_build_type"], "debug")

            # bench_micro's own build-type stamp outranks the benchmark
            # library's: an -O3 binary linked against a debug libbenchmark
            # is a legitimate baseline (and vice versa is refused).
            proc, report = run_report(
                tmp, raw_json(build_type="debug", mhb_build_type="release"))
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertEqual(report["context"]["build_type"], "release")
            self.assertEqual(
                report["context"]["benchmark_lib_build_type"], "debug")
            proc, report = run_report(
                tmp, raw_json(build_type="release", mhb_build_type="debug"))
            self.assertEqual(proc.returncode, 3)

    def test_diff_gates_each_kernel_speedup(self):
        with tempfile.TemporaryDirectory() as tmp:
            _, base = run_report(tmp, raw_json(num_cpus=4))
            base_path = os.path.join(tmp, "base.json")
            with open(base_path, "w") as f:
                json.dump(base, f)

            # The conv speedup collapses -> regression named for that entry
            # alone, even though every other entry holds.
            cand = json.loads(json.dumps(base))
            cand["kernels"]["Conv2dBackward"]["speedup"] = 1.0
            cand_path = os.path.join(tmp, "cand.json")
            with open(cand_path, "w") as f:
                json.dump(cand, f)
            proc = subprocess.run(
                [sys.executable, str(MHB_DIFF), base_path, cand_path],
                capture_output=True, text=True)
            self.assertEqual(proc.returncode, 1, proc.stdout)
            self.assertIn("Conv2dBackward", proc.stdout)
            self.assertNotIn("Conv2dForward", proc.stdout)

            # A shrink within the latency ratio (default 1.3) passes.
            cand2 = json.loads(json.dumps(base))
            cand2["kernels"]["Conv2dBackward"]["speedup"] = (
                base["kernels"]["Conv2dBackward"]["speedup"] / 1.2)
            cand2_path = os.path.join(tmp, "cand2.json")
            with open(cand2_path, "w") as f:
                json.dump(cand2, f)
            proc = subprocess.run(
                [sys.executable, str(MHB_DIFF), base_path, cand2_path],
                capture_output=True, text=True)
            self.assertEqual(proc.returncode, 0,
                             proc.stdout + proc.stderr)

    def test_diff_accepts_unpaired_entries(self):
        # BM_TrainStep/* has no naive twin: the report keeps it without a
        # speedup, and the diff neither gates its wall time (host speed
        # does not cancel without a ratio) nor trips over a baseline that
        # predates it; only a candidate that drops it fails.
        with tempfile.TemporaryDirectory() as tmp:
            raw = raw_json()
            raw["benchmarks"] += run_bench("BM_TrainStep/cifar10", 5000000)
            proc, with_step = run_report(tmp, raw)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            step = with_step["kernels"]["TrainStep/cifar10"]
            self.assertNotIn("speedup", step)
            self.assertEqual(step["fast"]["wall_ns"], 5000001)
            _, without_step = run_report(tmp, raw_json())

            def diff(base, cand):
                paths = []
                for name, report in (("base", base), ("cand", cand)):
                    path = os.path.join(tmp, name + ".json")
                    with open(path, "w") as f:
                        json.dump(report, f)
                    paths.append(path)
                return subprocess.run(
                    [sys.executable, str(MHB_DIFF), *paths],
                    capture_output=True, text=True)

            slower = json.loads(json.dumps(with_step))
            slower["kernels"]["TrainStep/cifar10"]["fast"]["wall_ns"] *= 3
            proc = diff(with_step, slower)
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            proc = diff(without_step, with_step)
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            proc = diff(with_step, without_step)
            self.assertEqual(proc.returncode, 1, proc.stdout)
            self.assertIn("TrainStep/cifar10: missing in candidate",
                          proc.stdout)

    def test_diff_refuses_backend_mismatch(self):
        with tempfile.TemporaryDirectory() as tmp:
            _, base = run_report(tmp, raw_json(backend="avx2"))
            _, cand = run_report(tmp, raw_json(backend="scalar"))
            base_path = os.path.join(tmp, "base.json")
            cand_path = os.path.join(tmp, "cand.json")
            with open(base_path, "w") as f:
                json.dump(base, f)
            with open(cand_path, "w") as f:
                json.dump(cand, f)
            proc = subprocess.run(
                [sys.executable, str(MHB_DIFF), base_path, cand_path],
                capture_output=True, text=True)
            self.assertEqual(proc.returncode, 2)
            self.assertIn("backend mismatch", proc.stderr)


if __name__ == "__main__":
    unittest.main()
