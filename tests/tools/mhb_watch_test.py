#!/usr/bin/env python3
"""Tests for tools/mhb_watch.py: --once over a run directory.

A fixture run directory holds a status.json shaped like the one
`mhbench run --manifest-dir` publishes each round; the watcher must render
the progress bar, the tier pane and the checkpoint line from it, and exit 1
when the file is missing or malformed.
"""
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
MHB_WATCH = ROOT / "tools" / "mhb_watch.py"

STATUS = {
    "run_id": "cifar10-computation-sheterofl-seed1",
    "run": "sheterofl",
    "rounds_completed": 3,
    "last_round": 2,
    "rounds_total": 4,
    "sim_time_s": 120.5,
    "accuracy": [[1, 0.25], [2, 0.3125]],
    "counters": {
        "bytes_up": 1500,
        "checkpoint_writes": 1,
        "clients_dropped": 1,
        "clients_trained": 11,
    },
    "histograms": {},
    "tiers": {
        "cpu": {"counters": {"clients_selected": 4, "clients_trained": 3,
                             "clients_dropped": 1, "clients_offline": 0,
                             "bytes_up": 500},
                "histograms": {}},
        "mem4g": {"counters": {"clients_selected": 8, "clients_trained": 8,
                               "clients_dropped": 0, "clients_offline": 0,
                               "bytes_up": 1000},
                  "histograms": {}},
    },
    "gauges": {"global_acc": 0.3125},
}


def watch_once(run_dir):
    return subprocess.run(
        [sys.executable, str(MHB_WATCH), "--dir", run_dir, "--once"],
        capture_output=True, text=True, timeout=60)


class MhbWatchTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.run_dir = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def write_status(self, text):
        with open(os.path.join(self.run_dir, "status.json"), "w",
                  encoding="utf-8") as f:
            f.write(text)

    def test_once_renders_progress_and_tiers(self):
        self.write_status(json.dumps(STATUS, indent=2))
        proc = watch_once(self.run_dir)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        out = proc.stdout
        self.assertIn("cifar10-computation-sheterofl-seed1 (sheterofl)", out)
        # Rounds 0..2 of 4 done in the current engine run.
        self.assertIn("[" + "#" * 22 + "-" * 8 + "] 3/4  75.0%", out)
        self.assertNotIn("barriers", out)
        self.assertIn("sim 120.5 s", out)
        self.assertIn("last progress", out)
        self.assertIn("r2=0.3125", out)
        self.assertIn("clients_trained=11", out)
        self.assertIn("tier     cpu        trained=3  selected=4  "
                      "drop_rate=0.250  bytes_up=500", out)
        self.assertIn("tier     mem4g", out)
        self.assertIn("ckpt     1 written", out)

    def test_once_exits_1_on_missing_file(self):
        proc = watch_once(self.run_dir)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("no readable status.json", proc.stderr)
        proc = watch_once(os.path.join(self.run_dir, "no-such-run"))
        self.assertEqual(proc.returncode, 1)

    def test_once_exits_1_on_malformed_file(self):
        self.write_status('{"run_id": "torn')
        self.assertEqual(watch_once(self.run_dir).returncode, 1)
        self.write_status("[1, 2, 3]")
        self.assertEqual(watch_once(self.run_dir).returncode, 1)


if __name__ == "__main__":
    unittest.main()
