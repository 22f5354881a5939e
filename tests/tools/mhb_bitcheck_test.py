#!/usr/bin/env python3
"""Tests for tools/mhb_bitcheck.py against two stub mhbench binaries.

Each stub is a small script that answers `run` like mhbench does: it prints
a metric line and the "[manifest written to ...]" path line, writes a
det_audit.jsonl and a clients.mhbj into its --manifest-dir and a snapshot
into its --checkpoint-dir.  Identical stubs must pass (a differing path line
included); one byte of difference in one config's journal or snapshot must
be named by algorithm, task, threads and file, and a run that writes no
snapshot fails the check.
"""
import pathlib
import stat
import subprocess
import sys
import tempfile
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
MHB_BITCHECK = ROOT / "tools" / "mhb_bitcheck.py"

STUB = """#!{python} -S
import os, sys
args = dict(zip(sys.argv[2::2], sys.argv[3::2]))
config = (args["--algorithm"], args["--task"], args["--threads"])
run_dir = os.path.join(args["--manifest-dir"], "-".join(config[:2]))
os.makedirs(run_dir)
print("acc", "-".join(config))
print("[manifest written to {manifest_prefix}" + run_dir + "]")
with open(os.path.join(run_dir, "det_audit.jsonl"), "w") as f:
    f.write("ledger " + "-".join(config) + "\\n")
journal = b"journal " + "-".join(config).encode()
if config == {diff_at!r}:
    journal = journal[:-1] + b"X"
with open(os.path.join(run_dir, "clients.mhbj"), "wb") as f:
    f.write(journal)
snapshot = b"snapshot " + "-".join(config).encode()
if config == {snapshot_diff_at!r}:
    snapshot = b"X" + snapshot[1:]
if {write_snapshot!r}:
    os.makedirs(args["--checkpoint-dir"])
    with open(os.path.join(args["--checkpoint-dir"], "round_000002.mhbsnap"),
              "wb") as f:
        f.write(snapshot)
"""


class MhbBitcheckTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = pathlib.Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def stub(self, name, manifest_prefix="", diff_at=None,
             snapshot_diff_at=None, write_snapshot=True):
        path = self.dir / name
        path.write_text(STUB.format(python=sys.executable,
                                    manifest_prefix=manifest_prefix,
                                    diff_at=diff_at,
                                    snapshot_diff_at=snapshot_diff_at,
                                    write_snapshot=write_snapshot))
        path.chmod(path.stat().st_mode | stat.S_IXUSR)
        return str(path)

    def bitcheck(self, parent, change):
        return subprocess.run(
            [sys.executable, str(MHB_BITCHECK), parent, change],
            capture_output=True, text=True, timeout=300)

    def test_identical_stubs_pass(self):
        # The path line differs between the two; it is not compared.
        result = self.bitcheck(
            self.stub("parent"),
            self.stub("change", manifest_prefix="/elsewhere/"))
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("identical: 90 runs, 360 outputs", result.stdout)

    def test_one_byte_ledger_difference_is_named(self):
        result = self.bitcheck(
            self.stub("parent"),
            self.stub("change", diff_at=("fedproto", "agnews", "4")))
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("DIFFER: algorithm=fedproto task=agnews threads=4 "
                      "file=fedproto-agnews/clients.mhbj", result.stdout)

    def test_one_byte_snapshot_difference_is_named(self):
        result = self.bitcheck(
            self.stub("parent"),
            self.stub("change", snapshot_diff_at=("fedet", "ucihar", "1")))
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("DIFFER: algorithm=fedet task=ucihar threads=1 "
                      "file=ck/round_000002.mhbsnap", result.stdout)

    def test_run_without_snapshot_exits_2(self):
        result = self.bitcheck(self.stub("parent"),
                               self.stub("change", write_snapshot=False))
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)
        self.assertIn("wrote no ck/round_*.mhbsnap", result.stderr)

    def test_failing_run_exits_2(self):
        broken = self.dir / "broken"
        broken.write_text("#!/bin/sh\nexit 3\n")
        broken.chmod(broken.stat().st_mode | stat.S_IXUSR)
        result = self.bitcheck(self.stub("parent"), str(broken))
        self.assertEqual(result.returncode, 2)
        self.assertIn("exited 3", result.stderr)


if __name__ == "__main__":
    unittest.main()
