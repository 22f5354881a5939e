#!/usr/bin/env python3
"""Byte-compare two mhbench binaries over a fixed run matrix.

A change that must keep every result bit (a refactor, a speed-up) is checked
by running the parent's and the change's `mhbench` on the same configs and
comparing what they write.  The matrix is every algorithm x {cifar10,
cifar100, ucihar, agnews, stackoverflow} (one task per model family the CLI
reaches) x --threads {1, 4}, each run as

  MHB_TRAIN=240 MHB_TEST=120 mhbench run --task T --algorithm A
      --rounds 4 --clients 12 --checkpoint-every 2 --checkpoint-dir ck
      --det-audit 1 --manifest-dir md --threads N

in a fresh directory per binary.  Compared, per run: stdout (the
"[manifest written to ...]" path line dropped), every det_audit.jsonl and
clients.mhbj under the manifest dir, and every ck/round_*.mhbsnap snapshot.

Usage:
  mhb_bitcheck.py <parent-mhbench> <change-mhbench>

Exits 0 when every file of every run matches, 1 naming the first differing
(algorithm, task, threads, file), and 2 when a run fails or writes no
ledger, journal or snapshot.  Pure python, no third-party dependencies.
"""

import argparse
import os
import subprocess
import sys
import tempfile

ALGORITHMS = ("fedavg", "fjord", "sheterofl", "fedrolex", "depthfl",
              "inclusivefl", "fedepth", "fedproto", "fedet")
TASKS = ("cifar10", "cifar100", "ucihar", "agnews", "stackoverflow")
THREADS = (1, 4)
COMPARED_FILES = ("det_audit.jsonl", "clients.mhbj")
ENV = {"MHB_TRAIN": "240", "MHB_TEST": "120"}


def fail(msg):
    print(f"mhb_bitcheck: {msg}", file=sys.stderr)
    sys.exit(2)


def run_one(binary, workdir, algorithm, task, threads):
    """Runs one config in `workdir`; returns {name: bytes} of its outputs."""
    os.makedirs(workdir)
    cmd = [binary, "run", "--task", task, "--algorithm", algorithm,
           "--rounds", "4", "--clients", "12", "--checkpoint-every", "2",
           "--checkpoint-dir", "ck", "--det-audit", "1",
           "--manifest-dir", "md", "--threads", str(threads)]
    proc = subprocess.run(cmd, cwd=workdir, env={**os.environ, **ENV},
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode} in {workdir}:\n"
             + proc.stderr.decode(errors="replace"))
    stdout = b"\n".join(
        ln for ln in proc.stdout.split(b"\n")
        if not ln.startswith(b"[manifest written to "))
    outputs = {"stdout": stdout}
    manifest_dir = os.path.join(workdir, "md")
    for root, _, files in os.walk(manifest_dir):
        for name in files:
            if name in COMPARED_FILES:
                path = os.path.join(root, name)
                with open(path, "rb") as f:
                    outputs[os.path.relpath(path, manifest_dir)] = f.read()
    for name in COMPARED_FILES:
        if not any(os.path.basename(k) == name for k in outputs):
            fail(f"{binary} wrote no {name} for {algorithm}/{task}"
                 f"/threads={threads}")
    checkpoint_dir = os.path.join(workdir, "ck")
    snapshots = sorted(
        name for name in (os.listdir(checkpoint_dir)
                          if os.path.isdir(checkpoint_dir) else [])
        if name.startswith("round_") and name.endswith(".mhbsnap"))
    if not snapshots:
        fail(f"{binary} wrote no ck/round_*.mhbsnap for {algorithm}/{task}"
             f"/threads={threads}")
    for name in snapshots:
        with open(os.path.join(checkpoint_dir, name), "rb") as f:
            outputs[os.path.join("ck", name)] = f.read()
    return outputs


def main():
    parser = argparse.ArgumentParser(
        description="Byte-compare two mhbench binaries over a fixed matrix.")
    parser.add_argument("parent", help="the reference mhbench binary")
    parser.add_argument("change", help="the mhbench binary under test")
    args = parser.parse_args()
    binaries = [os.path.abspath(b) for b in (args.parent, args.change)]
    for b in binaries:
        if not os.access(b, os.X_OK):
            fail(f"{b} is not an executable")

    runs = 0
    outputs = 0
    with tempfile.TemporaryDirectory(prefix="mhb_bitcheck_") as tmp:
        for algorithm in ALGORITHMS:
            for task in TASKS:
                for threads in THREADS:
                    config = f"{algorithm}-{task}-t{threads}"
                    parent = run_one(binaries[0],
                                     os.path.join(tmp, "parent", config),
                                     algorithm, task, threads)
                    change = run_one(binaries[1],
                                     os.path.join(tmp, "change", config),
                                     algorithm, task, threads)
                    names = sorted(set(parent) | set(change))
                    for name in names:
                        if parent.get(name) != change.get(name):
                            print(f"DIFFER: algorithm={algorithm} task={task} "
                                  f"threads={threads} file={name}")
                            return 1
                    runs += 1
                    outputs += len(names)
    print(f"identical: {runs} runs, {outputs} outputs (stdout, "
          f"{', '.join(COMPARED_FILES)}, ck/round_*.mhbsnap; "
          f"{len(ALGORITHMS)} algorithms x {len(TASKS)} tasks x "
          f"threads {'/'.join(map(str, THREADS))})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
