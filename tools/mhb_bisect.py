#!/usr/bin/env python3
"""Diff det-audit ledgers and name the first divergent round + component.

The ledger (det_audit.jsonl, written by `mhbench run --det-audit`, format
in DESIGN.md 5k and src/obs/det_audit.h) records one 64-bit hash per
determinism component (rng, model, counters, hists) at every round barrier
plus a running chain hash.  Two runs of the same config are bit-identical
iff their ledgers match row for row — at *any* --threads, since thread
count is excluded from the comparison.  This tool is pure python, no
third-party dependencies.

Usage:
  mhb_bisect.py diff <a.jsonl> <b.jsonl>
      Compare two ledgers.  Prints "no divergence" and exits 0 when every
      round's chain and components match; otherwise names the first
      divergent round and the component(s) whose hashes differ and exits 1.
      Header mismatches (algorithm/seed/rounds — threads is deliberately
      ignored) and malformed ledgers exit 2.
  mhb_bisect.py run --binary <mhbench> [--threads-a 1] [--threads-b 4]
      [run flags...]
      Run the same config twice at two thread counts (each into its own
      temp manifest dir with --det-audit 1), then diff the ledgers as
      above.  Extra flags are forwarded to both `mhbench run` invocations
      verbatim (e.g. --task cifar10 --algorithm sheterofl --rounds 4).

Typical bisection loop: reproduce a divergence with `run`, note the round
R and component; re-run with MHB_DET_AUDIT_INJECT unset and a breakpoint
or extra logging scoped to round R's phase for that component (rng =>
a draw leaked into the parallel phase; model => merge order; counters /
hists => a metric was counted outside the serial round barrier).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HEADER_KEYS = ("algorithm", "seed", "rounds")  # threads deliberately omitted


def fail(msg):
    """Usage / malformed-input / config-mismatch errors exit 2 (divergence
    is exit 1, reserved for diff_ledgers)."""
    print(msg, file=sys.stderr)
    sys.exit(2)


def load_ledger(path):
    """Returns (header, rows) or exits 2 with a message."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
    except OSError as e:
        fail(f"mhb_bisect: cannot read {path}: {e}")
    if not lines:
        fail(f"mhb_bisect: {path}: empty ledger")
    try:
        header = json.loads(lines[0])
        rows = [json.loads(ln) for ln in lines[1:]]
    except json.JSONDecodeError as e:
        fail(f"mhb_bisect: {path}: malformed JSON line: {e}")
    if header.get("det_audit") != 1:
        fail(f"mhb_bisect: {path}: not a det-audit ledger "
                 f"(header {header!r})")
    for row in rows:
        if "round" not in row or "components" not in row:
            fail(f"mhb_bisect: {path}: malformed row {row!r}")
    return header, rows


def diff_ledgers(path_a, path_b):
    """Returns process exit code: 0 identical, 1 divergent (printed)."""
    header_a, rows_a = load_ledger(path_a)
    header_b, rows_b = load_ledger(path_b)
    for key in HEADER_KEYS:
        if header_a.get(key) != header_b.get(key):
            fail(f"mhb_bisect: ledgers are from different configs: "
                     f"{key} {header_a.get(key)!r} vs {header_b.get(key)!r}")

    by_round_b = {row["round"]: row for row in rows_b}
    for row_a in rows_a:
        rnd = row_a["round"]
        row_b = by_round_b.get(rnd)
        if row_b is None:
            break  # length mismatch handled below
        comps_a, comps_b = row_a["components"], row_b["components"]
        divergent = sorted(
            set(k for k in comps_a if comps_a.get(k) != comps_b.get(k))
            | set(k for k in comps_b if k not in comps_a))
        if divergent:
            print(f"divergence at round {rnd}: "
                  f"component(s) {', '.join(divergent)}")
            for k in divergent:
                print(f"  {k}: {comps_a.get(k, '<absent>')} vs "
                      f"{comps_b.get(k, '<absent>')}")
            return 1
        if row_a.get("chain") != row_b.get("chain"):
            # Components matched but the chain didn't: an earlier row is
            # missing or reordered in one ledger.
            print(f"divergence at round {rnd}: chain mismatch with equal "
                  f"components (missing or reordered earlier rows)")
            return 1
    if len(rows_a) != len(rows_b):
        print(f"divergence: ledger lengths differ "
              f"({len(rows_a)} vs {len(rows_b)} rounds)")
        return 1
    print(f"no divergence ({len(rows_a)} rounds compared)")
    return 0


def run_mode(argv):
    parser = argparse.ArgumentParser(
        prog="mhb_bisect.py run",
        description="Run one config at two thread counts and diff ledgers.")
    parser.add_argument("--binary", required=True, help="mhbench binary")
    parser.add_argument("--threads-a", type=int, default=1)
    parser.add_argument("--threads-b", type=int, default=4)
    parser.add_argument("--keep", action="store_true",
                        help="keep the temp run directories")
    args, passthrough = parser.parse_known_args(argv)
    if not os.path.exists(args.binary):
        fail(f"mhb_bisect: no such binary: {args.binary}")
    for bad in ("--threads", "--manifest-dir", "--det-audit"):
        if bad in passthrough:
            fail(f"mhb_bisect: {bad} is managed by run mode; "
                     "drop it from the passthrough flags")

    tmp = tempfile.mkdtemp(prefix="mhb_bisect_")
    ledgers = []
    try:
        for label, threads in (("a", args.threads_a), ("b", args.threads_b)):
            out_dir = os.path.join(tmp, label)
            cmd = [args.binary, "run", *passthrough,
                   "--threads", str(threads),
                   "--manifest-dir", out_dir, "--det-audit", "1"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT)
            if proc.returncode != 0:
                sys.stdout.buffer.write(proc.stdout)
                fail(f"mhb_bisect: run failed (threads={threads}): "
                         f"{' '.join(cmd)}")
            found = []
            for root, _dirs, files in os.walk(out_dir):
                found += [os.path.join(root, f) for f in files
                          if f == "det_audit.jsonl"]
            if len(found) != 1:
                fail(f"mhb_bisect: expected one det_audit.jsonl under "
                         f"{out_dir}, found {len(found)}")
            ledgers.append(found[0])
        rc = diff_ledgers(ledgers[0], ledgers[1])
    finally:
        if args.keep:
            print(f"run directories kept under {tmp}", file=sys.stderr)
        else:
            shutil.rmtree(tmp, ignore_errors=True)
    return rc


def main():
    if len(sys.argv) < 2 or sys.argv[1] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if len(sys.argv) >= 2 else 2
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "diff":
        if len(rest) != 2:
            fail("mhb_bisect: usage: mhb_bisect.py diff <a> <b>")
        return diff_ledgers(rest[0], rest[1])
    if mode == "run":
        return run_mode(rest)
    fail(f"mhb_bisect: unknown mode {mode!r} (want diff|run)")


if __name__ == "__main__":
    sys.exit(main())
