#!/usr/bin/env python3
"""Terminal progress view for a running (or finished) mhbench run.

Usage: mhb_watch.py --dir results/<run-id> [--interval SEC] [--once]

Reads the status.json that `mhbench run --manifest-dir results` rewrites
in the run directory after every round (obs/live.h, DESIGN.md §5h) and
renders a one-screen progress report: the current engine run's round
progress bar, simulated clock, the accuracy-curve tail, the headline
counters, per-device-tier rollups and checkpoint writes.  The progress age
is the file's modification time: how long ago the last round barrier
published.  Strictly an observer — it only reads files the run replaces
atomically, so watching a run can never perturb it.

  mhb_watch.py --dir results/cifar10-computation-sheterofl-seed1
  mhb_watch.py --dir results/cifar10-computation-sheterofl-seed1 --once

A missing file is treated as "run not up yet": the watcher keeps polling
until interrupted (or exits 1 under --once).

Exit status: 0 on a clean snapshot (or Ctrl-C), 1 when --once finds the
file missing or malformed.
"""

import argparse
import json
import os
import sys
import time


def read_status(run_dir):
    """Returns (status, age_s) for the run's status.json, or None when the
    file is missing or malformed."""
    path = os.path.join(run_dir, "status.json")
    try:
        with open(path, encoding="utf-8") as f:
            status = json.load(f)
        age = max(0.0, time.time() - os.stat(path).st_mtime)
    except (OSError, ValueError):
        return None
    if not isinstance(status, dict):
        return None
    return status, age


def progress_bar(done, total, width=30):
    if total <= 0:
        return "[" + "?" * width + "]"
    filled = min(width, int(width * done / total))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def render(status, age_s):
    lines = []
    # One CLI run is a suite of engine runs (the fedavg-small baseline,
    # then the requested algorithm), each counting rounds from 0; the bar
    # follows the current one.
    done = status.get("last_round", -1) + 1
    total = status.get("rounds_total", 0)
    run_id = status.get("run_id") or "?"
    run = status.get("run") or "?"
    pct = f" {100.0 * done / total:5.1f}%" if total > 0 else ""
    lines.append(f"run      {run_id} ({run})")
    lines.append(
        f"rounds   {progress_bar(done, total)} {done}"
        + (f"/{total}{pct}" if total > 0 else " completed")
    )
    lines.append(
        f"clock    sim {status.get('sim_time_s', 0):.1f} s"
        f"   last progress {age_s:.1f} s ago"
    )

    acc = status.get("accuracy") or []
    if acc:
        tail = ", ".join(f"r{r}={a:.4f}" for r, a in acc[-5:])
        lines.append(f"accuracy {tail}")

    counters = status.get("counters") or {}
    headline = [
        (name, counters[name])
        for name in ("clients_trained", "clients_dropped", "bytes_up",
                     "bytes_down", "gemm_flops")
        if name in counters
    ]
    if headline:
        lines.append("counters " +
                     "  ".join(f"{n}={v:,}" for n, v in headline))

    # Per-device-tier breakdown from the "tiers" rollups.
    tiers = status.get("tiers") or {}
    for tier in sorted(tiers):
        tc = tiers[tier].get("counters") or {}
        selected = tc.get("clients_selected", 0)
        dropped = tc.get("clients_dropped", 0) + tc.get("clients_offline", 0)
        drop_rate = dropped / selected if selected else 0.0
        lines.append(
            f"tier     {tier:<10} trained={tc.get('clients_trained', 0):,}"
            f"  selected={selected:,}  drop_rate={drop_rate:.3f}"
            f"  bytes_up={tc.get('bytes_up', 0):,}")

    written = counters.get("checkpoint_writes", 0)
    if written:
        lines.append(f"ckpt     {written} written")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(
        description="watch an mhbench run via its run directory's "
                    "status.json")
    ap.add_argument("--dir", required=True,
                    help="the run directory, results/<run-id>")
    ap.add_argument("--interval", type=float, default=1.0,
                    help="poll interval in seconds (default 1)")
    ap.add_argument("--once", action="store_true",
                    help="print a single snapshot and exit")
    args = ap.parse_args()

    try:
        while True:
            snapshot = read_status(args.dir)
            if args.once:
                if snapshot is None:
                    print(f"mhb_watch: no readable status.json in {args.dir}",
                          file=sys.stderr)
                    return 1
                print(render(*snapshot))
                return 0
            # Clear-screen redraw keeps the view stable without curses.
            sys.stdout.write("\x1b[2J\x1b[H")
            if snapshot is None:
                print(f"mhb_watch: waiting for {args.dir}/status.json ...")
            else:
                print(render(*snapshot))
            sys.stdout.flush()
            time.sleep(max(0.05, args.interval))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
