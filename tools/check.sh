#!/usr/bin/env bash
# Full verification: static analysis (mhb_lint + its fixture suite), then
# build + ctest in the plain configuration (plus an observability smoke run
# that emits and schema-checks a trace + manifest + tiers.csv, validates
# and CSV-converts the client event journal, and indexes two runs with
# mhb_report.py; a checkpoint/resume smoke that mhb_diffs a resumed run
# against an uninterrupted one; and a live telemetry smoke that parses the
# metrics.prom + status.json a finished run left and checks them against
# its manifest totals; and a determinism-audit smoke that bisects 1-thread
# vs 2-thread det-audit ledgers, exercises the injected-divergence seam,
# and asserts the auditor itself leaves manifests and journals
# bit-identical; and a liveness smoke that fails if a nested-parallelism
# run hangs), then again under ThreadSanitizer (MHBENCH_SANITIZE=thread) to
# race-check the parallel round executor.  Run from anywhere; builds live
# in build*/ siblings.
#
#   tools/check.sh           # lint + plain + tsan
#   tools/check.sh --lint    # mhb_lint fixtures + clean tree scan (no build)
#   tools/check.sh --plain   # plain only
#   tools/check.sh --tsan    # tsan only
#   tools/check.sh --asan    # AddressSanitizer build + ctest
#   tools/check.sh --ubsan   # UBSan build + ctest (recover disabled)
#   tools/check.sh --asan-ubsan      # combined address,undefined build
#   tools/check.sh --wthread-safety  # clang -Werror=thread-safety compile
#                            #   (skipped with a notice when clang is absent)
#   tools/check.sh --release # Release (-O3) build + ctest
#   tools/check.sh --bench   # Release build + kernel bench smoke (gates the
#                            #   fresh report against BENCH_kernels.json with
#                            #   mhb_diff, then refreshes it) + obs artifacts
#                            #   + end-to-end benchmark harness build and
#                            #   fidelity test
#   tools/check.sh --bitcheck REF  # Release mhbench of REF and of this
#                            #   checkout, compared by mhb_bitcheck.py's
#                            #   full run matrix (bits unchanged vs REF)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
mode="${1:-all}"

run_suite() {
  local dir="$1"; shift
  cmake -B "$dir" -S "$repo" "$@"
  cmake --build "$dir" -j
  ctest --test-dir "$dir" --output-on-failure -j
}

# Determinism/concurrency static analysis: the linter's own fixture tests
# (exact rule IDs, file:line anchors, exit codes — the same suite ctest
# runs), which end with a clean scan of the repository tree.  No build.
run_lint() {
  if ! command -v python3 >/dev/null 2>&1; then
    echo "check.sh: python3 not found, cannot run mhb_lint" >&2
    return 1
  fi
  python3 "$repo/tests/lint/lint_test.py"
  echo "check.sh: mhb_lint passed"
}

# Compile with clang's thread-safety analysis promoted to errors; checks the
# MHB_GUARDED_BY/MHB_REQUIRES contracts on core::Mutex-protected state
# (DESIGN.md §5f).  Compile-only: the plain/tsan suites already execute the
# tests, this leg only needs the analysis verdict.
run_wthread_safety() {
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "check.sh: clang++ not found, skipping -Wthread-safety leg"
    return 0
  fi
  cmake -B "$repo/build-clang" -S "$repo" \
    -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++
  cmake --build "$repo/build-clang" -j
  echo "check.sh: clang -Werror=thread-safety build passed"
}

# End-to-end telemetry smoke: a tiny mhbench run that writes a Chrome trace
# plus a run manifest, then schema-checks both (valid JSON, the event/field
# shapes Perfetto and the manifest readers rely on).  Needs python3; skipped
# with a notice when it is unavailable.
smoke_obs() {
  local build_dir="$1"
  if ! command -v python3 >/dev/null 2>&1; then
    echo "check.sh: python3 not found, skipping telemetry smoke"
    return 0
  fi
  local out
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' RETURN
  MHB_TRAIN=160 MHB_TEST=80 "$build_dir/tools/mhbench" run \
    --task cifar10 --algorithm sheterofl --rounds 2 --clients 4 \
    --threads 2 --trace "$out/trace.json" \
    --manifest-dir "$out/results" >/dev/null
  python3 - "$out" <<'PY'
import csv, json, pathlib, sys
out = pathlib.Path(sys.argv[1])

events = json.loads((out / "trace.json").read_text())
assert isinstance(events, list) and events, "trace.json: empty event array"
names = set()
for e in events:
    assert e["ph"] in ("X", "M"), f"unexpected phase {e['ph']!r}"
    assert isinstance(e["pid"], int)
    if e["ph"] == "X":
        assert isinstance(e["tid"], int)
        assert e["ts"] >= 0 and e["dur"] >= 0
        names.add(e["name"])
for required in ("round", "dispatch", "client", "merge"):
    assert required in names, f"trace.json: no {required!r} span"
assert {e["pid"] for e in events} >= {1, 2}, "missing wall or sim track"

for line in (out / "trace.jsonl").read_text().splitlines():
    json.loads(line)

runs = list((out / "results").iterdir())
assert len(runs) == 1, f"expected one run dir, got {runs}"
manifest = json.loads((runs[0] / "manifest.json").read_text())
for key in ("run_id", "seed", "threads", "config", "metrics", "counters"):
    assert key in manifest, f"manifest.json: missing {key!r}"
assert manifest["counters"]["clients_trained"] > 0

rounds = (runs[0] / "rounds.csv").read_text().splitlines()
assert rounds[0].startswith("run,round,"), "rounds.csv: bad header"
assert len(rounds) == 1 + manifest["rounds"], "rounds.csv: row count"


# The round CSVs are appended to between rewrites: a torn or mis-schema'd
# append shows as a row whose cell count differs from the header's, or as
# a (run, round) key that goes backwards — a round below the run's last
# one, or a run label that returns after another run's rows.
def check_streamed_csv(path):
    with open(path, newline="") as f:
        header, *rows = list(csv.reader(f))
    last_round = {}
    for i, row in enumerate(rows, start=2):
        assert len(row) == len(header), \
            f"{path.name}:{i}: {len(row)} cells, header has {len(header)}"
        run, rnd = row[0], int(row[1])
        if run in last_round:
            assert run == list(last_round)[-1], \
                f"{path.name}:{i}: run {run!r} resumes after another run"
            assert rnd >= last_round[run], \
                f"{path.name}:{i}: {run} round {rnd} after {last_round[run]}"
        last_round[run] = rnd


check_streamed_csv(runs[0] / "rounds.csv")

hists = manifest["histograms"]
for name in ("client_wall_us", "client_bytes_up", "client_train_mflops"):
    h = hists[name]
    assert h["count"] == manifest["counters"]["clients_trained"], name
    for q in ("p50", "p95", "p99"):
        assert h["min"] <= h[q] <= h["max"], f"{name}.{q} outside [min,max]"

profile = json.loads((runs[0] / "profile.json").read_text())
assert profile["op_totals"], "profile.json: no op totals"
for op in ("local_train", "forward", "backward", "conv2d_fwd"):
    assert op in profile["op_totals"], f"profile.json: no {op!r} op"
assert profile["op_totals"]["conv2d_fwd"]["gemm_flops"] > 0
for row in profile["tree"]:
    assert row["wall_us"] + 1e-6 >= row["self_wall_us"] >= 0, row["path"]

# Per-device-tier rollups (DESIGN.md 5j): the manifest regroups the
# tier-keyed `<base>@<tier>` counters under "tiers", and tiers.csv carries
# the per-(round, tier) deltas.
tiers = manifest["tiers"]
assert tiers, "manifest.json: no per-tier rollups"
for tier, roll in tiers.items():
    assert "@" not in tier and "counters" in roll, tier
assert sum(t["counters"].get("clients_trained", 0)
           for t in tiers.values()) \
    == manifest["counters"]["clients_trained"], "tier rollup partition"

tiers_csv = (runs[0] / "tiers.csv").read_text().splitlines()
assert tiers_csv[0].startswith("run,round,tier,"), "tiers.csv: bad header"
assert len(tiers_csv) > 1, "tiers.csv: no rows"
check_streamed_csv(runs[0] / "tiers.csv")

# The bounded-memory client event journal replaced the clients.csv dump.
assert (runs[0] / "clients.mhbj").is_file(), "clients.mhbj missing"
assert not (runs[0] / "clients.csv").exists(), "legacy clients.csv present"
print("check.sh: telemetry smoke passed")
PY

  local run_dir
  run_dir="$(echo "$out"/results/*)"
  # Client event journal: full structural validation, then the legacy-CSV
  # conversion must reproduce the old clients.csv schema and reconcile with
  # the manifest's trained count.
  python3 "$repo/tools/mhb_journal.py" check "$run_dir/clients.mhbj"
  python3 "$repo/tools/mhb_journal.py" csv "$run_dir/clients.mhbj" \
    -o "$out/clients.csv"
  python3 - "$out/clients.csv" "$run_dir/manifest.json" <<'PY'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
assert lines[0] == ("run,round,client,drop_reason,sim_compute_s,"
                    "sim_comm_s,memory_mb,wall_ms,bytes_up,bytes_down,"
                    "train_mflops"), "converted csv: bad header"
manifest = json.load(open(sys.argv[2]))
trained = sum(1 for line in lines[1:] if line.split(",")[3] == "")
assert trained == manifest["counters"]["clients_trained"], "journal rows"
print("check.sh: client journal smoke passed")
PY

  # Cross-run experiment index: a second run into the same results root,
  # then mhb_report.py must index both and render the per-tier tables.
  MHB_TRAIN=160 MHB_TEST=80 "$build_dir/tools/mhbench" run \
    --task cifar10 --algorithm fedavg --rounds 2 --clients 4 \
    --threads 2 --manifest-dir "$out/results" >/dev/null
  python3 "$repo/tools/mhb_report.py" "$out/results" > "$out/report.txt"
  python3 - "$out" <<'PY'
import json, pathlib, sys
out = pathlib.Path(sys.argv[1])
runs = [json.loads(line) for line in
        (out / "results" / "experiments.jsonl").read_text().splitlines()]
assert len(runs) == 2, f"expected 2 indexed runs, got {len(runs)}"
assert {r["algorithm"] for r in runs} == {"sheterofl", "fedavg"}
for r in runs:
    assert r["tiers"], f"run {r['run_id']}: no tier rollups in index"
report = (out / "report.txt").read_text()
assert "== experiments ==" in report, report
assert "== per-tier rollups ==" in report, report
print("check.sh: mhb_report smoke passed (2 runs indexed)")
PY

  # Regression differ round-trip: a run must diff clean against itself, and
  # a doctored copy with 2x client latency must trip the 1.3x gate.
  python3 "$repo/tools/mhb_diff.py" "$run_dir" "$run_dir" >/dev/null
  cp -r "$run_dir" "$out/regressed"
  python3 - "$out/regressed/manifest.json" <<'PY'
import json, sys
path = sys.argv[1]
m = json.load(open(path))
for q in ("p50", "p95", "p99"):
    m["histograms"]["client_wall_us"][q] *= 2
json.dump(m, open(path, "w"))
PY
  if python3 "$repo/tools/mhb_diff.py" "$run_dir" "$out/regressed" \
      >/dev/null; then
    echo "check.sh: mhb_diff missed an injected 2x latency regression" >&2
    return 1
  fi
  echo "check.sh: mhb_diff smoke passed"
}

# Checkpoint/resume smoke: the CLI surface of the snapshot subsystem.  A
# full run, a checkpointing run (snapshot every 2 rounds), and a run resumed
# from the mid-run snapshot must produce manifests that diff clean — same
# counters, histograms, and metrics.  Only the client_wall_us quantiles are
# relaxed: wall time is real-clock noise, explicitly outside the
# bit-identical-resume contract (DESIGN.md §5g).
smoke_resume() {
  local build_dir="$1"
  if ! command -v python3 >/dev/null 2>&1; then
    echo "check.sh: python3 not found, skipping resume smoke"
    return 0
  fi
  local out
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' RETURN
  local cli=("$build_dir/tools/mhbench")
  local common=(run --task cifar10 --algorithm sheterofl --rounds 4 \
    --clients 4 --threads 2 --profile 0)
  MHB_TRAIN=160 MHB_TEST=80 "${cli[@]}" "${common[@]}" \
    --manifest-dir "$out/full" >/dev/null
  MHB_TRAIN=160 MHB_TEST=80 "${cli[@]}" "${common[@]}" \
    --checkpoint-every 2 --checkpoint-dir "$out/ckpt" >/dev/null
  test -f "$out/ckpt/round_000002.mhbsnap"
  MHB_TRAIN=160 MHB_TEST=80 "${cli[@]}" "${common[@]}" \
    --resume "$out/ckpt/round_000002.mhbsnap" \
    --manifest-dir "$out/resumed" >/dev/null
  cat > "$out/thresholds.json" <<'JSON'
{
  "client_wall_us*": {"ratio": 1000}
}
JSON
  python3 "$repo/tools/mhb_diff.py" --thresholds "$out/thresholds.json" \
    "$out/full" "$out/resumed" >/dev/null
  echo "check.sh: resume smoke passed"
}

# Live telemetry smoke: the CLI surface of the round-barrier publisher
# (obs/live.h, DESIGN.md §5h).  One --manifest-dir run with checkpoints,
# then checks after it exits: every non-comment metrics.prom line parses
# as `name[{labels}] value`, status.json carries exactly the documented
# keys and describes the last round, and the final counters in both files
# equal manifest.json's totals (the after-run publish is what makes the
# last checkpoint write count).  Nothing polls mid-run, so there is no
# timing window to miss.
smoke_live() {
  local build_dir="$1"
  if ! command -v python3 >/dev/null 2>&1; then
    echo "check.sh: python3 not found, skipping live telemetry smoke"
    return 0
  fi
  local out
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' RETURN
  MHB_TRAIN=160 MHB_TEST=80 "$build_dir/tools/mhbench" run --task cifar10 \
    --algorithm sheterofl --rounds 4 --clients 4 --threads 2 --profile 0 \
    --checkpoint-every 2 --checkpoint-dir "$out/ckpt" \
    --manifest-dir "$out/runs" >/dev/null
  python3 - "$out/runs" <<'PY'
import glob, json, os, re, sys

manifests = glob.glob(os.path.join(sys.argv[1], "*", "manifest.json"))
assert len(manifests) == 1, f"expected one run directory, got {manifests}"
run_dir = os.path.dirname(manifests[0])
manifest = json.load(open(manifests[0]))

# metrics.prom: every sample line is `name[{labels}] value`.
label = r'[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
sample = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
                    rf"(\{{{label}(?:,{label})*\}})? (\S+)$")
samples = {}
for line in open(os.path.join(run_dir, "metrics.prom")).read().splitlines():
    if not line or line.startswith("#"):
        continue
    m = sample.match(line)
    assert m, f"metrics.prom: unparseable line {line!r}"
    samples[m.group(1) + (m.group(2) or "")] = float(m.group(3))
assert samples["mhb_up"] == 1

status = json.load(open(os.path.join(run_dir, "status.json")))
keys = {"run_id", "run", "rounds_completed", "last_round", "rounds_total",
        "sim_time_s", "accuracy", "counters", "histograms", "tiers",
        "gauges"}
assert set(status) == keys, f"status.json keys: {sorted(status)}"
# The CLI's suite runs the fedavg-small effectiveness baseline before the
# requested algorithm; both files describe the requested one's 4 rounds.
assert status["run"] == "sheterofl", status["run"]
assert status["rounds_total"] == 4
assert status["last_round"] == 3
assert status["rounds_completed"] == 4, status["rounds_completed"]
assert samples["mhb_rounds_completed"] == 4
assert samples["mhb_last_round"] == 3

# Final totals: both files agree with the manifest, tier twins included.
untiered = {k: v for k, v in manifest["counters"].items() if "@" not in k}
assert status["counters"] == untiered, "status.json counters != manifest"
assert untiered["checkpoint_writes"] == 2
for tier, m in manifest["tiers"].items():
    assert status["tiers"][tier]["counters"] == m["counters"], tier
for name, value in manifest["counters"].items():
    base, _, tier = name.partition("@")
    key = f"mhb_counter_{base}" + (f'{{tier="{tier}"}}' if tier else "")
    assert samples[key] == value, f"metrics.prom {key} != manifest {value}"
print(f"check.sh: live files valid ({len(samples)} samples, "
      f"{len(status['counters'])} counters)")
PY
  echo "check.sh: live telemetry smoke passed"
}

# Determinism-audit smoke: the CLI surface of the divergence auditor
# (obs/det_audit.h, DESIGN.md §5k).  Three legs: (1) a 4-round config run at
# 1 and 2 threads with --det-audit 1 must produce ledgers mhb_bisect.py
# calls identical ("no divergence", exit 0); (2) the MHB_DET_AUDIT_INJECT
# seam perturbs the rng component from round 0 on, and the bisect must exit
# nonzero naming exactly that round and component; (3) the auditor is pure
# observation — an audit-on run's manifest counters and client journal
# bytes equal an audit-off run's.
smoke_det_audit() {
  local build_dir="$1"
  if ! command -v python3 >/dev/null 2>&1; then
    echo "check.sh: python3 not found, skipping det-audit smoke"
    return 0
  fi
  local out
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' RETURN
  local cli=("$build_dir/tools/mhbench")
  local common=(run --task cifar10 --algorithm sheterofl --rounds 4 \
    --clients 4 --profile 0)
  MHB_TRAIN=160 MHB_TEST=80 "${cli[@]}" "${common[@]}" --threads 1 \
    --manifest-dir "$out/t1" --det-audit 1 >/dev/null
  MHB_TRAIN=160 MHB_TEST=80 "${cli[@]}" "${common[@]}" --threads 2 \
    --manifest-dir "$out/t2" --det-audit 1 >/dev/null
  local ledger1 ledger2
  ledger1="$(echo "$out"/t1/*/det_audit.jsonl)"
  ledger2="$(echo "$out"/t2/*/det_audit.jsonl)"
  python3 "$repo/tools/mhb_bisect.py" diff "$ledger1" "$ledger2" \
    | tee "$out/bisect.out"
  grep -q "no divergence" "$out/bisect.out"
  echo "check.sh: det-audit ledgers identical at 1 vs 2 threads"

  # Injected divergence: the bisect must fail and localize it to the seam.
  MHB_TRAIN=160 MHB_TEST=80 MHB_DET_AUDIT_INJECT=rng \
    "${cli[@]}" "${common[@]}" --threads 2 \
    --manifest-dir "$out/inj" --det-audit 1 >/dev/null
  local ledger_inj
  ledger_inj="$(echo "$out"/inj/*/det_audit.jsonl)"
  if python3 "$repo/tools/mhb_bisect.py" diff "$ledger1" "$ledger_inj" \
      > "$out/bisect_inj.out"; then
    echo "check.sh: mhb_bisect missed the injected divergence" >&2
    return 1
  fi
  grep -q "divergence at round 0" "$out/bisect_inj.out"
  grep -q "rng" "$out/bisect_inj.out"
  echo "check.sh: injected divergence localized to round 0, component rng"

  # Pure observation: audit-off at the same thread count must match the
  # audit-on run's journal bytes exactly and its manifest counters +
  # histogram buckets key for key.
  MHB_TRAIN=160 MHB_TEST=80 "${cli[@]}" "${common[@]}" --threads 2 \
    --manifest-dir "$out/noaudit" >/dev/null
  cmp "$out"/t2/*/clients.mhbj "$out"/noaudit/*/clients.mhbj
  python3 - "$out" <<'PY'
import glob, json, sys
out = sys.argv[1]
on = json.load(open(glob.glob(out + "/t2/*/manifest.json")[0]))
off = json.load(open(glob.glob(out + "/noaudit/*/manifest.json")[0]))
assert on["counters"] == off["counters"], "counters changed under audit"
for name, h in on["histograms"].items():
    if name.split("@")[0].endswith(("_us", "_ms")):
        continue  # wall clock: outside the determinism contract
    assert h == off["histograms"][name], f"histogram {name} changed"
assert on["metrics"] == off["metrics"], "metrics changed under audit"
print("check.sh: audit-on run bit-identical to audit-off")
PY
  echo "check.sh: det-audit smoke passed"
}

# Kernel benchmark smoke: builds Release, runs the GEMM/conv micro-benchmarks
# through both backends (fast vs naive), one training step of each
# ws-grid task's primary model (BM_TrainStep/*), one masked-aggregation
# round (BM_MaskedAggregationRound*) and one fleet-obs client through
# RunClient (BM_RunClient/ucihar; these three are recorded but not gated,
# as they have no naive twin), and distills the raw google-benchmark output into
# BENCH_kernels.json (p50/p95 wall time per shape plus machine-normalized
# speedup ratios).  Per-repetition rows (no
# aggregates-only) feed real quantiles.  The fresh report is gated against
# the committed baseline with mhb_diff at a 1.3x threshold on the speedup
# ratios — absolute times are too host-dependent to assert — and the diff
# refuses cross-backend comparisons (the report records the
# runtime-dispatched kernel backend).  On pass the committed file is
# replaced.  bench_report.py exits 3 when bench_micro itself was a debug
# build (the binary stamps its NDEBUG state into the context), which aborts
# this function under `set -e` — a miswired non-Release build cannot
# publish numbers.
smoke_bench() {
  local build_dir="$1"
  if ! command -v python3 >/dev/null 2>&1; then
    echo "check.sh: python3 not found, skipping kernel bench smoke"
    return 0
  fi
  local raw
  raw="$(mktemp)"
  trap 'rm -f "$raw"' RETURN
  "$build_dir/bench/bench_micro" \
    --benchmark_filter='BM_Matmul|BM_Conv2d|BM_TrainStep|BM_MaskedAggregation|BM_RunClient' \
    --benchmark_min_time=0.3 --benchmark_repetitions=5 \
    --benchmark_out="$raw" --benchmark_out_format=json >/dev/null
  python3 "$repo/tools/bench_report.py" "$raw" "$build_dir/BENCH_kernels.json"
  python3 "$repo/tools/mhb_diff.py" --latency-ratio 1.3 \
    "$repo/BENCH_kernels.json" "$build_dir/BENCH_kernels.json"
  cp "$build_dir/BENCH_kernels.json" "$repo/BENCH_kernels.json"
}

# End-to-end benchmark harness smoke: e2ebench/ is a separate CMake project
# compiled against the library's public API (SnapshotWriter, Registry,
# ObsConfig, BenchPreset).  Configure it into $build_dir/e2ebench, build its
# fidelity test and run it, so a refactor that breaks that API fails here
# rather than only when the benchmark itself is next run.
smoke_e2ebench() {
  local build_dir="$1"
  cmake -S "$repo/e2ebench" -B "$build_dir/e2ebench" \
    -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir/e2ebench" -j --target fidelity_test
  "$build_dir/e2ebench/fidelity_test" "$build_dir/e2ebench/fidelity_tmp"
  echo "check.sh: e2ebench fidelity test passed"
}

# Liveness smoke for nested parallelism: Fed-ET at two threads (parallel
# distillation teachers while the stability eval fans clients out) and
# FedProto at four threads (parallel global eval creating the committee
# states).  A deadlock hangs rather than fails, so each run gets 60 s; a
# timeout fails the leg.  One round with the other smokes' small data
# sizes reaches every nested path (teachers, global and stability eval) and
# fits that budget under ThreadSanitizer too: ~36 s for Fed-ET on 4 vCPUs,
# where two rounds took 53-61 s.
smoke_liveness() {
  local build_dir="$1"
  local args
  for args in \
    "--algorithm fedet --threads 2" \
    "--algorithm fedproto --threads 4"; do
    # shellcheck disable=SC2086  # $args is a word list on purpose
    if ! MHB_TRAIN=160 MHB_TEST=80 timeout 60 "$build_dir/tools/mhbench" \
        run --task cifar10 --rounds 1 --clients 8 $args >/dev/null; then
      echo "check.sh: 'mhbench run $args' failed or hung (60 s)" >&2
      return 1
    fi
  done
  echo "check.sh: liveness smoke passed"
}

# Writes the observability artifacts of two small profiled runs into
# $build_dir/obs-artifacts so CI can upload them alongside the bench
# report: per-run manifests, rounds.csv + tiers.csv, client journals, and
# the cross-run experiments.jsonl index + per-tier report from
# tools/mhb_report.py.
emit_obs_artifacts() {
  local build_dir="$1"
  rm -rf "$build_dir/obs-artifacts"
  local alg
  for alg in sheterofl fedavg; do
    MHB_TRAIN=160 MHB_TEST=80 "$build_dir/tools/mhbench" run \
      --task cifar10 --algorithm "$alg" --rounds 2 --clients 4 \
      --threads 2 --manifest-dir "$build_dir/obs-artifacts" \
      --det-audit 1 >/dev/null
  done
  if command -v python3 >/dev/null 2>&1; then
    python3 "$repo/tools/mhb_report.py" "$build_dir/obs-artifacts" \
      | tee "$build_dir/obs-artifacts/report.txt"
  fi
  echo "check.sh: obs artifacts in $build_dir/obs-artifacts"
}

# Bit-identity against another revision: exports REF (any commit-ish) with
# git archive into a temporary directory, builds its mhbench and this
# checkout's (HEAD plus any uncommitted edits, in build-release/), both in
# Release, and runs mhb_bitcheck.py's full matrix on the two binaries.  A
# change that must keep every result bit (a refactor, a speed-up) runs
# `tools/check.sh --bitcheck <parent>`.  The export is a plain directory,
# so an interrupted run leaves nothing registered in the repository.
run_bitcheck() {
  local ref="$1"
  local out
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' RETURN
  git -C "$repo" archive --format=tar "$ref" | tar -x -C "$out"
  cmake -B "$out/build" -S "$out" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$out/build" -j --target mhbench_cli
  cmake -B "$repo/build-release" -S "$repo" -DCMAKE_BUILD_TYPE=Release \
    >/dev/null
  cmake --build "$repo/build-release" -j --target mhbench_cli
  python3 "$repo/tools/mhb_bitcheck.py" "$out/build/tools/mhbench" \
    "$repo/build-release/tools/mhbench"
  echo "check.sh: bits unchanged against $ref"
}

case "$mode" in
  all|--all)
    run_lint
    run_suite "$repo/build"
    smoke_obs "$repo/build"
    smoke_resume "$repo/build"
    smoke_live "$repo/build"
    smoke_det_audit "$repo/build"
    smoke_liveness "$repo/build"
    run_suite "$repo/build-tsan" -DMHBENCH_SANITIZE=thread
    smoke_liveness "$repo/build-tsan"
    ;;
  --lint) run_lint ;;
  --plain)
    run_suite "$repo/build"
    smoke_obs "$repo/build"
    smoke_resume "$repo/build"
    smoke_live "$repo/build"
    smoke_det_audit "$repo/build"
    smoke_liveness "$repo/build"
    ;;
  --tsan)
    run_suite "$repo/build-tsan" -DMHBENCH_SANITIZE=thread
    smoke_liveness "$repo/build-tsan"
    ;;
  --asan)  run_suite "$repo/build-asan" -DMHBENCH_SANITIZE=address ;;
  --ubsan)
    UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
      run_suite "$repo/build-ubsan" -DMHBENCH_SANITIZE=undefined
    ;;
  --asan-ubsan)
    UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
      run_suite "$repo/build-asan-ubsan" -DMHBENCH_SANITIZE=address,undefined
    ;;
  --wthread-safety) run_wthread_safety ;;
  --release) run_suite "$repo/build-release" -DCMAKE_BUILD_TYPE=Release ;;
  --bench)
    run_suite "$repo/build-release" -DCMAKE_BUILD_TYPE=Release
    smoke_bench "$repo/build-release"
    emit_obs_artifacts "$repo/build-release"
    smoke_e2ebench "$repo/build-release"
    ;;
  --bitcheck)
    if [ $# -ne 2 ]; then
      echo "usage: tools/check.sh --bitcheck <ref>" >&2
      exit 2
    fi
    run_bitcheck "$2"
    ;;
  *)
    echo "usage: tools/check.sh [--lint|--plain|--tsan|--asan|--ubsan|" \
         "--asan-ubsan|--wthread-safety|--release|--bench|" \
         "--bitcheck <ref>]" >&2
    exit 2
    ;;
esac

echo "check.sh: all suites passed"
