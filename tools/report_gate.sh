#!/bin/sh
# End-to-end regression gate over RunReport flight-recorder artifacts.
# Registered as the `report`-labeled ctest (tests/CMakeLists.txt); also
# runnable by hand after a build:
#   tools/report_gate.sh [BUILD_DIR]   (default: build)
#
# Every `alem_report check` first validates its candidate (or its one
# report) against the single-report invariants of obs::ValidateReport, so
# each report a stage checks is also invariant-checked.
#
# Gates, in order:
#   1. Determinism: the CLI's learning curve must be bitwise identical at
#      --threads=1 (cold, fresh feature-cache dir) and --threads=4 with
#      the cache disabled (alem_report check --exact-curve) — one check
#      covering both thread-count and cache-vs-recompute invariance. Both
#      runs' Chrome traces must pass `alem_report check-trace` (phases
#      inside iterations; at 4 threads also pool chunks inside their
#      region and batch inference inside its phase).
#   2. Cache warmth: rerunning the same workload against the now-warm
#      cache must produce a bitwise-identical curve, report
#      config.cache="hit", and count exactly one featurize.cache.hit.
#   3. Quality + counters: fresh runs of all seven golden workloads
#      (linear-margin, trees5, linear-qbc4, linear-qbc5,
#      linear-margin-ensemble, nn-margin, nn-qbc2; linear-qbc5 fits its
#      committee as one four-member lane group plus a one-member
#      remainder) must replay their committed baselines with the
#      curve exact and every counter exact (--exact-curve --counter-tol=0,
#      including featurize.cache.*).
#   4. Sensitivity: a baseline whose F1 is perturbed beyond tolerance
#      must make the check FAIL, and so must a fresh report whose fit
#      split no longer tallies (warm + cold != fit_calls), alone and as a
#      candidate, a t4 trace with one loop.train moved past its
#      iteration's end, and a misspelled flag to either tool (guards
#      against a gate that passes everything, or one not wired to the
#      validators). A run no environment can be built for (a committee of
#      one, an unknown dataset, a scale of 0 or -1, a noise rate of 2, a
#      batch of 0) must exit 1 with an error, not abort.
#   5. Bench path: a tiny bench run with ALEM_REPORT_DIR set must emit a
#      valid bench report, and `alem_report show` must still read the
#      provenance reports in bench/artifacts/ (written by an older build,
#      with since-retired sections).
#   6. Tail latency: the 4-thread report of stage 1 must carry a valid
#      pool section (busy + idle + queue-wait ≈ worker-wall is a validator
#      invariant), per-region latency counts identical to the serial run
#      for every region present in both (deterministic structure), p95s
#      within a generous tolerance — and a perturbed-latency baseline must
#      make `check --latency-p95-tol=0` FAIL. (The workload fits no
#      bootstrap committee: a committee's ml.fit spans count its lane
#      groups, whose size follows the thread count; its models do not.)
#   7. Kernel backends: scalar-forced reruns of all seven golden
#      workloads must replay their committed baselines with the curve and
#      every counter exact, and each additional backend reported by
#      `alem_cli kernels` must reproduce the scalar linear-margin,
#      linear-qbc5 and nn-margin curves bitwise (--exact-curve
#      --counter-tol=0) while
#      stamping its name into config.kernel_backend — the end-to-end
#      counterpart of the kernels-labeled ctest matrix (docs/kernels.md).
#   8. Warm start (docs/training.md): a --warm-start=on run must stay
#      within the F1 tolerance of a cold run, take the warm path on every
#      refit after the first and stamp config.warm_start; and the warm run
#      paused after 2 iterations and resumed in a fresh process must
#      replay the uninterrupted warm run bitwise (warm refits are
#      restartable; the IEVL section stitches eval.rows_rescored exactly).
#      Stages 3, 7 and 9 replay the cold baselines through the
#      incremental evaluator every run uses.
#   9. Resumable sessions: the golden linear-margin workload saved after
#      2 iterations (`alem_cli session save`) and the golden ensemble
#      saved after 3 (its first member accepted, so the ENSM coverage
#      mask is non-empty), each resumed in a fresh 4-thread process, must
#      produce stitched reports that replay the committed uninterrupted
#      baselines with the curve exact and every counter exact
#      (--exact-curve --counter-tol=0), stamped config.session="resumed" /
#      session_resumes=1 (docs/sessions.md). The resumed linear-margin
#      report must also match stage 1's fresh t1 report in both directions
#      (a check looks up only its baseline's counters, and the committed
#      baseline predates eval.rows_rescored, so the reverse direction is
#      what pins every counter of the resumed run), and resuming a copy of
#      its snapshot with one payload byte flipped must fail on the
#      checksum.
set -eu

build_dir="${1:-build}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
# Accept the build directory as absolute (ctest passes one) or relative
# to the repo root.
case "$build_dir" in
  /*) ;;
  *) build_dir="$repo_root/$build_dir" ;;
esac
cli="$build_dir/tools/alem_cli"
report_tool="$build_dir/tools/alem_report"
baseline_dir="$repo_root/bench/baselines"
work="$(mktemp -d "${TMPDIR:-/tmp}/alem_report_gate.XXXXXX")"
trap 'rm -rf "$work"' EXIT

# The golden approaches, one committed baseline each.
golden="linear-margin trees5 linear-qbc4 linear-qbc5 linear-margin-ensemble \
nn-margin nn-qbc2"

for f in "$cli" "$report_tool" $(for approach in $golden; do
    printf '%s/cli_abtbuy_%s.report.json\n' "$baseline_dir" \
        "$(printf '%s' "$approach" | tr '-' '_')"
  done); do
  if [ ! -e "$f" ]; then
    echo "error: missing $f" >&2
    exit 1
  fi
done

# The golden workload: Abt-Buy at scale 0.25, 60 labels. $1 = approach,
# $2 = threads, $3 = output report, $4... = extra flags (cache policy).
run_cli() {
  approach="$1"; threads="$2"; out="$3"; shift 3
  "$cli" run --dataset=Abt-Buy --approach="$approach" --scale=0.25 \
      --max-labels=60 --threads="$threads" --quiet --report="$out" \
      "$@" > /dev/null
}

echo "[1/9] determinism: cold cached t1 curve == uncached t4 curve"
mkdir -p "$work/cache"
run_cli linear-margin 1 "$work/t1.report.json" --cache-dir="$work/cache" \
    --trace="$work/t1.trace.json"
run_cli linear-margin 4 "$work/t4.report.json" --no-cache \
    --trace="$work/t4.trace.json"
"$report_tool" check "$work/t1.report.json" "$work/t4.report.json" \
    --exact-curve
"$report_tool" check-trace "$work/t1.trace.json"
"$report_tool" check-trace "$work/t4.trace.json"

echo "[2/9] cache warmth: warm rerun identical, provenance says hit"
run_cli linear-margin 1 "$work/warm.report.json" --cache-dir="$work/cache"
"$report_tool" check "$work/t1.report.json" "$work/warm.report.json" \
    --exact-curve
python3 - "$work/t1.report.json" "$work/warm.report.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    cold = json.load(f)
with open(sys.argv[2]) as f:
    warm = json.load(f)
assert cold["config"]["cache"] == "miss", cold["config"]["cache"]
assert warm["config"]["cache"] == "hit", warm["config"]["cache"]
assert cold["counters"].get("featurize.cache.miss") == 1, cold["counters"]
assert cold["counters"].get("featurize.cache.write") == 1, cold["counters"]
assert warm["counters"].get("featurize.cache.hit") == 1, warm["counters"]
assert warm["counters"].get("featurize.cache.miss", 0) == 0, warm["counters"]
EOF

echo "[3/9] quality: seven golden workloads replay exactly, counters exact"
for approach in $golden; do
  name="$(printf '%s' "$approach" | tr '-' '_')"
  candidate="$work/cand_$name.report.json"
  if [ "$approach" = "linear-margin" ]; then
    candidate="$work/t1.report.json"  # Already produced cold above.
  else
    mkdir -p "$work/cache_$name"
    run_cli "$approach" 1 "$candidate" --cache-dir="$work/cache_$name"
  fi
  "$report_tool" check \
      "$baseline_dir/cli_abtbuy_$name.report.json" "$candidate" \
      --exact-curve --counter-tol=0
done

echo "[4/9] sensitivity: perturbed inputs must fail their checks"
python3 - "$baseline_dir/cli_abtbuy_linear_margin.report.json" \
    "$work/perturbed.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
# Inflate the baseline far beyond the F1 tolerance so the fresh run
# appears to be a large regression.
report["summary"]["final_f1"] = min(1.0, report["summary"]["final_f1"] + 0.2)
report["summary"]["best_f1"] = min(1.0, report["summary"]["best_f1"] + 0.2)
with open(sys.argv[2], "w") as f:
    json.dump(report, f)
EOF
if "$report_tool" check "$work/perturbed.json" "$work/t1.report.json" \
    2> /dev/null; then
  echo "FAIL: check passed against a perturbed baseline" >&2
  exit 1
fi
echo "perturbed baseline rejected as expected"
# The validator: a fresh report whose fit split no longer tallies must
# fail on its own and as the candidate of a baseline comparison.
python3 - "$work/t1.report.json" "$work/broken_fits.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
counters = report["counters"]
counters["ml.cold_fits"] = counters.get("ml.cold_fits", 0) + 1
with open(sys.argv[2], "w") as f:
    json.dump(report, f)
EOF
if "$report_tool" check "$work/broken_fits.json" 2> /dev/null ||
    "$report_tool" check "$work/t1.report.json" "$work/broken_fits.json" \
    2> /dev/null; then
  echo "FAIL: check passed a report with warm + cold != fit_calls" >&2
  exit 1
fi
echo "report breaking an invariant rejected as expected"
# The trace checker: the t4 trace with one loop.train moved to straddle
# its iteration's end must fail check-trace.
python3 - "$work/t4.trace.json" "$work/broken.trace.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
train = next(e for e in spans if e["name"] == "loop.train")
iteration = next(e for e in spans
                 if e["name"] == "loop.iteration" and e["tid"] == train["tid"]
                 and e["ts"] <= train["ts"] <= e["ts"] + e["dur"])
train["ts"] = iteration["ts"] + iteration["dur"] - train["dur"] / 2
with open(sys.argv[2], "w") as f:
    json.dump(trace, f)
EOF
if "$report_tool" check-trace "$work/broken.trace.json" 2> /dev/null; then
  echo "FAIL: check-trace passed a loop.train outside its iteration" >&2
  exit 1
fi
echo "trace breaking a nesting rule rejected as expected"
# A misspelled flag must fail loudly instead of silently disabling a gate
# or a run limit.
if "$report_tool" check "$baseline_dir/cli_abtbuy_linear_margin.report.json" \
    "$work/t1.report.json" --counter_tol=0 > /dev/null 2>&1; then
  echo "FAIL: alem_report check accepted --counter_tol" >&2
  exit 1
fi
if run_cli linear-margin 1 "$work/typo.report.json" --no-cache \
    --max-label=5 2> /dev/null; then
  echo "FAIL: alem_cli run accepted --max-label" >&2
  exit 1
fi
echo "misspelled flags rejected as expected"
# A run no environment can be built for must end with exit 1 and an error,
# never an abort (134): a QBC committee of one, an unknown dataset, a scale
# of 0 or below, a noise rate above 1, an empty batch.
for flag in --approach=linear-qbc1 --dataset=Bogus --scale=0 --scale=-1 \
    --noise=2 --batch=0; do
  status=0
  "$cli" run --dataset=Abt-Buy --approach=linear-margin --scale=0.25 \
      --max-labels=60 --no-cache --quiet "$flag" > /dev/null \
      2> "$work/hostile.err" || status=$?
  if [ "$status" -ne 1 ] || ! grep -q "^error: " "$work/hostile.err"; then
    echo "FAIL: alem_cli run $flag exited $status:" >&2
    cat "$work/hostile.err" >&2
    exit 1
  fi
done
echo "runs no environment can be built for rejected as expected"

echo "[5/9] bench path: ALEM_REPORT_DIR export, provenance reports"
mkdir -p "$work/reports"
ALEM_REPORT_DIR="$work/reports" ALEM_SCALE=0.2 ALEM_MAX_LABELS=40 \
    ALEM_THREADS=2 "$build_dir/bench/bench_fig10d_blocking_time" \
    > /dev/null
for report in "$work/reports"/*.report.json; do
  "$report_tool" check "$report"
done
"$report_tool" show \
    "$repo_root/bench/artifacts/cli_abtbuy_linear_margin_full.report.json" \
    > /dev/null

echo "[6/9] tail latency: pool invariant, p95 determinism"
# Latency structure is deterministic: every region recorded in both the
# serial and the 4-thread report must observe the same number of events
# (pool-only regions like parallel.chunk are legitimately t4-only). The
# t4 report's pool section was validated by its check in stage 1.
# linear-margin fits no bootstrap committee, whose ml.fit span count
# follows the thread count (one span per lane group; docs/training.md).
python3 - "$work/t1.report.json" "$work/t4.report.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    t1 = {e["name"]: e for e in json.load(f).get("latency", [])}
with open(sys.argv[2]) as f:
    t4 = {e["name"]: e for e in json.load(f).get("latency", [])}
assert t1 and t4, "latency sections missing from the gate reports"
common = sorted(set(t1) & set(t4))
assert common, "no latency regions shared between t1 and t4 reports"
for name in common:
    assert t1[name]["count"] == t4[name]["count"], (
        f"{name}: {t1[name]['count']} observations at t1 vs "
        f"{t4[name]['count']} at t4")
EOF
# Generous p95 gate between the two thread counts: catches order-of-
# magnitude tail regressions without flaking on scheduler noise.
"$report_tool" check "$work/t1.report.json" "$work/t4.report.json" \
    --f1-tol=1 --latency-p95-tol=20
# Sensitivity: shrink every baseline p95 to ~zero; a zero-tolerance
# latency gate must then reject the candidate.
python3 - "$work/t1.report.json" "$work/lat_perturbed.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
assert report.get("latency"), "t1 report carries no latency section"
for entry in report["latency"]:
    entry["p95_seconds"] *= 1e-9
with open(sys.argv[2], "w") as f:
    json.dump(report, f)
EOF
if "$report_tool" check "$work/lat_perturbed.json" "$work/t4.report.json" \
    --f1-tol=1 --latency-p95-tol=0 2> /dev/null; then
  echo "FAIL: latency gate passed against a perturbed baseline" >&2
  exit 1
fi
echo "perturbed latency baseline rejected as expected"

echo "[7/9] kernel backends: scalar golden replay, per-backend equivalence"
# Scalar-forced cold runs must replay all seven committed baselines with
# the curve and every counter exact — pins the scalar reference path end to
# end.
for approach in $golden; do
  name="$(printf '%s' "$approach" | tr '-' '_')"
  mkdir -p "$work/cache_scalar_$name"
  run_cli "$approach" 1 "$work/scalar_$name.report.json" \
      --cache-dir="$work/cache_scalar_$name" --kernel-backend=scalar
  "$report_tool" check \
      "$baseline_dir/cli_abtbuy_$name.report.json" \
      "$work/scalar_$name.report.json" --exact-curve --counter-tol=0
done
# Every additional backend this host offers must reproduce the scalar
# linear-margin, linear-qbc5 and nn-margin curves bitwise (the SVM
# committee trains in Pegasos lane groups and the network both trains and
# scores through the backend's kernels) and stamp itself into
# config.kernel_backend.
backends="$("$cli" kernels | sed -n 's/^available: //p')"
for backend in $backends; do
  [ "$backend" = "scalar" ] && continue
  for approach in linear-margin linear-qbc5 nn-margin; do
    name="$(printf '%s' "$approach" | tr '-' '_')"
    candidate="$work/kb_${backend}_$name.report.json"
    mkdir -p "$work/cache_kb_${backend}_$name"
    run_cli "$approach" 1 "$candidate" \
        --cache-dir="$work/cache_kb_${backend}_$name" \
        --kernel-backend="$backend"
    "$report_tool" check \
        "$work/scalar_$name.report.json" "$candidate" \
        --exact-curve --counter-tol=0
    python3 - "$candidate" "$backend" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
stamped = report["config"].get("kernel_backend")
assert stamped == sys.argv[2], (
    f"config.kernel_backend is {stamped!r}, expected {sys.argv[2]!r}")
EOF
  done
done
python3 - "$work/scalar_linear_margin.report.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
stamped = report["config"].get("kernel_backend")
assert stamped == "scalar", (
    f"config.kernel_backend is {stamped!r}, expected 'scalar'")
EOF

echo "[8/9] warm start: warm gated, warm resume"
# on = warm refits: the curve is gated against a cold run by F1 tolerance,
# not bitwise. The comparison runs at 150 labels against a freshly
# generated cold reference rather than the committed 60-label baseline:
# at 60 labels the cold curve's own run-seed spread is ~0.1 F1 (last-
# iterate Pegasos noise on tiny label sets), so a tolerance able to pass
# there would gate nothing. At 150 labels both paths converge and the
# warm-vs-cold gap is within 0.05 (docs/training.md).
"$cli" run --dataset=Abt-Buy --approach=linear-margin --scale=0.25 \
    --max-labels=150 --threads=1 --quiet --no-cache --warm-start=off \
    --report="$work/warm_cold_ref.report.json" > /dev/null
"$cli" run --dataset=Abt-Buy --approach=linear-margin --scale=0.25 \
    --max-labels=150 --threads=1 --quiet --no-cache --warm-start=on \
    --report="$work/warm_on150.report.json" > /dev/null
"$report_tool" check \
    "$work/warm_cold_ref.report.json" "$work/warm_on150.report.json" \
    --f1-tol=0.05
# The 60-label warm run feeds the warm-path assert and the save/resume
# replay below.
mkdir -p "$work/cache_warm_on"
run_cli linear-margin 1 "$work/warm_on.report.json" \
    --cache-dir="$work/cache_warm_on" --warm-start=on
"$report_tool" check "$work/warm_on.report.json"
python3 - "$work/warm_on.report.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    on = json.load(f)
assert on["config"].get("warm_start") == "on", on["config"]
c = on["counters"]
fits = c.get("ml.fit_calls", 0)
warm = c.get("ml.warm_fits", 0)
# Warm mode must actually take the warm path after the first (cold) fit.
assert warm == fits - 1, c
EOF
# Warm save/resume: pause the warm run after 2 iterations and resume in a
# fresh process — the stitched report must replay the uninterrupted warm
# run bitwise (curve exact, every counter exact, including the stitched
# eval.rows_rescored carried by the IEVL snapshot section).
mkdir -p "$work/cache_warm_session"
"$cli" session save --dataset=Abt-Buy --approach=linear-margin \
    --scale=0.25 --max-labels=60 --threads=1 --warm-start=on \
    --cache-dir="$work/cache_warm_session" \
    --snapshot="$work/warm_gate.alss" --stop-after=2 > /dev/null
"$cli" session resume --snapshot="$work/warm_gate.alss" --threads=4 \
    --no-cache --quiet --report="$work/warm_resumed.report.json" > /dev/null
"$report_tool" check \
    "$work/warm_on.report.json" "$work/warm_resumed.report.json" \
    --exact-curve --counter-tol=0
python3 - "$work/warm_resumed.report.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
config = report["config"]
assert config.get("session") == "resumed", config.get("session")
assert config.get("warm_start") == "on", config.get("warm_start")
EOF
echo "warm resume replays the uninterrupted warm run exactly"

echo "[9/9] resumable sessions: half-run save, fresh-process resume, stitch"
# Pause the golden linear-margin workload after 2 iterations (cold cache,
# matching the baseline's featurize.cache.* counters), resume it in a NEW
# process at 4 threads with the cache disabled, and require the stitched
# report to replay the committed uninterrupted baseline bitwise — curve
# exact, every counter exact (docs/sessions.md). The resume process's own
# prepare-phase counters are discarded in favor of the snapshot's, so its
# cache policy is free.
mkdir -p "$work/cache_session"
"$cli" session save --dataset=Abt-Buy --approach=linear-margin \
    --scale=0.25 --max-labels=60 --threads=1 \
    --cache-dir="$work/cache_session" \
    --snapshot="$work/gate.alss" --stop-after=2 > /dev/null
"$cli" session resume --snapshot="$work/gate.alss" --threads=4 --no-cache \
    --quiet --report="$work/resumed.report.json" > "$work/resumed.out"
if ! grep -q "resume #1" "$work/resumed.out"; then
  echo "FAIL: resume banner missing:" >&2
  cat "$work/resumed.out" >&2
  exit 1
fi
"$report_tool" check \
    "$baseline_dir/cli_abtbuy_linear_margin.report.json" \
    "$work/resumed.report.json" --exact-curve --counter-tol=0
"$report_tool" check "$work/t1.report.json" "$work/resumed.report.json" \
    --exact-curve --counter-tol=0
"$report_tool" check "$work/resumed.report.json" "$work/t1.report.json" \
    --exact-curve --counter-tol=0
# A snapshot with one payload byte flipped must be refused on its checksum.
python3 - "$work/gate.alss" "$work/corrupt.alss" <<'EOF'
import sys
with open(sys.argv[1], "rb") as f:
    blob = bytearray(f.read())
blob[len(blob) // 2] ^= 0x5A
with open(sys.argv[2], "wb") as f:
    f.write(blob)
EOF
if "$cli" session resume --snapshot="$work/corrupt.alss" --no-cache \
    > /dev/null 2> "$work/corrupt.err"; then
  echo "FAIL: session resume accepted a corrupted snapshot" >&2
  exit 1
fi
if ! grep -q checksum "$work/corrupt.err"; then
  echo "FAIL: corrupted snapshot not rejected on its checksum:" >&2
  cat "$work/corrupt.err" >&2
  exit 1
fi
echo "corrupted snapshot rejected as expected"
# The golden ensemble, paused after its first acceptance (iteration 3):
# the ENSM section carries the coverage mask into the resumed process.
mkdir -p "$work/cache_session_ensemble"
"$cli" session save --dataset=Abt-Buy --approach=linear-margin-ensemble \
    --scale=0.25 --max-labels=60 --threads=1 \
    --cache-dir="$work/cache_session_ensemble" \
    --snapshot="$work/gate_ensemble.alss" --stop-after=3 > /dev/null
"$cli" session resume --snapshot="$work/gate_ensemble.alss" --threads=4 \
    --no-cache --quiet --report="$work/resumed_ensemble.report.json" \
    > /dev/null
"$report_tool" check \
    "$baseline_dir/cli_abtbuy_linear_margin_ensemble.report.json" \
    "$work/resumed_ensemble.report.json" --exact-curve --counter-tol=0
python3 - "$work/t1.report.json" "$work/resumed.report.json" \
    "$work/resumed_ensemble.report.json" <<'EOF'
import json, sys
fresh, *resumed = sys.argv[1:]
with open(fresh) as f:
    session = json.load(f)["config"].get("session")
assert session == "fresh", session
for path in resumed:
    with open(path) as f:
        report = json.load(f)
    config = report["config"]
    assert config.get("session") == "resumed", config.get("session")
    assert config.get("session_resumes") == 1, config.get("session_resumes")
EOF
echo "resumed runs replay the golden baselines and the fresh run exactly"

echo "report gate OK"
