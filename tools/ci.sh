#!/bin/sh
# CI driver: build + run the full test suite four times —
#   1. plain RelWithDebInfo build with -Werror (the tree builds warning-free),
#   2. ThreadSanitizer build (-DSGXPERF_SANITIZE=thread), which must report
#      zero races across the concurrent recording paths,
#   3. AddressSanitizer build (-DSGXPERF_SANITIZE=address), which must report
#      zero heap errors / leaks,
#   4. UBSan build (-DSGXPERF_SANITIZE=undefined) with recovery disabled, so
#      any undefined behaviour aborts the test that triggered it.
# The plain build then runs the full bench suite in --smoke mode with
# --out-dir pointed at the repo root (so the BENCH_*.json trajectory is
# refreshed in place and can be committed) and validates every artefact with
# tools/json_check.
#
# Every golden gate (the detector corpora, the monitor soak's alert log, the
# orderliness report, the store info and pack -> unpack round trip, the
# fleet snapshot, the doctor audit and the flamegraph) is a ctest test
# (tests/golden_check.cmake), so it runs in every leg with the rest of the
# suite.
#
# After the bench smoke run, bench_diff compares the refreshed BENCH_*.json
# against the committed baselines (advisory: wall-clock metrics vary with
# machine load, so drift is reported but does not fail the build).
#
# Usage: tools/ci.sh [jobs]   (run from the repository root)
set -eu

jobs="${1:-$(nproc 2>/dev/null || echo 2)}"
root="$(cd "$(dirname "$0")/.." && pwd)"

run_suite() {
  build_dir="$1"
  shift
  cmake -S "$root" -B "$build_dir" "$@" >/dev/null
  cmake --build "$build_dir" -j "$jobs"
  ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
}

echo "=== plain build ==="
run_suite "$root/build" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCMAKE_CXX_FLAGS=-Werror

echo "=== bench smoke run (JSON artefacts) ==="
smoke_dir="$root/build/bench-smoke"
rm -rf "$smoke_dir"
mkdir -p "$smoke_dir"
benches="bench_transitions bench_logger_overhead bench_paging bench_switchless \
         bench_sync bench_merge bench_replay bench_analyzer bench_glamdring \
         bench_securekeeper bench_sqlite bench_talos bench_online bench_stress \
         bench_fleet bench_store"
# Snapshot the committed baselines before the smoke run refreshes them in
# place — bench_diff compares against what was in the tree.
baseline_dir="$smoke_dir/baseline"
mkdir -p "$baseline_dir"
for f in "$root"/BENCH_*.json; do
  [ -f "$f" ] && cp "$f" "$baseline_dir/"
done
for bench in $benches; do
  echo "--- $bench --smoke"
  (cd "$smoke_dir" && "$root/build/bench/$bench" --smoke --out-dir "$root" >/dev/null)
done
count=0
diff_files=""
for bench in $benches; do
  artefact="$root/BENCH_${bench#bench_}.json"
  if [ ! -f "$artefact" ]; then
    echo "error: $bench did not write $artefact" >&2
    exit 1
  fi
  "$root/build/tools/json_check" "$artefact"
  count=$((count + 1))
  diff_files="$diff_files $(basename "$artefact")"
done
echo "$count bench artefacts valid (refreshed in $root)"

echo "=== bench regression diff (advisory) ==="
# Every artefact goes to bench_diff: benches without a committed baseline are
# *reported* as skipped in its summary instead of being silently dropped from
# the comparison (--strict would turn those skips into failures).
# shellcheck disable=SC2086 — diff_files is a word list by construction.
"$root/build/tools/bench_diff" --fresh "$root" --baseline "$baseline_dir" \
  --threshold 0.25 $diff_files \
  || echo "bench_diff: drift or missing baselines flagged (advisory — not failing the build)"

echo "=== ThreadSanitizer build ==="
# halt_on_error makes any report fail the run; TSan's exit code then fails ctest.
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  run_suite "$root/build-tsan" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSGXPERF_SANITIZE=thread

echo "=== AddressSanitizer build ==="
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}" \
  run_suite "$root/build-asan" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSGXPERF_SANITIZE=address

echo "=== UndefinedBehaviorSanitizer build ==="
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
  run_suite "$root/build-ubsan" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSGXPERF_SANITIZE=undefined

echo "=== all suites passed ==="
