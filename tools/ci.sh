#!/bin/sh
# CI driver: build + run the full test suite four times —
#   1. plain RelWithDebInfo build,
#   2. ThreadSanitizer build (-DSGXPERF_SANITIZE=thread), which must report
#      zero races across the concurrent recording paths,
#   3. AddressSanitizer build (-DSGXPERF_SANITIZE=address), which must report
#      zero heap errors / leaks,
#   4. UBSan build (-DSGXPERF_SANITIZE=undefined) with recovery disabled, so
#      any undefined behaviour aborts the test that triggered it.
# The plain build then runs the full bench suite in --smoke mode with
# --out-dir pointed at the repo root (so the BENCH_*.json trajectory is
# refreshed in place and can be committed), validates every artefact with
# tools/json_check, and runs a flamegraph golden check: `sgxperf flamegraph`
# over a deterministic single-threaded recording must reproduce
# tests/golden/flamegraph_demo.txt byte-for-byte (tools/stack_check also
# validates the collapsed-stack grammar).
#
# The detector golden gates (the monitor soak's alert log, the ocall-storm
# and mixed stress corpora's `stats --json`, and the orderliness `order
# check` report) are ctest tests (tests/golden_check.cmake), so they run in
# every leg with the rest of the suite.
#
# Every build also runs the fleet golden gate: `sgxperf fleet snapshot
# --corpus` drives three deterministic stress producers through monitor
# sessions, wire framing and the fleet aggregator, and the merged query
# snapshot must match tests/golden/fleet_corpus.json byte-for-byte — in the
# sanitizer legs too, so the whole producer->merge->query path is proven
# race-free and exact.
#
# Every build also runs the doctor golden gate: the event-conservation audit
# over the stress corpus (trace + packed-store modes) and a live demo run
# must pass byte-stably, and the status / Prometheus emitters must validate
# (json_check, json_check --prom).
#
# After the bench smoke run, bench_diff compares the refreshed BENCH_*.json
# against the committed baselines (advisory: wall-clock metrics vary with
# machine load, so drift is reported but does not fail the build).
#
# Usage: tools/ci.sh [jobs]   (run from the repository root)
set -eu

jobs="${1:-$(nproc 2>/dev/null || echo 2)}"
root="$(cd "$(dirname "$0")/.." && pwd)"

# Fleet golden gate: the in-process corpus (3 deterministic stress producers
# -> monitor sessions -> wire frames -> aggregator) must produce a
# byte-stable merged query snapshot.  Runs in every leg: under the
# sanitizers this covers the concurrent ingest/query locking too.
fleet_corpus() {
  build_dir="$1"
  fleet_dir="$build_dir/fleet-corpus"
  rm -rf "$fleet_dir"
  mkdir -p "$fleet_dir"
  "$build_dir/tools/sgxperf" fleet snapshot --corpus > "$fleet_dir/snapshot.json"
  if ! cmp -s "$fleet_dir/snapshot.json" "$root/tests/golden/fleet_corpus.json"; then
    echo "error: fleet corpus snapshot diverged from the golden:" >&2
    diff -u "$root/tests/golden/fleet_corpus.json" "$fleet_dir/snapshot.json" >&2 || true
    exit 1
  fi
  "$build_dir/tools/json_check" "$fleet_dir/snapshot.json"
  echo "fleet corpus snapshot matches golden"
}

# Store golden gate: pack the deterministic stress corpus into an SGXSTORE
# directory.  `store info --json` must match the committed golden — section
# lengths, row counts and CRC32s are all deterministic, so any drift is a
# format change — the unpacked flat trace must be byte-identical to the
# input, and `stats` on the store (which loads only the summary sections)
# must produce valid JSON end to end.
store_corpus() {
  build_dir="$1"
  store_dir="$build_dir/store-corpus"
  rm -rf "$store_dir"
  mkdir -p "$store_dir"
  "$build_dir/tools/sgxperf" stress --stressor ocall-storm --threads 2 \
    --duration 20000000 --seed 7 --out "$store_dir/corpus.bin" >/dev/null
  "$build_dir/tools/sgxperf" store pack "$store_dir/corpus.bin" "$store_dir/corpus.store" \
    --json > "$store_dir/info.json"
  if ! cmp -s "$store_dir/info.json" "$root/tests/golden/store_info_corpus.json"; then
    echo "error: store info diverged from the golden:" >&2
    diff -u "$root/tests/golden/store_info_corpus.json" "$store_dir/info.json" >&2 || true
    exit 1
  fi
  "$build_dir/tools/sgxperf" store unpack "$store_dir/corpus.store" \
    "$store_dir/roundtrip.bin" >/dev/null
  if ! cmp -s "$store_dir/corpus.bin" "$store_dir/roundtrip.bin"; then
    echo "error: store pack -> unpack round trip is not byte-identical" >&2
    exit 1
  fi
  "$build_dir/tools/sgxperf" stats "$store_dir/corpus.store" --json > "$store_dir/stats.json"
  "$build_dir/tools/json_check" "$store_dir/info.json"
  "$build_dir/tools/json_check" "$store_dir/stats.json"
  echo "store corpus info matches golden; round trip byte-identical"
}

# Doctor golden gate: the event-conservation audit (`sgxperf doctor`) over
# the deterministic stress corpus must be byte-stable and pass (exit 0) in
# trace mode, pass on the packed store (whose audit genuinely cross-checks
# the chunk directory against the index), and pass over a live demo run.
# The status and Prometheus emitters are validated alongside: `fleet status
# --corpus` must be valid schema_version'd JSON, `metrics --prom` must be
# valid Prometheus text exposition (json_check --prom).
doctor_corpus() {
  build_dir="$1"
  doc_dir="$build_dir/doctor-corpus"
  rm -rf "$doc_dir"
  mkdir -p "$doc_dir"
  "$build_dir/tools/sgxperf" stress --stressor ocall-storm --threads 2 \
    --duration 20000000 --seed 7 --out "$doc_dir/corpus.bin" >/dev/null
  "$build_dir/tools/sgxperf" doctor "$doc_dir/corpus.bin" --json > "$doc_dir/doctor.json"
  if ! cmp -s "$doc_dir/doctor.json" "$root/tests/golden/doctor_stress_corpus.json"; then
    echo "error: doctor report diverged from the golden:" >&2
    diff -u "$root/tests/golden/doctor_stress_corpus.json" "$doc_dir/doctor.json" >&2 || true
    exit 1
  fi
  "$build_dir/tools/json_check" "$doc_dir/doctor.json"
  "$build_dir/tools/sgxperf" store pack "$doc_dir/corpus.bin" "$doc_dir/corpus.store" >/dev/null
  "$build_dir/tools/sgxperf" doctor "$doc_dir/corpus.store" --json > "$doc_dir/doctor_store.json"
  "$build_dir/tools/json_check" "$doc_dir/doctor_store.json"
  "$build_dir/tools/sgxperf" doctor --workload demo --threads 1 --calls 60 --json \
    > "$doc_dir/doctor_live.json"
  "$build_dir/tools/json_check" "$doc_dir/doctor_live.json"
  "$build_dir/tools/sgxperf" fleet status --corpus > "$doc_dir/status.json"
  "$build_dir/tools/json_check" "$doc_dir/status.json"
  "$build_dir/tools/sgxperf" metrics "$doc_dir/corpus.bin" --prom > "$doc_dir/metrics.prom"
  "$build_dir/tools/json_check" --prom "$doc_dir/metrics.prom"
  echo "doctor report matches golden; status/prom emitters valid"
}

run_suite() {
  build_dir="$1"
  shift
  cmake -S "$root" -B "$build_dir" "$@" >/dev/null
  cmake --build "$build_dir" -j "$jobs"
  ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
  fleet_corpus "$build_dir"
  store_corpus "$build_dir"
  doctor_corpus "$build_dir"
}

echo "=== plain build ==="
run_suite "$root/build" -DCMAKE_BUILD_TYPE=RelWithDebInfo

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

echo "=== flamegraph golden check ==="
# Single-threaded demo recording: virtual time makes it fully deterministic,
# so the collapsed stacks must match the committed golden byte-for-byte.
"$root/build/tools/sgxperf" record "$smoke_dir/fg_demo.bin" --threads 1 --calls 25 >/dev/null
"$root/build/tools/sgxperf" flamegraph "$smoke_dir/fg_demo.bin" > "$smoke_dir/fg_demo.txt"
"$root/build/tools/stack_check" "$smoke_dir/fg_demo.txt" \
  --golden "$root/tests/golden/flamegraph_demo.txt"

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
