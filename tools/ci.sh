#!/bin/sh
# CI driver: build + run the full test suite four times —
#   1. plain RelWithDebInfo build with -Werror (the tree builds warning-free),
#   2. ThreadSanitizer build (-DSGXPERF_SANITIZE=thread), which must report
#      zero races across the concurrent recording paths,
#   3. AddressSanitizer build (-DSGXPERF_SANITIZE=address), which must report
#      zero heap errors / leaks,
#   4. UBSan build (-DSGXPERF_SANITIZE=undefined) with recovery disabled, so
#      any undefined behaviour aborts the test that triggered it.
#
# Every golden gate (the detector corpora, the monitor soak's alert log, the
# orderliness report, the store info and pack -> unpack round trip, the
# fleet snapshot, the doctor audit, the flamegraph and each bench's
# virtual-time numbers) is a ctest test (tests/golden_check.cmake), so it
# runs in every leg with the rest of the suite.  CI writes nothing into the
# source tree.
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
