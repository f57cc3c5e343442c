#!/usr/bin/env bash
# Robustness gate, registered with ctest as `robustness_check`.
#
# Builds the chaos suites under AddressSanitizer and runs every test
# labelled `chaos` (tests/chaos_test.cc: hundreds of secure k-NN queries
# under injected drop/dup/flip/trunc/reorder/delay faults) and
# `process_chaos` (tests/process_chaos_test.cc: the real sknn_server_a /
# sknn_server_b binaries under SIGKILL, restart, stalls/partitions via
# tools/chaos_proxy, and SIGTERM drain). The pass criterion is the
# fault-tolerance contract of DESIGN.md §8 — exact answer or clean typed
# error, no crash, hang, leak, or out-of-bounds access.
#
# A second round builds the threaded suites under ThreadSanitizer and runs
# them: server_test (worker pool, admission queue, connection threads,
# drain, per-party query pools), telemetry_http_test (scrape while
# serving), buffer_pool_test, the multithreaded secure_knn_test cases
# (pooled queries against inline ones) and secure_kmeans_test (Party A's
# pool driving every centroid of an iteration). Any data race fails the
# gate (tsan exits non-zero on a report).
#
# Usage: tools/check_robustness.sh [extra ctest args...]
# The extra args go to the asan ctest run. Both configure/builds are
# incremental; reruns only pay for the tests.
set -u

cd "$(cd "$(dirname "$0")/.." && pwd)" || exit 1

# Nested invocation guard: this script is itself a ctest test, so when it
# runs inside a sanitizer test round it must not recurse into another
# configure/build of the same tree.
if [ "${SKNN_IN_ROBUSTNESS_CHECK:-}" = "1" ]; then
  echo "robustness_check: SKIPPED (already inside an asan chaos run)"
  exit 0
fi
export SKNN_IN_ROBUSTNESS_CHECK=1

echo "robustness_check: configuring asan preset"
cmake --preset asan > /dev/null || exit 1

echo "robustness_check: building chaos_test + process_chaos_test (asan)"
cmake --build build-asan -j --target chaos_test process_chaos_test \
  > /dev/null || exit 1

echo "robustness_check: running chaos suites under asan"
if ! ctest --test-dir build-asan -L 'chaos|process_chaos' \
     --output-on-failure "$@"; then
  echo "robustness_check: FAILED"
  exit 1
fi

tsan_suites="server_test telemetry_http_test buffer_pool_test secure_knn_test secure_kmeans_test"
echo "robustness_check: configuring tsan preset"
cmake --preset tsan > /dev/null || exit 1

echo "robustness_check: building $tsan_suites (tsan)"
# shellcheck disable=SC2086  # word-split the suite list into targets
cmake --build build-tsan -j --target $tsan_suites > /dev/null || exit 1

for suite in $tsan_suites; do
  filter='*'
  # The rest of secure_knn_test runs inline (one thread per party).
  [ "$suite" = secure_knn_test ] && filter='SecureKnnTest.MultiThreaded*'
  echo "robustness_check: running $suite under tsan"
  if ! "build-tsan/tests/$suite" --gtest_brief=1 --gtest_filter="$filter"; then
    echo "robustness_check: FAILED ($suite under tsan)"
    exit 1
  fi
done
echo "robustness_check: OK"
