#!/usr/bin/env bash
# Full verification flow:
#   1. tier-1: configure, build, run the whole test suite;
#   2. statistical acceptance: ctest -L statistical in the tier-1 build —
#      the fixed-seed mechanism acceptance suite (empirical confusion
#      matrices, Monte-Carlo estimator unbiasedness, utility-bound
#      identities) plus the statistical regression suite. Seeds are
#      checked in, so this pass is deterministic; the thresholds are
#      sized for a <1% false-positive rate if the seeds were redrawn
#      (see tests/mechanism_statistical_test.cc);
#   3. SQL suite: ctest -L sql in the tier-1 build — the grammar
#      differential/round-trip properties (sql_test) plus the vectorized
#      batch engine's differential, determinism, and bias-correction
#      acceptance (sql_engine_test), called out separately so a SQL-layer
#      regression is visible at a glance;
#   4. thread-sanitizer pass: rebuild with PCLEAN_SANITIZE=thread and run
#      the `determinism`- and `server`-labeled suites (the 1/2/8-thread
#      bit-identity and statistical tests, plus the `pclean serve`
#      concurrency torture — reactor, session strands, drain, teardown), so
#      data races in the sharded and multiplexed paths are caught even
#      when plain ctest happens to schedule them benignly;
#   5. address+UB-sanitizer pass: rebuild with
#      PCLEAN_SANITIZE=address,undefined and run the `ledger`,
#      `failpoint`, `fuzz`, and `server` suites — the epsilon-ledger
#      crash torture, fault-injection torture, byte-corruption fuzzers,
#      and the server torture (torn frames, hard kills, session
#      teardown), where torn files and mid-error cleanup paths are most
#      likely to hide memory bugs.
#   The randomized differentials labeled `determinism fuzz`
#   (csv_split_fuzz_test, dictionary_test, exact_sum_test,
#   value_sums_test, row_index_test) run in both passes 4 and 5;
#   row_index_test checks the row indexes' bytes at 1/2/8 threads and
#   the two-attribute counts read through them against the scan of both
#   predicates' row masks; dictionary_test drives
#   the provenance build's per-slot indexing, which reads a snapshot
#   dictionary and a current one that grew after the snapshot;
#   exact_sum_test checks the exact accumulator's exponent-dependent
#   shifts against a big-integer reference, and value_sums_test the
#   cached per-value SUM/AVG (string, int64 and double keys) against a
#   row-mask reference with big-integer sums. The `server` suite
#   races SUM/AVG and two-attribute COUNT sessions on one warmed
#   release, so TSan sees the shared caches — the row indexes too —
#   read concurrently.
#
# Usage: scripts/verify.sh [build-dir] [tsan-build-dir] [asan-build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
TSAN_DIR="${2:-build-tsan}"
ASAN_DIR="${3:-build-asan}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== tier-1: build + full ctest (${BUILD_DIR}) =="
cmake -B "${BUILD_DIR}" -S .
cmake --build "${BUILD_DIR}" -j "${JOBS}"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

echo "== statistical acceptance: ctest -L statistical (${BUILD_DIR}) =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}" -L statistical

echo "== SQL suite: ctest -L sql (${BUILD_DIR}) =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}" -L sql

echo "== TSan: build + ctest -L 'determinism|server' (${TSAN_DIR}) =="
cmake -B "${TSAN_DIR}" -S . -DPCLEAN_SANITIZE=thread
cmake --build "${TSAN_DIR}" -j "${JOBS}"
ctest --test-dir "${TSAN_DIR}" --output-on-failure -j "${JOBS}" -L 'determinism|server'

echo "== ASan+UBSan: build + ctest -L 'ledger|failpoint|fuzz|server' (${ASAN_DIR}) =="
cmake -B "${ASAN_DIR}" -S . -DPCLEAN_SANITIZE=address,undefined
cmake --build "${ASAN_DIR}" -j "${JOBS}"
ctest --test-dir "${ASAN_DIR}" --output-on-failure -j "${JOBS}" -L 'ledger|failpoint|fuzz|server'

echo "verify: OK"
echo "optional: the end-to-end benchmark (workloads in BENCHMARK.json):"
echo "  python3 perfbench/run.py --workload <w> --seed <n> --seconds 15 [--trace 1]"
echo "  python3 perfbench/run.py compare RESULTS [RESULTS_B]"
