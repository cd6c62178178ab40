#!/usr/bin/env bash
# Builds the tree with -DPYTHIA_SANITIZE=ON and runs the tier-1 ctest suite
# under the selected sanitizer.
#
#   scripts/run_sanitized_tests.sh [extra ctest args...]
#
# PYTHIA_SANITIZE selects the sanitizer:
#   (unset) | address   ASan + UBSan, non-recoverable — the fault-injection
#                       and error-propagation paths
#   thread  | tsan      ThreadSanitizer — the ThreadPool-driven parallel
#                       training and inference paths, and
#                       metrics_registry_test's concurrent-increment tests
#                       (the proof that the registry fixed the old
#                       GlobalModelIntegrity counter races)
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT="$(pwd)"

case "${PYTHIA_SANITIZE:-address}" in
  thread|tsan)
    MODE=thread
    BUILD_DIR=build-sanitize-thread
    ;;
  address|asan|1|ON|on)
    MODE=address
    BUILD_DIR=build-sanitize
    ;;
  *)
    echo "unknown PYTHIA_SANITIZE mode: ${PYTHIA_SANITIZE}" >&2
    exit 2
    ;;
esac

cmake -B "${BUILD_DIR}" -S . \
  -DPYTHIA_SANITIZE=ON \
  -DPYTHIA_SANITIZE_MODE="${MODE}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD_DIR}" -j "$(nproc)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)" "$@"

# The soak benches below write their BENCH_*.json into the working
# directory. Run them from a scratch directory so a smoke run never
# overwrites the committed full-scale results; the model cache stays the
# repository's, so it stays warm across runs.
SOAK_DIR="$(mktemp -d)"
trap 'rm -rf "${SOAK_DIR}"' EXIT
export PYTHIA_CACHE_DIR="${PYTHIA_CACHE_DIR:-${ROOT}/pythia_cache}"
BIN="${ROOT}/${BUILD_DIR}"

# The ASan arm additionally sweeps the crash/recovery path: every named
# crash site kills a checkpoint mid-write and recovery parses the torn
# residue — the densest concentration of manual serialization, bounds-checked
# parsing and file juggling in the tree, exactly where ASan/UBSan earn their
# keep.
if [[ "${MODE}" == address ]]; then
  cmake --build "${BUILD_DIR}" -j "$(nproc)" --target bench_crash_recovery
  (cd "${SOAK_DIR}" && "${BIN}/bench/bench_crash_recovery" --smoke)
fi

# The TSan arm additionally soaks the background training lane: the
# adaptation smoke bench trains candidates on ThreadPool background tasks
# while the foreground replays queries against the incumbent — the main
# producer/consumer handoff the unit tests only exercise briefly.
if [[ "${MODE}" == thread ]]; then
  cmake --build "${BUILD_DIR}" -j "$(nproc)" --target bench_adaptation
  (cd "${SOAK_DIR}" && "${BIN}/bench/bench_adaptation" --smoke)

  # Batch-queue soak: BatchPredictor flush windows fan the decoder GEMMs out
  # on the ThreadPool (WorkloadModel::PredictBatch -> per-unit lanes writing
  # disjoint batch_scratch rows). Repeating the suite keeps those lanes hot
  # long enough for TSan to interleave them meaningfully.
  "${BUILD_DIR}/tests/batch_predictor_test" --gtest_repeat=5

  # Fleet soak: real threads hammering the one-mutex BufferPool
  # (ConcurrentFetchesKeepInvariants) and the multi-threaded fleet replay
  # (ParallelFleetCompletesEveryThread) — the pool mutex, the striped
  # OS-cache channel locks, the IoScheduler bookkeeping lock and the atomic
  # readahead kill switch all under TSan. Repeats keep the interleavings
  # varied.
  "${BUILD_DIR}/tests/bufmgr_test" \
      --gtest_filter='BufferPoolInvariantTest.*' --gtest_repeat=5
  "${BUILD_DIR}/tests/replay_test" \
      --gtest_filter='StripedReplayTest.ParallelFleetCompletesEveryThread' \
      --gtest_repeat=5

  # Hedged-read soak: the gray-failure layer under genuine concurrency — the
  # ChannelHealthTracker's lock-free summary atomics, the global hedge-budget
  # counters and the ChannelBreakerBoard mutex all cross-talk between fleet
  # threads while one channel is browned out. Repeats vary the interleavings;
  # the brownout bench smoke re-checks budget conservation under TSan timing.
  "${BUILD_DIR}/tests/channel_health_test" \
      --gtest_filter='GrayFailureEndToEndTest.HedgeSoakParallelFleet' \
      --gtest_repeat=5
  cmake --build "${BUILD_DIR}" -j "$(nproc)" --target bench_brownout
  (cd "${SOAK_DIR}" && "${BIN}/bench/bench_brownout" --smoke)
fi
