// Per-query outcome types shared by the single-query and concurrent replay
// paths.
//
// QueryRunMetrics used to live in core/system.h, which replay.h could not
// include (system.h includes replay.h). The overload-protection work needs
// ReplayConcurrent to report a full QueryRunMetrics per batch query — which
// rung of the degradation ladder served it, whether its deadline fired,
// what its prefetch session did — so the type moved below both.
#ifndef PYTHIA_CORE_QUERY_METRICS_H_
#define PYTHIA_CORE_QUERY_METRICS_H_

#include <cstddef>

#include "bufmgr/buffer_pool.h"
#include "core/prefetcher.h"
#include "storage/sim_clock.h"
#include "util/metrics.h"
#include "util/status.h"

namespace pythia {

// The graceful-degradation ladder, ordered from full service to full
// shutdown of speculative work. Larger value = more degraded; combining
// independent guardrails (load governor, circuit breaker, prediction
// watchdog) is a max() over their rungs.
//  - kFullNeural:  model prediction + async prefetch (normal operation);
//  - kCachedOnly:  only memoized predictions are used — a plan-cache miss
//                  runs no transformer forwards and prefetches nothing, so
//                  inference cost is shed but hot plans keep their benefit;
//  - kReadahead:   no learned prefetch at all; sequential scans still get
//                  OS readahead (the paper's DFLT behaviour);
//  - kNoPrefetch:  all speculative I/O is off, including OS readahead —
//                  strictly demand reads, the last resort under saturation.
enum class DegradationRung {
  kFullNeural = 0,
  kCachedOnly = 1,
  kReadahead = 2,
  kNoPrefetch = 3,
};

inline constexpr int kNumDegradationRungs = 4;

const char* DegradationRungName(DegradationRung rung);

inline DegradationRung MaxRung(DegradationRung a, DegradationRung b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

struct QueryRunMetrics {
  // Non-OK when the replay aborted on an unrecoverable read error, or when
  // admission control rejected the query outright (kResourceExhausted; such
  // a query never ran and all its other fields are zero).
  Status status;
  SimTime elapsed_us = 0;
  uint64_t completed_accesses = 0;  // page requests served before it ended
  bool engaged = false;          // Pythia matched a workload and prefetched
  // The rung of the degradation ladder that actually served this query.
  DegradationRung rung = DegradationRung::kFullNeural;
  // The circuit breaker was open: the query ran without learned prefetch
  // even though a prefetching mode was requested.
  bool degraded_by_breaker = false;
  // The matched model's watchdog had demoted it: the query ran on the
  // sequential-readahead baseline (no learned prefetch) instead.
  bool degraded_by_watchdog = false;
  // The overload governor forced a lower rung, denied prefetch pins, or
  // shed this query's speculative pages for a higher-priority session.
  bool degraded_by_governor = false;
  // The per-query deadline budget expired mid-run: the prefetch session was
  // stopped (pins released) and the query finished on demand reads.
  bool deadline_exceeded = false;
  // Virtual time spent queued by admission control before starting.
  SimTime queue_wait_us = 0;
  PrecisionRecall accuracy;      // prediction vs restricted ground truth
  size_t predicted_pages = 0;
  BufferPoolStats pool_stats;
  PrefetchSessionStats prefetch_stats;
};

}  // namespace pythia

#endif  // PYTHIA_CORE_QUERY_METRICS_H_
