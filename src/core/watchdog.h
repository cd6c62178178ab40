// Prediction-health watchdog: per-model guardrail against silent model
// decay (healthy -> degraded -> probation).
//
// The PR 1 circuit breaker protects the system from I/O-level faults; this
// watchdog generalizes the same closed/open/half-open idea to model-quality
// faults. SeLeP and GrASP both observe that a learned prefetcher's accuracy
// degrades silently as the workload drifts away from its training
// distribution — the model keeps answering, the answers just stop being
// useful. The watchdog tracks a sliding window of the useful-prefetch ratio
// (pages consumed by the query ÷ pages the session attempted) per model:
//  - healthy: the model's predictions drive prefetch. When the mean window
//    ratio falls below `min_useful_ratio` (with at least `min_samples`
//    judged sessions), the model is demoted;
//  - degraded: queries matching this model fall back to the sequential-
//    readahead baseline (plain buffer manager + OS readahead, i.e. what the
//    paper calls DFLT) for `probation_queries` eligible queries;
//  - probation: the model's predictions are tried again on probe queries.
//    `required_probe_successes` consecutive useful probes reinstate it; one
//    useless probe demotes it again for a fresh probation period.
//
// One watchdog instance guards one model; PythiaSystem owns one per
// registered workload and exposes it as watchdog(index).
#ifndef PYTHIA_CORE_WATCHDOG_H_
#define PYTHIA_CORE_WATCHDOG_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/query_metrics.h"

namespace pythia {

enum class ModelHealth { kHealthy, kDegraded, kProbation };

// Where a demoted model sits on the graceful-degradation ladder
// (core/query_metrics.h): its queries run on the sequential-readahead
// baseline. Combined with the governor/breaker rungs via max() — one
// ladder, several sensors.
inline constexpr DegradationRung kWatchdogDegradedRung =
    DegradationRung::kReadahead;

const char* ModelHealthName(ModelHealth health);

struct WatchdogOptions {
  size_t window = 8;              // recent engaged sessions considered
  size_t min_samples = 4;         // don't demote on a near-empty window
  double min_useful_ratio = 0.25; // floor on mean consumed/attempted
  size_t min_attempted = 8;       // tiny sessions are never judged
  size_t probation_queries = 16;  // demoted this many eligible queries
  size_t required_probe_successes = 2;
};

struct WatchdogStats {
  uint64_t demotions = 0;         // healthy/probation -> degraded
  uint64_t probes = 0;            // queries allowed through while probing
  uint64_t reinstatements = 0;    // probation -> healthy
  uint64_t degraded_queries = 0;  // queries served by the baseline instead
  uint64_t sessions_judged = 0;   // ratio samples recorded
};

// Serializable snapshot of the full watchdog state machine, captured into
// checkpoint manifests (core/checkpoint.h) and restored on warm restart so
// a recovered node resumes probation/degradation exactly where the crashed
// one left off — instead of a demoted model silently coming back healthy.
struct WatchdogCheckpointState {
  uint32_t health = 0;  // ModelHealth
  std::vector<double> window;
  uint64_t probation_remaining = 0;
  uint64_t probe_successes = 0;
  uint64_t post_swap_remaining = 0;
  bool post_swap_demoted = false;
  WatchdogStats stats;
};

class PredictionWatchdog {
 public:
  explicit PredictionWatchdog(const WatchdogOptions& options =
                                  WatchdogOptions())
      : options_(options) {}

  // Called before each query that matched this model: may its predictions
  // be used? Counts probation while degraded and admits probes after it.
  bool AllowPrediction();

  // Records the outcome of a prefetch session driven by this model.
  // `attempted` = issued + already-buffered pages; `consumed` = how many of
  // those the query actually fetched.
  void Record(uint64_t attempted, uint64_t consumed);

  // Mean useful-prefetch ratio over the current window (0 when empty).
  double WindowRatio() const;

  ModelHealth health() const { return health_; }
  const WatchdogStats& stats() const { return stats_; }
  const WatchdogOptions& options() const { return options_; }

  void Reset();

  // --- Hot-swap support (core/adaptation.h) ------------------------------

  // Called when the guarded model is hot-swapped: the window and health
  // describe the *outgoing* model, so they restart clean for the incoming
  // one (cumulative stats are kept across the swap). When
  // `probation_sessions > 0`, the next that many judged sessions form a
  // post-swap probation window: a demotion inside it latches
  // post_swap_demoted(), the signal the adaptation manager rolls back on.
  void RestartForNewModel(size_t probation_sessions);

  // True when a demotion happened inside the post-swap probation window.
  // Latched until the next RestartForNewModel/Reset.
  bool post_swap_demoted() const { return post_swap_demoted_; }
  // True while the post-swap probation window is still open.
  bool post_swap_probation_active() const { return post_swap_remaining_ > 0; }

  // --- Checkpoint support (core/checkpoint.h) ----------------------------

  WatchdogCheckpointState CheckpointState() const;
  void RestoreCheckpointState(const WatchdogCheckpointState& state);

 private:
  void Demote();

  WatchdogOptions options_;
  ModelHealth health_ = ModelHealth::kHealthy;
  std::deque<double> window_;  // per-session useful ratios
  size_t probation_remaining_ = 0;
  size_t probe_successes_ = 0;
  // Post-swap probation: judged sessions left in the window, and whether a
  // demotion fired inside it (core/adaptation.h rolls back on the latter).
  size_t post_swap_remaining_ = 0;
  bool post_swap_demoted_ = false;
  WatchdogStats stats_;
};

}  // namespace pythia

#endif  // PYTHIA_CORE_WATCHDOG_H_
