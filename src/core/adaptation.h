// Online adaptation: closes the drift loop the prediction watchdog can only
// open. The watchdog (core/watchdog.h) detects a drifted model and demotes
// it; without retraining the system is then stuck on the degraded rungs of
// the ladder for as long as the shifted workload lasts. The hardware Pythia
// prefetcher keeps its predictor useful under changing access patterns by
// learning online; this manager is the systems-level analogue for the
// paper's query-level predictor:
//
//   1. Sliding window: every RunMode::kPythia query that matched a model is
//      captured (serialized plan tokens + recorded page-access trace, i.e.
//      the same inputs core/trace_processor derives training labels from).
//   2. Background training lane: when the window holds enough fresh
//      captures AND the recent useful-prefetch ratio looks unhealthy, the
//      live model is cloned and the clone incrementally retrained on the
//      window's training slice on a ThreadPool background task — off the
//      query hot path. Training cost is charged to a *virtual* lane clock
//      (per sample-epoch), so the moment a candidate becomes installable is
//      a deterministic function of the observed query stream, not of host
//      scheduling: same-seed reruns swap at identical virtual times.
//   3. Shadow validation: the candidate replays the held-out (newest) slice
//      of the window in a private SimEnvironment — never touching live
//      sessions — and must beat speedup and useful-ratio gates against both
//      the no-prefetch baseline and the incumbent model.
//   4. Hot swap: a passing candidate is installed atomically via
//      PythiaSystem::SwapModel; the model-revision bump invalidates every
//      memoized plan of the outgoing model, whose weights are kept as the
//      last-known-good snapshot.
//   5. Probation + rollback: the entry's watchdog restarts with a post-swap
//      probation window; a re-demotion inside it rolls the snapshot back
//      automatically (PythiaSystem::RollbackModel) and the manager enters a
//      cooldown before it may retrain again.
#ifndef PYTHIA_CORE_ADAPTATION_H_
#define PYTHIA_CORE_ADAPTATION_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "core/prefetcher.h"
#include "core/query_metrics.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace pythia {

class PythiaSystem;

struct AdaptationOptions {
  // Sliding window of recent captured traces per model entry.
  size_t window_capacity = 64;
  // Fresh captures (since the last trigger/cooldown) required to consider a
  // retrain.
  size_t retrain_after = 16;
  // Newest slice of the window held out for shadow validation; the rest is
  // the training slice.
  double holdout_fraction = 0.25;
  size_t min_holdout = 4;
  // Retrain trigger gate: mean useful-prefetch ratio over the newest
  // `trigger_window` captures must be below `trigger_useful_ratio` (the
  // stream looks unhealthy). Set the ratio >= 1.0 to retrain on volume
  // alone (tests do).
  size_t trigger_window = 8;
  double trigger_useful_ratio = 0.35;

  // Incremental-training knobs for the candidate (epochs, lr, optimizer
  // reset policy; the per-round shuffle seed is derived from train.seed and
  // the round counter).
  IncrementalTrainOptions train;

  // Shadow-validation gates: candidate speedup over the no-prefetch
  // baseline, candidate speedup relative to the incumbent's (a factor:
  // 1.0 = at least as good), and the candidate's useful-prefetch ratio on
  // the holdout replays.
  double min_speedup_vs_default = 1.05;
  double min_speedup_vs_incumbent = 1.0;
  double min_useful_ratio = 0.2;

  // Virtual cost charged to the background lane per training sample per
  // epoch. The candidate becomes installable once the lane clock (which
  // advances by each observed query's virtual elapsed time) passes
  // trigger_time + cost — the deterministic stand-in for "training takes a
  // while off the hot path".
  SimTime train_cost_per_sample_us = 50;

  // Judged sessions in the watchdog's post-swap probation window.
  size_t probation_sessions = 12;
  // Captures to sit out after a rollback or a failed validation before the
  // next retrain may trigger.
  size_t cooldown_captures = 16;
};

enum class AdaptationPhase { kIdle, kTraining, kProbation, kCooldown };

struct AdaptationStats {
  uint64_t captured = 0;            // traces added to sliding windows
  uint64_t retrains_started = 0;
  uint64_t retrains_completed = 0;
  uint64_t validations_passed = 0;
  uint64_t validations_failed = 0;  // candidate rejected, incumbent kept
  uint64_t swaps = 0;               // candidates installed
  uint64_t commits = 0;             // swaps that survived probation
  uint64_t rollbacks = 0;           // post-swap demotions rolled back
};

// Timeline entry for benches/tests: what happened on the (virtual) lane
// clock and at which model revision. Deterministic across same-seed runs.
struct AdaptationEvent {
  enum class Kind { kRetrainStart, kSwap, kReject, kCommit, kRollback };
  Kind kind = Kind::kRetrainStart;
  size_t entry = 0;
  SimTime lane_us = 0;
  uint64_t revision = 0;  // installed/restored revision; 0 when n/a
};

const char* AdaptationEventName(AdaptationEvent::Kind kind);

// Per-entry summary of the adaptation state machine, captured into
// checkpoint manifests. Summaries only: the window's raw traces are not
// persisted (they are large and re-accrue within one window's worth of
// queries), but the phase, cooldown and round counters are — so a node
// that crashed mid-cooldown does not come back eagerly retraining, and its
// retrain cadence survives the restart.
struct AdaptationCheckpointSummary {
  uint32_t phase = 0;  // AdaptationPhase; kTraining collapses to kIdle
  uint64_t cooldown_remaining = 0;
  uint64_t rounds = 0;
};

class AdaptationManager {
 public:
  // `system` must outlive the manager (PythiaSystem owns its manager, so
  // this holds by construction there).
  AdaptationManager(PythiaSystem* system, const AdaptationOptions& options);
  // Joins any in-flight background training before destruction.
  ~AdaptationManager();

  AdaptationManager(const AdaptationManager&) = delete;
  AdaptationManager& operator=(const AdaptationManager&) = delete;

  // Called by PythiaSystem::RunQuery for every kPythia query that matched
  // model entry `entry` (after the watchdog judged the session). Captures
  // the trace, advances the lane clock, and drives the per-entry state
  // machine (trigger -> train -> validate -> swap -> probation -> commit or
  // rollback). Runs on the query thread; all heavy work it kicks off runs
  // on the background lane.
  void ObserveQuery(size_t entry, const WorkloadQuery& query,
                    const QueryRunMetrics& metrics);

  const AdaptationOptions& options() const { return options_; }
  const AdaptationStats& stats() const { return stats_; }
  const std::vector<AdaptationEvent>& events() const { return events_; }
  AdaptationPhase phase(size_t entry) const;

  // --- Checkpoint support (core/checkpoint.h, core/recovery.h) -----------

  AdaptationCheckpointSummary CheckpointSummary(size_t entry);
  // Restores phase/cooldown/round counters. A checkpoint taken mid-training
  // restores as kIdle (the in-flight candidate died with the process) and
  // the capture window restarts empty — traces are not persisted.
  void RestoreCheckpointSummary(size_t entry,
                                const AdaptationCheckpointSummary& summary);

 private:
  struct Capture {
    std::vector<std::string> tokens;
    QueryTrace trace;
    std::string structure_key;
    double useful_ratio = 0.0;  // consumed / attempted of the live session
  };

  struct EntryState {
    std::deque<Capture> window;
    size_t fresh = 0;  // captures since the last trigger/cooldown reset
    AdaptationPhase phase = AdaptationPhase::kIdle;
    size_t cooldown_remaining = 0;
    uint64_t rounds = 0;

    // In-flight candidate: the background task trains `candidate` on
    // `train_set`; neither is touched by the main thread until the task is
    // joined in FinishTraining.
    std::unique_ptr<WorkloadModel> candidate;
    std::vector<Capture> train_set;
    std::vector<Capture> holdout;
    ThreadPool::BackgroundTask task;
    SimTime ready_at = 0;  // lane time the candidate becomes installable
  };

  EntryState& State(size_t entry);
  void MaybeTrigger(size_t entry, EntryState* st);
  void FinishTraining(size_t entry, EntryState* st);
  // Shadow replay of st->holdout in a private environment; true when the
  // candidate clears every gate.
  bool ShadowValidate(size_t entry, EntryState* st);
  void EnterCooldown(EntryState* st);
  void PushEvent(AdaptationEvent::Kind kind, size_t entry, uint64_t revision);

  PythiaSystem* system_;
  AdaptationOptions options_;
  AdaptationStats stats_;
  SimTime lane_now_ = 0;
  std::vector<std::unique_ptr<EntryState>> entries_;
  std::vector<AdaptationEvent> events_;
};

}  // namespace pythia

#endif  // PYTHIA_CORE_ADAPTATION_H_
