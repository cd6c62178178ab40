#include "core/watchdog.h"

#include "util/metrics.h"
#include "util/trace.h"

namespace pythia {

const char* ModelHealthName(ModelHealth health) {
  switch (health) {
    case ModelHealth::kHealthy: return "healthy";
    case ModelHealth::kDegraded: return "degraded";
    case ModelHealth::kProbation: return "probation";
  }
  return "unknown";
}

bool PredictionWatchdog::AllowPrediction() {
  switch (health_) {
    case ModelHealth::kHealthy:
      return true;
    case ModelHealth::kDegraded:
      ++stats_.degraded_queries;
      if (probation_remaining_ > 0) --probation_remaining_;
      if (probation_remaining_ == 0) {
        health_ = ModelHealth::kProbation;
        probe_successes_ = 0;
      }
      // This query still runs on the baseline; the *next* one may probe.
      return false;
    case ModelHealth::kProbation:
      ++stats_.probes;
      return true;
  }
  return true;
}

void PredictionWatchdog::Record(uint64_t attempted, uint64_t consumed) {
  if (attempted < options_.min_attempted) return;
  const double ratio = SafeDiv(static_cast<double>(consumed),
                               static_cast<double>(attempted));
  ++stats_.sessions_judged;
  switch (health_) {
    case ModelHealth::kHealthy:
      window_.push_back(ratio);
      while (window_.size() > options_.window) window_.pop_front();
      if (window_.size() >= options_.min_samples &&
          WindowRatio() < options_.min_useful_ratio) {
        Demote();
      }
      break;
    case ModelHealth::kDegraded:
      // A session that was already running when the model was demoted; its
      // outcome is moot.
      break;
    case ModelHealth::kProbation:
      if (ratio < options_.min_useful_ratio) {
        Demote();
        break;
      }
      if (++probe_successes_ >= options_.required_probe_successes) {
        health_ = ModelHealth::kHealthy;
        window_.clear();
        ++stats_.reinstatements;
        PYTHIA_TRACE_INSTANT_CTX("watchdog", "reinstate", "reinstatements",
                                 stats_.reinstatements);
      }
      break;
  }
  // The post-swap probation window counts judged sessions; a Demote() above
  // saw it still open and latched post_swap_demoted_.
  if (post_swap_remaining_ > 0) --post_swap_remaining_;
}

double PredictionWatchdog::WindowRatio() const {
  if (window_.empty()) return 0.0;
  double total = 0.0;
  for (double r : window_) total += r;
  return total / static_cast<double>(window_.size());
}

void PredictionWatchdog::Demote() {
  health_ = ModelHealth::kDegraded;
  probation_remaining_ = options_.probation_queries;
  window_.clear();
  probe_successes_ = 0;
  ++stats_.demotions;
  if (post_swap_remaining_ > 0) post_swap_demoted_ = true;
  PYTHIA_TRACE_INSTANT_CTX("watchdog", "demote", "demotions",
                           stats_.demotions);
}

void PredictionWatchdog::RestartForNewModel(size_t probation_sessions) {
  health_ = ModelHealth::kHealthy;
  window_.clear();
  probation_remaining_ = 0;
  probe_successes_ = 0;
  post_swap_remaining_ = probation_sessions;
  post_swap_demoted_ = false;
}

WatchdogCheckpointState PredictionWatchdog::CheckpointState() const {
  WatchdogCheckpointState state;
  state.health = static_cast<uint32_t>(health_);
  state.window.assign(window_.begin(), window_.end());
  state.probation_remaining = probation_remaining_;
  state.probe_successes = probe_successes_;
  state.post_swap_remaining = post_swap_remaining_;
  state.post_swap_demoted = post_swap_demoted_;
  state.stats = stats_;
  return state;
}

void PredictionWatchdog::RestoreCheckpointState(
    const WatchdogCheckpointState& state) {
  health_ = static_cast<ModelHealth>(state.health);
  window_.assign(state.window.begin(), state.window.end());
  while (window_.size() > options_.window) window_.pop_front();
  probation_remaining_ = state.probation_remaining;
  probe_successes_ = state.probe_successes;
  post_swap_remaining_ = state.post_swap_remaining;
  post_swap_demoted_ = state.post_swap_demoted;
  stats_ = state.stats;
}

void PredictionWatchdog::Reset() {
  health_ = ModelHealth::kHealthy;
  window_.clear();
  probation_remaining_ = 0;
  probe_successes_ = 0;
  post_swap_remaining_ = 0;
  post_swap_demoted_ = false;
  stats_ = WatchdogStats();
}

}  // namespace pythia
