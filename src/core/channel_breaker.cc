#include "core/channel_breaker.h"

#include "util/trace.h"

namespace pythia {

ChannelBreakerBoard::ChannelBreakerBoard(const ChannelBreakerOptions& options,
                                         ChannelHealthTracker* tracker)
    : options_(options),
      tracker_(tracker),
      states_(tracker == nullptr ? 0 : tracker->num_channels()) {}

bool ChannelBreakerBoard::AllowSpeculative(size_t channel) {
  if (tracker_ == nullptr || channel >= states_.size()) return true;
  // Read the tracker's published summaries before taking the board lock;
  // these are lock-free atomics, so there is no lock ordering to get wrong.
  const double score = tracker_->Score(channel);
  const bool judged = tracker_->SampleCount(channel) >= options_.min_samples &&
                      tracker_->HasReference();

  std::lock_guard<std::mutex> lock(mu_);
  ChannelSlot& slot = states_[channel];
  switch (slot.state) {
    case BreakerState::kClosed:
      if (judged && score >= options_.quarantine_score) {
        slot.state = BreakerState::kOpen;
        ++stats_.quarantines;
        ++stats_.speculative_denied;
        PYTHIA_TRACE_INSTANT_CTX("io", "brownout.quarantine", "channel",
                                 channel);
        return false;
      }
      return true;
    case BreakerState::kOpen:
      if (judged && score <= options_.close_score) {
        // Recovered enough to probe. This call itself becomes the first
        // probe — shedding it would only delay learning the channel is back.
        slot.state = BreakerState::kHalfOpen;
        slot.probes_left =
            options_.probe_budget > 0 ? options_.probe_budget - 1 : 0;
        ++stats_.probes;
        if (slot.probes_left == 0) {
          slot.state = BreakerState::kClosed;
          ++stats_.reinstatements;
        }
        return true;
      }
      ++stats_.speculative_denied;
      return false;
    case BreakerState::kHalfOpen:
      if (score >= options_.quarantine_score) {
        slot.state = BreakerState::kOpen;
        ++stats_.requarantines;
        ++stats_.speculative_denied;
        return false;
      }
      ++stats_.probes;
      if (slot.probes_left > 0) --slot.probes_left;
      if (slot.probes_left == 0) {
        slot.state = BreakerState::kClosed;
        ++stats_.reinstatements;
        PYTHIA_TRACE_INSTANT_CTX("io", "brownout.reinstate", "channel",
                                 channel);
      }
      return true;
  }
  return true;  // unreachable
}

BreakerState ChannelBreakerBoard::state(size_t channel) const {
  std::lock_guard<std::mutex> lock(mu_);
  return states_[channel].state;
}

ChannelBreakerStats ChannelBreakerBoard::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ChannelBreakerBoard::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (ChannelSlot& slot : states_) slot = ChannelSlot{};
  stats_ = ChannelBreakerStats{};
}

}  // namespace pythia
