#include "core/circuit_breaker.h"

#include "util/trace.h"

namespace pythia {

namespace {

constexpr double kMaxFaultFraction = 0.25;  // (dropped + timed out) / attempted
constexpr double kMaxWasteFraction = 0.9;   // unconsumed / attempted

}  // namespace

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "unknown";
}

bool IsHealthyPrefetch(const PrefetchSessionStats& stats,
                       const PrefetchHealthPolicy& policy) {
  // Not stats.attempted(): a read that faulted was attempted too, and the
  // fault fraction below is taken over it.
  const uint64_t attempted = stats.attempted() + stats.dropped_faulty;
  if (attempted < policy.min_attempted) return true;
  const uint64_t faulted = stats.dropped_faulty + stats.timed_out;
  if (static_cast<double>(faulted) >
      kMaxFaultFraction * static_cast<double>(attempted)) {
    return false;
  }
  const uint64_t unconsumed = attempted > stats.consumed
                                  ? attempted - stats.consumed
                                  : 0;
  return static_cast<double>(unconsumed) <=
         kMaxWasteFraction * static_cast<double>(attempted);
}

bool CircuitBreaker::AllowPrefetch() {
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      ++stats_.rejected;
      if (cooldown_remaining_ > 0) --cooldown_remaining_;
      if (cooldown_remaining_ == 0) {
        state_ = BreakerState::kHalfOpen;
        probe_successes_ = 0;
      }
      // This query still runs degraded; the *next* one may probe.
      return false;
    case BreakerState::kHalfOpen:
      ++stats_.probes;
      return true;
  }
  return true;
}

void CircuitBreaker::Record(bool healthy) {
  switch (state_) {
    case BreakerState::kClosed: {
      window_.push_back(healthy);
      while (window_.size() > options_.window) window_.pop_front();
      if (window_.size() < options_.min_samples) return;
      size_t unhealthy = 0;
      for (bool h : window_) unhealthy += h ? 0 : 1;
      if (static_cast<double>(unhealthy) >=
          options_.failure_threshold * static_cast<double>(window_.size())) {
        TripOpen();
      }
      return;
    }
    case BreakerState::kOpen:
      // A session that was already running when the breaker tripped; its
      // outcome is moot.
      return;
    case BreakerState::kHalfOpen:
      if (!healthy) {
        TripOpen();
        return;
      }
      if (++probe_successes_ >= options_.required_probe_successes) {
        state_ = BreakerState::kClosed;
        window_.clear();
        ++stats_.recoveries;
        PYTHIA_TRACE_INSTANT_CTX("breaker", "recover", "recoveries",
                                 stats_.recoveries);
      }
      return;
  }
}

void CircuitBreaker::TripOpen() {
  state_ = BreakerState::kOpen;
  cooldown_remaining_ = options_.cooldown_queries;
  window_.clear();
  probe_successes_ = 0;
  ++stats_.trips;
  PYTHIA_TRACE_INSTANT_CTX("breaker", "trip", "trips", stats_.trips);
}

void CircuitBreaker::Reset() {
  state_ = BreakerState::kClosed;
  window_.clear();
  cooldown_remaining_ = 0;
  probe_successes_ = 0;
  stats_ = CircuitBreakerStats();
}

}  // namespace pythia
