// Circuit breaker guarding the prefetch path (closed -> open -> half-open).
//
// A prefetcher that pollutes the cache or blocks the foreground path is
// worse than no prefetcher at all, so the system tracks the health of
// recent prefetch sessions and degrades the query stream to the plain
// buffer manager (RunMode::kDefault) when they go bad:
//  - closed: prefetching allowed; per-session health outcomes are recorded
//    in a sliding window. When the unhealthy fraction over the window
//    crosses `failure_threshold` (with at least `min_samples` recorded),
//    the breaker trips open.
//  - open: prefetching disabled for `cooldown_queries` prefetch-eligible
//    queries, then the breaker moves to half-open.
//  - half-open: a limited number of probe queries prefetch again;
//    `required_probe_successes` consecutive healthy probes close the
//    breaker, a single unhealthy probe re-opens it.
#ifndef PYTHIA_CORE_CIRCUIT_BREAKER_H_
#define PYTHIA_CORE_CIRCUIT_BREAKER_H_

#include <cstddef>
#include <cstdint>
#include <deque>

#include "core/prefetcher.h"
#include "core/query_metrics.h"

namespace pythia {

enum class BreakerState { kClosed, kOpen, kHalfOpen };

// Where an open breaker sits on the graceful-degradation ladder
// (core/query_metrics.h): no learned prefetch, sequential scans keep OS
// readahead. The overload governor combines this rung with its own via
// max(), so the breaker is one input to a single ladder rather than an
// independent on/off switch.
inline constexpr DegradationRung kBreakerDegradedRung =
    DegradationRung::kReadahead;

const char* BreakerStateName(BreakerState state);

struct CircuitBreakerOptions {
  size_t window = 8;             // recent sessions considered
  size_t min_samples = 4;        // don't trip on a near-empty window
  double failure_threshold = 0.5;
  size_t cooldown_queries = 4;   // open this long before probing
  size_t required_probe_successes = 2;
};

struct CircuitBreakerStats {
  uint64_t trips = 0;            // closed/half-open -> open transitions
  uint64_t probes = 0;           // queries allowed through while half-open
  uint64_t rejected = 0;         // queries degraded to default while open
  uint64_t recoveries = 0;       // half-open -> closed transitions
};

// Per-session health verdict: a session is unhealthy when faults/timeouts
// ate more than a quarter of it ((dropped + timed out) / attempted > 0.25)
// or almost nothing it prefetched was consumed (unconsumed / attempted >
// 0.9).
struct PrefetchHealthPolicy {
  size_t min_attempted = 8;  // tiny sessions are never judged
};

bool IsHealthyPrefetch(const PrefetchSessionStats& stats,
                       const PrefetchHealthPolicy& policy);

class CircuitBreaker {
 public:
  explicit CircuitBreaker(const CircuitBreakerOptions& options =
                              CircuitBreakerOptions())
      : options_(options) {}

  // Called before each prefetch-eligible query: may the prefetcher engage?
  // Counts cooldown while open and admits probes while half-open.
  bool AllowPrefetch();

  // Records the health outcome of a prefetch session that ran.
  void Record(bool healthy);

  BreakerState state() const { return state_; }
  const CircuitBreakerStats& stats() const { return stats_; }

  void Reset();

 private:
  void TripOpen();

  CircuitBreakerOptions options_;
  BreakerState state_ = BreakerState::kClosed;
  std::deque<bool> window_;      // true = healthy
  size_t cooldown_remaining_ = 0;
  size_t probe_successes_ = 0;
  CircuitBreakerStats stats_;
};

}  // namespace pythia

#endif  // PYTHIA_CORE_CIRCUIT_BREAKER_H_
