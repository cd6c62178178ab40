// Central registry of named, thread-safe counters.
//
// Model saves, loads and retrains run on ThreadPool lanes, so the counts
// they keep cannot be plain uint64_t fields mutated wherever convenient —
// that is a data race (TSan flagged it in core/predictor.cc). The registry
// is one process-wide namespace of `Counter`s: monotonically increasing
// uint64 values behind relaxed atomics (counts must be exact, ordering does
// not matter).
//
// Handles are created on first use and never invalidated (the registry
// never removes a counter), so call sites may cache `Counter&` references
// across calls — after the first lookup, incrementing is wait-free.
// Naming convention: dotted lowercase paths, subsystem first
// ("model.loads_ok", "io.channel.0.busy_us", "recovery.quarantines").
// A count a component already keeps in its own stats struct is read there
// and is not copied into the registry: every count has one home.
#ifndef PYTHIA_UTIL_METRICS_REGISTRY_H_
#define PYTHIA_UTIL_METRICS_REGISTRY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace pythia {

class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Log2 bucket layout over uint64 samples: bucket b holds the samples whose
// bit width is b, i.e. [2^(b-1), 2^b); bucket 0 holds the value 0. 65
// buckets cover the whole uint64 range, and the relative quantile error is
// bounded by the bucket ratio (2x). ChannelHealthTracker's windowed p99
// (storage/channel_health.h) is kept in this layout.
inline constexpr size_t kLog2Buckets = 65;

// Bucket-interpolated quantile, q in [0, 1], of the `n` samples counted in
// the kLog2Buckets `buckets`: the bucket that holds the 1-based rank
// q(n-1)+1, interpolated linearly inside it. 0 when n is 0; `fallback` when
// the buckets hold fewer samples than that rank.
double Log2BucketQuantile(const uint64_t* buckets, uint64_t n, double q,
                          double fallback);

class MetricsRegistry {
 public:
  // Create-or-get. The returned reference is stable for the process
  // lifetime (node-based map, counters are never removed).
  Counter& counter(const std::string& name);

  // Process-wide registry. Tests and benches share it, which is the point:
  // one namespace, one place to look.
  static MetricsRegistry& Global();

 private:
  std::mutex mu_;  // guards map shape only, not counter values
  std::map<std::string, Counter> counters_;
};

// Process-wide counters for model-file integrity (the .pywm cache in
// core/predictor.cc), now registry-backed: the former GlobalModelIntegrity()
// singleton of plain uint64 fields raced when models were saved/loaded from
// ThreadPool lanes. Reads a consistent-enough snapshot for reporting; the
// individual counters live under "model." in the registry.
struct ModelIntegrityCounters {
  uint64_t loads_ok = 0;
  uint64_t version_mismatches = 0;   // stale format: retrain, no quarantine
  uint64_t corrupt_files = 0;        // CRC/size/parse failures on load
  uint64_t quarantined = 0;          // files renamed to .corrupt
  uint64_t retrains_after_corruption = 0;
  uint64_t atomic_saves = 0;         // temp-file + rename completions
  uint64_t failed_saves = 0;
  uint64_t lkg_snapshots = 0;        // .lkg copies written next to the cache
  uint64_t lkg_restores = 0;         // corrupt cache healed from the .lkg
};

ModelIntegrityCounters ModelIntegritySnapshot();

// Process-wide counters for checkpoint/recovery (core/checkpoint.h,
// core/recovery.h), under "recovery." in the registry. Same snapshot-struct
// pattern as ModelIntegrityCounters; a recovery's wall time is
// RecoveryReport::wall_us.
struct RecoveryCounters {
  uint64_t checkpoints_written = 0;    // manifests committed
  uint64_t checkpoint_failures = 0;    // attempts that did not commit
  uint64_t generations_discarded = 0;  // invalid manifests skipped on scan
  uint64_t quarantines = 0;            // manifests renamed to .corrupt
  uint64_t warm_cache_restores = 0;    // prediction-cache entries revived
  uint64_t warm_cache_rejected = 0;    // entries dropped (revision mismatch)
  uint64_t models_from_primary = 0;    // recovered straight from .pywm
  uint64_t models_from_lkg = 0;        // healed from the .lkg sidecar
  uint64_t models_retrained = 0;       // transparent retrain fallback
  uint64_t tmp_files_removed = 0;      // stray .tmp residue swept on start
};

RecoveryCounters RecoveryCountersSnapshot();

}  // namespace pythia

#endif  // PYTHIA_UTIL_METRICS_REGISTRY_H_
