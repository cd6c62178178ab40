// Central registry of named, thread-safe metrics.
//
// PR 2 fanned prediction and training out on the shared ThreadPool, which
// made the old pattern — plain uint64_t fields in ad-hoc structs, mutated
// wherever convenient — a data race (TSan flags the model save/load/retrain
// counters in core/predictor.cc). This registry replaces those scattered
// structs with one process-wide namespace of metrics behind atomic handles:
//
//  - Counter    monotonically increasing uint64 (relaxed atomics — counts
//               must be exact, ordering does not matter);
//  - Gauge      a settable int64 level (outstanding prefetches, cache fill);
//  - Histogram  log2-bucketed latency/size distribution: 65 power-of-two
//               buckets cover the full uint64 range, so recording is one
//               bit-width computation plus one atomic increment, and the
//               p50/p90/p99 estimates are bucket-interpolated.
//
// Handles are created on first use and never invalidated (the registry
// never removes a metric), so call sites may cache `Counter&` references
// across calls — after the first lookup, incrementing is wait-free.
// Naming convention: dotted lowercase paths, subsystem first
// ("model.loads_ok", "io.channel.0.busy_us", "recovery.quarantines").
// A count a component already keeps in its own stats struct is read there
// and is not copied into the registry: every count has one home.
#ifndef PYTHIA_UTIL_METRICS_REGISTRY_H_
#define PYTHIA_UTIL_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pythia {

class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Log-scale histogram over uint64 samples. Bucket b holds samples whose
// bit width is b, i.e. [2^(b-1), 2^b); bucket 0 holds the value 0. The
// relative quantile error is bounded by the bucket ratio (2x), which is
// plenty for "did the p99 move an order of magnitude" questions.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  void Record(uint64_t sample);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  double Mean() const;
  // Bucket-interpolated quantile estimate, q in [0, 1]. 0 when empty.
  double Quantile(double q) const;

  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

// Bucket-interpolated quantile, q in [0, 1], of the `n` samples counted in
// `buckets`, laid out as Histogram's kBuckets log2 buckets: the bucket that
// holds the 1-based rank q(n-1)+1, interpolated linearly inside it. 0 when
// n is 0; `fallback` when the buckets hold fewer samples than that rank.
double Log2BucketQuantile(const uint64_t* buckets, uint64_t n, double q,
                          double fallback);

// Point-in-time view of every registered metric, for reporting and JSON
// export. Field order is the registry's map order (lexicographic by name),
// so two snapshots of identical state serialize identically.
struct MetricsSnapshot {
  struct HistogramRow {
    std::string name;
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
  };
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramRow> histograms;
};

class MetricsRegistry {
 public:
  // Create-or-get. The returned reference is stable for the process
  // lifetime (node-based map, metrics are never removed).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  // Zeroes every metric (handles stay valid). Benches use this between
  // experiment arms; production code never calls it.
  void ResetAll();

  // Process-wide registry. Tests and benches share it, which is the point:
  // one namespace to dump, one place to look.
  static MetricsRegistry& Global();

 private:
  mutable std::mutex mu_;  // guards map shape only, not metric values
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
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
