#include "util/metrics_registry.h"

namespace pythia {

double Log2BucketQuantile(const uint64_t* buckets, uint64_t n, double q,
                          double fallback) {
  if (n == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the requested quantile (1-based), then walk buckets until the
  // cumulative count covers it and interpolate linearly inside the bucket.
  const double rank = q * static_cast<double>(n - 1) + 1.0;
  uint64_t seen = 0;
  for (size_t b = 0; b < kLog2Buckets; ++b) {
    const uint64_t in_bucket = buckets[b];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) < rank) {
      seen += in_bucket;
      continue;
    }
    const double lo = b == 0 ? 0.0 : static_cast<double>(1ull << (b - 1));
    const double hi = b == 0 ? 0.0 : lo * 2.0 - 1.0;
    const double frac =
        (rank - static_cast<double>(seen)) / static_cast<double>(in_bucket);
    return lo + (hi - lo) * frac;
  }
  return fallback;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_[name];
}

MetricsRegistry& MetricsRegistry::Global() {
  // Never destroyed: ThreadPool::Global()'s lanes are never joined and may
  // still be running tasks that bump counters at exit, so tearing the
  // registry down would race them.
  // The union keeps the registry in static storage and skips its destructor.
  static union Holder {
    Holder() : registry() {}
    ~Holder() {}
    MetricsRegistry registry;
  } holder;
  return holder.registry;
}

ModelIntegrityCounters ModelIntegritySnapshot() {
  MetricsRegistry& reg = MetricsRegistry::Global();
  ModelIntegrityCounters c;
  c.loads_ok = reg.counter("model.loads_ok").value();
  c.version_mismatches = reg.counter("model.version_mismatches").value();
  c.corrupt_files = reg.counter("model.corrupt_files").value();
  c.quarantined = reg.counter("model.quarantined").value();
  c.retrains_after_corruption =
      reg.counter("model.retrains_after_corruption").value();
  c.atomic_saves = reg.counter("model.atomic_saves").value();
  c.failed_saves = reg.counter("model.failed_saves").value();
  c.lkg_snapshots = reg.counter("model.lkg_snapshots").value();
  c.lkg_restores = reg.counter("model.lkg_restores").value();
  return c;
}

RecoveryCounters RecoveryCountersSnapshot() {
  MetricsRegistry& reg = MetricsRegistry::Global();
  RecoveryCounters c;
  c.checkpoints_written = reg.counter("recovery.checkpoints_written").value();
  c.checkpoint_failures = reg.counter("recovery.checkpoint_failures").value();
  c.generations_discarded =
      reg.counter("recovery.generations_discarded").value();
  c.quarantines = reg.counter("recovery.quarantines").value();
  c.warm_cache_restores = reg.counter("recovery.warm_cache_restores").value();
  c.warm_cache_rejected = reg.counter("recovery.warm_cache_rejected").value();
  c.models_from_primary = reg.counter("recovery.models_from_primary").value();
  c.models_from_lkg = reg.counter("recovery.models_from_lkg").value();
  c.models_retrained = reg.counter("recovery.models_retrained").value();
  c.tmp_files_removed = reg.counter("recovery.tmp_files_removed").value();
  return c;
}

}  // namespace pythia
