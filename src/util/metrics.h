// Set-based prediction metrics (precision / recall / F1) and simple summary
// statistics used across the evaluation harness.
//
// The paper measures F1 between the set of pages Pythia predicts for a query
// and the ground-truth set of non-sequential page accesses (Section 5.1,
// "Performance Metrics").
#ifndef PYTHIA_UTIL_METRICS_H_
#define PYTHIA_UTIL_METRICS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

namespace pythia {

// Division that never produces NaN/inf from an empty denominator: a ratio
// over zero samples is reported as 0, not propagated as a poison value into
// downstream aggregation.
inline double SafeDiv(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

// Counters for the plan-fingerprint prediction memoization cache
// (core/prediction_cache.h). An eviction is counted when an insert pushes
// out the least recently used entry, not when Clear() drops everything.
struct PredictionCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  // Single-flight dedupe inside one batch window: a join is a request that
  // found its fingerprint already in flight (so it never ran a forward
  // pass); a fanout is one joined follower receiving the leader's published
  // result.
  uint64_t dedup_joins = 0;
  uint64_t fanouts = 0;
  // In-flight registrations dropped without publishing: shed windows and
  // shutdown teardown (BatchPredictor aborts its pending leaders in its
  // destructor so a mid-flush teardown never leaks inflight slots).
  uint64_t inflight_aborts = 0;
};

struct PrecisionRecall {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  size_t true_positives = 0;
  size_t predicted = 0;
  size_t actual = 0;
};

// Computes precision/recall/F1 between a predicted and a ground-truth set.
// Both precision and recall of an empty-vs-empty comparison are defined as 1
// (a model that correctly predicts "no non-sequential reads" is perfect).
template <typename T>
PrecisionRecall ComputeSetMetrics(const std::unordered_set<T>& predicted,
                                  const std::unordered_set<T>& actual) {
  PrecisionRecall m;
  m.predicted = predicted.size();
  m.actual = actual.size();
  if (predicted.empty() && actual.empty()) {
    m.precision = m.recall = m.f1 = 1.0;
    return m;
  }
  // Iterate over the smaller set for the intersection.
  const auto& small = predicted.size() <= actual.size() ? predicted : actual;
  const auto& large = predicted.size() <= actual.size() ? actual : predicted;
  for (const T& x : small) {
    if (large.count(x)) ++m.true_positives;
  }
  m.precision = SafeDiv(static_cast<double>(m.true_positives),
                        static_cast<double>(m.predicted));
  m.recall = SafeDiv(static_cast<double>(m.true_positives),
                     static_cast<double>(m.actual));
  m.f1 = SafeDiv(2.0 * m.precision * m.recall, m.precision + m.recall);
  return m;
}

// Jaccard similarity |A ∩ B| / |A ∪ B| between two sets; 1 for two empty
// sets. Used both by the NN baseline and the similarity-bucket experiments
// (Figures 7/8).
template <typename T>
double JaccardSimilarity(const std::unordered_set<T>& a,
                         const std::unordered_set<T>& b) {
  if (a.empty() && b.empty()) return 1.0;
  const auto& small = a.size() <= b.size() ? a : b;
  const auto& large = a.size() <= b.size() ? b : a;
  size_t inter = 0;
  for (const T& x : small) {
    if (large.count(x)) ++inter;
  }
  size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / uni;
}

// Summary statistics over a sample. Median/quantiles use linear
// interpolation between closest ranks.
struct Summary {
  double mean = 0.0;
  double median = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
  double min = 0.0;
  double max = 0.0;
  size_t n = 0;
};

// `sorted` must already be in ascending order; taking it by const reference
// matters — Summarize calls this four times per sample, and the old
// by-value signature copied the entire vector each time.
inline double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  double pos = q * (sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - lo;
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

inline Summary Summarize(std::vector<double> xs) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  double total = 0.0;
  for (double x : xs) total += x;
  s.mean = total / xs.size();
  s.median = Quantile(xs, 0.5);
  s.p25 = Quantile(xs, 0.25);
  s.p75 = Quantile(xs, 0.75);
  s.min = xs.front();
  s.max = xs.back();
  return s;
}

}  // namespace pythia

#endif  // PYTHIA_UTIL_METRICS_H_
